"""Machine layer tests: registry lifecycle, sample series invariants, window
queries against a linear-scan oracle, and cluster file parsing."""

import random

import pytest

from conftest import make_machine
from stratus.fixtures import fixture_text
from stratus.machine import (
    ClusterSyntaxError,
    DuplicateMachineIdError,
    HardwareSpec,
    InvalidSampleError,
    InvalidWindowError,
    MachineDescriptor,
    MachineError,
    MachineRegistry,
    MachineSample,
    MachineStatus,
    MachineType,
    ResourceVector,
    UnknownMachineError,
    parse_cluster,
)

GiB = 1024**3


def sample(machine_id, t_ms, cpus=1.0, mem=GiB, disk=0) -> MachineSample:
    return MachineSample(
        machine_id=machine_id,
        t_ms=t_ms,
        used=ResourceVector(cpu_cores=cpus, memory_bytes=mem, disk_bytes=disk),
    )


# --- vectors and descriptors ---


def test_vector_arithmetic_and_fit():
    a = ResourceVector(2, 10, 5)
    b = ResourceVector(1, 4, 5)
    assert a.plus(b) == ResourceVector(3, 14, 10)
    assert a.minus(b) == ResourceVector(1, 6, 0)
    assert b.fits_within(a)
    assert not a.fits_within(b)
    assert a.fits_within(a)


def test_descriptor_rejects_nonpositive_capacity():
    with pytest.raises(MachineError):
        make_machine("m1", cpus=0)


def test_descriptor_rejects_oversized_partitions():
    with pytest.raises(MachineError):
        MachineDescriptor(
            machine_id="m1",
            machine_type=MachineType.VIRTUAL_MACHINE,
            hardware=HardwareSpec(
                cpu_architecture="x86_64",
                cpu_model="sim",
                memory_clock_mhz=2666,
                disk_partitions=(("a", 6 * GiB), ("b", 5 * GiB)),
            ),
            capacity=ResourceVector(1, GiB, 10 * GiB),
        )


def test_hardware_rejects_bad_clock():
    with pytest.raises(MachineError):
        HardwareSpec("x86_64", "sim", 0, ())


# --- registry lifecycle ---


def test_register_and_list_sorted():
    registry = MachineRegistry()
    for machine_id in ("m2", "m10", "m1"):
        registry.register_machine(make_machine(machine_id))
    assert registry.machine_ids() == ["m1", "m10", "m2"]
    assert registry.descriptor("m2").capacity.cpu_cores == 8


def test_machine_id_never_reusable():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    with pytest.raises(DuplicateMachineIdError):
        registry.register_machine(make_machine("m1"))
    registry.deregister_machine("m1")
    assert registry.machine_ids() == []
    with pytest.raises(DuplicateMachineIdError):
        registry.register_machine(make_machine("m1"))


def test_deregister_unknown():
    with pytest.raises(UnknownMachineError):
        MachineRegistry().deregister_machine("ghost")


def test_status_transitions_and_counts():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    registry.register_machine(make_machine("m2"))
    assert registry.descriptor("m1").status is MachineStatus.HEALTHY
    registry.set_status("m1", MachineStatus.UNHEALTHY)
    assert registry.descriptor("m1").status is MachineStatus.UNHEALTHY
    counts = registry.status_counts()
    assert counts[MachineStatus.HEALTHY] == 1
    assert counts[MachineStatus.UNHEALTHY] == 1
    assert counts[MachineStatus.MAINTENANCE] == 0


# --- sample ingest invariants ---


def test_sample_times_strictly_increase():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    registry.record_sample(sample("m1", 100))
    with pytest.raises(InvalidSampleError):
        registry.record_sample(sample("m1", 100))
    with pytest.raises(InvalidSampleError):
        registry.record_sample(sample("m1", 50))
    registry.record_sample(sample("m1", 101))


def test_sample_rejects_negative_and_overflow_usage():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1", cpus=4))
    with pytest.raises(InvalidSampleError):
        registry.record_sample(sample("m1", 0, cpus=-1.0))
    with pytest.raises(InvalidSampleError):
        registry.record_sample(sample("m1", 0, cpus=5.0))
    registry.record_sample(sample("m1", 0, cpus=4.0))


def test_sample_for_unknown_machine():
    with pytest.raises(UnknownMachineError):
        MachineRegistry().record_sample(sample("ghost", 0))


# --- window queries against a linear scan oracle ---


def test_query_series_matches_linear_scan():
    rng = random.Random(53)
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1", cpus=8))
    recorded = []
    t = 0
    for _ in range(400):
        t += rng.randint(1, 20)
        s = sample("m1", t, cpus=rng.uniform(0, 8), mem=rng.randint(0, GiB))
        registry.record_sample(s)
        recorded.append(s)
    for _ in range(300):
        lo = rng.randint(-50, t + 50)
        hi = lo + rng.randint(0, 400)
        expected = [s for s in recorded if lo <= s.t_ms <= hi]
        assert registry.query_series("m1", lo, hi) == expected
        expected_latest = None
        for s in recorded:
            if s.t_ms <= hi:
                expected_latest = s
        assert registry.latest_sample("m1", hi) == expected_latest


def test_query_series_rejects_inverted_window():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    with pytest.raises(InvalidWindowError):
        registry.query_series("m1", 10, 9)


def test_available_resources_tracks_latest_sample():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1", cpus=8, mem=16 * GiB))
    full = registry.available_resources("m1", 0)
    assert full.cpu_cores == 8
    registry.record_sample(sample("m1", 100, cpus=3.0, mem=4 * GiB))
    registry.record_sample(sample("m1", 200, cpus=5.0, mem=8 * GiB))
    at_150 = registry.available_resources("m1", 150)
    assert (at_150.cpu_cores, at_150.memory_bytes) == (5.0, 12 * GiB)
    at_200 = registry.available_resources("m1", 200)
    assert (at_200.cpu_cores, at_200.memory_bytes) == (3.0, 8 * GiB)
    assert registry.used_resources("m1", 50) == ResourceVector(0, 0, 0)
    assert registry.used_resources("m1", 999).cpu_cores == 5.0


# --- cluster parsing ---


def test_parse_bundled_clusters():
    machines, fs_total = parse_cluster(fixture_text("two.cluster"))
    assert [m.machine_id for m in machines] == ["m1", "m2"]
    assert machines[0].machine_type is MachineType.BARE_METAL
    assert machines[1].machine_type is MachineType.VIRTUAL_MACHINE
    assert machines[0].capacity == ResourceVector(8, 16 * GiB, 100 * GiB)
    assert machines[0].hardware.cpu_model == "EPYC-7302"
    assert machines[1].hardware.memory_clock_mhz == 2666
    assert fs_total == 1024**4

    machines, fs_total = parse_cluster(fixture_text("four.cluster"))
    assert len(machines) == 4
    assert fs_total == 2 * 1024**4


def test_parse_cluster_rejects_duplicate_id():
    line = "machine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock=1\n"
    with pytest.raises(ClusterSyntaxError) as err:
        parse_cluster(line + line + "fs total=1\n")
    assert err.value.line == 2


@pytest.mark.parametrize(
    "values",
    [
        "cpus=0 mem=1 disk=1 arch=a model=b clock=1",
        "cpus=1 mem=0 disk=1 arch=a model=b clock=1",
        "cpus=1 mem=1 disk=0 arch=a model=b clock=1",
        "cpus=1 mem=1 disk=1 arch=a model=b clock=0",
    ],
)
def test_parse_cluster_rejects_out_of_range_value_on_its_line(values):
    with pytest.raises(ClusterSyntaxError) as err:
        parse_cluster(f"fs total=1\nmachine m1 type=vm {values}\n")
    assert err.value.line == 2


def test_parse_cluster_rejects_bad_type():
    bad = "machine m1 type=toaster cpus=1 mem=1 disk=1 arch=a model=b clock=1\nfs total=1\n"
    with pytest.raises(ClusterSyntaxError):
        parse_cluster(bad)


def test_parse_cluster_requires_fs_line():
    good = "machine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock=1\n"
    with pytest.raises(MachineError):
        parse_cluster(good)


def test_parse_cluster_rejects_unknown_directive():
    with pytest.raises(ClusterSyntaxError) as err:
        parse_cluster("rack r1\n")
    assert err.value.line == 1
