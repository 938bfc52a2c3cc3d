"""Machine layer tests: registry lifecycle, sample series invariants, window
refusals, and cluster file parsing; the window queries themselves are
checked through the query service against ``oracles.reference_answer``."""

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


@pytest.mark.parametrize("machine_id", ["m\t1", "m\n1", "m\r1", "m1\n", ""])
def test_descriptor_refuses_a_machine_id_that_is_not_one_line_without_tabs(machine_id):
    with pytest.raises(MachineError) as err:
        make_machine(machine_id)
    assert str(err.value) == f"machine id must be one line without tabs: {machine_id!r}"


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
    with pytest.raises(MachineError, match=r"^partition 'scratch' has negative size$"):
        HardwareSpec("x86_64", "sim", 2666, (("root", 0), ("scratch", -1)))


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
    registry.record_sample(sample("m1", 100))
    version = registry.version
    with pytest.raises(DuplicateMachineIdError):
        registry.register_machine(make_machine("m1", cpus=4))
    # the refused descriptor replaced nothing: ids, series and version stand
    assert registry.machine_ids() == ["m1"]
    assert registry.descriptor("m1").capacity.cpu_cores == 8
    assert registry.query_series("m1", 0, 200) == [sample("m1", 100)]
    assert registry.version == version


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


@pytest.mark.parametrize(
    "call",
    [
        lambda registry: registry.descriptor("ghost"),
        lambda registry: registry.set_status("ghost", MachineStatus.UNHEALTHY),
        lambda registry: registry.record_sample(sample("ghost", 0)),
        lambda registry: registry.query_series("ghost", 0, 10),
        lambda registry: registry.latest_sample("ghost", 10),
        lambda registry: registry.available_resources("ghost", 10),
    ],
    ids=[
        "descriptor", "set_status", "record_sample", "query_series", "latest_sample",
        "available_resources",
    ],
)
def test_every_registry_call_refuses_an_unknown_machine(call):
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    version = registry.version
    with pytest.raises(UnknownMachineError, match="^unknown machine: 'ghost'$") as raised:
        call(registry)
    assert raised.value.machine_id == "ghost"
    assert registry.version == version


# --- window queries ---


def test_query_series_rejects_inverted_window():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    with pytest.raises(InvalidWindowError):
        registry.query_series("m1", 10, 9)


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


def test_parse_cluster_requires_a_machine_line():
    with pytest.raises(MachineError, match="^no machines$") as err:
        parse_cluster("# none yet\nfs total=1\n")
    assert not isinstance(err.value, ClusterSyntaxError)


def test_parse_cluster_rejects_unknown_directive():
    with pytest.raises(ClusterSyntaxError) as err:
        parse_cluster("rack r1\n")
    assert err.value.line == 1
