"""Machine layer tests: registry lifecycle, sample series invariants, window
refusals, and cluster file parsing; the window queries themselves are
checked through the query service against ``oracles.reference_answer``."""

from functools import partial

import pytest

from conftest import GiB, make_machine
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


def oversized_partitions() -> MachineDescriptor:
    return MachineDescriptor(
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


@pytest.mark.parametrize("build, message", [
    (partial(make_machine, "m1", cpus=0), "m1: capacity values must be strictly positive"),
    *[
        (partial(make_machine, machine_id),
         f"machine id must be one line without tabs: {machine_id!r}")
        for machine_id in ["m\t1", "m\n1", "m\r1", "m1\n", ""]
    ],
    (oversized_partitions, "m1: partitions total 11811160064 exceeds disk capacity 10737418240"),
    (partial(HardwareSpec, "x86_64", "sim", 0, ()), "memory_clock_mhz must be positive, got 0"),
    (partial(HardwareSpec, "x86_64", "sim", 2666, (("root", 0), ("scratch", -1))),
     "partition 'scratch' has negative size"),
])
def test_descriptor_refuses(build, message):
    with pytest.raises(MachineError) as err:
        build()
    assert str(err.value) == message


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


@pytest.mark.parametrize("refused, message", [
    # sample times strictly increase
    (sample("m1", 100), "m1: sample time 100 not after 100"),
    (sample("m1", 50), "m1: sample time 50 not after 100"),
    (sample("m1", 101, cpus=-1.0), "m1: negative usage at t=101"),
    (sample("m1", 101, cpus=5.0), "m1: usage exceeds capacity at t=101"),
])
def test_record_sample_refuses(refused, message):
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1", cpus=4))
    registry.record_sample(sample("m1", 100))
    with pytest.raises(InvalidSampleError) as err:
        registry.record_sample(refused)
    assert str(err.value) == message
    # the refused sample is not kept; the next instant, at full capacity, is taken
    registry.record_sample(sample("m1", 101, cpus=4.0))
    assert registry.query_series("m1", 0, 200) == [sample("m1", 100), sample("m1", 101, cpus=4.0)]


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


MACHINE_LINE = "machine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock=1\n"


# (text, line, message); a refusal with no line is a whole-file MachineError
@pytest.mark.parametrize("text, line, message", [
    (MACHINE_LINE + MACHINE_LINE + "fs total=1\n", 2, "line 2: duplicate machine id 'm1'"),
    *[
        (f"fs total=1\nmachine m1 type=vm {values} arch=a model=b clock=1\n", 2,
         "line 2: m1: capacity values must be strictly positive")
        for values in ["cpus=0 mem=1 disk=1", "cpus=1 mem=0 disk=1", "cpus=1 mem=1 disk=0"]
    ],
    ("fs total=1\nmachine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock=0\n", 2,
     "line 2: memory_clock_mhz must be positive, got 0"),
    (MACHINE_LINE.replace("type=vm", "type=toaster") + "fs total=1\n", 1,
     "line 1: unknown machine type 'toaster'"),
    (MACHINE_LINE, None, "missing 'fs total=' line"),
    ("# none yet\nfs total=1\n", None, "no machines"),
    ("rack r1\n", 1, "line 1: unknown directive 'rack'"),
])
def test_parse_cluster_refuses(text, line, message):
    with pytest.raises(MachineError) as err:
        parse_cluster(text)
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line
    assert isinstance(err.value, ClusterSyntaxError) == (line is not None)
