"""Resource manager tests: topology guards, first fit against a brute force
oracle over hand-picked scripts and random passes, and status reports."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GiB, make_machine, make_request
from oracles import FirstFitDriver
from stratus.blueprint import TopologyMode
from stratus.machine import MachineRegistry, MachineStatus
from stratus.resman import (
    DuplicateEntryError,
    ResmanError,
    ResourceManager,
    UnknownEntryError,
    WrongTopologyError,
)
from stratus.workflow import RunRecord


def make_rm(machines=None, topology=TopologyMode.DISJOINT, fs_total=1024**4):
    registry = MachineRegistry()
    for descriptor in machines or [make_machine("m1")]:
        registry.register_machine(descriptor)
    return ResourceManager(topology, registry, fs_total)


def entry(task_id, cpus=1, mem=GiB, disk=0):
    """The (task_id, requested) arguments of enqueue and submit_task."""
    return task_id, make_request(cpus=cpus, mem=mem, disk=disk)


# --- topology guards ---


def test_workflow_submission_needs_workflow_aware_mode():
    rm = make_rm(topology=TopologyMode.DISJOINT)
    run = RunRecord(run_id="r", workflow_id="w", submission_ms=0, instances=[])
    with pytest.raises(WrongTopologyError):
        rm.submit_workflow(run)


def test_task_submission_needs_disjoint_mode():
    rm = make_rm(topology=TopologyMode.WORKFLOW_AWARE)
    with pytest.raises(WrongTopologyError):
        rm.submit_task(*entry("t1"))


def test_running_workflows_hidden_in_disjoint_mode():
    aware = make_rm(topology=TopologyMode.WORKFLOW_AWARE)
    run = RunRecord(run_id="r", workflow_id="w", submission_ms=0, instances=[])
    assert aware.submit_workflow(run) == "r"
    assert aware.running_workflows() == [("r", "w", "running")]
    assert make_rm(topology=TopologyMode.DISJOINT).running_workflows() == []


# --- queue semantics ---


def test_release_requires_running_task():
    rm = make_rm()
    with pytest.raises(UnknownEntryError):
        rm.release("ghost")
    rm.enqueue(*entry("t1"))
    with pytest.raises(UnknownEntryError):
        rm.release("t1")


# --- first fit, driven beside the oracle ---

# (machines as (id, cores[, memory, disk]), a script, then running_on at the
# end, an unknown machine included, and the ids still queued); a script step
# enqueues (id, cores[, memory, disk]), runs a pass at t that must assign what
# it names, releases an id, sets a machine's status, or enqueues an id that
# must be refused as a duplicate
@pytest.mark.parametrize("machines, script, running_on, queued", [
    pytest.param(
        [("m1", 8)],
        [("enqueue", "t1", 1), ("refuse", "t1"), ("pass", 0, [("t1", "m1")]), ("refuse", "t1"),
         ("release", "t1"), ("refuse", "t1")],
        {"m1": []}, [], id="an id is refused while queued, running or finished",
    ),
    pytest.param(
        [("m1", 4), ("m2", 4)],
        [("enqueue", "t1", 2), ("enqueue", "t2", 2), ("enqueue", "t3", 2),
         ("pass", 0, [("t1", "m1"), ("t2", "m1"), ("t3", "m2")])],
        {"m1": ["t1", "t2"], "m2": ["t3"]}, [], id="lowest machine id first",
    ),
    pytest.param(
        [("m1", 8), ("m2", 8)],
        [("status", "m1", MachineStatus.UNHEALTHY), ("enqueue", "t1", 1), ("pass", 0, [("t1", "m2")]),
         ("status", "m2", MachineStatus.MAINTENANCE), ("enqueue", "t2", 1), ("pass", 0, [])],
        {"m1": [], "m2": ["t1"]}, ["t2"], id="healthy machines only",
    ),
    pytest.param(
        [("m1", 4)],
        [("enqueue", "big", 8), ("enqueue", "small", 1), ("pass", 0, [("small", "m1")])],
        {"m1": ["small"]}, ["big"], id="a blocked head starves nothing behind it",
    ),
    pytest.param(
        [("m1", 8)],
        [*(("enqueue", f"t{i}", 1) for i in range(4)),
         ("pass", 0, [("t0", "m1"), ("t1", "m1"), ("t2", "m1"), ("t3", "m1")])],
        {"m1": ["t0", "t1", "t2", "t3"]}, [], id="fifo when everything fits",
    ),
    pytest.param(
        [("m1", 2)],
        [("enqueue", "t1", 2), ("pass", 0, [("t1", "m1")]), ("enqueue", "t2", 2), ("pass", 1, []),
         ("release", "t1"), ("pass", 2, [("t2", "m1")])],
        {"m1": ["t2"]}, [], id="a release makes room again",
    ),
    pytest.param(
        [("m1", 2), ("m2", 8)],
        [("enqueue", "t1", 2), ("enqueue", "t2", 4), ("pass", 0, [("t1", "m1"), ("t2", "m2")])],
        {"m1": ["t1"], "m2": ["t2"], "ghost": []}, [], id="running_on each machine",
    ),
    pytest.param(
        [("m1", 8, 16 * GiB, GiB), ("m2", 8, GiB), ("m3", 8)],
        [("enqueue", "t1", 1, 2 * GiB, 2 * GiB), ("pass", 0, [("t1", "m3")])],
        {"m1": [], "m2": [], "m3": ["t1"]}, [], id="room on every dimension",
    ),
])
def test_first_fit_script(machines, script, running_on, queued):
    descriptors = [make_machine(*machine) for machine in machines]
    driver = FirstFitDriver(make_rm(descriptors), descriptors)
    for step, *args in script:
        if step == "enqueue":
            driver.enqueue(*entry(*args))
        elif step == "pass":
            t, assigned = args
            assert driver.schedule(t) == assigned
        elif step == "release":
            driver.release(*args)
        elif step == "status":
            driver.set_status(*args)
        else:
            with pytest.raises(DuplicateEntryError):
                driver.rm.enqueue(*entry(*args))
    assert {machine_id: driver.rm.running_on(machine_id) for machine_id in running_on} == running_on
    assert [task_id for task_id, _ in driver.queue] == queued


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_segmented_queue_matches_oracle_across_passes(data):
    """Several passes over one resource manager, with releases, machine
    status changes (unhealthy, maintenance, healthy) and new machines in
    between, against the brute-force first fit.  Requests come from a pool
    of 2-3 shapes, so equal requests form queue segments and a request that
    fits nowhere is skipped for the rest of its pass; two shapes may share a
    vector and differ only in timeout.  New machine ids sort before or after
    the existing ones, so first-fit order changes between passes."""
    machines = [
        make_machine(
            f"m{i + 1}", cpus=data.draw(st.integers(1, 8)), mem=data.draw(st.integers(1, 8)) * GiB
        )
        for i in range(data.draw(st.integers(1, 4)))
    ]
    driver = FirstFitDriver(make_rm(machines), machines)
    shapes = data.draw(st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4), st.sampled_from((600_000, 900_000))),
        min_size=2, max_size=3,
    ))
    next_id = itertools.count()
    for t in range(data.draw(st.integers(1, 8))):
        for cpus, mem, timeout in data.draw(st.lists(st.sampled_from(shapes), max_size=10)):
            request = make_request(cpus=cpus, mem=mem * GiB, disk=0, timeout=timeout)
            driver.enqueue(f"t{next(next_id)}", request)
        driver.schedule(t)
        if driver.running:
            for task_id in data.draw(st.lists(st.sampled_from(sorted(driver.running)), unique=True)):
                driver.release(task_id)
        for machine_id in data.draw(st.lists(st.sampled_from(sorted(driver.status)), unique=True)):
            driver.set_status(machine_id, data.draw(st.sampled_from(list(MachineStatus))))
        if data.draw(st.booleans()):
            driver.add_machine(make_machine(
                f"{data.draw(st.sampled_from('am'))}x{t}",
                cpus=data.draw(st.integers(1, 8)), mem=data.draw(st.integers(1, 8)) * GiB,
            ))

        queued = [task_id for task_id, _ in driver.queue]
        for known in (queued, sorted(driver.running), driver.finished):
            if known:
                with pytest.raises(DuplicateEntryError):
                    driver.rm.enqueue(*entry(data.draw(st.sampled_from(known))))
        driver.check()


# --- status reports ---


def test_infrastructure_status_totals():
    machines = [make_machine("m1", cpus=4, mem=8 * GiB), make_machine("m2", cpus=4, mem=8 * GiB)]
    rm = make_rm(machines)
    rm.registry.set_status("m2", MachineStatus.MAINTENANCE)
    rm.enqueue(*entry("t1", cpus=2, mem=GiB))
    rm.enqueue(*entry("t2", cpus=16, mem=GiB))
    rm.schedule(0)
    status = rm.infrastructure_status()
    assert status.machines_total == 2
    assert status.machines_by_status[MachineStatus.HEALTHY] == 1
    assert status.machines_by_status[MachineStatus.MAINTENANCE] == 1
    assert status.capacity_total.cpu_cores == 8
    assert status.capacity_reserved.cpu_cores == 2
    assert status.queue_depth == 1
    assert status.running_tasks == 1


def test_filesystem_fills_and_saturates():
    rm = make_rm(fs_total=1000)
    status = rm.filesystem_status()
    assert (status.total_bytes, status.used_bytes, status.healthy) == (1000, 0, True)
    rm.enqueue(*entry("t1"))
    rm.schedule(0)
    rm.release("t1", wchar_bytes=600)
    status = rm.filesystem_status()
    assert (status.used_bytes, status.healthy) == (600, True)
    rm.enqueue(*entry("t2"))
    rm.schedule(1)
    rm.release("t2", wchar_bytes=900)
    status = rm.filesystem_status()
    assert (status.used_bytes, status.healthy) == (1000, False)


def test_fs_total_must_be_positive():
    registry = MachineRegistry()
    registry.register_machine(make_machine("m1"))
    with pytest.raises(ResmanError):
        ResourceManager(TopologyMode.DISJOINT, registry, 0)
