"""Resource manager tests: topology guards, FIFO first-fit against a brute
force oracle, reservation safety under random load, and status reports."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GiB, make_machine, make_request, random_cluster
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


def test_task_ids_unique_across_lifecycle():
    rm = make_rm()
    rm.enqueue(*entry("t1"))
    with pytest.raises(DuplicateEntryError):
        rm.enqueue(*entry("t1"))
    rm.schedule(0)
    with pytest.raises(DuplicateEntryError):
        rm.enqueue(*entry("t1"))
    rm.release("t1")
    with pytest.raises(DuplicateEntryError):
        rm.enqueue(*entry("t1"))


def test_release_requires_running_task():
    rm = make_rm()
    with pytest.raises(UnknownEntryError):
        rm.release("ghost")
    rm.enqueue(*entry("t1"))
    with pytest.raises(UnknownEntryError):
        rm.release("t1")


# --- first-fit behavior ---


def test_first_fit_prefers_lowest_machine_id():
    machines = [make_machine("m1", cpus=4), make_machine("m2", cpus=4)]
    rm = make_rm(machines)
    rm.enqueue(*entry("t1", cpus=2))
    rm.enqueue(*entry("t2", cpus=2))
    rm.enqueue(*entry("t3", cpus=2))
    assert rm.schedule(0) == [("t1", "m1"), ("t2", "m1"), ("t3", "m2")]


def test_first_fit_skips_unhealthy_machines():
    machines = [make_machine("m1"), make_machine("m2")]
    rm = make_rm(machines)
    rm.registry.set_status("m1", MachineStatus.UNHEALTHY)
    rm.enqueue(*entry("t1"))
    assert rm.schedule(0) == [("t1", "m2")]
    rm.registry.set_status("m2", MachineStatus.MAINTENANCE)
    rm.enqueue(*entry("t2"))
    assert rm.schedule(0) == []
    assert rm.queue_depth() == 1


def test_blocked_head_does_not_starve_smaller_entries():
    rm = make_rm([make_machine("m1", cpus=4)])
    rm.enqueue(*entry("big", cpus=8))
    rm.enqueue(*entry("small", cpus=1))
    assert rm.schedule(0) == [("small", "m1")]
    assert rm.queue_depth() == 1


def test_fifo_order_when_everything_fits():
    rm = make_rm([make_machine("m1", cpus=8)])
    for i in range(4):
        rm.enqueue(*entry(f"t{i}", cpus=1))
    assert [task for task, _ in rm.schedule(0)] == ["t0", "t1", "t2", "t3"]


def test_release_makes_room_again():
    rm = make_rm([make_machine("m1", cpus=2)])
    rm.enqueue(*entry("t1", cpus=2))
    assert rm.schedule(0) == [("t1", "m1")]
    rm.enqueue(*entry("t2", cpus=2))
    assert rm.schedule(1) == []
    rm.release("t1")
    assert rm.schedule(2) == [("t2", "m1")]


def test_assignment_and_running_on_views():
    machines = [make_machine("m1", cpus=2), make_machine("m2", cpus=8)]
    rm = make_rm(machines)
    rm.enqueue(*entry("t1", cpus=2))
    rm.enqueue(*entry("t2", cpus=4))
    rm.schedule(0)
    assert rm.running_on("m1") == ["t1"]
    assert rm.running_on("m2") == ["t2"]
    assert rm.running_on("ghost") == []


# --- oracle comparison and capacity safety ---


def test_schedule_matches_oracle_on_random_load():
    rng = random.Random(271)
    for round_number in range(200):
        machines = random_cluster(rng, max_machines=4)
        driver = FirstFitDriver(make_rm(machines), machines)
        for machine in machines:
            if rng.random() < 0.2:
                driver.set_status(machine.machine_id, MachineStatus.UNHEALTHY)
        for i in range(rng.randint(0, 12)):
            driver.enqueue(*entry(
                f"t{round_number}_{i}",
                cpus=rng.randint(1, 6),
                mem=rng.randint(1, 8) * GiB,
                disk=rng.randint(0, 4) * GiB,
            ))
        driver.schedule(0)


def test_reservations_never_exceed_capacity_under_churn():
    rng = random.Random(733)
    machines = [make_machine("m1", cpus=4, mem=8 * GiB), make_machine("m2", cpus=2, mem=4 * GiB)]
    driver = FirstFitDriver(make_rm(machines), machines)
    for next_id in range(600):
        if rng.random() < 0.6:
            driver.enqueue(*entry(f"t{next_id}", cpus=rng.randint(1, 3), mem=rng.randint(1, 3) * GiB))
        driver.schedule(0)
        if driver.running and rng.random() < 0.5:
            driver.release(rng.choice(list(driver.running)), wchar_bytes=rng.randint(0, 10**6))


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
