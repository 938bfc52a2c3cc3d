"""Shared fixtures: workflow/cluster generators, the drawn engine cases and
those of the bundled scenarios, an import reader and the acceptance-criteria
summary printed at the end of the session."""

import ast
import random
from contextlib import contextmanager
from importlib import import_module, resources
from pathlib import Path

import pytest
from hypothesis import strategies as st

from stratus.blueprint import TopologyMode, parse_capability_profile
from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import HardwareSpec, MachineDescriptor, MachineType, ResourceVector, parse_cluster
from stratus.sim import FaultInjection, InjectionKind, Simulation, load_scenario, parse_file
from stratus.workflow import ResourceRequest, TaskDefinition, WorkflowSpec, parse_workflow

GiB = 1024**3

# every capability profile bundled with the package, by lowercase name
PROFILE_NAMES = tuple(sorted(
    entry.name.removesuffix(".profile")
    for entry in resources.files("stratus.data").iterdir()
    if entry.name.endswith(".profile")
))


def load_profile(name: str):
    return parse_capability_profile(fixture_text(f"{name}.profile"), default_name=name)


def make_request(cpus=1, mem=GiB, disk=GiB // 4, timeout=600_000) -> ResourceRequest:
    return ResourceRequest(
        cpu_cores=cpus, memory_bytes=mem, disk_bytes=disk, max_runtime_ms=timeout
    )


def make_machine(machine_id, cpus=8, mem=16 * GiB, disk=100 * GiB) -> MachineDescriptor:
    return MachineDescriptor(
        machine_id=machine_id,
        machine_type=MachineType.BARE_METAL,
        hardware=HardwareSpec(
            cpu_architecture="x86_64",
            cpu_model="sim",
            memory_clock_mhz=3200,
            disk_partitions=(("root", disk),),
        ),
        capacity=ResourceVector(cpu_cores=cpus, memory_bytes=mem, disk_bytes=disk),
    )


def run_simulation(
    spec, machines, fs_total_bytes, input_count, seed,
    topology=TopologyMode.WORKFLOW_AWARE, injections=(), **kwargs,
):
    """One run to completion with its faults armed first; ``kwargs`` go to
    ``Simulation``."""
    simulation = Simulation(spec, machines, fs_total_bytes, input_count, seed, topology, **kwargs)
    for injection in injections:
        simulation.inject(injection)
    return simulation.run_to_completion()


def random_dag_spec(
    rng: random.Random,
    workflow_id: str = "rw",
    max_tasks: int = 8,
    edge_probability: float = 0.35,
    scatter_probability: float = 0.4,
    model_keys: tuple = ("quick", "default"),
) -> WorkflowSpec:
    """A random DAG: edges only go from lower to higher task index, so the
    result is acyclic by construction."""
    count = rng.randint(1, max_tasks)
    tasks = []
    for i in range(count):
        tasks.append(
            TaskDefinition(
                name=f"t{i}",
                scatter=rng.random() < scatter_probability,
                requested=make_request(
                    cpus=rng.randint(1, 3), mem=rng.randint(1, 3) * GiB
                ),
                runtime_model=rng.choice(model_keys),
            )
        )
    edges = []
    for i in range(count):
        for j in range(i + 1, count):
            if rng.random() < edge_probability:
                edges.append((f"t{i}", f"t{j}"))
    return WorkflowSpec(workflow_id=workflow_id, tasks=tuple(tasks), edges=tuple(edges))


_NAME_CHARS = "abcIVX_-.0123456789"


@st.composite
def dag_specs(draw, max_tasks: int = 10) -> WorkflowSpec:
    """A DAG spec of the shape parse_workflow accepts: unique task names,
    scatter and single definitions mixed, and edges only from an earlier
    task to a later one."""
    names = draw(
        st.lists(
            st.text(_NAME_CHARS, min_size=1, max_size=4),
            min_size=1, max_size=max_tasks, unique=True,
        )
    )
    tasks = tuple(
        TaskDefinition(name, draw(st.booleans()), make_request(), "default") for name in names
    )
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    workflow_id = draw(st.text(_NAME_CHARS, min_size=1, max_size=4))
    return WorkflowSpec(workflow_id, tasks, tuple(edges))


def random_cluster(rng: random.Random, max_machines: int = 3) -> list[MachineDescriptor]:
    count = rng.randint(1, max_machines)
    return [
        make_machine(
            f"m{i + 1}",
            cpus=rng.randint(2, 8),
            mem=rng.randint(4, 16) * GiB,
            disk=rng.randint(20, 100) * GiB,
        )
        for i in range(count)
    ]


@st.composite
def engine_cases(draw):
    """(spec, machines, input_count, seed, topology, injections): a random
    DAG (up to 12 definitions, scatter mixed), a random cluster and a random
    fault script, drawn so that every engine rule can fire.  Task faults
    aim at a pool of one or two instances, about half armed from t=0, so
    that faults stacked on one instance are common.  Disk requests
    of 0-24 GiB meet machine disks of 25-60 GiB, so disk binds; some
    timeouts cut a task short; some requests exceed every machine and some
    scripts kill every machine, so stuck runs are drawn too."""
    count = draw(st.integers(1, 12))
    # at most one definition, in about a quarter of the cases, outgrows every machine
    oversized = draw(st.integers(0, 4 * count))
    tasks = tuple(
        TaskDefinition(
            name=f"t{i}",
            scatter=draw(st.booleans()),
            requested=make_request(
                cpus=9 if i == oversized else draw(st.integers(1, 3)),
                mem=draw(st.integers(1, 3)) * GiB,
                disk=draw(st.integers(0, 24)) * GiB,
                timeout=draw(st.sampled_from((1500, 3000, 5000, 600_000))),
            ),
            runtime_model=draw(st.sampled_from(("quick", "default", "flaky", "cpu_heavy"))),
        )
        for i in range(count)
    )
    pairs = [(f"t{i}", f"t{j}") for i in range(count) for j in range(i + 1, count)]
    edges = tuple(p for p in pairs if draw(st.integers(0, 99)) < 30)
    spec = WorkflowSpec(workflow_id="pw", tasks=tasks, edges=edges)
    machines = [
        make_machine(
            f"m{i + 1}",
            cpus=draw(st.integers(2, 8)),
            mem=draw(st.integers(4, 16)) * GiB,
            disk=draw(st.integers(25, 60)) * GiB,
        )
        for i in range(draw(st.integers(1, 3)))
    ]
    input_count = draw(st.integers(1, 4))
    task_ids = [
        f"pw/{t.name}/{k}" for t in tasks for k in range(input_count if t.scatter else 1)
    ]
    targets = draw(st.lists(st.sampled_from(task_ids), min_size=1, max_size=2, unique=True))
    injections = []
    for _ in range(draw(st.integers(0, 4))):
        # one draw in four kills a machine, so most runs do not strand
        kind = draw(st.sampled_from(list(InjectionKind) + [InjectionKind.TASK_OOM]))
        if kind is InjectionKind.MACHINE_UNHEALTHY:
            target = draw(st.sampled_from([m.machine_id for m in machines]))
            at_ms = draw(st.integers(0, 20000))
        else:
            target = draw(st.sampled_from(targets))
            at_ms = draw(st.one_of(st.just(0), st.integers(0, 20000)))
        injections.append(FaultInjection(kind, target, at_ms=at_ms))
    seed = draw(st.integers(0, 2**16))
    return spec, machines, input_count, seed, draw(st.sampled_from(list(TopologyMode))), injections


def scenario_case(name, topology=None):
    """The engine case of the bundled scenario ``name``, in its own topology
    unless ``topology`` is given."""
    scenario = load_scenario(fixture_path(name))
    machines, _ = parse_file(parse_cluster, scenario.cluster_path)
    spec = parse_file(parse_workflow, scenario.workflow_path)
    return (spec, machines, scenario.input_count, scenario.seed, topology or scenario.topology,
            list(scenario.injections))


def imports_of(path) -> dict[str, set[str]]:
    """Module -> the names the source file at ``path`` imports from it; a
    plain ``import`` of a module lists ``*``."""
    imported = {}
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.setdefault(node.module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.name, {"*"}) for a in node.names)
    return imported


@pytest.fixture
def perfbench(monkeypatch):
    """``import_module`` with the benchmark's folder first on the path, so a
    test imports a benchmark module by its bare name, as its run script
    does."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    return import_module


_ACCEPTANCE_RESULTS: dict[int, tuple[str, bool]] = {}


@pytest.fixture
def acceptance():
    """Context manager that records one acceptance criterion's outcome for
    the end-of-session summary."""

    @contextmanager
    def _criterion(number: int, title: str):
        try:
            yield
        except BaseException:
            _ACCEPTANCE_RESULTS[number] = (title, False)
            raise
        _ACCEPTANCE_RESULTS[number] = (title, True)

    return _criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(_ACCEPTANCE_RESULTS):
        title, passed = _ACCEPTANCE_RESULTS[number]
        mark = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"criterion {number:2d} [{mark}] {title}")
