"""Seeded input generation.  Every input the program sees is text (workflow
and cluster files) or a fault script made here from the benchmark seed; the
same seed always gives the same inputs.

The wide DAG has a fixed shape (levels x width, the same set of definition
shapes on every level, two edges from each definition to the next level) so
every seed gives the same amount and mix of work; the seed picks the order
of definitions and edges, the cluster's layout, and the fault targets.
"""

import random
from dataclasses import dataclass

GIB = 1024**3

WIDE_LEVELS = 4
WIDE_WIDTH = 12  # 48 definitions
WIDE_OUT_EDGES = 2
WIDE_MACHINES = 16

# base runtime of the slowest built-in model (cpu_heavy): about how long one
# level of the wide DAG takes, used only to time the machine failure
_LEVEL_MS = 5000

# the definitions of one level: (cpus, memory GiB, model, scatter)
_LEVEL_SHAPES = (
    (1, 1, "quick", True),
    (1, 2, "default", True),
    (1, 1, "io_heavy", True),
    (2, 2, "cpu_heavy", True),
    (2, 4, "quick", True),
    (2, 2, "default", True),
    (4, 4, "io_heavy", True),
    (4, 4, "cpu_heavy", False),
    (1, 2, "cpu_heavy", True),
    (2, 1, "io_heavy", True),
    (1, 4, "default", True),
    (2, 2, "quick", False),
)
# levels where one more definition runs as a single instance
_EXTRA_SINGLE_LEVELS = (2,)
# 39 of 48 definitions scatter: 39 x 24 + 9 = 945 instances at 24 inputs
WIDE_SCATTER = sum(shape[3] for shape in _LEVEL_SHAPES) * WIDE_LEVELS - len(_EXTRA_SINGLE_LEVELS)


@dataclass(frozen=True)
class Fault:
    kind: str  # an InjectionKind value
    target: str
    at_ms: int


@dataclass(frozen=True)
class EngineInputs:
    workflow_text: str
    workflow_name: str
    cluster_text: str
    input_count: int
    seed: int
    topology: str  # TopologyMode wire name
    faults: tuple[Fault, ...]
    expected_final: str  # RunState value


def fig1_inputs(fixture_text, seed: int, input_count: int) -> EngineInputs:
    return EngineInputs(
        workflow_text=fixture_text("fig1.wf"),
        workflow_name="fig1",
        cluster_text=fixture_text("four.cluster"),
        input_count=input_count,
        seed=seed,
        topology="workflow_aware",
        faults=(),
        expected_final="succeeded",
    )


def wide_inputs(seed: int, input_count: int) -> EngineInputs:
    rng = random.Random(f"perfbench-wide:{seed}")
    levels = [[f"L{lv}T{k}" for k in range(WIDE_WIDTH)] for lv in range(WIDE_LEVELS)]
    names = [n for level in levels for n in level]

    # Every level is one fixed set of definition shapes in a seeded order,
    # and each definition feeds two neighbours (in a seeded order) of the
    # next level.  Seeds differ in arrangement, not in the amount or mix of
    # work, so run time reflects the program rather than the draw.
    lines = [f"workflow wide{seed}"]
    scatter: set[str] = set()
    for lv, level in enumerate(levels):
        shapes = list(_LEVEL_SHAPES)
        if lv in _EXTRA_SINGLE_LEVELS:
            shapes[4] = shapes[4][:3] + (False,)
        rng.shuffle(shapes)
        for name, (cpus, mem_gib, model, is_scatter) in zip(level, shapes):
            if is_scatter:
                scatter.add(name)
            lines.append(
                f"task {name} scatter={'true' if is_scatter else 'false'} "
                f"cpus={cpus} mem={mem_gib * GIB} disk={mem_gib * GIB // 4} "
                f"timeout=600000 model={model}"
            )
    successors: dict[str, list[str]] = {n: [] for n in names}
    for upper, lower in zip(levels, levels[1:]):
        order = rng.sample(lower, len(lower))
        for k, name in enumerate(upper):
            for step in range(WIDE_OUT_EDGES):
                target = order[(k + step) % len(order)]
                successors[name].append(target)
                lines.append(f"edge {name} -> {target}")
    workflow_text = "\n".join(lines) + "\n"

    cluster_lines = []
    # n01 is small and first in first-fit order, so it is always busy; the
    # others give room for a whole level at once, so entries scan many
    # machines but seldom wait
    cores = [32] * (WIDE_MACHINES // 2) + [48] * (WIDE_MACHINES // 2 - 1)
    rng.shuffle(cores)
    cores.insert(0, 4)
    for index, cpus in enumerate(cores, start=1):
        kind, arch, cpu_model = rng.choice((
            ("bare_metal", "x86_64", "EPYC-7402"),
            ("vm", "aarch64", "Graviton2"),
            ("vm", "x86_64", "Xeon-6248"),
        ))
        cluster_lines.append(
            f"machine n{index:02d} type={kind} cpus={cpus} mem={cpus * 4 * GIB} "
            f"disk={200 * GIB} arch={arch} model={cpu_model} "
            f"clock={rng.choice((2400, 2666, 3200))}"
        )
    cluster_lines.append(f"fs total={2048 * GIB}")
    cluster_text = "\n".join(cluster_lines) + "\n"

    # Both task faults hit two instances of one scatter definition of the
    # level before last whose successors all scatter, so they always poison
    # the same amount of work.  n01 fails while the last level runs (levels
    # run in near lockstep, each about as long as its slowest model), so the
    # tasks it kills have nothing downstream left to poison.
    candidates = [
        n for n in levels[-2]
        if n in scatter and all(m in scatter for m in successors[n])
    ]
    faulted = rng.choice(candidates)
    oom_index, exit_index = rng.sample(range(input_count), 2)
    faults = (
        Fault("TaskOOM", f"wide{seed}/{faulted}/{oom_index}", 0),
        Fault("TaskNonZeroExit", f"wide{seed}/{faulted}/{exit_index}", 0),
        Fault("MachineUnhealthy", "n01", (WIDE_LEVELS - 1) * _LEVEL_MS + _LEVEL_MS // 2),
    )
    return EngineInputs(
        workflow_text=workflow_text,
        workflow_name=f"wide{seed}",
        cluster_text=cluster_text,
        input_count=input_count,
        seed=seed,
        topology="disjoint",
        faults=faults,
        expected_final="failed",
    )
