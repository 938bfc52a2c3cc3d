"""Engine workloads: set up and run whole simulations, render their
artifacts, and check every run's outputs.

A run is timed from run_to_completion() through rendering event_log_text()
and trace_text(); set-up (parse workflow and cluster, construct the
Simulation, inject faults) is timed on its own.  Both are timed with a
Speedometer (see speed.py).  Checks run outside both.
"""

import contextlib
import gc
import hashlib

from stratus import machine as st_machine
from stratus import sim as st_sim
from stratus import workflow as st_workflow
from stratus.blueprint import TopologyMode
from stratus.service import replay_progress
from stratus.taskmon import format_trace_file, parse_trace

import layers
from speed import Speedometer

RUN_ID = "perfbench"
SETUP_REPEATS = 25

# sha256 of (event_log_text, trace_text) at the default seed and full size,
# as produced by the engine this benchmark was written against.  A change
# that alters these bytes changes behaviour and must say so.
PINNED_DIGESTS = {
    ("engine-fig1", 42, 256): (
        "c0f576157f07a992ad9eaa953e49e8e1497e078018413752ad0d3c9e995ec40a",
        "c6e03aef08eca715cfc976641ac561f1d6a7f2782dd9c31f8cd6a883b03298c5",
    ),
    ("engine-wide-faults", 42, 24): (
        "891043239c7f3a38b958da032f6d904f6fd536487ea95418378cc96332ffcc38",
        "f3eda548719a03eb46d6c7169ee47e7154dbe076fba4dce17128b28961ae0427",
    ),
}


def setup(inputs):
    """Parse the inputs and construct a ready-to-run Simulation."""
    spec = st_workflow.parse_workflow(inputs.workflow_text, default_workflow_id=inputs.workflow_name)
    machines, fs_total = st_machine.parse_cluster(inputs.cluster_text)
    simulation = st_sim.Simulation(
        spec,
        machines,
        fs_total,
        inputs.input_count,
        inputs.seed,
        TopologyMode.from_wire(inputs.topology),
        run_id=RUN_ID,
        submission_ms=0,
    )
    for fault in inputs.faults:
        simulation.inject(
            st_sim.FaultInjection(st_sim.InjectionKind(fault.kind), fault.target, fault.at_ms)
        )
    return simulation


def timed_setup(inputs):
    """Returns (simulation, speedometer)."""
    with Speedometer() as speed:
        simulation = setup(inputs)
    return simulation, speed


def timed_run(simulation):
    """Run to completion and render both artifacts; returns (result,
    event_log, trace, speedometer)."""
    gc.collect()
    with Speedometer() as speed:
        result = simulation.run_to_completion()
        event_log = result.event_log_text()
        trace = result.trace_text()
    return result, event_log, trace, speed


def digests(event_log: str, trace: str) -> tuple[str, str]:
    return (
        hashlib.sha256(event_log.encode()).hexdigest(),
        hashlib.sha256(trace.encode()).hexdigest(),
    )


def check_run(inputs, result, event_log, trace, tracer=None) -> list[str]:
    """Invariants every engine run must hold, at any seed.  Returns the list
    of violations (empty when the run is correct)."""
    problems = []
    with tracer.span("taskmon.trace_parse") if tracer else contextlib.nullcontext():
        parsed = parse_trace(trace)
    if parsed != result.trace_records or format_trace_file(parsed) != trace:
        problems.append("trace file does not round-trip through parse_trace")
    if replay_progress(result.event_records) != result.progress_records:
        problems.append("replay_progress(event log) differs from the live progress records")
    open_instances = [
        i.task_id
        for i in result.run.instances
        if not i.state.terminal and i.task_id not in result.never_eligible
    ]
    if open_instances:
        problems.append(f"{len(open_instances)} instances neither terminal nor never-eligible")
    if result.run.final_state.value != inputs.expected_final:
        problems.append(
            f"final state {result.run.final_state.value}, expected {inputs.expected_final}"
        )
    expected_exit = {"TaskOOM": st_sim.EXIT_OOM, "TaskNonZeroExit": st_sim.EXIT_TASK_ERROR}
    exits = {r.task_id: r.exit_code for r in result.trace_records}
    for fault in inputs.faults:
        want = expected_exit.get(fault.kind)
        got = exits.get(fault.target)
        # a target that never started (poisoned upstream) cannot fire; one
        # killed by the machine failure first reports exit 143
        if want is not None and got not in (None, want, st_sim.EXIT_MACHINE_KILL):
            problems.append(f"{fault.kind} target {fault.target} exited {got}, expected {want}")
    if event_log.count("\n") != len(result.event_records):
        problems.append("event log line count differs from the event records")
    return problems


class EngineLoop:
    """Shared state of one engine workload run: the first run's digests
    (every later run must reproduce them) and the count of failed checks."""

    def __init__(self, workload: str, inputs):
        self.workload = workload
        self.inputs = inputs
        self.first_digests = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one(self, tracer=None):
        """Set up, run and check once; traced when a tracer is given.
        Returns (setup speedometer, run speedometer, result), all None when
        the run raised."""
        self.attempted += 1
        if tracer is not None:
            layers.install(tracer)
        try:
            simulation, setup_speed = timed_setup(self.inputs)
            result, event_log, trace, run_speed = timed_run(simulation)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            self.failed += 1
            self.problems.append(f"run raised {type(exc).__name__}: {exc}")
            return None, None, None
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems = check_run(self.inputs, result, event_log, trace, tracer)
        found = digests(event_log, trace)
        if self.first_digests is None:
            self.first_digests = found
        elif found != self.first_digests:
            problems.append("artifacts differ from the first run of the same inputs")
        pinned = PINNED_DIGESTS.get((self.workload, self.inputs.seed, self.inputs.input_count))
        if pinned is not None and found != pinned:
            problems.append(
                f"digests {found[0][:12]}/{found[1][:12]} differ from the pinned "
                f"{pinned[0][:12]}/{pinned[1][:12]}"
            )
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return setup_speed, run_speed, result
