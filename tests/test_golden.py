"""Golden digests: the event log, the trace and the CLI's other run artifacts
of the bundled scenarios are pinned, so any engine change that alters them
fails here even when it alters them the same way on every run.  A change
that means to alter the bytes is a behaviour change and must update these
digests and say so.  Every pinned input also runs against the plain
reference run of ``oracles.reference_run``, which must give the same bytes."""

import hashlib

import pytest

from conftest import run_simulation
from oracles import assert_equals_reference, machine_samples, reference_run
from stratus.blueprint import TopologyMode
from stratus.cli import _write_run_outputs
from stratus.fixtures import fixture_path
from stratus.machine import parse_cluster
from stratus.sim import (
    EXIT_MACHINE_KILL,
    EXIT_OOM,
    EXIT_TASK_ERROR,
    FaultInjection,
    InjectionKind,
    ScenarioSpec,
    load_scenario,
    parse_event_log,
    parse_file,
    scenario_simulation,
)
from stratus.workflow import parse_workflow

# sha256 of (event_log_text(), trace_text()) with run_id="golden" and
# submission_ms=0
GOLDEN = {
    "faults": (
        "a9416942fcef0f52b161a5f4def14aa7249ba8dcceded1f128f04162802952c4",
        "0495a52bbf0eb8847aa6ad8b6ab181429b0ba6d0cd5c62e0c2644a0477cc2559",
    ),
    "fig1": (
        "3bb98f59b947bbda6911c2a8ce21004349499ca71bbf2c8a62cec85b51ead698",
        "79cb95af6d81948c55eded62b528b2caa896fc784e1f64b7564361b53d9f7c2a",
    ),
    "fig1-256-disjoint": (
        "625839b044f757ff619b78db562e30af29ecac11dc90b40c46981d251ee03616",
        "c6e03aef08eca715cfc976641ac561f1d6a7f2782dd9c31f8cd6a883b03298c5",
    ),
    "fig1x32": (
        "3d3c1171ac18146476d14a7c85b71f93ecdd6ded454f6ea11ad9e1a5703bd459",
        "5743ff664dcdffc9af3eadc4537852c38bf4045d61ed668552273e5d604071a1",
    ),
}


def _digests(scenario: ScenarioSpec) -> tuple[str, str]:
    simulation = scenario_simulation(scenario, run_id="golden", submission_ms=0)
    return _result_digests(simulation.run_to_completion())


def _result_digests(result) -> tuple[str, str]:
    return (
        hashlib.sha256(result.event_log_text().encode()).hexdigest(),
        hashlib.sha256(result.trace_text().encode()).hexdigest(),
    )


def _wide(topology: TopologyMode) -> ScenarioSpec:
    return ScenarioSpec(
        workflow_path=fixture_path("fig1.wf"),
        cluster_path=fixture_path("four.cluster"),
        input_count=256,
        seed=42,
        topology=topology,
        injections=(),
    )


SCENARIOS = {
    "fig1": lambda: load_scenario(fixture_path("fig1.scenario")),
    "fig1x32": lambda: load_scenario(fixture_path("fig1x32.scenario")),
    "faults": lambda: load_scenario(fixture_path("faults.scenario")),
    "fig1-256-workflow-aware": lambda: _wide(TopologyMode.WORKFLOW_AWARE),
    "fig1-256-disjoint": lambda: _wide(TopologyMode.DISJOINT),
}


# Inputs whose digests perfbench/engine.py pins as (workload, seed, input
# count) in PINNED_DIGESTS, read from there.  "engine-wide-faults" is the
# benchmark's seeded 48-definition wide DAG at seed 42 and 24 inputs (945
# instances, disjoint topology, submit_task path, an OOM and a non-zero exit
# that poison their descendants, and a machine that fails mid-run): the only
# disjoint run with all three fault kinds pinned at full size.
BENCHMARK_PINNED = {
    "fig1-256-workflow-aware": ("engine-fig1", 42, 256),
    "engine-wide-faults": ("engine-wide-faults", 42, 24),
}


def _golden(name, perfbench) -> tuple[str, str]:
    if name in BENCHMARK_PINNED:
        return perfbench("engine").PINNED_DIGESTS[BENCHMARK_PINNED[name]]
    return GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifact_bytes_match_golden_digests(name, perfbench):
    assert _digests(SCENARIOS[name]()) == _golden(name, perfbench)


def _wide_faults(perfbench):
    """The wide-faults input as (fs_total, expected final state, case), the
    case being ``reference_run``'s arguments."""
    # the benchmark's own input generator
    inputs = perfbench("inputs").wide_inputs(42, 24)
    spec = parse_workflow(inputs.workflow_text, default_workflow_id=inputs.workflow_name)
    machines, fs_total = parse_cluster(inputs.cluster_text)
    faults = [FaultInjection(InjectionKind(f.kind), f.target, f.at_ms) for f in inputs.faults]
    topology = TopologyMode.from_wire(inputs.topology)
    case = (spec, machines, inputs.input_count, inputs.seed, topology, faults)
    return fs_total, inputs.expected_final, case


def _scenario_case(name):
    """A pinned scenario as (fs_total, case), the case being
    ``reference_run``'s arguments."""
    scenario = SCENARIOS[name]()
    path = scenario.workflow_path
    spec = parse_file(parse_workflow, path, default_workflow_id=path.stem)
    machines, fs_total = parse_file(parse_cluster, scenario.cluster_path)
    case = (spec, machines, scenario.input_count, scenario.seed, scenario.topology,
            list(scenario.injections))
    return fs_total, case


def _golden_run(fs_total, case):
    spec, machines, input_count, seed, topology, injections = case
    return run_simulation(
        spec, machines, fs_total, input_count, seed, topology, injections,
        run_id="golden", submission_ms=0,
    )


def test_wide_faults_workload_matches_golden_digests(perfbench):
    fs_total, expected_final, case = _wide_faults(perfbench)
    result = _golden_run(fs_total, case)
    assert len(result.run.instances) == 945
    assert result.run.final_state.value == expected_final
    exits = {r.exit_code for r in result.trace_records}
    assert exits == {0, EXIT_OOM, EXIT_TASK_ERROR, EXIT_MACHINE_KILL}
    assert _result_digests(result) == _golden("engine-wide-faults", perfbench)


@pytest.mark.parametrize("name", [*sorted(SCENARIOS), "engine-wide-faults"])
def test_every_pinned_input_equals_the_reference_run(name, perfbench):
    if name == "engine-wide-faults":
        fs_total, _, case = _wide_faults(perfbench)
    else:
        fs_total, case = _scenario_case(name)
    assert_equals_reference(_golden_run(fs_total, case), [], reference_run(*case))


# sha256 of the CLI's other run artifacts, written by _write_run_outputs for
# the bundled scenarios with run_id="golden" and submission_ms=0
CLI_ARTIFACTS = ("run.json", "machines.json", "report.json")
CLI_GOLDEN = {
    "faults": {
        "run.json": "974db16cd004cf1d37396d4e932221d7c820ac97cbbdd7ab83d0caacfff7823c",
        "machines.json": "896fbd981d5bf99f2138b80ea8dfba6c1d4cbec8cabf83777ee65ce50111b919",
        "report.json": "268cdce9295385acb8ff8aebe12bc14408acdb0428365fa7db2be45b3d5bc74c",
    },
    "fig1": {
        "run.json": "1cb78587f3878b5422d9381d3ce1442dd68bebef81a59a87a85d435f57766435",
        "machines.json": "0e6cb8b23bd2a953471bffc0acb6e930e73b6ae597e7ed58b05d31de3e2df904",
        "report.json": "2cae2dcc80b5b537584d67cced6c55d60701020c489da3b7d975d955bd5a4c1c",
    },
    "fig1x32": {
        "run.json": "acc6a8b993475c59d0db4256000705c3128f450a620b9dea03a7c1c64de6c018",
        "machines.json": "e3bca39be06ac334ae9d199d429c120e4a5334125b6b1a65c96c9e31adec8036",
        "report.json": "ff3b3cb035c315235a4d632967b6dcd4ece0908090cda1c1a572190252719c88",
    },
}


@pytest.mark.parametrize("name", sorted(CLI_GOLDEN))
def test_cli_artifact_bytes_match_golden_digests(name, tmp_path):
    simulation = scenario_simulation(SCENARIOS[name](), run_id="golden", submission_ms=0)
    result = simulation.run_to_completion()
    _write_run_outputs(result, tmp_path)
    digests = {
        artifact: hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        for artifact in CLI_ARTIFACTS
    }
    assert digests == CLI_GOLDEN[name]


# sha256 of (samples.tsv, logs.tsv) as _write_run_outputs wrote them for the
# bundled scenarios with run_id="golden" and submission_ms=0, before the run
# directory dropped them: both are views of the event log, rebuilt from it
# below
DROPPED_VIEW_GOLDEN = {
    "faults": (
        "90e85b5d57973f76d0e7f3d63fd27555cfcac694feb146693c4a5f36d238b997",
        "62ada6b0cb3640a251e1df39b4bfb553f57d5b3f84ee27c55dfb3d60bd30a634",
    ),
    "fig1": (
        "d329bcf428ed8df5dd76a56bd9c9524acee631cd9e73988193f576bcf06f4fe0",
        "8920e38687ba739faee746ced37ad8499c0970c40beca35664e406410fc45898",
    ),
    "fig1x32": (
        "9b03eae69798ff9f71a19a2f8d9caceb40227c042ab6dfe490def713a42dcdc5",
        "6dff0d60a0de67179a796eab37c7eb25485f89209837ee9d82fa2419b8d7d2fd",
    ),
}


def _samples_view(events) -> str:
    """The header ``t_ms machine cpu_cores memory_bytes disk_bytes``, then
    one line of those values per ``machine_sample`` event, tab-separated."""
    lines = ["t_ms\tmachine\tcpu_cores\tmemory_bytes\tdisk_bytes"]
    for s in machine_samples(events):
        used = s.used
        lines.append("\t".join(map(str, (
            s.t_ms, s.machine_id, used.cpu_cores, used.memory_bytes, used.disk_bytes
        ))))
    return "\n".join(lines) + "\n"


_INSTANCE_KINDS = ("instance_started", "instance_succeeded", "instance_failed")


def _log_line(event) -> tuple[str, str]:
    """An instance event's application-log line as (level, message)."""
    if event.kind == "instance_started":
        return "Info", f"started on {event.detail.removeprefix('machine=')}"
    if event.kind == "instance_succeeded":
        return "Info", "finished exit=0"
    # exit=<e> verdict=<verdict> machine=<machine>
    exit_code, verdict = event.detail.split(" ")[:2]
    return "Error", f"failed {exit_code} ({verdict.removeprefix('verdict=')})"


def _logs_view(events) -> str:
    """Each task's application log, grouped by task id in sorted order, one
    tab-separated ``t level task_id message`` line per entry: ``Info``
    ``started on <machine>`` at its start, then ``Info`` ``finished exit=0``
    or ``Error`` ``failed exit=<e> (<verdict>)`` at its end."""
    lines = []
    # sorted is stable: a task's start line stays before its end line
    for e in sorted((e for e in events if e.kind in _INSTANCE_KINDS), key=lambda e: e.subject):
        level, message = _log_line(e)
        lines.append(f"{e.t_ms}\t{level}\t{e.subject}\t{message}\n")
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(DROPPED_VIEW_GOLDEN))
def test_the_dropped_views_rebuild_from_the_event_log(name, tmp_path):
    """No fact went with samples.tsv and logs.tsv: both rebuild, byte for
    byte, from the events.log that _write_run_outputs writes."""
    simulation = scenario_simulation(SCENARIOS[name](), run_id="golden", submission_ms=0)
    _write_run_outputs(simulation.run_to_completion(), tmp_path)
    events = parse_event_log((tmp_path / "events.log").read_text(encoding="utf-8"))
    digests = tuple(
        hashlib.sha256(view(events).encode()).hexdigest() for view in (_samples_view, _logs_view)
    )
    assert digests == DROPPED_VIEW_GOLDEN[name]
