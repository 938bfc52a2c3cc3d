"""Golden digests: the event log and trace bytes of the bundled scenarios are
pinned, so any engine change that alters them fails here even when it alters
them the same way on every run.  A change that means to alter the bytes is a
behaviour change and must update these digests and say so."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from stratus.blueprint import TopologyMode
from stratus.fixtures import fixture_path
from stratus.machine import parse_cluster
from stratus.sim import (
    FaultInjection,
    InjectionKind,
    ScenarioSpec,
    Simulation,
    load_scenario,
    run_scenario,
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
    "fig1-256-workflow-aware": (
        "c0f576157f07a992ad9eaa953e49e8e1497e078018413752ad0d3c9e995ec40a",
        "c6e03aef08eca715cfc976641ac561f1d6a7f2782dd9c31f8cd6a883b03298c5",
    ),
    "fig1x32": (
        "3d3c1171ac18146476d14a7c85b71f93ecdd6ded454f6ea11ad9e1a5703bd459",
        "5743ff664dcdffc9af3eadc4537852c38bf4045d61ed668552273e5d604071a1",
    ),
}


def _digests(scenario: ScenarioSpec) -> tuple[str, str]:
    return _result_digests(run_scenario(scenario, run_id="golden", submission_ms=0))


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


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_artifact_bytes_match_golden_digests(name):
    assert _digests(SCENARIOS[name]()) == GOLDEN[name]


# The benchmark's seeded 48-definition wide DAG at seed 42 and 24 inputs
# (945 instances, disjoint topology, submit_task path, two task faults that
# poison their descendants and a machine that fails mid-run).  These are the
# digests perfbench/engine.py pins for ("engine-wide-faults", 42, 24).
WIDE_FAULTS_GOLDEN = (
    "891043239c7f3a38b958da032f6d904f6fd536487ea95418378cc96332ffcc38",
    "f3eda548719a03eb46d6c7169ee47e7154dbe076fba4dce17128b28961ae0427",
)


def _perfbench_inputs():
    """perfbench/inputs.py, loaded read-only by path: the benchmark's own
    input generator, so this test pins exactly the workload it times."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_wide_faults_workload_matches_golden_digests():
    inputs = _perfbench_inputs().wide_inputs(42, 24)
    spec = parse_workflow(inputs.workflow_text, default_workflow_id=inputs.workflow_name)
    machines, fs_total = parse_cluster(inputs.cluster_text)
    simulation = Simulation(
        spec, machines, fs_total, inputs.input_count, inputs.seed,
        TopologyMode.from_wire(inputs.topology), run_id="golden", submission_ms=0,
    )
    for fault in inputs.faults:
        simulation.inject(FaultInjection(InjectionKind(fault.kind), fault.target, fault.at_ms))
    result = simulation.run_to_completion()
    assert len(result.run.instances) == 945
    assert result.run.final_state.value == inputs.expected_final
    assert _result_digests(result) == WIDE_FAULTS_GOLDEN
