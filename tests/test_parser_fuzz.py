"""Fuzz of the text parsers: random character edits of the bundled workflow,
cluster and scenario files and of an engine event log.  Each parser may
raise only its own module's base error, and every error about one line
must carry that line as ``.line``."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import MachineError, parse_cluster
from stratus.sim import (
    SimulationError,
    load_scenario,
    parse_event_log,
    parse_scenario,
    run_scenario,
)
from stratus.workflow import CycleError, WorkflowError, parse_workflow

# errors about a whole file, which no single line can be blamed for
WHOLE_FILE_ERRORS = {
    "no tasks",
    "no machines",
    "missing 'fs total=' line",
    "scenario missing 'workflow' line",
    "scenario missing 'cluster' line",
}

# characters the formats give meaning to, then any character at all
_edit_char = st.one_of(st.sampled_from(list("0123456789-=>#_ \t\nIx")), st.characters())


@st.composite
def char_edits(draw, text: str) -> str:
    """text after one to eight random single-character insertions,
    deletions and replacements."""
    chars = list(text)
    for _ in range(draw(st.integers(1, 8))):
        at = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            chars.insert(at, draw(_edit_char))
        elif at < len(chars):
            if edit == "delete":
                del chars[at]
            else:
                chars[at] = draw(_edit_char)
    return "".join(chars)


def event_log_text() -> str:
    scenario = load_scenario(str(fixture_path("faults.scenario")))
    return run_scenario(scenario, run_id="r", submission_ms=0).event_log_text()


def assert_own_error_with_a_line(parse, text: str, own_error: type) -> None:
    """Parse text; any error but own_error propagates and fails the test."""
    try:
        parse(text)
    except own_error as exc:
        if isinstance(exc, CycleError) or str(exc) in WHOLE_FILE_ERRORS:
            return
        line = getattr(exc, "line", None)
        assert isinstance(line, int), f"{exc!r} carries no line"
        assert 1 <= line <= len(text.splitlines()), f"{exc!r} names line {line}"


_fuzz = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_fuzz
@given(char_edits(fixture_text("fig1.wf")))
def test_workflow_parser_raises_only_workflow_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_workflow, text, WorkflowError)


@_fuzz
@given(char_edits(fixture_text("four.cluster")))
def test_cluster_parser_raises_only_machine_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_cluster, text, MachineError)


@_fuzz
@given(
    st.sampled_from(["fig1.scenario", "faults.scenario"]).map(fixture_text).flatmap(char_edits)
)
def test_scenario_parser_raises_only_simulation_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_scenario, text, SimulationError)


@_fuzz
# deferred, so that the engine runs once, when the test first draws
@given(st.deferred(lambda: char_edits(event_log_text())))
def test_event_log_parser_raises_only_simulation_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_event_log, text, SimulationError)
