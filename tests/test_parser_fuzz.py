"""Fuzz of the text parsers: random character edits of the bundled workflow,
cluster, scenario and capability-profile files, of a matrix override file
and of an engine event log (parsed, and replayed into progress).  Each
parser may raise only its own module's base error, and every error about
one line must be that format's ``LineError``, carrying the line as ``.line``
and reading ``line N: ...``.  Then the exact line of a refused workflow entry
or matrix row over drawn layouts, and the shared grammar's fixed points:
integer spellings, the ``line N:`` prefix, and wire names."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import PROFILE_NAMES, dag_specs
from oracles import ORACLE_ROWS, event_line, oracle_permitted
from stratus.blueprint import (
    ALL_LAYERS,
    BlueprintError,
    InvalidMatrixError,
    LayerId,
    MatrixFileError,
    ProfileSyntaxError,
    TopologyMode,
    UnknownFeatureError,
    UnknownLayerError,
    parse_capability_profile,
    parse_matrix_overrides,
)
from stratus.fixtures import fixture_path, fixture_text
from stratus.machine import ClusterSyntaxError, MachineError, parse_cluster
from stratus.sim import (
    EventLogSyntaxError,
    ScenarioSyntaxError,
    SimulationError,
    load_scenario,
    parse_event_log,
    parse_scenario,
    scenario_simulation,
)
from stratus.taskmon import (
    TRACE_HEADER,
    FieldCountMismatchError,
    InvariantViolationError,
    LogLevel,
    MissingHeaderError,
    TraceError,
    emit_trace,
    parse_trace,
)
from stratus.textfmt import LineError
from stratus.workflow import (
    CycleError,
    DuplicateTaskError,
    InvalidNameError,
    UnknownTaskError,
    WorkflowError,
    WorkflowSyntaxError,
    parse_workflow,
)
from test_service import override_file, override_rows

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
    simulation = scenario_simulation(scenario, run_id="r", submission_ms=0)
    return simulation.run_to_completion().event_log_text()


def assert_own_error_with_a_line(parse, text: str, own_error: type) -> None:
    """Parse text; any error but own_error propagates and fails the test."""
    try:
        parse(text)
    except own_error as exc:
        if isinstance(exc, CycleError) or str(exc) in WHOLE_FILE_ERRORS:
            return
        assert isinstance(exc, LineError), f"{exc!r} is not a line error"
        assert str(exc).startswith(f"{exc.prefix} {exc.line}: "), repr(exc)
        assert 1 <= exc.line <= len(text.splitlines()), f"{exc!r} names line {exc.line}"


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


# what the progress fold reads: the instance total and the final state
@pytest.mark.parametrize("detail", [
    "run_submitted\tw\tinstances=x",
    "run_submitted\tw\tinstances=1_0",
    "run_submitted\tw\tinstances=+5",
    "run_submitted\tw\tinput_count=1 topology=disjoint",
    "run_submitted\tw\tinstances=1 instances=2",
    "run_completed\tw\tfinal=bogus",
    "run_completed\tw\tsucceeded",
])
def test_progress_details_are_checked_where_the_event_log_is_parsed(detail):
    text = f"0\tinstance_queued\tw/a/0\tdefinition=a\n0\t{detail}\n"
    with pytest.raises(EventLogSyntaxError) as err:
        parse_event_log(text)
    assert err.value.line == 2
    assert str(err.value).startswith("event log line 2: ")


MATRIX_OVERRIDES = """# one deployment's overrides
workflow_status: resource_manager, workflow
machine_type: machine
task_duration: task,machine
extension gpu_utilization: machine, resource_manager
"""


def assert_an_unknown_feature_is_a_line_error(parse, text: str) -> None:
    """Parse text; a line naming an unknown feature key must raise a
    LineError that reads ``line N: ...``."""
    try:
        parse(text)
    except UnknownFeatureError as exc:
        assert isinstance(exc, LineError), repr(exc)
        assert str(exc).startswith(f"line {exc.line}: "), repr(exc)
    except BlueprintError:
        pass


@_fuzz
@given(char_edits(MATRIX_OVERRIDES))
def test_matrix_override_parser_raises_only_blueprint_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_matrix_overrides, text, BlueprintError)
    assert_an_unknown_feature_is_a_line_error(parse_matrix_overrides, text)


@_fuzz
@given(
    st.sampled_from(PROFILE_NAMES).map(lambda name: fixture_text(f"{name}.profile"))
    .flatmap(char_edits)
)
def test_capability_profile_parser_raises_only_blueprint_errors_with_a_line(text):
    assert_own_error_with_a_line(parse_capability_profile, text, BlueprintError)
    assert_an_unknown_feature_is_a_line_error(parse_capability_profile, text)


# --- directives that set one value ---

TASK_LINE = "task a scatter=false cpus=1 mem=1 disk=0 timeout=1000 model=default\n"
MACHINE_LINE = "machine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock=1\n"
TRACE_LINE = "w/a/0\tsucceeded\t0\t5\t10\t20\t10\t50\t100\t1\t2\t3\t4\t5\t6\t7"
# each scenario setting: a value, then another valid value for it
SCENARIO_SETTINGS = {
    "workflow": ("w.wf", "v.wf"), "cluster": ("c.cluster", "d.cluster"),
    "input_count": ("3", "2"), "seed": ("1", "2"), "topology": ("disjoint", "workflow-aware"),
}
SCENARIO = "".join(f"{key} {first}\n" for key, (first, _) in SCENARIO_SETTINGS.items())


def repeated_settings() -> list:
    """(parser, text, own line error, line) of each directive that sets one
    value of its file, repeated at ``line`` with another value."""
    cases = [
        (parse_workflow, f"workflow a\n{TASK_LINE}# again\nworkflow b\n", WorkflowSyntaxError, 4),
        (parse_cluster, "fs total=5\n" + MACHINE_LINE + "fs total=7\n", ClusterSyntaxError, 3),
        (parse_capability_profile, "name a\ntask_id\n\nname b\n", ProfileSyntaxError, 4),
    ]
    for key, (_, other) in SCENARIO_SETTINGS.items():
        cases.append((parse_scenario, f"{SCENARIO}{key} {other}\n", ScenarioSyntaxError, 6))
    return cases


@pytest.mark.parametrize("parse, text, own_error, line", repeated_settings())
def test_a_repeated_setting_is_refused_at_its_second_line(parse, text, own_error, line):
    with pytest.raises(own_error) as err:
        parse(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("missing", ["workflow", "cluster"])
def test_a_scenario_without_its_workflow_or_cluster_line_is_a_whole_file_error(missing):
    text = "".join(line for line in SCENARIO.splitlines(True) if not line.startswith(missing))
    with pytest.raises(SimulationError) as err:
        parse_scenario(text)
    assert not isinstance(err.value, LineError)
    assert str(err.value) == f"scenario missing {missing!r} line"


# (parser, text, own line error, its text): one line of the file breaks a
# rule, of the format or of the structure the parser builds
BROKEN_LINES = [
    (parse_workflow, f"workflow a b\n{TASK_LINE}", WorkflowSyntaxError,
     "line 1: expected 'workflow <id>'"),
    # a repeated task, reported at its second line
    (parse_workflow, f"workflow w\n{TASK_LINE}{TASK_LINE}", WorkflowSyntaxError,
     "line 3: duplicate task name: 'a'"),
    (parse_workflow, f"{TASK_LINE}edge a -> ghost\n", WorkflowSyntaxError,
     "line 2: unknown task: 'ghost'"),
    # a name DOT cannot quote
    (parse_workflow, "# c\n" + TASK_LINE.replace(" a ", " a\\ "), WorkflowSyntaxError,
     "line 2: name must not end in a backslash: 'a\\\\'"),
    (parse_cluster, f"{MACHINE_LINE}fs size=5\n", ClusterSyntaxError,
     "line 2: expected 'fs total=<bytes>'"),
    (parse_cluster, f"{MACHINE_LINE}fs total=0\n", ClusterSyntaxError,
     "line 2: fs total must be positive"),
    (parse_matrix_overrides, "task_id: task\ntask_duration: ,\n", MatrixFileError,
     "line 2: no layers listed"),
    # a layer below the owner
    (parse_matrix_overrides, "task_id: task\nworkflow_status: workflow, task\n",
     MatrixFileError, "line 2: workflow_status: layers below the owner are permitted: ['task']"),
    (parse_matrix_overrides, "# c\nextension Bad-Name: task\n", MatrixFileError,
     "line 2: extension name not lower_snake_case: 'Bad-Name'"),
    (parse_trace, f"{TRACE_LINE}\n", MissingHeaderError,
     f"line 1: first line must be the header {TRACE_HEADER!r}"),
]


@pytest.mark.parametrize("parse, text, own_error, message", BROKEN_LINES)
def test_a_line_that_breaks_a_rule_is_the_formats_line_error(parse, text, own_error, message):
    with pytest.raises(own_error) as err:
        parse(text)
    assert isinstance(err.value, LineError)
    assert str(err.value) == message
    assert message.startswith(f"line {err.value.line}: ")


def test_each_setting_set_once_is_read():
    assert parse_workflow("workflow a\n" + TASK_LINE).workflow_id == "a"
    assert parse_cluster("fs total=5\n" + MACHINE_LINE)[1] == 5
    assert parse_capability_profile("name a\ntask_id\n").name == "a"
    scenario = parse_scenario(SCENARIO)
    assert (scenario.input_count, scenario.seed, scenario.topology) == (3, 1, TopologyMode.DISJOINT)


# --- the line of a refused entry ---


def task_line(definition) -> str:
    r = definition.requested
    return (
        f"task {definition.name} scatter={str(definition.scatter).lower()} cpus={r.cpu_cores}"
        f" mem={r.memory_bytes} disk={r.disk_bytes} timeout={r.max_runtime_ms}"
        f" model={definition.runtime_model}"
    )


@st.composite
def workflow_layouts(draw):
    """(text, planted line, spec error): a drawn spec written as a workflow
    file, its tasks and edges interleaved in a drawn order (each kind keeps
    its own order) between drawn blank and comment lines, with an optional
    header, and one refusal planted at a drawn place."""
    spec = draw(dag_specs())
    tasks = [task_line(t) for t in spec.tasks]
    edges = [f"edge {a} -> {b}" for a, b in spec.edges]
    header = [f"workflow {spec.workflow_id}"] * draw(st.integers(0, 1))
    fault = draw(st.sampled_from(["duplicate", "dangling", "task name", "header name"]))
    if fault == "duplicate":
        # a later copy of a task line; the first definition stays valid
        i = draw(st.integers(0, len(tasks) - 1))
        at = draw(st.integers(i + 1, len(tasks)))
        tasks.insert(at, tasks[i])
        planted, cause = ("task", at), DuplicateTaskError
    elif fault == "dangling":
        known = draw(st.sampled_from(spec.task_names()))
        at = draw(st.integers(0, len(edges)))
        dangling = draw(st.sampled_from([f"edge {known} -> ghost", f"edge ghost -> {known}"]))
        edges.insert(at, dangling)
        planted, cause = ("edge", at), UnknownTaskError
    elif fault == "task name":
        at = draw(st.integers(0, len(tasks) - 1))
        tasks[at] = task_line(dataclasses.replace(spec.tasks[at], name=spec.tasks[at].name + "\\"))
        planted, cause = ("task", at), InvalidNameError
    else:
        header = [f"workflow {spec.workflow_id}\\"]
        planted, cause = "workflow", InvalidNameError
    kinds = draw(st.permutations(["task"] * len(tasks) + ["edge"] * len(edges)))
    pending = {"task": list(enumerate(tasks)), "edge": list(enumerate(edges))}
    keyed = []
    for kind in kinds:
        i, line = pending[kind].pop(0)
        keyed.append(((kind, i), line))
    keyed[draw(st.integers(0, len(keyed))):0] = [("workflow", line) for line in header]
    lines, planted_line = [], None
    for key, line in keyed:
        lines += draw(st.lists(st.sampled_from(["", "# note", "  "]), max_size=2))
        lines.append(line)
        if key == planted:
            planted_line = len(lines)
    return "\n".join(lines) + "\n", planted_line, cause


@settings(max_examples=300, deadline=None)
@given(workflow_layouts())
def test_a_workflow_refusal_is_reported_at_exactly_the_line_that_gave_the_entry(layout):
    text, line, cause = layout
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(text)
    assert err.value.line == line, text
    assert type(err.value.__cause__) is cause
    assert str(err.value) == f"line {line}: {err.value.__cause__}"


@st.composite
def hierarchy_breaking_rows(draw, feature_names):
    """(feature, layers): a standard feature, one of ``feature_names`` when
    there are any, whose layers leave out its owner or go below it."""
    names = sorted(feature_names) or sorted(ORACLE_ROWS)
    name = draw(st.one_of(st.sampled_from(names), st.sampled_from(sorted(ORACLE_ROWS))))
    owner = min(oracle_permitted(name))
    return name, draw(st.sets(st.sampled_from([l for l in ALL_LAYERS if l != owner]), min_size=1))


@settings(max_examples=150, deadline=None)
@given(st.lists(override_rows(), max_size=8), st.data())
def test_a_matrix_refusal_is_reported_at_the_last_row_that_set_the_entry(rows, data):
    # repeat some rows, then put a row that breaks a rule at a drawn place,
    # after which nothing sets its feature again
    repeats = data.draw(st.lists(st.sampled_from(rows), max_size=4)) if rows else []
    rows = data.draw(st.permutations(rows + repeats))
    name, layers = data.draw(hierarchy_breaking_rows({key for key, _ in rows} & set(ORACLE_ROWS)))
    at = data.draw(st.integers(0, len(rows)))
    rows = rows[:at] + [(name, layers)] + [row for row in rows[at:] if row[0] != name]
    text = override_file(rows, data.draw)
    line = [n for n, row in enumerate(text.splitlines(), 1) if row.partition(":")[0] == name][-1]
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_overrides(text)
    assert err.value.line == line, text
    assert type(err.value.__cause__) is InvalidMatrixError
    assert err.value.__cause__.key == name
    assert str(err.value) == f"line {line}: {err.value.__cause__}"


# --- integer fields ---

# spellings that int() reads but no writer emits: separators, non-ASCII
# digits, padding; the event log and the trace also refuse a sign or a
# leading zero that str() would not write
FOREIGN_INTEGERS = ["1_0", " ١", "١", "５", " 5", "5 ", "0x1", ""]
NON_CANONICAL_INTEGERS = ["+5", "007", "-0", "-07"]


@pytest.mark.parametrize("spelling", FOREIGN_INTEGERS + NON_CANONICAL_INTEGERS)
def test_event_log_and_trace_accept_only_the_integers_their_writers_emit(spelling):
    with pytest.raises(EventLogSyntaxError) as err:
        parse_event_log(f"0\ta\tb\tc\n{spelling}\ta\tb\tc\n")
    assert err.value.line == 2
    fields = TRACE_LINE.split("\t")
    fields[3] = spelling
    with pytest.raises(InvariantViolationError) as err:
        parse_trace(f"{TRACE_HEADER}\n{TRACE_LINE}\n" + "\t".join(fields) + "\n")
    assert (err.value.line, err.value.field) == (3, "submit_ms")


def input_files(number: str) -> list:
    """(parser, text, own line error) with ``number`` as an integer field on
    line 2 of each input format; a line error reads ``line 2: ...``."""
    task = "task a scatter=false cpus={} mem=1 disk=0 timeout=1000 model=default\n"
    machine = "machine m1 type=vm cpus=1 mem=1 disk=1 arch=a model=b clock={}\n"
    return [
        (parse_workflow, "workflow w\n" + task.format(number), WorkflowSyntaxError),
        (parse_cluster, "fs total=1\n" + machine.format(number), ClusterSyntaxError),
        (parse_scenario, f"workflow w.wf\nseed {number}\ncluster c.cluster\n", ScenarioSyntaxError),
    ]


# (padding is a field separator there)
@pytest.mark.parametrize("spelling", [s for s in FOREIGN_INTEGERS if s and s == s.strip()])
def test_input_formats_accept_only_ascii_integers(spelling):
    for parse, text, own_error in input_files(spelling):
        with pytest.raises(own_error) as err:
            parse(text)
        assert err.value.line == 2
        assert str(err.value).startswith("line 2: ")


def test_input_formats_accept_a_sign_and_leading_zeros():
    workflow, (machines, _), scenario = (parse(text) for parse, text, _ in input_files("+007"))
    assert workflow.tasks[0].requested.cpu_cores == 7
    assert machines[0].hardware.memory_clock_mhz == 7
    assert scenario.seed == 7
    assert parse_scenario(input_files("-3")[2][1]).seed == -3


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def spellings(n: int) -> list[str]:
    """The canonical spelling of n first, then spellings of it that a
    lenient parser would read."""
    text = str(n)
    return [
        text, "+" + text, "0" + text, text + "_0", " " + text, text + " ",
        text.translate(_ARABIC_INDIC),
    ]


@st.composite
def spelled(draw, values):
    """(canonical spelling, drawn spelling) of a drawn value."""
    options = spellings(draw(values))
    return options[0], draw(st.sampled_from(options[:1] * 4 + options[1:]))


# any text without a field or line separator
_field = st.text(
    st.characters(blacklist_characters="\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029",
                  blacklist_categories=("Cs",)),
    max_size=8,
)
_counter = st.integers(0, 2**64)


@settings(max_examples=300, deadline=None)
@given(spelled(st.integers(-(2**64), 2**64)), _field, _field, _field)
def test_an_event_log_line_is_accepted_iff_it_re_renders_to_its_own_bytes(t_ms, kind, subject, detail):
    canonical, spelling = t_ms
    line = "\t".join((spelling, kind, subject, detail))
    try:
        records = parse_event_log(line + "\n")
    except EventLogSyntaxError:
        assert spelling != canonical
        return
    assert [event_line(record) for record in records] == [line]


@st.composite
def trace_lines(draw):
    """(canonical line, drawn line) of a valid trace record whose integer
    fields are spelled as drawn."""
    start, duration = draw(_counter), draw(_counter)
    exit_code = draw(st.sampled_from([0, 1, 124, 137, 143, -9]))
    values = [exit_code, draw(_counter), start, start + duration, duration]
    values += [draw(_counter) for _ in range(9)]
    pairs = [draw(spelled(st.just(value))) for value in values]
    head = [draw(_field), "succeeded" if exit_code == 0 else "failed"]
    return ["\t".join(head + [pair[k] for pair in pairs]) for k in (0, 1)]


@settings(max_examples=300, deadline=None)
@given(trace_lines())
def test_a_trace_line_is_accepted_iff_it_re_renders_to_its_own_bytes(lines):
    canonical, line = lines
    try:
        records = parse_trace(f"{TRACE_HEADER}\n{line}\n")
    except InvariantViolationError:
        assert line != canonical
        return
    assert [emit_trace(record) for record in records] == [line]


@pytest.mark.parametrize("error, base", [
    (WorkflowSyntaxError, WorkflowError),
    (ClusterSyntaxError, MachineError),
    (ScenarioSyntaxError, SimulationError),
    (EventLogSyntaxError, SimulationError),
    (MatrixFileError, BlueprintError),
    (ProfileSyntaxError, BlueprintError),
    (FieldCountMismatchError, TraceError),
    (InvariantViolationError, TraceError),
    (MissingHeaderError, TraceError),
])
def test_each_line_error_is_a_line_error_of_its_own_module(error, base):
    assert issubclass(error, LineError) and issubclass(error, base)


# --- wire names ---

# (from_wire, its unknown-name error, every accepted spelling in lower case)
WIRE_NAMES = [
    (LayerId.from_wire, UnknownLayerError, {"resource_manager", "workflow", "machine", "task"}),
    (LogLevel.from_wire, ValueError, {"debug", "info", "warning", "error"}),
    (TopologyMode.from_wire, BlueprintError, {"workflow_aware", "workflow-aware", "disjoint"}),
]

# letters whose Unicode case mappings land on ASCII ones: the long s
# upper-cases to S, the dotless i to I, and the Kelvin sign lower-cases to k
_LOOKALIKES = {"s": "\u017f", "i": "\u0131", "k": "\u212a"}


@st.composite
def respelled(draw, names):
    """A drawn name with each letter in either case or swapped for a letter
    that case-maps onto it, maybe padded."""
    name = draw(st.sampled_from(sorted(names)))
    chars = [draw(st.sampled_from([c, c.upper(), _LOOKALIKES.get(c, c)])) for c in name]
    pad = st.sampled_from(["", " ", "\t", "\u00a0"])
    return draw(pad) + "".join(chars) + draw(pad)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_a_wire_name_is_accepted_iff_it_is_ascii_and_folds_to_a_spelling(data):
    from_wire, unknown, names = data.draw(st.sampled_from(WIRE_NAMES))
    name = data.draw(st.one_of(respelled(names), st.text(max_size=20)))
    known = name.isascii() and name.strip().casefold() in names
    try:
        value = from_wire(name)
    except unknown:
        assert not known, name
        return
    assert known, name
    assert value.wire_name.lower() == name.strip().lower().replace("-", "_")


def test_lookalike_wire_names_are_line_errors_in_the_text_formats():
    with pytest.raises(MatrixFileError) as err:
        parse_matrix_overrides("# deployment\ntask_duration: ta\u017fk, mach\u0131ne\n")
    assert err.value.line == 2
    with pytest.raises(ScenarioSyntaxError) as err:
        parse_scenario("workflow w.wf\ntopology wor\u212aflow-aware\ncluster c.cluster\n")
    assert err.value.line == 2
