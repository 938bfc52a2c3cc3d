"""Workflow model tests: parsing, the spec's construction checks against a
networkx oracle, instance expansion, readiness, status math, reports, and
DOT export."""

import dataclasses
import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GiB, dag_specs, make_request, random_dag_spec
from stratus.fixtures import fixture_text
from stratus.workflow import (
    CycleError,
    DuplicateTaskError,
    InvalidNameError,
    InvalidTransitionError,
    RunRecord,
    RunState,
    TaskDefinition,
    TaskInstance,
    TaskState,
    UnknownTaskError,
    WorkflowError,
    WorkflowSpec,
    WorkflowSyntaxError,
    expand_instances,
    export_dot,
    parse_workflow,
    ready_tasks,
    workflow_status,
)

TASK_LINE = "task {name} scatter=false cpus=1 mem=1073741824 disk=0 timeout=1000 model=default\n"


def small_spec() -> WorkflowSpec:
    return parse_workflow(fixture_text("fig1.wf"))


def make_run(spec: WorkflowSpec, input_count: int = 1) -> RunRecord:
    return RunRecord(
        run_id="r",
        workflow_id=spec.workflow_id,
        submission_ms=0,
        instances=expand_instances(spec, input_count),
    )


# --- parsing ---


def test_parse_bundled_workflow():
    spec = small_spec()
    assert spec.workflow_id == "wf1"
    assert spec.task_names() == ["I", "II", "III", "IV", "V", "VI"]
    assert len(spec.edges) == 7
    assert ("I", "II") in spec.edges
    assert ("IV", "VI") in spec.edges
    d = spec.definition("III")
    assert d.scatter is True
    assert d.requested.cpu_cores == 2
    assert d.requested.memory_bytes == 2 * GiB
    assert d.runtime_model == "cpu_heavy"


def test_parse_defaults_workflow_id():
    spec = parse_workflow(TASK_LINE.format(name="a"))
    assert spec.workflow_id == "workflow"
    assert spec.task_names() == ["a"]


def task_lines(names) -> str:
    return "".join(TASK_LINE.format(name=name) for name in names)


def out_of_range(values: str) -> str:
    return f"workflow w\ntask a scatter=false {values} model=default\n"


# (text, line, the spec's own error as __cause__, message); a refusal with no
# line is a whole-file WorkflowError, not a WorkflowSyntaxError
@pytest.mark.parametrize("text, line, cause, message", [
    ("workflow w\n" + task_lines("a") + "not a directive\n", 3, None,
     "line 3: unknown directive 'not'"),
    (task_lines("aa"), 2, DuplicateTaskError, "line 2: duplicate task name: 'a'"),
    # the first name to repeat is reported, at its second definition
    (task_lines("abcbca"), 4, DuplicateTaskError, "line 4: duplicate task name: 'b'"),
    ("# nothing here\n", None, None, "no tasks"),
    (task_lines("a") + "edge a b\n", 2, None, "line 2: expected 'edge <from> -> <to>'"),
    # the first dangling edge
    (task_lines("ab") + "edge a -> b\nedge a -> ghost\nedge ghost -> b\n", 4, UnknownTaskError,
     "line 4: unknown task: 'ghost'"),
    # the dangling end may be the source, and may be named before its edge's tasks
    ("edge x -> a\n" + task_lines("a"), 1, UnknownTaskError, "line 1: unknown task: 'x'"),
    ("task a scatter=false cpus=1 mem=1 disk=0 timeout=1000 extra=x\n", 1, None,
     "line 1: missing keys: ['model']"),
    ("task a scatter=false cpus=one mem=1 disk=0 timeout=1000 model=default\n", 1, None,
     "line 1: cpus is not an integer: 'one'"),
    (out_of_range("cpus=0 mem=1 disk=0 timeout=1000"), 2, None,
     "line 2: cpu_cores must be positive, got 0"),
    (out_of_range("cpus=1 mem=0 disk=0 timeout=1000"), 2, None,
     "line 2: memory_bytes must be positive, got 0"),
    (out_of_range("cpus=1 mem=1 disk=-1 timeout=1000"), 2, None,
     "line 2: disk_bytes must be nonnegative, got -1"),
    (out_of_range("cpus=1 mem=1 disk=0 timeout=0"), 2, None,
     "line 2: max_runtime_ms must be positive, got 0"),
    ("workflow w\n" + task_lines(["a", "b\\"]), 3, InvalidNameError,
     "line 3: name must not end in a backslash: 'b\\\\'"),
    # the header that names the workflow, before the task lines
    ("# id\nworkflow w\\\n" + task_lines(["a\\"]), 2, InvalidNameError,
     "line 2: name must not end in a backslash: 'w\\\\'"),
])
def test_parse_workflow_refuses(text, line, cause, message):
    with pytest.raises(WorkflowError) as err:
        parse_workflow(text)
    assert str(err.value) == message
    assert getattr(err.value, "line", None) == line
    assert isinstance(err.value, WorkflowSyntaxError) == (line is not None)
    # the spec's own error stays reachable
    assert type(err.value.__cause__) is (cause or type(None))


# --- construction checks, against networkx ---


def definitions(names) -> tuple[TaskDefinition, ...]:
    return tuple(TaskDefinition(n, False, make_request(), "default") for n in names)


def assert_real_cycle(path: list[str], edges) -> None:
    assert len(path) >= 2
    assert path[0] == path[-1]
    edge_set = set(edges)
    for left, right in zip(path, path[1:]):
        assert (left, right) in edge_set


def test_validate_accepts_bundled_workflow():
    spec = small_spec()
    assert WorkflowSpec(spec.workflow_id, spec.tasks, spec.edges) == spec


def test_validate_rejects_an_empty_spec():
    with pytest.raises(WorkflowError, match=r"^no tasks$"):
        WorkflowSpec(workflow_id="w", tasks=(), edges=())


def test_validate_rejects_unknown_edge_endpoint():
    with pytest.raises(UnknownTaskError) as err:
        WorkflowSpec(workflow_id="w", tasks=definitions("a"), edges=(("a", "ghost"),))
    # a spec built in code has no text lines
    assert not isinstance(err.value, WorkflowSyntaxError)


def test_validate_rejects_a_repeated_definition():
    # the two a groups would share instance ids and strand the run
    with pytest.raises(DuplicateTaskError, match=r"^duplicate task name: 'a'$") as err:
        WorkflowSpec(workflow_id="w", tasks=definitions("aba"), edges=())
    assert err.value.task_name == "a"
    assert not isinstance(err.value, WorkflowSyntaxError)


@pytest.mark.parametrize("name", ["a\tb", "a\nb", "a\rb", "a\x1eb", "a\u2028b", "", "\n"])
def test_validate_rejects_a_name_the_artifacts_cannot_carry(name):
    with pytest.raises(WorkflowError, match="one line without tabs"):
        WorkflowSpec(workflow_id="w", tasks=definitions([name]), edges=())
    with pytest.raises(WorkflowError, match="one line without tabs"):
        WorkflowSpec(workflow_id=name, tasks=definitions("a"), edges=())


@pytest.mark.parametrize("name", ["a\\", "\\", "a\\\\"])
def test_validate_rejects_a_name_dot_cannot_quote(name):
    # a quoted DOT id that ends in a backslash escapes its own closing quote
    with pytest.raises(InvalidNameError, match="^name must not end in a backslash") as err:
        WorkflowSpec(workflow_id="w", tasks=definitions([name]), edges=())
    assert err.value.name == name
    assert not isinstance(err.value, WorkflowSyntaxError)
    with pytest.raises(InvalidNameError, match="^name must not end in a backslash") as err:
        WorkflowSpec(workflow_id=name, tasks=definitions("a"), edges=())
    assert err.value.name == name
    assert not isinstance(err.value, WorkflowSyntaxError)
    # a default id comes from no line
    with pytest.raises(InvalidNameError) as err:
        parse_workflow(TASK_LINE.format(name="a"), default_workflow_id=name)
    assert not isinstance(err.value, WorkflowSyntaxError)
    # a backslash anywhere else is kept
    spec = WorkflowSpec(workflow_id="w\\1", tasks=definitions(["a\\b"]), edges=())
    assert '"a\\b" [label="a\\b [x1]"];' in export_dot(spec)


def test_validate_keeps_spaces_in_names():
    spec = WorkflowSpec(workflow_id="my flow", tasks=definitions(["step one"]), edges=())
    assert spec.task_names() == ["step one"]


def test_unknown_task_lookups_name_the_task():
    run = make_run(small_spec())
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'w/x/0'$"):
        run.instance("w/x/0")
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'ghost'$"):
        small_spec().definition("ghost")


def test_validate_rejects_self_loop():
    with pytest.raises(CycleError) as err:
        WorkflowSpec(workflow_id="w", tasks=definitions("a"), edges=(("a", "a"),))
    assert err.value.path == ["a", "a"]


def test_validate_cycle_reports_a_real_cycle():
    edges = (("a", "b"), ("b", "c"), ("c", "a"))
    with pytest.raises(CycleError) as err:
        WorkflowSpec(workflow_id="w", tasks=definitions("abc"), edges=edges)
    assert_real_cycle(err.value.path, edges)
    # a cycle reached only through a definition outside it
    edges = (("a", "b"), ("b", "c"), ("c", "d"), ("d", "b"))
    with pytest.raises(CycleError) as err:
        WorkflowSpec(workflow_id="w", tasks=definitions("abcd"), edges=edges)
    assert sorted(err.value.path[:-1]) == ["b", "c", "d"]
    assert_real_cycle(err.value.path, edges)


def test_validate_matches_networkx_on_random_graphs():
    rng = random.Random(101)
    for _ in range(300):
        count = rng.randint(1, 9)
        names = [f"t{i}" for i in range(count)]
        edges = []
        for left in names:
            for right in names:
                if left != right and rng.random() < 0.25:
                    edges.append((left, right))
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(edges)
        if nx.is_directed_acyclic_graph(graph):
            WorkflowSpec(workflow_id="w", tasks=definitions(names), edges=tuple(edges))
        else:
            with pytest.raises(CycleError) as err:
                WorkflowSpec(workflow_id="w", tasks=definitions(names), edges=tuple(edges))
            assert_real_cycle(err.value.path, edges)


# --- expansion ---


def test_expand_count_law():
    rng = random.Random(7)
    for _ in range(200):
        spec = random_dag_spec(rng)
        input_count = rng.randint(1, 5)
        instances = expand_instances(spec, input_count)
        scatter = sum(1 for t in spec.tasks if t.scatter)
        plain = len(spec.tasks) - scatter
        assert len(instances) == scatter * input_count + plain
        ids = [i.task_id for i in instances]
        assert len(set(ids)) == len(ids)
        for inst in instances:
            assert inst.state is TaskState.PENDING
            wf, name, index = inst.task_id.split("/")
            assert wf == spec.workflow_id
            assert name == inst.definition
            assert int(index) == inst.index
            if not spec.definition(name).scatter:
                assert inst.index == 0


def test_expand_orders_by_definition_then_index():
    ids = [i.task_id for i in expand_instances(small_spec(), 2)]
    assert ids == [
        "wf1/I/0", "wf1/I/1",
        "wf1/II/0", "wf1/II/1",
        "wf1/III/0", "wf1/III/1",
        "wf1/IV/0",
        "wf1/V/0",
        "wf1/VI/0", "wf1/VI/1",
    ]


def reference_expand(spec: WorkflowSpec, input_count: int) -> list[TaskInstance]:
    """The keyword loop expand_instances used to run, kept as an oracle."""
    instances = []
    for definition in spec.tasks:
        count = input_count if definition.scatter else 1
        for index in range(count):
            instances.append(
                TaskInstance(
                    task_id=f"{spec.workflow_id}/{definition.name}/{index}",
                    definition=definition.name,
                )
            )
    return instances


@settings(max_examples=200, deadline=None)
@given(dag_specs(), st.integers(min_value=1, max_value=12))
def test_expand_matches_the_keyword_loop(spec, input_count):
    assert expand_instances(spec, input_count) == reference_expand(spec, input_count)


def test_expand_rejects_nonpositive_inputs():
    with pytest.raises(WorkflowError):
        expand_instances(small_spec(), 0)


# --- readiness, brute force oracle ---


def oracle_ready(spec: WorkflowSpec, run: RunRecord) -> set[str]:
    by_name: dict[str, list[TaskInstance]] = {}
    for inst in run.instances:
        by_name.setdefault(inst.definition, []).append(inst)
    out = set()
    for inst in run.instances:
        if inst.state is not TaskState.PENDING:
            continue
        ok = True
        for pred in spec.predecessors(inst.definition):
            group = by_name.get(pred, [])
            if not group or any(g.state is not TaskState.SUCCEEDED for g in group):
                ok = False
        if ok:
            out.add(inst.task_id)
    return out


def test_ready_matches_oracle_on_random_states():
    rng = random.Random(31)
    states = list(TaskState)
    for _ in range(200):
        spec = random_dag_spec(rng)
        run = make_run(spec, rng.randint(1, 3))
        for inst in run.instances:
            inst.state = rng.choice(states)
        assert ready_tasks(run, spec) == oracle_ready(spec, run)


def test_ready_needs_whole_predecessor_group():
    spec = small_spec()
    run = make_run(spec, 2)
    run.instance("wf1/I/0").state = TaskState.SUCCEEDED
    ready = ready_tasks(run, spec)
    assert "wf1/II/0" not in ready
    assert "wf1/II/1" not in ready
    run.instance("wf1/I/1").state = TaskState.SUCCEEDED
    assert ready_tasks(run, spec) == {"wf1/II/0", "wf1/II/1"}


# --- instance state machine ---


def make_instance() -> TaskInstance:
    return TaskInstance(task_id="w/a/0", definition="a")


def test_instance_happy_path_and_duration():
    inst = make_instance()
    inst.mark_queued(5)
    inst.mark_running(10, "m1")
    assert inst.duration_ms is None  # running: no end yet
    inst.mark_finished(40, TaskState.SUCCEEDED)
    assert inst.duration_ms == 30
    assert inst.machine == "m1"
    assert inst.state.terminal


def test_only_succeeded_and_failed_are_terminal():
    assert {state: state.terminal for state in TaskState} == {
        TaskState.PENDING: False,
        TaskState.QUEUED: False,
        TaskState.RUNNING: False,
        TaskState.SUCCEEDED: True,
        TaskState.FAILED: True,
    }


RUNNING = [("mark_queued", 0), ("mark_running", 0, "m1")]
FINISHED = [*RUNNING, ("mark_finished", 1, TaskState.SUCCEEDED)]


# (the calls that lead up to the refused one, the refused call, its error, message)
@pytest.mark.parametrize("history, call, error, message", [
    ([], ("mark_running", 10, "m1"), InvalidTransitionError,
     "w/a/0: cannot start from state pending"),
    ([("mark_queued", 5), ("mark_running", 10, "m1")], ("mark_finished", 9, TaskState.FAILED),
     WorkflowError, "w/a/0: end 9 before start 10"),
    ([("mark_queued", 10)], ("mark_running", 9, "m1"), WorkflowError,
     "w/a/0: start 9 before submit 10"),
    (RUNNING, ("mark_finished", 1, TaskState.RUNNING), WorkflowError,
     "w/a/0: running is not terminal"),
    (FINISHED, ("mark_finished", 2, TaskState.FAILED), InvalidTransitionError,
     "w/a/0: cannot finish from state succeeded"),
    (FINISHED, ("mark_queued", 2), InvalidTransitionError,
     "w/a/0: cannot queue from state succeeded"),
])
def test_instance_refuses_a_transition(history, call, error, message):
    inst = make_instance()
    for name, *args in history:
        getattr(inst, name)(*args)
    before = inst.to_record()
    name, *args = call
    with pytest.raises(error) as err:
        getattr(inst, name)(*args)
    assert str(err.value) == message
    assert inst.to_record() == before


def test_instance_record_round_trip():
    inst = make_instance()
    inst.mark_queued(5)
    inst.mark_running(10, "m1")
    inst.mark_finished(40, TaskState.FAILED)
    clone = TaskInstance.from_record(inst.to_record())
    assert clone.to_record() == inst.to_record()
    assert clone.state is TaskState.FAILED


def test_instance_is_slotted():
    inst = make_instance()
    assert not hasattr(inst, "__dict__")
    with pytest.raises(AttributeError):
        inst.note = "x"


task_instances = st.builds(
    TaskInstance,
    st.text(max_size=8),
    st.text(max_size=4),
    st.sampled_from(TaskState),
    st.none() | st.text(max_size=4),
    st.none() | st.integers(min_value=0),
    st.none() | st.integers(min_value=0),
    st.none() | st.integers(min_value=0),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(task_instances, max_size=6))
def test_instance_copies_keep_every_field(instances):
    run = RunRecord("r", "w", 0, instances, RunState.FAILED)
    fields = [f.name for f in dataclasses.fields(TaskInstance)]
    copies = [
        [dataclasses.replace(i) for i in instances],
        run.snapshot().instances,
        RunRecord.from_record(run.to_record()).instances,
    ]
    for copied in copies:
        assert len(copied) == len(instances)
        for copy, inst in zip(copied, instances):
            assert copy is not inst
            assert [getattr(copy, f) for f in fields] == [getattr(inst, f) for f in fields]


# --- status and final state ---


def finish(inst: TaskInstance, state: TaskState, start=0, end=10) -> None:
    inst.mark_queued(start)
    inst.mark_running(start, "m1")
    inst.mark_finished(end, state)


def test_workflow_status_counts():
    run = make_run(small_spec())
    report = workflow_status(run)
    assert (report.finished, report.total, report.failures) == (0, 6, 0)
    assert report.progress == 0.0
    assert report.state is RunState.RUNNING
    finish(run.instances[0], TaskState.SUCCEEDED)
    finish(run.instances[1], TaskState.FAILED)
    report = workflow_status(run)
    assert (report.finished, report.total, report.failures) == (1, 6, 1)
    assert report.progress == pytest.approx(1 / 6)


def test_workflow_status_empty_run_is_complete():
    run = RunRecord(run_id="r", workflow_id="w", submission_ms=0, instances=[])
    assert workflow_status(run).progress == 1.0


# --- DOT export ---


def test_export_dot_shape_and_stability():
    spec = small_spec()
    text = export_dot(spec)
    assert text == export_dot(spec)
    lines = text.splitlines()
    assert lines[0] == "digraph wf1 {"
    assert lines[-1] == "}"
    node_lines = [l for l in lines if "label=" in l]
    edge_lines = [l for l in lines if "->" in l]
    assert len(node_lines) == 6
    assert len(edge_lines) == 7
    assert '"I" [label="I [xK]"];' in text
    assert '"IV" [label="IV [x1]"];' in text
    assert '"IV" -> "VI";' in text


def test_export_dot_quotes_what_dot_cannot_read_bare():
    spec = WorkflowSpec(
        workflow_id="wf-1",
        tasks=(TaskDefinition('say "hi"', True, make_request(), "default"),),
        edges=(),
    )
    assert export_dot(spec) == (
        'digraph "wf-1" {\n'
        '  "say \\"hi\\"" [label="say \\"hi\\" [xK]"];\n'
        "}\n"
    )
    keyword = WorkflowSpec("edge", spec.tasks, ())
    assert export_dot(keyword).startswith('digraph "edge" {\n')


# --- run records ---


def two_task_run(starts: dict[str, int], ends: dict[str, int]) -> RunRecord:
    tasks = tuple(
        TaskDefinition(name, False, make_request(), "default") for name in starts
    )
    spec = WorkflowSpec(workflow_id="w", tasks=tasks, edges=())
    run = make_run(spec)
    for inst in run.instances:
        finish(inst, TaskState.SUCCEEDED, starts[inst.definition], ends[inst.definition])
    run.final_state = RunState.SUCCEEDED
    return run


def test_run_record_round_trip():
    run = two_task_run(starts={"a": 0, "b": 10}, ends={"a": 50, "b": 80})
    clone = RunRecord.from_record(run.to_record())
    assert clone.to_record() == run.to_record()
    assert clone.final_state is RunState.SUCCEEDED
    assert clone.instance("w/a/0").duration_ms == 50
