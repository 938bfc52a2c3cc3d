"""Workflow model tests: parsing, DAG validation against a networkx oracle,
instance expansion, readiness, status math, reports, and DOT export."""

import random

import networkx as nx
import pytest

from conftest import make_request, random_dag_spec
from stratus.fixtures import fixture_text
from stratus.workflow import (
    CycleError,
    DuplicateTaskError,
    InvalidTransitionError,
    ReportOnRunningRunError,
    RunRecord,
    RunState,
    TaskDefinition,
    TaskInstance,
    TaskState,
    UnknownTaskError,
    WorkflowError,
    WorkflowSpec,
    WorkflowSyntaxError,
    execution_report,
    expand_instances,
    export_dot,
    parse_workflow,
    ready_tasks,
    resolve_final_state,
    validate_dag,
    workflow_status,
)

GiB = 1024**3

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


def test_parse_rejects_garbage_line():
    text = "workflow w\n" + TASK_LINE.format(name="a") + "not a directive\n"
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(text)
    assert err.value.line == 3


def test_parse_rejects_duplicate_task():
    text = TASK_LINE.format(name="a") + TASK_LINE.format(name="a")
    with pytest.raises(DuplicateTaskError) as err:
        parse_workflow(text)
    assert err.value.line == 2


def test_parse_rejects_empty():
    with pytest.raises(WorkflowError):
        parse_workflow("# nothing here\n")


def test_parse_rejects_bad_edge():
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(TASK_LINE.format(name="a") + "edge a b\n")
    assert err.value.line == 2


def test_parse_gives_the_first_dangling_edge_its_line():
    text = (
        TASK_LINE.format(name="a")
        + TASK_LINE.format(name="b")
        + "edge a -> b\nedge a -> ghost\nedge ghost -> b\n"
    )
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'ghost'$") as err:
        parse_workflow(text)
    assert err.value.line == 4
    # the dangling end may be the source, and may be named before its edge's tasks
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'x'$") as err:
        parse_workflow("edge x -> a\n" + TASK_LINE.format(name="a"))
    assert err.value.line == 1


def test_parse_rejects_missing_task_key():
    bad = "task a scatter=false cpus=1 mem=1 disk=0 timeout=1000 extra=x\n"
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(bad)
    assert err.value.line == 1


def test_parse_rejects_noninteger_value():
    bad = "task a scatter=false cpus=one mem=1 disk=0 timeout=1000 model=default\n"
    with pytest.raises(WorkflowSyntaxError):
        parse_workflow(bad)


@pytest.mark.parametrize(
    "values",
    [
        "cpus=0 mem=1 disk=0 timeout=1000",
        "cpus=1 mem=0 disk=0 timeout=1000",
        "cpus=1 mem=1 disk=-1 timeout=1000",
        "cpus=1 mem=1 disk=0 timeout=0",
    ],
)
def test_parse_rejects_out_of_range_value_on_its_line(values):
    text = "workflow w\n" + f"task a scatter=false {values} model=default\n"
    with pytest.raises(WorkflowSyntaxError) as err:
        parse_workflow(text)
    assert err.value.line == 2


# --- DAG validation against networkx ---


def test_validate_accepts_bundled_workflow():
    validate_dag(small_spec())


def test_validate_rejects_unknown_edge_endpoint():
    spec = WorkflowSpec(
        workflow_id="w",
        tasks=(TaskDefinition("a", False, make_request(), "default"),),
        edges=(("a", "ghost"),),
    )
    with pytest.raises(UnknownTaskError) as err:
        validate_dag(spec)
    # a hand-built spec has no text lines
    assert err.value.line is None


def test_unknown_task_lookups_name_the_task():
    import stratus.taskmon

    run = make_run(small_spec())
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'w/x/0'$"):
        run.instance("w/x/0")
    with pytest.raises(UnknownTaskError, match=r"^unknown task: 'ghost'$"):
        small_spec().definition("ghost")
    assert stratus.taskmon.UnknownTaskError is UnknownTaskError


def test_validate_rejects_self_loop():
    spec = WorkflowSpec(
        workflow_id="w",
        tasks=(TaskDefinition("a", False, make_request(), "default"),),
        edges=(("a", "a"),),
    )
    with pytest.raises(CycleError):
        validate_dag(spec)


def test_validate_cycle_reports_a_real_cycle():
    tasks = tuple(TaskDefinition(n, False, make_request(), "default") for n in "abc")
    spec = WorkflowSpec(
        workflow_id="w", tasks=tasks, edges=(("a", "b"), ("b", "c"), ("c", "a"))
    )
    with pytest.raises(CycleError) as err:
        validate_dag(spec)
    path = err.value.path
    assert path[0] == path[-1]
    edge_set = set(spec.edges)
    for left, right in zip(path, path[1:]):
        assert (left, right) in edge_set


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
        spec = WorkflowSpec(
            workflow_id="w",
            tasks=tuple(
                TaskDefinition(n, False, make_request(), "default") for n in names
            ),
            edges=tuple(edges),
        )
        graph = nx.DiGraph()
        graph.add_nodes_from(names)
        graph.add_edges_from(edges)
        if nx.is_directed_acyclic_graph(graph):
            validate_dag(spec)
        else:
            with pytest.raises(CycleError):
                validate_dag(spec)


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
    inst.mark_finished(40, TaskState.SUCCEEDED)
    assert inst.duration_ms == 30
    assert inst.machine == "m1"
    assert inst.state.terminal


def test_instance_rejects_skipping_queue():
    inst = make_instance()
    with pytest.raises(InvalidTransitionError):
        inst.mark_running(10, "m1")


def test_instance_rejects_finish_before_start():
    inst = make_instance()
    inst.mark_queued(5)
    inst.mark_running(10, "m1")
    with pytest.raises(WorkflowError):
        inst.mark_finished(9, TaskState.FAILED)


def test_instance_rejects_start_before_submit():
    inst = make_instance()
    inst.mark_queued(10)
    with pytest.raises(WorkflowError):
        inst.mark_running(9, "m1")


def test_instance_rejects_nonterminal_finish():
    inst = make_instance()
    inst.mark_queued(0)
    inst.mark_running(0, "m1")
    with pytest.raises(WorkflowError):
        inst.mark_finished(1, TaskState.RUNNING)


def test_instance_rejects_double_finish():
    inst = make_instance()
    inst.mark_queued(0)
    inst.mark_running(0, "m1")
    inst.mark_finished(1, TaskState.SUCCEEDED)
    with pytest.raises(InvalidTransitionError):
        inst.mark_finished(2, TaskState.FAILED)


def test_instance_record_round_trip():
    inst = make_instance()
    inst.mark_queued(5)
    inst.mark_running(10, "m1")
    inst.mark_finished(40, TaskState.FAILED)
    clone = TaskInstance.from_record(inst.to_record())
    assert clone.to_record() == inst.to_record()
    assert clone.state is TaskState.FAILED


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


def test_final_state_transitions():
    run = make_run(small_spec())
    assert resolve_final_state(run) is RunState.RUNNING
    for inst in run.instances:
        finish(inst, TaskState.SUCCEEDED)
    assert resolve_final_state(run) is RunState.SUCCEEDED


def test_final_state_failed_only_once_poisoning_settles():
    run = make_run(small_spec())
    finish(run.instances[0], TaskState.FAILED)
    rest = frozenset(i.task_id for i in run.instances[1:])
    assert resolve_final_state(run) is RunState.RUNNING
    assert resolve_final_state(run, poisoned=rest) is RunState.FAILED


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


# --- execution report ---


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


def test_execution_report_makespan_spans_all_instances():
    run = two_task_run(starts={"a": 0, "b": 10}, ends={"a": 50, "b": 80})
    report = execution_report(run)
    assert report.makespan_ms == 80
    assert (report.total, report.succeeded, report.failed) == (2, 2, 0)
    assert report.task_stats["a"].mean_ms == 50.0
    assert report.task_stats["b"].count == 1


def test_execution_report_duration_stats():
    spec = WorkflowSpec(
        workflow_id="w",
        tasks=(TaskDefinition("a", True, make_request(), "default"),),
        edges=(),
    )
    run = make_run(spec, 3)
    for offset, inst in enumerate(run.instances):
        finish(inst, TaskState.SUCCEEDED, 0, 100 + 10 * offset)
    run.final_state = RunState.SUCCEEDED
    stats = execution_report(run).task_stats["a"]
    assert (stats.count, stats.min_ms, stats.mean_ms, stats.max_ms) == (3, 100, 110.0, 120)


def test_execution_report_skips_instances_that_never_ran():
    run = make_run(small_spec())
    finish(run.instance("wf1/I/0"), TaskState.FAILED)
    run.final_state = RunState.FAILED
    report = execution_report(run)
    assert report.makespan_ms == 10
    assert report.task_stats.keys() == {"I"}
    assert report.to_record()["counts"] == {"total": 6, "succeeded": 0, "failed": 1}


def test_execution_report_refuses_running_run():
    with pytest.raises(ReportOnRunningRunError):
        execution_report(make_run(small_spec()))


def test_run_record_round_trip():
    run = two_task_run(starts={"a": 0, "b": 10}, ends={"a": 50, "b": 80})
    clone = RunRecord.from_record(run.to_record())
    assert clone.to_record() == run.to_record()
    assert clone.final_state is RunState.SUCCEEDED
    assert clone.instance("w/a/0").duration_ms == 50
