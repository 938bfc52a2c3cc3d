"""Workflow layer: spec parsing, DAG validation, instance expansion, run
status, graph rendering, and execution reports.

A workflow file declares task definitions and dependency edges.  Before a
run, every definition is expanded into one or more task instances (one per
input item for scatter definitions).  Dependencies apply all-to-all between
the instance groups of the connected definitions, so a successor instance
becomes ready only once every instance of every predecessor definition has
succeeded.
"""

import enum
import statistics
from dataclasses import dataclass, field, replace
from functools import cached_property


class WorkflowError(Exception):
    """Base class for workflow definition and lifecycle errors."""


class WorkflowSyntaxError(WorkflowError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DuplicateTaskError(WorkflowSyntaxError):
    def __init__(self, line: int, name: str):
        super().__init__(line, f"duplicate task name: {name!r}")
        self.task_name = name


class UnknownTaskError(WorkflowError):
    def __init__(self, task_id: str):
        super().__init__(f"unknown task: {task_id!r}")
        self.task_id = task_id
        # the workflow text line that named the task, when parsing found it
        self.line: int | None = None


class CycleError(WorkflowError):
    def __init__(self, path: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(path))
        self.path = path


class InvalidTransitionError(WorkflowError):
    def __init__(self, task_id: str, state: "TaskState", attempted: str):
        super().__init__(f"{task_id}: cannot {attempted} from state {state.value}")
        self.task_id = task_id


class ReportOnRunningRunError(WorkflowError):
    def __init__(self, run_id: str):
        super().__init__(f"run {run_id} has not finished")
        self.run_id = run_id


class TaskState(enum.Enum):
    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"

    @property
    def terminal(self) -> bool:
        return self in (TaskState.SUCCEEDED, TaskState.FAILED)


class RunState(enum.Enum):
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"


@dataclass(frozen=True)
class ResourceRequest:
    cpu_cores: int
    memory_bytes: int
    disk_bytes: int
    max_runtime_ms: int

    def __post_init__(self):
        if self.cpu_cores <= 0:
            raise WorkflowError(f"cpu_cores must be positive, got {self.cpu_cores}")
        if self.memory_bytes <= 0:
            raise WorkflowError(f"memory_bytes must be positive, got {self.memory_bytes}")
        if self.disk_bytes < 0:
            raise WorkflowError(f"disk_bytes must be nonnegative, got {self.disk_bytes}")
        if self.max_runtime_ms <= 0:
            raise WorkflowError(
                f"max_runtime_ms must be positive, got {self.max_runtime_ms}"
            )


@dataclass(frozen=True)
class TaskDefinition:
    name: str
    scatter: bool
    requested: ResourceRequest
    runtime_model: str


@dataclass(frozen=True)
class WorkflowSpec:
    workflow_id: str
    tasks: tuple[TaskDefinition, ...]
    edges: tuple[tuple[str, str], ...]

    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]

    # Indexes are built on first use; cached_property stores them in the
    # instance dict, which the frozen dataclass does not guard.

    @cached_property
    def _by_name(self) -> dict[str, TaskDefinition]:
        by_name: dict[str, TaskDefinition] = {}
        for t in self.tasks:
            by_name.setdefault(t.name, t)
        return by_name

    @cached_property
    def adjacency(self) -> tuple[dict[str, list[str]], dict[str, list[str]]]:
        """(predecessors, successors) by task name, each list in edge order."""
        preds: dict[str, list[str]] = {}
        succs: dict[str, list[str]] = {}
        for a, b in self.edges:
            preds.setdefault(b, []).append(a)
            succs.setdefault(a, []).append(b)
        return preds, succs

    def definition(self, name: str) -> TaskDefinition:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownTaskError(name) from None

    def predecessors(self, name: str) -> list[str]:
        return list(self.adjacency[0].get(name, ()))

    def successors(self, name: str) -> list[str]:
        return list(self.adjacency[1].get(name, ()))


@dataclass
class TaskInstance:
    """One schedulable unit of work.  Fields mutate only through the mark_*
    methods, which enforce the pending -> queued -> running -> terminal
    lifecycle and timestamp ordering."""

    task_id: str
    definition: str
    state: TaskState = TaskState.PENDING
    machine: str | None = None
    submit_ms: int | None = None
    start_ms: int | None = None
    end_ms: int | None = None

    @property
    def index(self) -> int:
        return int(self.task_id.rsplit("/", 1)[1])

    @property
    def duration_ms(self) -> int | None:
        if self.start_ms is None or self.end_ms is None:
            return None
        return self.end_ms - self.start_ms

    def mark_queued(self, t_ms: int) -> None:
        if self.state is not TaskState.PENDING:
            raise InvalidTransitionError(self.task_id, self.state, "queue")
        self.state = TaskState.QUEUED
        self.submit_ms = t_ms

    def mark_running(self, t_ms: int, machine: str) -> None:
        if self.state is not TaskState.QUEUED:
            raise InvalidTransitionError(self.task_id, self.state, "start")
        if t_ms < self.submit_ms:
            raise WorkflowError(f"{self.task_id}: start {t_ms} before submit {self.submit_ms}")
        self.state = TaskState.RUNNING
        self.machine = machine
        self.start_ms = t_ms

    def mark_finished(self, t_ms: int, state: TaskState) -> None:
        if self.state is not TaskState.RUNNING:
            raise InvalidTransitionError(self.task_id, self.state, "finish")
        if not state.terminal:
            raise WorkflowError(f"{self.task_id}: {state.value} is not terminal")
        if t_ms < self.start_ms:
            raise WorkflowError(f"{self.task_id}: end {t_ms} before start {self.start_ms}")
        self.state = state
        self.end_ms = t_ms

    def to_record(self) -> dict:
        return {
            "task_id": self.task_id,
            "definition": self.definition,
            "state": self.state.value,
            "machine": self.machine,
            "submit_ms": self.submit_ms,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
        }

    @classmethod
    def from_record(cls, record: dict) -> "TaskInstance":
        return cls(
            task_id=record["task_id"],
            definition=record["definition"],
            state=TaskState(record["state"]),
            machine=record.get("machine"),
            submit_ms=record.get("submit_ms"),
            start_ms=record.get("start_ms"),
            end_ms=record.get("end_ms"),
        )


@dataclass
class RunRecord:
    """One execution of a workflow.  submission_ms is wall-clock epoch
    milliseconds; instance timestamps are simulated milliseconds."""

    run_id: str
    workflow_id: str
    submission_ms: int
    instances: list[TaskInstance]
    final_state: RunState = RunState.RUNNING

    def instance(self, task_id: str) -> TaskInstance:
        for inst in self.instances:
            if inst.task_id == task_id:
                return inst
        raise UnknownTaskError(task_id)

    def snapshot(self) -> "RunRecord":
        """Copy for concurrent readers; the live run can keep mutating."""
        return RunRecord(
            run_id=self.run_id,
            workflow_id=self.workflow_id,
            submission_ms=self.submission_ms,
            instances=[replace(i) for i in self.instances],
            final_state=self.final_state,
        )

    def to_record(self) -> dict:
        return {
            "run_id": self.run_id,
            "workflow_id": self.workflow_id,
            "submission_ms": self.submission_ms,
            "final_state": self.final_state.value,
            "instances": [i.to_record() for i in self.instances],
        }

    @classmethod
    def from_record(cls, record: dict) -> "RunRecord":
        return cls(
            run_id=record["run_id"],
            workflow_id=record["workflow_id"],
            submission_ms=record["submission_ms"],
            final_state=RunState(record["final_state"]),
            instances=[TaskInstance.from_record(r) for r in record["instances"]],
        )


@dataclass(frozen=True)
class WorkflowStatusReport:
    state: RunState
    finished: int
    total: int
    failures: int

    @property
    def progress(self) -> float:
        """Finished over total; an empty run counts as complete."""
        return self.finished / self.total if self.total else 1.0


@dataclass(frozen=True)
class DurationStats:
    count: int
    min_ms: int
    mean_ms: float
    max_ms: int


@dataclass(frozen=True)
class ExecutionReport:
    run_id: str
    submission_ms: int
    makespan_ms: int
    total: int
    succeeded: int
    failed: int
    task_stats: dict[str, DurationStats] = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "run_id": self.run_id,
            "submission_ms": self.submission_ms,
            "makespan_ms": self.makespan_ms,
            "counts": {
                "total": self.total,
                "succeeded": self.succeeded,
                "failed": self.failed,
            },
            "task_stats": {
                name: {
                    "count": s.count,
                    "min_ms": s.min_ms,
                    "mean_ms": s.mean_ms,
                    "max_ms": s.max_ms,
                }
                for name, s in self.task_stats.items()
            },
        }


def _parse_bool(text: str, line: int) -> bool:
    if text == "true":
        return True
    if text == "false":
        return False
    raise WorkflowSyntaxError(line, f"expected true or false, got {text!r}")


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise WorkflowSyntaxError(line, f"{key} is not an integer: {text!r}") from None


_TASK_KEYS = ("scatter", "cpus", "mem", "disk", "timeout", "model")


def parse_workflow(text: str, default_workflow_id: str = "workflow") -> WorkflowSpec:
    """Parse the line-oriented workflow format.

    Lines: optional ``workflow <id>`` header, ``task <name> scatter=<bool>
    cpus=<n> mem=<bytes> disk=<bytes> timeout=<ms> model=<key>``, and
    ``edge <from> -> <to>``.  Blank lines and ``#`` comments are ignored.
    The parsed spec is fully validated, including acyclicity.
    """
    workflow_id = default_workflow_id
    tasks: list[TaskDefinition] = []
    edges: list[tuple[str, str]] = []
    edge_lines: list[int] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "workflow":
            if len(parts) != 2:
                raise WorkflowSyntaxError(lineno, "expected 'workflow <id>'")
            workflow_id = parts[1]
        elif parts[0] == "task":
            if len(parts) != 8:
                raise WorkflowSyntaxError(
                    lineno,
                    "expected 'task <name> scatter= cpus= mem= disk= timeout= model='",
                )
            name = parts[1]
            if name in seen:
                raise DuplicateTaskError(lineno, name)
            seen.add(name)
            kv = {}
            for part in parts[2:]:
                if "=" not in part:
                    raise WorkflowSyntaxError(lineno, f"expected key=value, got {part!r}")
                key, _, value = part.partition("=")
                kv[key] = value
            missing = [k for k in _TASK_KEYS if k not in kv]
            if missing:
                raise WorkflowSyntaxError(lineno, f"missing keys: {missing}")
            unknown = [k for k in kv if k not in _TASK_KEYS]
            if unknown:
                raise WorkflowSyntaxError(lineno, f"unknown keys: {unknown}")
            cpus, mem, disk, timeout = [
                _parse_int(kv[key], lineno, key) for key in ("cpus", "mem", "disk", "timeout")
            ]
            try:
                requested = ResourceRequest(cpus, mem, disk, timeout)
            except WorkflowError as exc:
                raise WorkflowSyntaxError(lineno, str(exc)) from None
            tasks.append(
                TaskDefinition(
                    name=name,
                    scatter=_parse_bool(kv["scatter"], lineno),
                    requested=requested,
                    runtime_model=kv["model"],
                )
            )
        elif parts[0] == "edge":
            if len(parts) != 4 or parts[2] != "->":
                raise WorkflowSyntaxError(lineno, "expected 'edge <from> -> <to>'")
            edges.append((parts[1], parts[3]))
            edge_lines.append(lineno)
        else:
            raise WorkflowSyntaxError(lineno, f"unknown directive {parts[0]!r}")
    if not tasks:
        raise WorkflowError("no tasks")
    spec = WorkflowSpec(workflow_id=workflow_id, tasks=tuple(tasks), edges=tuple(edges))
    try:
        validate_dag(spec)
    except UnknownTaskError as exc:
        # validate_dag checks the edges in order, so the first edge naming
        # the unknown task is the first dangling one
        exc.line = next(line for edge, line in zip(edges, edge_lines) if exc.task_id in edge)
        raise
    return spec


def validate_dag(spec: WorkflowSpec) -> None:
    """Check that every edge endpoint resolves and the edge relation is
    acyclic.  Raises CycleError naming one cycle as a task list with the
    entry task repeated at the end."""
    names = set(spec.task_names())
    for a, b in spec.edges:
        if a not in names:
            raise UnknownTaskError(a)
        if b not in names:
            raise UnknownTaskError(b)
    successors = spec.adjacency[1]

    WHITE, GRAY, BLACK = 0, 1, 2
    color = {n: WHITE for n in names}
    for root in spec.task_names():
        if color[root] != WHITE:
            continue
        stack = [(root, iter(successors.get(root, ())))]
        path = [root]
        color[root] = GRAY
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GRAY:
                    cycle = path[path.index(nxt):] + [nxt]
                    raise CycleError(cycle)
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, iter(successors.get(nxt, ()))))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()


def expand_instances(spec: WorkflowSpec, input_count: int) -> list[TaskInstance]:
    """Expand definitions into pending instances: input_count per scatter
    definition, one otherwise.  Definition order, then index order."""
    if input_count <= 0:
        raise WorkflowError(f"input_count must be positive, got {input_count}")
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


def ready_tasks(run: RunRecord, spec: WorkflowSpec) -> set[str]:
    """Pending instances whose predecessor definitions have fully succeeded.
    Dependencies are all-to-all between instance groups, so one unfinished
    predecessor instance blocks the whole successor group."""
    succeeded_by_def = {definition.name: True for definition in spec.tasks}
    for inst in run.instances:
        if inst.state is not TaskState.SUCCEEDED:
            succeeded_by_def[inst.definition] = False
    ready = set()
    for inst in run.instances:
        if inst.state is not TaskState.PENDING:
            continue
        if all(succeeded_by_def[p] for p in spec.predecessors(inst.definition)):
            ready.add(inst.task_id)
    return ready


def workflow_status(run: RunRecord) -> WorkflowStatusReport:
    """Progress summary: finished counts successful instances."""
    return WorkflowStatusReport(
        state=run.final_state,
        finished=sum(1 for i in run.instances if i.state is TaskState.SUCCEEDED),
        total=len(run.instances),
        failures=sum(1 for i in run.instances if i.state is TaskState.FAILED),
    )


def resolve_final_state(run: RunRecord, poisoned: frozenset[str] = frozenset()) -> RunState:
    """Derive the run's final state.  ``poisoned`` holds instances that can
    never become eligible (their ancestry failed); they stay pending forever
    and do not keep the run alive."""
    states = [i.state for i in run.instances]
    if all(s is TaskState.SUCCEEDED for s in states):
        return RunState.SUCCEEDED
    open_instances = [
        i for i in run.instances if not i.state.terminal and i.task_id not in poisoned
    ]
    if any(s is TaskState.FAILED for s in states) and not open_instances:
        return RunState.FAILED
    return RunState.RUNNING


def export_dot(spec: WorkflowSpec) -> str:
    """Render the definition graph as DOT.  Scatter nodes are labeled with
    the symbolic multiplicity xK, single-instance nodes with x1.  Output is
    byte-stable: nodes in definition order, edges in file order."""
    lines = [f"digraph {spec.workflow_id} {{"]
    for definition in spec.tasks:
        multiplicity = "xK" if definition.scatter else "x1"
        lines.append(f'  "{definition.name}" [label="{definition.name} [{multiplicity}]"];')
    for a, b in spec.edges:
        lines.append(f'  "{a}" -> "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def makespan_ms(run: RunRecord) -> int:
    """Latest end minus earliest start over started instances; 0 until an
    instance has ended."""
    started = [i for i in run.instances if i.start_ms is not None]
    ends = [i.end_ms for i in started if i.end_ms is not None]
    return max(ends) - min(i.start_ms for i in started) if ends else 0


def execution_report(run: RunRecord) -> ExecutionReport:
    """Summarize a finished run: makespan over started instances, counts,
    and per-definition duration statistics over terminal instances."""
    if run.final_state is RunState.RUNNING:
        raise ReportOnRunningRunError(run.run_id)
    durations: dict[str, list[int]] = {}
    for inst in run.instances:
        group = durations.setdefault(inst.definition, [])
        if inst.state.terminal and inst.duration_ms is not None:
            group.append(inst.duration_ms)
    task_stats = {
        name: DurationStats(
            count=len(group),
            min_ms=min(group),
            mean_ms=statistics.fmean(group),
            max_ms=max(group),
        )
        for name, group in durations.items()
        if group
    }
    return ExecutionReport(
        run_id=run.run_id,
        submission_ms=run.submission_ms,
        makespan_ms=makespan_ms(run),
        total=len(run.instances),
        succeeded=sum(1 for i in run.instances if i.state is TaskState.SUCCEEDED),
        failed=sum(1 for i in run.instances if i.state is TaskState.FAILED),
        task_stats=task_stats,
    )
