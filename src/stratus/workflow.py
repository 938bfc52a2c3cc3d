"""Workflow layer: spec parsing, instance expansion, run status, graph
rendering, and execution reports.

A workflow file declares task definitions and dependency edges; a
``WorkflowSpec``, parsed or built in code, checks its structure when it is
built.  Before a run, every definition is expanded into one or more task
instances (one per input item for scatter definitions).  Dependencies apply
all-to-all between the instance groups of the connected definitions, so a
successor instance becomes ready only once every instance of every
predecessor definition has succeeded.
"""

import copy
import enum
import re
import statistics
from dataclasses import dataclass, field
from functools import cached_property

from .textfmt import (
    LineError, directive_lines, field_dict, key_values, line_int, one_field_line, set_once
)


class WorkflowError(Exception):
    """Base class for workflow definition and lifecycle errors.  A spec's
    refusal of one of its entries names that entry in ``key``: ``"workflow"``
    for its id, ``("task", i)`` for its i-th definition, ``("edge", i)`` for
    its i-th edge; a refusal of the whole spec leaves it None."""

    key: "str | tuple[str, int] | None" = None


class WorkflowSyntaxError(LineError, WorkflowError):
    pass


class DuplicateTaskError(WorkflowError):
    def __init__(self, name: str, key=None):
        super().__init__(f"duplicate task name: {name!r}")
        self.task_name = name
        self.key = key


class InvalidNameError(WorkflowError):
    def __init__(self, name: str, rule: str, key=None):
        super().__init__(f"name must {rule}: {name!r}")
        self.name = name
        self.key = key


class UnknownTaskError(WorkflowError):
    def __init__(self, task_id: str, key=None):
        super().__init__(f"unknown task: {task_id!r}")
        self.task_id = task_id
        self.key = key


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

    def __init__(self, value: str):
        # a plain attribute, not a property: mark_finished reads it once
        # per instance
        self.terminal = value in ("succeeded", "failed")


# bound once: on Python 3.11 a member read through its enum class goes
# through EnumType.__getattr__, and the transitions below run per instance
_PENDING, _QUEUED, _RUNNING = TaskState.PENDING, TaskState.QUEUED, TaskState.RUNNING


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

    def instance_count(self, input_count: int) -> int:
        """input_count for a scatter definition, one otherwise."""
        return input_count if self.scatter else 1


@dataclass(frozen=True)
class WorkflowSpec:
    """Construction checks for at least one definition, unique names that
    fit one line without tabs and do not end in a backslash, defined edge
    endpoints and no cycle.  A CycleError names one cycle in edge order, its
    entry repeated at the end."""

    workflow_id: str
    tasks: tuple[TaskDefinition, ...]
    edges: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.tasks:
            raise WorkflowError("no tasks")
        names = self.task_names()
        keyed = {"workflow": self.workflow_id, **{("task", i): n for i, n in enumerate(names)}}
        for key, name in keyed.items():
            # the event log and the trace file are tab-separated lines
            if not one_field_line(name):
                raise InvalidNameError(name, "be one line without tabs", key)
            # DOT reads a quoted id's trailing backslash as escaping its closing quote
            if name.endswith("\\"):
                raise InvalidNameError(name, "not end in a backslash", key)
        if len(self._by_name) < len(names):
            # the first name to repeat, at its second definition
            i = next(i for i, n in enumerate(names) if n in names[:i])
            raise DuplicateTaskError(names[i], ("task", i))
        for i, edge in enumerate(self.edges):
            for name in edge:
                if name not in self._by_name:
                    raise UnknownTaskError(name, ("edge", i))
        preds, succs = self.adjacency
        # Kahn's pass: a definition is done once all its predecessors are done
        waiting = {name: len(preds.get(name, ())) for name in self._by_name}
        done = [name for name, count in waiting.items() if not count]
        for name in done:
            for succ in succs.get(name, ()):
                waiting[succ] -= 1
                if not waiting[succ]:
                    done.append(succ)
        if len(done) < len(waiting):
            # every definition left over waits on another left-over one:
            # walk back through those until a name repeats
            name = next(n for n, count in waiting.items() if count)
            path = []
            while name not in path:
                path.append(name)
                name = next(p for p in preds[name] if waiting[p])
            raise CycleError([name, *reversed(path[path.index(name):])])

    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]

    # Indexes are built on first use; cached_property stores them in the
    # instance dict, which the frozen dataclass does not guard.

    @cached_property
    def _by_name(self) -> dict[str, TaskDefinition]:
        return {t.name: t for t in self.tasks}

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


@dataclass(slots=True)
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
        if self.state is not _PENDING:
            raise InvalidTransitionError(self.task_id, self.state, "queue")
        self.state = _QUEUED
        self.submit_ms = t_ms

    def mark_running(self, t_ms: int, machine: str) -> None:
        if self.state is not _QUEUED:
            raise InvalidTransitionError(self.task_id, self.state, "start")
        if t_ms < self.submit_ms:
            raise WorkflowError(f"{self.task_id}: start {t_ms} before submit {self.submit_ms}")
        self.state = _RUNNING
        # machine before start: a task's derived log names the machine as
        # soon as a live reader sees the start
        self.machine = machine
        self.start_ms = t_ms

    def mark_finished(self, t_ms: int, state: TaskState) -> None:
        if self.state is not _RUNNING:
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
            record["task_id"],
            record["definition"],
            TaskState(record["state"]),
            record.get("machine"),
            record.get("submit_ms"),
            record.get("start_ms"),
            record.get("end_ms"),
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
            instances=[copy.copy(i) for i in self.instances],
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


@dataclass(slots=True)
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
            "task_stats": {name: field_dict(s) for name, s in self.task_stats.items()},
        }


_TASK_KEYS = ("scatter", "cpus", "mem", "disk", "timeout", "model")


def parse_workflow(text: str, default_workflow_id: str = "workflow") -> WorkflowSpec:
    """Parse the line-oriented workflow format.

    Lines: an optional ``workflow <id>`` header, at most once, ``task <name> scatter=<bool>
    cpus=<n> mem=<bytes> disk=<bytes> timeout=<ms> model=<key>``, and
    ``edge <from> -> <to>``.  Blank lines and ``#`` comments are ignored.
    The spec checks its own structure and names the entry it refuses in
    ``key``; the parser raises a ``WorkflowSyntaxError`` at the line that
    gave that entry, with the spec's own error as its ``__cause__``.  A
    refusal that no line gave (no tasks, a cycle, an invalid default id)
    passes through unchanged.
    """
    workflow_id = default_workflow_id
    tasks: list[TaskDefinition] = []
    edges: list[tuple[str, str]] = []
    lines: dict = {}  # entry key, as the spec names it -> the line that gave it
    for lineno, line in directive_lines(text):
        parts = line.split()
        if parts[0] == "workflow":
            if len(parts) != 2:
                raise WorkflowSyntaxError(lineno, "expected 'workflow <id>'")
            set_once(lines, "workflow", lineno, WorkflowSyntaxError)
            workflow_id = parts[1]
        elif parts[0] == "task":
            if len(parts) != 8:
                raise WorkflowSyntaxError(
                    lineno,
                    "expected 'task <name> scatter= cpus= mem= disk= timeout= model='",
                )
            kv = key_values(parts[2:], _TASK_KEYS, lineno, WorkflowSyntaxError)
            cpus, mem, disk, timeout = [
                line_int(kv[key], lineno, key, WorkflowSyntaxError)
                for key in ("cpus", "mem", "disk", "timeout")
            ]
            try:
                requested = ResourceRequest(cpus, mem, disk, timeout)
            except WorkflowError as exc:
                raise WorkflowSyntaxError(lineno, str(exc)) from None
            if kv["scatter"] not in ("true", "false"):
                raise WorkflowSyntaxError(lineno, f"expected true or false, got {kv['scatter']!r}")
            lines["task", len(tasks)] = lineno
            tasks.append(
                TaskDefinition(
                    name=parts[1],
                    scatter=kv["scatter"] == "true",
                    requested=requested,
                    runtime_model=kv["model"],
                )
            )
        elif parts[0] == "edge":
            if len(parts) != 4 or parts[2] != "->":
                raise WorkflowSyntaxError(lineno, "expected 'edge <from> -> <to>'")
            lines["edge", len(edges)] = lineno
            edges.append((parts[1], parts[3]))
        else:
            raise WorkflowSyntaxError(lineno, f"unknown directive {parts[0]!r}")
    try:
        return WorkflowSpec(workflow_id=workflow_id, tasks=tuple(tasks), edges=tuple(edges))
    except WorkflowError as exc:
        if exc.key not in lines:
            raise
        raise WorkflowSyntaxError(lines[exc.key], str(exc)) from exc


def expand_instances(spec: WorkflowSpec, input_count: int) -> list[TaskInstance]:
    """Expand definitions into pending instances: input_count per scatter
    definition, one otherwise.  Definition order, then index order."""
    if input_count <= 0:
        raise WorkflowError(f"input_count must be positive, got {input_count}")
    instances: list[TaskInstance] = []
    for definition in spec.tasks:
        name = definition.name
        prefix = f"{spec.workflow_id}/{name}/"
        instances += [
            TaskInstance(f"{prefix}{index}", name)
            for index in range(definition.instance_count(input_count))
        ]
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


_DOT_BARE_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_quoted(text: str) -> str:
    return '"' + text.replace('"', '\\"') + '"'


def export_dot(spec: WorkflowSpec) -> str:
    """Render the definition graph as DOT.  Scatter nodes are labeled with
    the symbolic multiplicity xK, single-instance nodes with x1.  The graph
    id is bare when DOT reads it as a plain ID, quoted otherwise.  Output
    is byte-stable: nodes in definition order, edges in file order."""
    graph_id = spec.workflow_id
    bare = _DOT_BARE_ID.fullmatch(graph_id) and graph_id.lower() not in _DOT_KEYWORDS
    lines = [f"digraph {graph_id if bare else _dot_quoted(graph_id)} {{"]
    for definition in spec.tasks:
        label = f"{definition.name} [{'xK' if definition.scatter else 'x1'}]"
        lines.append(f"  {_dot_quoted(definition.name)} [label={_dot_quoted(label)}];")
    for a, b in spec.edges:
        lines.append(f"  {_dot_quoted(a)} -> {_dot_quoted(b)};")
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
    status = workflow_status(run)
    if status.state is RunState.RUNNING:
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
        total=status.total,
        succeeded=status.finished,
        failed=status.failures,
        task_stats=task_stats,
    )
