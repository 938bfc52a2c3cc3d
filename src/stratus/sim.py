"""Deterministic discrete-event cluster simulator.

Stands in for a real cluster: a virtual millisecond clock advances through a
heap of (time, sequence) events while task models generate synthetic metric
values.  Everything an execution produces (event log, trace file, machine
samples) is a pure function of (workflow, cluster, input_count, seed,
topology, injections), so equal inputs give byte-identical artifacts.

One root seed expands into an independent random stream per task instance,
keyed by a hash of the instance id.  Adding machines or reordering
unrelated work therefore never perturbs another task's draws.

Each event costs work proportional to what it changed, not to the size of
the run.  The engine keeps these invariants instead of rescanning every
instance (README's "Engine cost model" records what they were measured to
cost, and what was measured and left out):

- Readiness is incremental.  Each definition's row counts its instances
  not yet succeeded.  Dependencies are all-to-all between instance
  groups, so a definition becomes ready exactly when the last of its
  predecessors' counts reaches 0.  Successors are therefore re-checked
  only when a definition's last instance succeeds, and each definition is
  queued once, in spec order and then index order, as ``ready_tasks``
  would order it.  The t=0 pump is seeded with the definitions that have
  no predecessors.
- Completion comes from a running count of open instances (not terminal
  and not poisoned): the run can finish only once it is 0.  A run ends
  once, at its ``run_completed`` event: the final state is set, the
  event heap is emptied, and ``inject`` refuses a fault from then on.
- A scheduler pass runs at t=0 and after each completion, and not after
  a machine fault: its kills free capacity only on the machine it has just
  marked unhealthy, which takes no new task, and a failure makes nothing
  ready, so that pass could start nothing.
- Progress is folded one way, by ``ProgressFold``: ``step`` folds an
  event and builds nothing, and ``report`` is the one place a progress
  record is built from fold state.  Every stream, live or finished, is
  ``replay_progress`` of the run's own event list from event 0, read up
  to the last append (``SimulationResult.ended`` is set after it), and no
  second copy is kept.  A live reader that has caught up waits for the
  next append; with no reader waiting, an attached run pays one listener
  check per event and no fold.  The service answers ``workflow_status``
  from a fold it keeps per run, steps over the events appended since the
  last request, and reports once.  ``workflow.workflow_status`` derives
  the same report from the instances' states: a stored run's status reads
  it, and the fold is tested against it.
- Code-part profiles and application logs are derived on query, and so
  is a success's diagnosis: the run stores a ``Diagnosis`` for each
  failed instance only (``SimulationResult.diagnoses``), and
  ``SimulationResult.diagnosis`` derives a success's (``none``,
  ``exit 0``) from its trace record.  The engine sets an instance's
  machine before its start and stores a failure's trace record before its
  diagnosis, so a read that races a task's end sees its start line alone
  or its whole log.
- Each run fact is kept once.  The run's one ``SimulationResult`` makes
  its own lists and dicts, and the engine writes each record into it
  alone; machine samples live only in the registry's per-machine series.
  An ended run's execution report is computed on its first read and kept
  (``SimulationResult.report``).
- Each definition's facts live in one row built when the run starts: the
  definition, its MetricPlan, its instances, its spec position, its count
  of instances not yet succeeded and a poisoned flag.  The plan holds
  every value of the metric formula that no draw touches, and the model's
  failure probability; a started instance keeps only the values its three
  draws decide, and its trace record reads the rest from the plan.  Task
  faults are indexed by target id as they are injected.  One generator,
  the C base ``_random.Random`` (whose ``seed`` skips
  ``random.Random.seed``'s Python wrapper), is re-seeded per instance.
- What holds for the whole run is computed once per run: the event
  texts that name only a definition or a machine, and the sorted machine
  ids each sample tick walks.  Failure texts are built per failure.
- Re-seeding the Mersenne Twister per instance (hashing the stream seed,
  ``init_by_array`` and the first draw's state twist, about 7 us, a third
  of a fig1 run) is the floor: the pinned artifact bytes fix it.
- A started instance is one record, its ``_Execution``: the instance, its
  row, its exit code, its footprint (an OOM's forced one) and its drawn
  runtime and counters, so finishing it looks nothing up.  Each heap
  entry names its handler (completion, machine fault or sample tick),
  called with the entry's time and payload.  A success decrements its
  row's count inline, and the loop sets the clock to each popped time:
  pops come in time order.
- Per-instance reads are plain: ``TaskState.terminal`` is a member
  attribute, the enum members read per instance are bound once at module
  level (Python 3.11 reads a member through its class via
  ``EnumType.__getattr__``), and a finished instance's status text is
  passed as a literal rather than read from ``TaskState.value``.
- An instance that ran its full planned runtime takes its trace counters
  as drawn; only a record cut short (a timeout or a machine kill) scales
  them.
- The machine's status, a locked registry read, is read only for a
  failed instance, the only one diagnosed when it ends.
- An instance's start and finish build only what the run keeps: its
  trace record lands once, in ``trace_by_id``.  An instance finishes once,
  so that dict's order is completion order and ``trace_records`` reads
  it; the service's task lookups read it and the instance map.
- Poisoning walks definition rows, and stops at rows already poisoned,
  whose descendants were poisoned with them.
- The records built per instance or per event (``EventRecord``,
  ``_Execution``, and the layers' ``MachineSample``, ``TaskTraceRecord``,
  ``Diagnosis`` and ``WorkflowStatusReport``) are slotted dataclasses, not
  frozen ones.  Each is written once, when it is built,
  and nothing hashes it; a frozen dataclass sets every field through
  ``object.__setattr__``, which makes building one about four times as
  costly.  Types used as dict keys or set members (``ResourceRequest``,
  ``ResourceVector``, ``TaskDefinition``, ``FaultInjection``) stay frozen.
- The cyclic garbage collector is paused while a run executes.  Nearly
  everything a run allocates lives as long as its result, so collections
  mid-run would traverse the growing young heap again and again for almost
  nothing.  Once the run returns, the next allocation collects the run's
  objects in one young-generation pass, so the collector's work for a run
  is the same size and falls at the same point every time, not wherever
  the allocation count happened to cross a threshold.  The pause is
  process-wide and lasts for the run only; a collector the caller had
  disabled stays disabled.
"""

import _random
import enum
import gc
import hashlib
import heapq
import itertools
import threading
import time
import uuid
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
from pathlib import Path

from .blueprint import BlueprintError, TopologyMode
from .machine import (
    MachineDescriptor,
    MachineRegistry,
    MachineSample,
    MachineStatus,
    parse_cluster,
)
from .resman import ResourceManager
from .taskmon import (
    Diagnosis,
    LogEntry,
    LogLevel,
    TaskTraceRecord,
    diagnose,
    format_trace_file,
    success_diagnosis,
    task_log,
)
from .textfmt import LineError, directive_lines, line_int, one_field_line, parse_decimal, set_once
from .workflow import (
    ExecutionReport,
    InvalidNameError,
    RunRecord,
    RunState,
    TaskDefinition,
    TaskInstance,
    TaskState,
    UnknownTaskError,
    WorkflowSpec,
    WorkflowStatusReport,
    execution_report,
    expand_instances,
    parse_workflow,
    # ready_tasks and workflow_status are not called here; they stay
    # importable as stratus.sim.* because the benchmark's tracer wraps them
    # by that name
    ready_tasks,
    workflow_status,
)

SAMPLE_CADENCE_MS = 1000

# bound once, as workflow binds TaskState's members for its transitions
_SUCCEEDED, _FAILED = TaskState.SUCCEEDED, TaskState.FAILED

EXIT_OOM = 137
EXIT_TIMEOUT = 124
EXIT_MACHINE_KILL = 143
EXIT_TASK_ERROR = 1


class SimulationError(Exception):
    pass


class InjectionInPastError(SimulationError):
    def __init__(self, at_ms: int, now_ms: int):
        super().__init__(f"injection at {at_ms} ms is not after current time {now_ms} ms")


class NonQuiescentError(SimulationError):
    def __init__(self, stuck: list[str]):
        super().__init__(
            "event queue drained with non-terminal instances: " + ", ".join(stuck)
        )
        self.stuck = stuck


class InjectionKind(enum.Enum):
    TASK_OOM = "TaskOOM"
    TASK_NON_ZERO_EXIT = "TaskNonZeroExit"
    MACHINE_UNHEALTHY = "MachineUnhealthy"


@dataclass(frozen=True)
class FaultInjection:
    """A scripted fault.  Task kinds arm at at_ms and fire when the target
    instance starts at or after it; MachineUnhealthy flips the machine at
    exactly at_ms."""

    kind: InjectionKind
    target: str
    at_ms: int = 0

    def __post_init__(self):
        if self.at_ms < 0:
            raise SimulationError(f"at_ms must be nonnegative, got {self.at_ms}")


@dataclass(frozen=True)
class TaskModel:
    """Generator parameters for one task archetype's synthetic metrics."""

    model_key: str
    base_runtime_ms: int
    runtime_jitter_pct: float
    cpu_pct_mean: int
    rss_fraction_of_request: float
    io_read_bytes: int
    io_write_bytes: int
    syscall_rate_per_s: float
    cpu_wait_fraction: float
    failure_probability: float

    def __post_init__(self):
        if self.base_runtime_ms <= 0:
            raise SimulationError(f"{self.model_key}: base_runtime_ms must be positive")
        if not 0 <= self.runtime_jitter_pct <= 100:
            raise SimulationError(f"{self.model_key}: jitter must be in [0, 100]")
        for name in ("rss_fraction_of_request", "cpu_wait_fraction", "failure_probability"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise SimulationError(f"{self.model_key}: {name} must be in [0, 1]")


BUILTIN_MODELS: dict[str, TaskModel] = {model.model_key: model for model in (
    TaskModel(
        model_key="default",
        base_runtime_ms=3000,
        runtime_jitter_pct=10,
        cpu_pct_mean=90,
        rss_fraction_of_request=0.5,
        io_read_bytes=64 * 1024 * 1024,
        io_write_bytes=32 * 1024 * 1024,
        syscall_rate_per_s=2000,
        cpu_wait_fraction=0.05,
        failure_probability=0.0,
    ),
    TaskModel(
        model_key="quick",
        base_runtime_ms=1200,
        runtime_jitter_pct=10,
        cpu_pct_mean=70,
        rss_fraction_of_request=0.3,
        io_read_bytes=16 * 1024 * 1024,
        io_write_bytes=8 * 1024 * 1024,
        syscall_rate_per_s=1500,
        cpu_wait_fraction=0.03,
        failure_probability=0.0,
    ),
    TaskModel(
        model_key="cpu_heavy",
        base_runtime_ms=5000,
        runtime_jitter_pct=15,
        cpu_pct_mean=180,
        rss_fraction_of_request=0.6,
        io_read_bytes=8 * 1024 * 1024,
        io_write_bytes=4 * 1024 * 1024,
        syscall_rate_per_s=500,
        cpu_wait_fraction=0.10,
        failure_probability=0.0,
    ),
    TaskModel(
        model_key="io_heavy",
        base_runtime_ms=4000,
        runtime_jitter_pct=15,
        cpu_pct_mean=40,
        rss_fraction_of_request=0.4,
        io_read_bytes=512 * 1024 * 1024,
        io_write_bytes=256 * 1024 * 1024,
        syscall_rate_per_s=6000,
        cpu_wait_fraction=0.08,
        failure_probability=0.0,
    ),
    TaskModel(
        model_key="flaky",
        base_runtime_ms=2500,
        runtime_jitter_pct=10,
        cpu_pct_mean=85,
        rss_fraction_of_request=0.5,
        io_read_bytes=32 * 1024 * 1024,
        io_write_bytes=16 * 1024 * 1024,
        syscall_rate_per_s=1800,
        cpu_wait_fraction=0.05,
        failure_probability=0.15,
    ),
)}


@dataclass(slots=True)
class EventRecord:
    t_ms: int
    kind: str
    subject: str
    detail: str


class EventLogSyntaxError(LineError, SimulationError):
    prefix = "event log line"


def _submitted_total(detail: str) -> int:
    """The ``instances=`` total of a ``run_submitted`` detail."""
    # unpacking raises ValueError unless the detail holds exactly one
    (total,) = [token for token in detail.split() if token.startswith("instances=")]
    return parse_decimal(total[len("instances="):], canonical=True)


def _final_state(detail: str) -> RunState:
    """The state of a ``run_completed`` detail, ``final=<state>``."""
    if not detail.startswith("final="):
        raise ValueError(detail)
    return RunState(detail[len("final="):])


# the details that ProgressFold reads, by event kind
_PROGRESS_DETAILS = {"run_submitted": _submitted_total, "run_completed": _final_state}


def parse_event_log(text: str) -> list[EventRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise EventLogSyntaxError(lineno, "expected 4 fields")
        try:
            t_ms = parse_decimal(parts[0], canonical=True)
        except ValueError:
            raise EventLogSyntaxError(lineno, f"time is not an integer: {parts[0]!r}") from None
        kind, detail = parts[1], parts[3]
        if kind in _PROGRESS_DETAILS:
            try:
                _PROGRESS_DETAILS[kind](detail)
            except ValueError:
                raise EventLogSyntaxError(lineno, f"bad {kind} detail: {detail!r}") from None
        records.append(EventRecord(t_ms, kind, parts[2], detail))
    return records


class ProgressFold:
    """A run's progress folded from its event log one event at a time.
    ``step`` folds an event and says whether it changed the run's progress;
    ``report`` is the progress record of the events folded so far, and the
    one place a record is built from fold state.  ``total`` stands until
    ``run_submitted`` is read."""

    def __init__(self, total: int = 0):
        self.state = RunState.RUNNING
        self.finished = 0
        self.total = total
        self.failures = 0

    def step(self, event: EventRecord) -> bool:
        kind = event.kind
        if kind == "instance_succeeded":
            self.finished += 1
        elif kind == "instance_failed":
            self.failures += 1
        elif kind == "run_completed":
            self.state = _final_state(event.detail)
        elif kind == "run_submitted":
            self.total = _submitted_total(event.detail)
            return False
        else:
            return kind in ("instance_queued", "instance_started")
        return True

    def report(self) -> WorkflowStatusReport:
        return WorkflowStatusReport(self.state, self.finished, self.total, self.failures)


def replay_progress(
    events: list[EventRecord], fold: ProgressFold | None = None
) -> list[WorkflowStatusReport]:
    """Recompute the progress stream from a run's events alone (a log's text
    goes through ``parse_event_log`` first): one record per state-changing
    event.  With ``fold``, continue that fold over the events, as a live
    reader does with each batch it reads."""
    fold = fold or ProgressFold()
    return [fold.report() for event in events if fold.step(event)]


def _stream_seed(seed: int, task_id: str) -> int:
    """The seed of one instance's random stream: the first 8 bytes,
    big-endian, of ``sha256(f"{seed}:{task_id}")``."""
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class MetricPlan:
    """The part of one definition's metric synthesis that no draw touches.

    Built once per (model, memory request) when a run starts, it holds the
    ``cpu_pct``, ``rss_bytes``, ``rchar_bytes`` and ``wchar_bytes`` of every
    instance and the model's ``failure_probability``; ``draw`` makes an
    instance's three draws (runtime, failure, page-cache ratio, in that
    order) and derives only the seven values that depend on them, so each
    instance's record is reproducible from its stream alone.
    """

    def __init__(self, model: TaskModel, memory_request_bytes: int):
        jitter = model.runtime_jitter_pct / 100
        # rng.uniform(a, b) is a + (b - a) * random(); keep its arithmetic
        self._jitter_low = -jitter
        self._jitter_span = jitter - -jitter
        self._base_runtime_ms = model.base_runtime_ms
        self.cpu_pct = model.cpu_pct_mean
        self.rss_bytes = int(model.rss_fraction_of_request * memory_request_bytes)
        self.rchar_bytes = model.io_read_bytes
        self.wchar_bytes = model.io_write_bytes
        self.failure_probability = model.failure_probability
        self._syscall_rate_per_s = model.syscall_rate_per_s
        io_total = model.io_read_bytes + model.io_write_bytes
        self._read_share = model.io_read_bytes / io_total if io_total else 0.5
        self._total_pages = io_total // 4096
        self._cpu_wait_fraction = model.cpu_wait_fraction

    def draw(self, rng: _random.Random) -> tuple[int, int, int, int, int, int, float]:
        """(runtime_ms, syscall_read_count, syscall_write_count, cpu_wait_ms,
        page_cache_hits, page_cache_misses, failure_draw) of one instance."""
        draw = rng.random
        runtime_factor = 1 + (self._jitter_low + self._jitter_span * draw())
        runtime_ms = max(1, round(self._base_runtime_ms * runtime_factor))
        failure_draw = draw()
        pcache_draw = draw()

        syscall_total = int(self._syscall_rate_per_s * runtime_ms / 1000)
        syscall_read = int(syscall_total * self._read_share)
        total_pages = self._total_pages
        hits = int(total_pages * (0.5 + 0.5 * pcache_draw))
        return (
            runtime_ms, syscall_read, syscall_total - syscall_read,
            int(self._cpu_wait_fraction * runtime_ms), hits, total_pages - hits, failure_draw,
        )


@dataclass(slots=True, eq=False)
class _Row:
    """One definition's facts for a run; compared and hashed by identity."""

    definition: TaskDefinition
    plan: MetricPlan
    instances: list[TaskInstance]  # a slice of the run's list
    position: int  # in the spec
    remaining: int  # instances not yet succeeded
    poisoned: bool = False  # by a failure upstream


@dataclass(slots=True)
class _Execution:
    """One started instance until its completion event: the running
    instance (its id, submission, start and machine), its definition's row,
    its exit code and rss footprint, and what its draws decided for its
    trace record (the failure draw is spent when it starts)."""

    instance: TaskInstance
    row: _Row
    exit_code: int
    rss_bytes: int
    runtime_ms: int  # as drawn, before any timeout
    syscall_read_count: int
    syscall_write_count: int
    cpu_wait_ms: int
    page_cache_hits: int
    page_cache_misses: int


def _scaled_record(
    execution: _Execution, end_ms: int, status: str, exit_code: int
) -> TaskTraceRecord:
    """Build the final trace record: an instance that ran its planned
    runtime keeps its counters as drawn, and one cut short scales each by
    the share of that runtime it ran."""
    instance = execution.instance
    plan = execution.row.plan
    start_ms = instance.start_ms
    duration = end_ms - start_ms
    planned = execution.runtime_ms
    if duration == planned:
        return TaskTraceRecord(
            instance.task_id, status, exit_code, instance.submit_ms, start_ms, end_ms,
            duration, plan.cpu_pct, execution.rss_bytes, plan.rchar_bytes,
            plan.wchar_bytes, execution.syscall_read_count, execution.syscall_write_count,
            execution.cpu_wait_ms, execution.page_cache_hits, execution.page_cache_misses,
        )
    # cut short: a draw's runtime is at least 1 ms
    ratio = duration / planned
    return TaskTraceRecord(
        task_id=instance.task_id,
        status=status,
        exit_code=exit_code,
        submit_ms=instance.submit_ms,
        start_ms=start_ms,
        end_ms=end_ms,
        duration_ms=duration,
        cpu_pct=plan.cpu_pct,
        rss_bytes=execution.rss_bytes,
        rchar_bytes=int(plan.rchar_bytes * ratio),
        wchar_bytes=int(plan.wchar_bytes * ratio),
        syscall_read_count=int(execution.syscall_read_count * ratio),
        syscall_write_count=int(execution.syscall_write_count * ratio),
        cpu_wait_ms=int(execution.cpu_wait_ms * ratio),
        page_cache_hits=int(execution.page_cache_hits * ratio),
        page_cache_misses=int(execution.page_cache_misses * ratio),
    )


@dataclass
class SimulationResult:
    """What one run produced.  The engine builds it before the run starts
    and writes each record into its lists, dicts and sets alone, so a live
    run's result is its final result."""

    run_id: str
    run: RunRecord
    spec: WorkflowSpec
    topology: TopologyMode
    input_count: int
    seed: int
    registry: MachineRegistry
    resource_manager: ResourceManager
    event_records: list[EventRecord] = field(default_factory=list)
    # task_id -> diagnosis of each failed instance; a success's is derived
    # on read, by diagnosis()
    diagnoses: dict[str, Diagnosis] = field(default_factory=dict)
    # instances poisoned by a failure upstream; they stay pending
    never_eligible: set[str] = field(default_factory=set)
    # task_id -> trace record, in completion order: an instance finishes
    # once; and task_id -> instance
    trace_by_id: dict[str, TaskTraceRecord] = field(default_factory=dict)
    instances_by_id: dict[str, TaskInstance] = field(init=False)
    ended: bool = False  # set once the run returned or raised, after its last append

    def __post_init__(self):
        self.instances_by_id = {i.task_id: i for i in self.run.instances}

    @property
    def samples(self) -> list[MachineSample]:
        """Every machine sample, by time and then machine id."""
        return self.registry.all_samples()

    @property
    def trace_records(self) -> list[TaskTraceRecord]:
        """Every trace record, in completion order."""
        return list(self.trace_by_id.values())

    @property
    def progress_records(self) -> list[WorkflowStatusReport]:
        return replay_progress(self.event_records)

    @cached_property
    def report(self) -> ExecutionReport:
        """The run's execution report, computed once the run has ended;
        ``ReportOnRunningRunError`` while it runs, when nothing is kept."""
        return execution_report(self.run)

    def diagnosis(self, task_id: str) -> Diagnosis | None:
        """The task's diagnosis once it has one, else None.  A failure's is
        stored when it ends; a success's (no verdict, ``exit 0``) is derived
        from its trace record."""
        # a live run stores a failure's record before its diagnosis, so a
        # reader takes the stored diagnosis first
        found = self.diagnoses.get(task_id)
        if found is not None:
            return found
        record = self.trace_by_id.get(task_id)
        if record is not None and record.status == "succeeded":
            return success_diagnosis(record)
        return None

    def application_logs(
        self, task_id: str, min_level: LogLevel = LogLevel.DEBUG
    ) -> list[LogEntry]:
        """The task's log lines at ``min_level`` or above; KeyError for a
        task id the run does not have."""
        # the record is there once the diagnosis is, so the diagnosis is
        # read first
        diagnosis = self.diagnosis(task_id)
        return task_log(
            self.instances_by_id[task_id], self.trace_by_id.get(task_id), diagnosis, min_level
        )

    def event_log_text(self) -> str:
        return "\n".join(
            [f"{r.t_ms}\t{r.kind}\t{r.subject}\t{r.detail}" for r in self.event_records]
        ) + "\n"

    def trace_text(self) -> str:
        return format_trace_file(self.trace_records)


class Simulation:
    """One configured run.  Construct, optionally inject faults, then call
    run_to_completion() exactly once.  Faults may also be injected while it
    runs, from the thread that runs it, until the run has ended.  A given
    run id names the run's directory under the output root, so it must be
    one path segment."""

    def __init__(
        self,
        spec: WorkflowSpec,
        machines: list[MachineDescriptor],
        fs_total_bytes: int,
        input_count: int,
        seed: int,
        topology: TopologyMode = TopologyMode.WORKFLOW_AWARE,
        run_id: str | None = None,
        submission_ms: int | None = None,
    ):
        if run_id is not None and (
            run_id in (".", "..") or "/" in run_id or "\\" in run_id or not one_field_line(run_id)
        ):
            raise InvalidNameError(
                run_id,
                "be one non-empty path segment other than '.' and '..',"
                " without '/', '\\', tabs or line breaks",
            )
        for definition in spec.tasks:
            if definition.runtime_model not in BUILTIN_MODELS:
                raise SimulationError(
                    f"task {definition.name!r} references unknown model "
                    f"{definition.runtime_model!r}"
                )

        self.registry = MachineRegistry()
        for descriptor in machines:
            self.registry.register_machine(descriptor)
        self.rm = ResourceManager(topology, self.registry, fs_total_bytes)

        self.run_id = run_id or f"run-{uuid.uuid4().hex[:12]}"
        self.run = RunRecord(
            run_id=self.run_id,
            workflow_id=spec.workflow_id,
            submission_ms=(
                submission_ms if submission_ms is not None else int(time.time() * 1000)
            ),
            instances=expand_instances(spec, input_count),
        )
        self._open = len(self.run.instances)

        # task faults by target id, in injection order
        self._task_faults: dict[str, list[FaultInjection]] = {}
        # (time, sequence, handler, payload): the loop calls handler(time, payload)
        self._events: list[tuple[int, int, object, object]] = []
        self._seq = itertools.count()
        self._now = 0
        self._started = False
        # the thread running run_to_completion, while it runs
        self._engine_thread: int | None = None
        self._executions: dict[str, _Execution] = {}
        self._pending_machine_events = 0

        # called with each EventRecord as it is appended
        self.event_listeners: list = []
        # called with no arguments once run_to_completion raised and set ended
        self.abort_listeners: list = []
        self.result = SimulationResult(
            run_id=self.run_id, run=self.run, spec=spec, topology=topology,
            input_count=input_count, seed=seed, registry=self.registry, resource_manager=self.rm,
        )

    # -- fault injection ----------------------------------------------------

    def inject(self, injection: FaultInjection) -> None:
        """Arm a fault at once, before or during the run: a machine fault
        goes on the event heap, a task fault into the index by target.  An
        unknown target raises its layer's own error (``UnknownMachineError``
        or ``UnknownTaskError``); a task fault whose target has started or
        was poisoned is refused, as it could never fire.  While the run is
        live, only its own thread may inject (an event listener, say): the
        engine takes no lock, so a call from another thread is refused
        rather than racing the loop's clock, heap and counts."""
        engine_thread = self._engine_thread
        if engine_thread is not None and engine_thread != threading.get_ident():
            raise SimulationError(
                f"run {self.run_id} is live on another thread; inject from that thread"
            )
        if self._started and injection.at_ms <= self._now:
            raise InjectionInPastError(injection.at_ms, self._now)
        if self.run.final_state is not RunState.RUNNING or self.result.ended:
            raise SimulationError(f"run {self.run_id} has ended; no fault can fire")
        if injection.kind is InjectionKind.MACHINE_UNHEALTHY:
            self.registry.descriptor(injection.target)
            self._push(injection.at_ms, self._on_machine_unhealthy, injection.target)
            self._pending_machine_events += 1
        else:
            instance = self.result.instances_by_id.get(injection.target)
            if instance is None:
                raise UnknownTaskError(injection.target)
            # a task fault fires only when its target starts
            if instance.start_ms is not None or injection.target in self.result.never_eligible:
                state = "poisoned" if instance.start_ms is None else instance.state.value
                raise SimulationError(
                    f"fault target {injection.target!r} is {state}; a task fault "
                    f"fires only when its target starts"
                )
            self._task_faults.setdefault(injection.target, []).append(injection)

    # -- event plumbing -----------------------------------------------------

    def _push(self, t_ms: int, handler, payload: object) -> None:
        heapq.heappush(self._events, (t_ms, next(self._seq), handler, payload))

    def _emit(self, t_ms: int, kind: str, subject: str, detail: str) -> None:
        event = EventRecord(t_ms, kind, subject, detail)
        self.result.event_records.append(event)
        if self.event_listeners:
            for listener in self.event_listeners:
                listener(event)

    # -- lifecycle ----------------------------------------------------------

    def run_to_completion(self) -> SimulationResult:
        if self._started:
            raise SimulationError("simulation already ran")
        self._engine_thread = threading.get_ident()
        self._started = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        except BaseException:
            self.result.ended = True
            for listener in self.abort_listeners:
                listener()
            raise
        finally:
            self._engine_thread = None
            if collecting:
                gc.enable()

    def _run(self) -> SimulationResult:
        result = self.result
        # expand_instances lists each definition's instances contiguously,
        # in spec order, so each row's instances are a slice of the list
        self._rows: dict[str, _Row] = {}
        end = 0
        for position, d in enumerate(result.spec.tasks):
            start, end = end, end + d.instance_count(result.input_count)
            plan = MetricPlan(BUILTIN_MODELS[d.runtime_model], d.requested.memory_bytes)
            instances = self.run.instances[start:end]
            self._rows[d.name] = _Row(d, plan, instances, position, len(instances))
        # the C base of random.Random: the subclass's seed only adds a type
        # check and a gauss_next reset, and a draw only calls random()
        self._rng = _random.Random()
        # the event details that name only a machine: started, succeeded
        self._machine_texts = {
            m: (f"machine={m}", f"exit=0 machine={m}") for m in self.registry.machine_ids()
        }
        self._emit(
            0, "run_submitted", result.spec.workflow_id,
            f"input_count={result.input_count} topology={result.topology.wire_name} "
            f"instances={len(self.run.instances)}",
        )
        if result.topology is TopologyMode.WORKFLOW_AWARE:
            self.rm.submit_workflow(self.run)

        predecessors = result.spec.adjacency[0]
        self._newly_ready = {row for name, row in self._rows.items() if name not in predecessors}
        self._pump(0)
        self._push(0, self._on_sample_tick, None)

        events = self._events
        while events:
            t_ms, _, handler, payload = heapq.heappop(events)
            # pops come in time order: nothing is pushed before the clock
            self._now = t_ms
            handler(t_ms, payload)
            if not self._open:
                self._check_completion(t_ms)

        if self.run.final_state is RunState.RUNNING:
            stuck = sorted(
                i.task_id
                for i in self.run.instances
                if not i.state.terminal and i.task_id not in result.never_eligible
            )
            raise NonQuiescentError(stuck)
        result.ended = True
        return result

    # -- pumps --------------------------------------------------------------

    def _pump(self, t_ms: int) -> None:
        """Queue the instances of newly ready definitions, then hand the
        queue to the scheduler and start whatever got a machine."""
        if self._newly_ready:
            self._queue_ready(t_ms)
        for task_id, machine_id in self.rm.schedule(t_ms):
            self._start_instance(t_ms, task_id, machine_id)

    def _queue_ready(self, t_ms: int) -> None:
        ready = sorted(self._newly_ready, key=attrgetter("position"))
        self._newly_ready = set()
        # the topology guard is the coupling rule: only the disjoint driver
        # submits single tasks
        aware = self.result.topology is TopologyMode.WORKFLOW_AWARE
        submit = self.rm.enqueue if aware else self.rm.submit_task
        for row in ready:
            requested = row.definition.requested
            detail = f"definition={row.definition.name}"
            for instance in row.instances:
                instance.mark_queued(t_ms)
                submit(instance.task_id, requested)
                self._emit(t_ms, "instance_queued", instance.task_id, detail)

    def _start_instance(self, t_ms: int, task_id: str, machine_id: str) -> None:
        instance = self.result.instances_by_id[task_id]
        row = self._rows[instance.definition]
        plan = row.plan
        requested = row.definition.requested
        self._rng.seed(_stream_seed(self.result.seed, task_id))
        runtime_ms, reads, writes, cpu_wait_ms, hits, misses, failure_draw = plan.draw(self._rng)

        exit_code = EXIT_TASK_ERROR if failure_draw < plan.failure_probability else 0
        rss_bytes = plan.rss_bytes
        faults = self._task_faults.get(task_id)
        # the first fault armed on the target by its start fires, whatever the draw
        injection = next((f for f in faults if t_ms >= f.at_ms), None) if faults else None
        if injection is not None:
            exit_code = EXIT_OOM if injection.kind is InjectionKind.TASK_OOM else EXIT_TASK_ERROR
        if exit_code == EXIT_OOM:
            # force the footprint over the request, as if the OOM killer struck
            rss_bytes = requested.memory_bytes + max(1, requested.memory_bytes // 4)

        ends_ms = t_ms + runtime_ms
        if runtime_ms > requested.max_runtime_ms:
            # killed at the limit before it could finish (or fail on its own)
            ends_ms = t_ms + requested.max_runtime_ms
            exit_code = EXIT_TIMEOUT

        instance.mark_running(t_ms, machine_id)
        execution = _Execution(
            instance, row, exit_code, rss_bytes, runtime_ms, reads, writes, cpu_wait_ms, hits,
            misses,
        )
        self._executions[task_id] = execution
        heapq.heappush(self._events, (ends_ms, next(self._seq), self._on_completion, execution))
        self._emit(t_ms, "instance_started", task_id, self._machine_texts[machine_id][0])

    # -- event handlers -----------------------------------------------------

    def _finish_instance(self, t_ms: int, execution: _Execution, exit_code: int) -> None:
        instance = execution.instance
        task_id = instance.task_id
        status, status_text = (_SUCCEEDED, "succeeded") if exit_code == 0 else (_FAILED, "failed")
        record = _scaled_record(execution, t_ms, status_text, exit_code)
        instance.mark_finished(t_ms, status)
        self._open -= 1
        self.rm.release(task_id, record.wchar_bytes)
        del self._executions[task_id]
        # the record lands before a failure's diagnosis: a task's log shows
        # its end line once it has a diagnosis, and reads the end from the
        # record
        result = self.result
        result.trace_by_id[task_id] = record

        row = execution.row
        if exit_code == 0:
            # a success's diagnosis is derived from its record on read
            row.remaining -= 1
            if not row.remaining:
                self._mark_successors_ready(row)
            self._emit(
                t_ms, "instance_succeeded", task_id, self._machine_texts[instance.machine][1]
            )
        else:
            # a machine that fails kills what runs on it, so its status is
            # read only for a failure
            machine_status = self.registry.descriptor(instance.machine).status
            diagnosis = diagnose(record, row.definition.requested, machine_status)
            result.diagnoses[task_id] = diagnosis
            self._emit(
                t_ms, "instance_failed", task_id,
                f"exit={exit_code} verdict={diagnosis.verdict.value} machine={instance.machine}",
            )
            self._poison_descendants(row)

    def _on_completion(self, t_ms: int, execution: _Execution) -> None:
        if self._executions.get(execution.instance.task_id) is not execution:
            return  # killed with its machine
        self._finish_instance(t_ms, execution, execution.exit_code)
        self._pump(t_ms)

    def _on_machine_unhealthy(self, t_ms: int, machine_id: str) -> None:
        self._pending_machine_events -= 1
        self.registry.set_status(machine_id, MachineStatus.UNHEALTHY)
        self._emit(t_ms, "machine_status", machine_id, "status=unhealthy")
        for task_id in self.rm.running_on(machine_id):
            self._finish_instance(t_ms, self._executions[task_id], EXIT_MACHINE_KILL)

    def _on_sample_tick(self, t_ms: int, _payload: None) -> None:
        # the run's machine ids, sorted when the run started
        for machine_id in self._machine_texts:
            used = self.rm.reserved_on(machine_id)
            sample = MachineSample(machine_id=machine_id, t_ms=t_ms, used=used)
            self.registry.record_sample(sample)
            self._emit(
                t_ms, "machine_sample", machine_id,
                f"cpu={int(used.cpu_cores)} mem={used.memory_bytes} "
                f"disk={used.disk_bytes}",
            )
        # keep sampling only while something can still happen on its own
        if self._executions or self._pending_machine_events > 0:
            self._push(t_ms + SAMPLE_CADENCE_MS, self._on_sample_tick, None)

    def _mark_successors_ready(self, row: _Row) -> None:
        """``row``'s last instance has just succeeded: mark ready each of
        its successors whose predecessors have all succeeded."""
        predecessors, successors = self.result.spec.adjacency
        for successor in successors.get(row.definition.name, ()):
            if all(self._rows[p].remaining == 0 for p in predecessors[successor]):
                self._newly_ready.add(self._rows[successor])

    def _poison_descendants(self, failed: _Row) -> None:
        """A failed instance makes every instance of every transitively
        downstream definition permanently ineligible."""
        successors = self.result.spec.adjacency[1]
        frontier = [failed]
        while frontier:
            for name in successors.get(frontier.pop().definition.name, ()):
                successor = self._rows[name]
                if successor.poisoned:
                    continue
                successor.poisoned = True
                frontier.append(successor)
                for instance in successor.instances:
                    if instance.state is TaskState.PENDING:
                        self.result.never_eligible.add(instance.task_id)
                        self._open -= 1

    def _check_completion(self, t_ms: int) -> None:
        """Resolve the run's final state; called once no instance is open.
        Every instance is then terminal or poisoned, and only a failure
        poisons, so the run failed exactly when some instance did not
        succeed."""
        failed = any(row.remaining for row in self._rows.values())
        self.run.final_state = RunState.FAILED if failed else RunState.SUCCEEDED
        self._emit(
            t_ms, "run_completed", self.result.spec.workflow_id,
            f"final={self.run.final_state.value}",
        )
        # nothing happens after a run's last event
        self._events.clear()


@dataclass(frozen=True)
class ScenarioSpec:
    """A run's inputs.  The defaults hold for whatever a scenario file
    leaves unset, and for a .wf/.cluster pair run without a scenario."""

    workflow_path: Path
    cluster_path: Path
    input_count: int = 1
    seed: int = 0
    topology: TopologyMode = TopologyMode.WORKFLOW_AWARE
    injections: tuple[FaultInjection, ...] = ()


class ScenarioSyntaxError(LineError, SimulationError):
    pass


# the scenario directives that each set one value, at most once
_SCENARIO_SETTINGS = ("workflow", "cluster", "input_count", "seed", "topology")


def parse_scenario(text: str, base_dir: "Path | str" = ".") -> ScenarioSpec:
    """Parse a scenario file tying together a workflow, a cluster, run
    parameters, and scripted faults.  Relative paths resolve against
    base_dir."""
    base = Path(base_dir)
    settings = {}  # the fields the file sets; ScenarioSpec defaults the rest
    injections = []
    first_lines: dict[str, int] = {}
    for lineno, line in directive_lines(text):
        directive, *args = line.split()
        if directive in _SCENARIO_SETTINGS and len(args) == 1:
            set_once(first_lines, directive, lineno, ScenarioSyntaxError)
            if directive in ("workflow", "cluster"):
                settings[f"{directive}_path"] = base / args[0]
            elif directive == "topology":
                try:
                    settings["topology"] = TopologyMode.from_wire(args[0])
                except BlueprintError as exc:
                    raise ScenarioSyntaxError(lineno, str(exc)) from None
            else:
                value = line_int(args[0], lineno, directive, ScenarioSyntaxError)
                if directive == "input_count" and value <= 0:
                    raise ScenarioSyntaxError(lineno, f"input_count must be positive, got {value}")
                settings[directive] = value
        elif directive == "inject":
            if len(args) != 3:
                raise ScenarioSyntaxError(lineno, "expected 'inject <kind> <target> at=<ms>'")
            kind, target, at = args
            try:
                kind = InjectionKind(kind)
            except ValueError:
                raise ScenarioSyntaxError(lineno, f"unknown injection kind {kind!r}") from None
            if not at.startswith("at="):
                raise ScenarioSyntaxError(lineno, f"expected at=<ms>, got {at!r}")
            at_ms = line_int(at[len("at="):], lineno, "at", ScenarioSyntaxError)
            try:
                injections.append(FaultInjection(kind=kind, target=target, at_ms=at_ms))
            except SimulationError as exc:
                raise ScenarioSyntaxError(lineno, str(exc)) from None
        else:
            raise ScenarioSyntaxError(lineno, f"bad directive: {line!r}")
    for directive in ("workflow", "cluster"):
        if directive not in first_lines:
            raise SimulationError(f"scenario missing {directive!r} line")
    return ScenarioSpec(injections=tuple(injections), **settings)


def parse_file(parse, path: "Path | str", **kwargs):
    """``parse`` of the text of ``path``; a line error's text names the
    file.  Every command reads its input files through it."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"), **kwargs)
    except LineError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def load_scenario(path: "Path | str") -> ScenarioSpec:
    return parse_file(parse_scenario, path, base_dir=Path(path).parent)


def scenario_simulation(scenario: ScenarioSpec, **kwargs) -> Simulation:
    """The scenario's run with its faults armed, ready for
    ``run_to_completion``; ``kwargs`` go to ``Simulation``."""
    workflow_path = scenario.workflow_path
    spec = parse_file(parse_workflow, workflow_path, default_workflow_id=workflow_path.stem)
    machines, fs_total = parse_file(parse_cluster, scenario.cluster_path)
    simulation = Simulation(
        spec, machines, fs_total, scenario.input_count, scenario.seed, scenario.topology,
        **kwargs,
    )
    for injection in scenario.injections:
        simulation.inject(injection)
    return simulation
