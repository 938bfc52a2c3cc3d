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
instance:

- Readiness is incremental.  ``_remaining[d]`` counts the instances of
  definition ``d`` not yet succeeded.  Dependencies are all-to-all between
  instance groups, so a definition becomes ready exactly when the last of
  its predecessors' counts reaches 0.  Successors are therefore re-checked
  only when a definition's last instance succeeds, and each definition is
  queued once, in spec order and then index order, as ``ready_tasks``
  would order it.  The t=0 pump is seeded with the definitions that have
  no predecessors.
- Completion comes from a running count of open instances (not terminal
  and not poisoned): the run can finish only once it is 0.  Progress has
  one definition, ``ProgressFold``, a fold over the event log: the stored
  stream is ``replay_progress`` of the log, and live listeners get every
  event as it is appended and fold it the same way.  Code-part profiles
  are derived from trace records on query.
- Each run fact is kept once.  The run's one ``SimulationResult`` is built
  with the engine and shares its lists and dicts, and machine samples live
  only in the registry's per-machine series.
- Per-run tables built when the run starts replace per-instance lookups:
  each definition with its task model and MetricPlan, the task faults by
  target id, and one random generator re-seeded for each instance's
  stream.  The plan holds every value of the metric formula that no draw
  touches, so an instance only makes its three draws and derives what
  depends on them.
- An instance's start and finish build only what the run keeps: its log
  lines go to the log store as plain tuples, and its trace record is
  indexed by task id as it lands (the service's task lookups read that
  index and the instance map).
- Poisoning walks definition groups, and stops at groups already poisoned,
  whose descendants were poisoned with them.
- The records built per instance or per event (``EventRecord``,
  ``SynthesizedMetrics``, ``_Execution``, and the layers' ``QueueEntry``,
  ``MachineSample``, ``TaskTraceRecord`` and ``Diagnosis``) are slotted
  dataclasses, not frozen ones.  Each is written once, when it is built,
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

import enum
import gc
import hashlib
import heapq
import itertools
import random
import time
import uuid
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

from .blueprint import BlueprintError, TopologyMode
from .machine import (
    MachineDescriptor,
    MachineRegistry,
    MachineSample,
    MachineStatus,
)
from .resman import QueueEntry, ResourceManager
from .taskmon import (
    Diagnosis,
    LogLevel,
    LogStore,
    TaskTraceRecord,
    diagnose,
    format_trace_file,
)
from .workflow import (
    RunRecord,
    RunState,
    TaskInstance,
    TaskState,
    WorkflowSpec,
    WorkflowStatusReport,
    expand_instances,
    # ready_tasks and workflow_status are not called here; they stay
    # importable as stratus.sim.* because the benchmark's tracer wraps them
    # by that name
    ready_tasks,
    resolve_final_state,
    workflow_status,
)

DEFAULT_SAMPLE_CADENCE_MS = 1000

EXIT_OOM = 137
EXIT_TIMEOUT = 124
EXIT_MACHINE_KILL = 143
EXIT_TASK_ERROR = 1


class SimulationError(Exception):
    pass


class TargetUnknownError(SimulationError):
    def __init__(self, target: str):
        super().__init__(f"injection target does not exist: {target!r}")
        self.target = target


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
    instance starts; MachineUnhealthy flips the machine at exactly at_ms.
    on_nth_run restricts the injection to one run index of a repeated
    scenario (None means every run)."""

    kind: InjectionKind
    target: str
    at_ms: int = 0
    on_nth_run: int | None = None

    def __post_init__(self):
        if self.at_ms < 0:
            raise SimulationError(f"at_ms must be nonnegative, got {self.at_ms}")
        if self.on_nth_run is not None and self.on_nth_run <= 0:
            raise SimulationError("on_nth_run must be positive")


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


BUILTIN_MODELS: dict[str, TaskModel] = {
    "default": TaskModel(
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
    "quick": TaskModel(
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
    "cpu_heavy": TaskModel(
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
    "io_heavy": TaskModel(
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
    "flaky": TaskModel(
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
}


@dataclass(slots=True)
class EventRecord:
    t_ms: int
    kind: str
    subject: str
    detail: str

    def line(self) -> str:
        return f"{self.t_ms}\t{self.kind}\t{self.subject}\t{self.detail}"


class EventLogSyntaxError(SimulationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"event log line {line}: {message}")
        self.line = line


def parse_event_log(text: str) -> list[EventRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise EventLogSyntaxError(lineno, "expected 4 fields")
        try:
            t_ms = int(parts[0])
        except ValueError:
            raise EventLogSyntaxError(lineno, f"time is not an integer: {parts[0]!r}") from None
        records.append(EventRecord(t_ms, parts[1], parts[2], parts[3]))
    return records


class ProgressFold:
    """A run's progress folded from its event log one event at a time.
    ``step`` returns the progress record of a state-changing event and None
    for any other event."""

    def __init__(self):
        self.state = RunState.RUNNING
        self.finished = 0
        self.total = 0
        self.failures = 0

    def step(self, event: EventRecord) -> WorkflowStatusReport | None:
        kind = event.kind
        if kind == "instance_succeeded":
            self.finished += 1
        elif kind == "instance_failed":
            self.failures += 1
        elif kind == "run_completed":
            self.state = RunState(event.detail.split("=", 1)[1])
        elif kind == "run_submitted":
            for token in event.detail.split():
                if token.startswith("instances="):
                    self.total = int(token[len("instances="):])
            return None
        elif kind not in ("instance_queued", "instance_started"):
            return None
        return WorkflowStatusReport(self.state, self.finished, self.total, self.failures)


def replay_progress(event_log: "str | list[EventRecord]") -> list[WorkflowStatusReport]:
    """Recompute the progress stream from an event log alone: one record
    per state-changing event, exactly what a live listener folds."""
    records = parse_event_log(event_log) if isinstance(event_log, str) else event_log
    fold = ProgressFold()
    return [report for report in map(fold.step, records) if report is not None]


def _stream_seed(seed: int, task_id: str) -> int:
    digest = hashlib.sha256(f"{seed}:{task_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def instance_stream(seed: int, task_id: str) -> random.Random:
    """Independent random stream for one instance, derived from the root
    seed and the instance id only."""
    return random.Random(_stream_seed(seed, task_id))


@dataclass(slots=True)
class SynthesizedMetrics:
    runtime_ms: int
    cpu_pct: int
    rss_bytes: int
    rchar_bytes: int
    wchar_bytes: int
    syscall_read_count: int
    syscall_write_count: int
    cpu_wait_ms: int
    page_cache_hits: int
    page_cache_misses: int
    failure_draw: float


class MetricPlan:
    """The part of one definition's metric synthesis that no draw touches.

    Built once per (model, memory request) when a run starts; ``draw`` then
    makes an instance's three draws (runtime, failure, page-cache ratio, in
    that order) and derives only the values that depend on them, so each
    instance's record is reproducible from its stream alone.
    """

    def __init__(self, model: TaskModel, memory_request_bytes: int):
        jitter = model.runtime_jitter_pct / 100
        # rng.uniform(a, b) is a + (b - a) * random(); keep its arithmetic
        self._jitter_low = -jitter
        self._jitter_span = jitter - -jitter
        self._base_runtime_ms = model.base_runtime_ms
        self._cpu_pct = model.cpu_pct_mean
        self._rss_bytes = int(model.rss_fraction_of_request * memory_request_bytes)
        self._rchar_bytes = model.io_read_bytes
        self._wchar_bytes = model.io_write_bytes
        self._syscall_rate_per_s = model.syscall_rate_per_s
        io_total = model.io_read_bytes + model.io_write_bytes
        self._read_share = model.io_read_bytes / io_total if io_total else 0.5
        self._total_pages = io_total // 4096
        self._cpu_wait_fraction = model.cpu_wait_fraction

    def draw(self, rng: random.Random) -> SynthesizedMetrics:
        draw = rng.random
        runtime_factor = 1 + (self._jitter_low + self._jitter_span * draw())
        runtime_ms = max(1, round(self._base_runtime_ms * runtime_factor))
        failure_draw = draw()
        pcache_draw = draw()

        syscall_total = int(self._syscall_rate_per_s * runtime_ms / 1000)
        syscall_read = int(syscall_total * self._read_share)
        total_pages = self._total_pages
        hits = int(total_pages * (0.5 + 0.5 * pcache_draw))
        return SynthesizedMetrics(
            runtime_ms,
            self._cpu_pct,
            self._rss_bytes,
            self._rchar_bytes,
            self._wchar_bytes,
            syscall_read,
            syscall_total - syscall_read,
            int(self._cpu_wait_fraction * runtime_ms),
            hits,
            total_pages - hits,
            failure_draw,
        )


def synthesize_metrics(model: TaskModel, memory_request_bytes: int, rng: random.Random) -> SynthesizedMetrics:
    """Draw one task execution's metric set from its model.  Draw order is
    fixed (runtime, failure, page-cache ratio) so records are reproducible
    from the instance stream alone."""
    return MetricPlan(model, memory_request_bytes).draw(rng)


@dataclass(slots=True)
class _Execution:
    """Book-keeping for one started instance until its completion event."""

    task_id: str
    machine_id: str
    start_ms: int
    planned_end_ms: int
    metrics: SynthesizedMetrics
    exit_code: int
    generation: int


@dataclass
class SimulationResult:
    """What one run produced.  The engine builds it before the run starts
    and fills the lists, dicts and sets it shares with it, so a live run's
    result is its final result."""

    run_id: str
    run: RunRecord
    spec: WorkflowSpec
    topology: TopologyMode
    input_count: int
    seed: int
    event_records: list[EventRecord]
    trace_records: list[TaskTraceRecord]
    diagnoses: dict[str, Diagnosis]
    log_store: LogStore
    registry: MachineRegistry
    resource_manager: ResourceManager
    # instances poisoned by a failure upstream; they stay pending
    never_eligible: set[str]
    # task_id -> instance and task_id -> first trace record
    instances_by_id: dict[str, TaskInstance]
    trace_by_id: dict[str, TaskTraceRecord]

    @property
    def samples(self) -> list[MachineSample]:
        """Every machine sample, by time and then machine id."""
        return self.registry.all_samples()

    @property
    def progress_records(self) -> list[WorkflowStatusReport]:
        return replay_progress(self.event_records)

    def event_log_text(self) -> str:
        return "\n".join(r.line() for r in self.event_records) + "\n"

    def trace_text(self) -> str:
        return format_trace_file(self.trace_records)


class Simulation:
    """One configured run.  Construct, optionally inject faults, then call
    run() exactly once."""

    def __init__(
        self,
        spec: WorkflowSpec,
        machines: list[MachineDescriptor],
        fs_total_bytes: int,
        input_count: int,
        seed: int,
        topology: TopologyMode = TopologyMode.WORKFLOW_AWARE,
        models: dict[str, TaskModel] | None = None,
        sample_cadence_ms: int = DEFAULT_SAMPLE_CADENCE_MS,
        run_index: int = 1,
        run_id: str | None = None,
        submission_ms: int | None = None,
    ):
        if sample_cadence_ms <= 0:
            raise SimulationError("sample_cadence_ms must be positive")
        if run_index <= 0:
            raise SimulationError("run_index must be positive")
        self.spec = spec
        self.topology = topology
        self.input_count = input_count
        self.seed = seed
        self.run_index = run_index
        self.sample_cadence_ms = sample_cadence_ms
        self.models = dict(BUILTIN_MODELS)
        if models:
            self.models.update(models)
        for definition in spec.tasks:
            if definition.runtime_model not in self.models:
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
        instances = self.run.instances
        self._instances: dict[str, TaskInstance] = {i.task_id: i for i in instances}
        # expand_instances lists each definition's instances contiguously
        self._groups: dict[str, list[TaskInstance]] = {
            name: list(group)
            for name, group in itertools.groupby(instances, key=attrgetter("definition"))
        }
        self._position = {name: i for i, name in enumerate(self._groups)}
        self._remaining = {name: len(group) for name, group in self._groups.items()}
        self._newly_ready: set[str] = set()
        self._open = len(instances)

        self._injections: list[FaultInjection] = []
        self._events: list[tuple[int, int, str, object]] = []
        self._seq = itertools.count()
        self._now = 0
        self._started = False
        self._finished = False
        self._poisoned: set[str] = set()
        self._poisoned_defs: set[str] = set()
        self._executions: dict[str, _Execution] = {}
        self._generation = itertools.count()
        self._cancelled: set[int] = set()
        self._pending_machine_events = 0

        self.event_records: list[EventRecord] = []
        self.trace_records: list[TaskTraceRecord] = []
        # task_id -> its trace record, filled as records land
        self._trace_index: dict[str, TaskTraceRecord] = {}
        self.diagnoses: dict[str, Diagnosis] = {}
        self.log_store = LogStore()
        self.log_store.register_task(*self._instances)
        # called with each EventRecord as it is appended
        self.event_listeners: list = []
        # called with no arguments when run_to_completion raises
        self.abort_listeners: list = []
        self.result = SimulationResult(
            run_id=self.run_id,
            run=self.run,
            spec=spec,
            topology=topology,
            input_count=input_count,
            seed=seed,
            event_records=self.event_records,
            trace_records=self.trace_records,
            diagnoses=self.diagnoses,
            log_store=self.log_store,
            registry=self.registry,
            resource_manager=self.rm,
            never_eligible=self._poisoned,
            instances_by_id=self._instances,
            trace_by_id=self._trace_index,
        )

    # -- fault injection ----------------------------------------------------

    def inject(self, injection: FaultInjection) -> None:
        if self._started and injection.at_ms <= self._now:
            raise InjectionInPastError(injection.at_ms, self._now)
        if injection.kind is InjectionKind.MACHINE_UNHEALTHY:
            if injection.target not in self.registry.machine_ids():
                raise TargetUnknownError(injection.target)
        else:
            if injection.target not in self._instances:
                raise TargetUnknownError(injection.target)
        self._injections.append(injection)
        if self._started:
            self._arm(injection)

    def _arm(self, inj: FaultInjection) -> None:
        """Schedule a machine fault, or index a task fault by its target,
        unless the injection belongs to another run index."""
        if inj.on_nth_run is not None and inj.on_nth_run != self.run_index:
            return
        if inj.kind is InjectionKind.MACHINE_UNHEALTHY:
            self._push(inj.at_ms, "machine_unhealthy", inj.target)
            self._pending_machine_events += 1
        else:
            self._task_faults.setdefault(inj.target, []).append(inj)

    def _task_injection(self, task_id: str, start_ms: int) -> FaultInjection | None:
        for inj in self._task_faults.get(task_id, ()):
            if start_ms >= inj.at_ms:
                return inj
        return None

    # -- event plumbing -----------------------------------------------------

    def _push(self, t_ms: int, kind: str, payload: object) -> None:
        heapq.heappush(self._events, (t_ms, next(self._seq), kind, payload))

    def _emit(self, t_ms: int, kind: str, subject: str, detail: str) -> None:
        event = EventRecord(t_ms, kind, subject, detail)
        self.event_records.append(event)
        for listener in self.event_listeners:
            listener(event)

    # -- lifecycle ----------------------------------------------------------

    def run_to_completion(self) -> SimulationResult:
        if self._started:
            raise SimulationError("simulation already ran")
        self._started = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            return self._run()
        except BaseException:
            for listener in self.abort_listeners:
                listener()
            raise
        finally:
            if collecting:
                gc.enable()

    def _run(self) -> SimulationResult:
        self._definitions = {}
        for d in self.spec.tasks:
            model = self.models[d.runtime_model]
            self._definitions[d.name] = (d, model, MetricPlan(model, d.requested.memory_bytes))
        self._task_faults: dict[str, list[FaultInjection]] = {}
        self._rng = random.Random()
        self._emit(
            0,
            "run_submitted",
            self.spec.workflow_id,
            f"input_count={self.input_count} topology={self.topology.wire_name} "
            f"instances={len(self.run.instances)}",
        )
        if self.topology is TopologyMode.WORKFLOW_AWARE:
            self.rm.submit_workflow(self.spec, self.input_count, self.run)

        for inj in self._injections:
            self._arm(inj)

        predecessors = self.spec.adjacency[0]
        self._newly_ready = {name for name in self._groups if name not in predecessors}
        self._pump(0)
        self._push(0, "sample_tick", None)

        while self._events:
            t_ms, _, kind, payload = heapq.heappop(self._events)
            self._now = max(self._now, t_ms)
            if self._finished:
                continue
            if kind == "completion":
                self._on_completion(t_ms, payload)
            elif kind == "machine_unhealthy":
                self._on_machine_unhealthy(t_ms, payload)
            elif kind == "sample_tick":
                self._on_sample_tick(t_ms)
            self._check_completion(t_ms)

        if not self._finished:
            stuck = sorted(
                i.task_id
                for i in self.run.instances
                if not i.state.terminal and i.task_id not in self._poisoned
            )
            raise NonQuiescentError(stuck)
        return self.result

    # -- pumps --------------------------------------------------------------

    def _pump(self, t_ms: int) -> None:
        """Queue the instances of newly ready definitions, then hand the
        queue to the scheduler and start whatever got a machine."""
        if self._newly_ready:
            self._queue_ready(t_ms)
        for task_id, machine_id in self.rm.schedule(t_ms):
            self._start_instance(t_ms, task_id, machine_id)

    def _queue_ready(self, t_ms: int) -> None:
        ready = sorted(self._newly_ready, key=self._position.__getitem__)
        self._newly_ready = set()
        aware = self.topology is TopologyMode.WORKFLOW_AWARE
        submit = self.rm.enqueue if aware else self.rm.submit_task
        workflow_id = self.spec.workflow_id if aware else None
        for name in ready:
            requested = self._definitions[name][0].requested
            for instance in self._groups[name]:
                instance.mark_queued(t_ms)
                submit(QueueEntry(instance.task_id, requested, t_ms, workflow_id))
                self._emit(
                    t_ms, "instance_queued", instance.task_id,
                    f"definition={instance.definition}",
                )

    def _start_instance(self, t_ms: int, task_id: str, machine_id: str) -> None:
        instance = self._instances[task_id]
        definition, model, plan = self._definitions[instance.definition]
        self._rng.seed(_stream_seed(self.seed, task_id))
        metrics = plan.draw(self._rng)

        injection = self._task_injection(task_id, t_ms)
        exit_code = 0
        runtime = metrics.runtime_ms
        if injection is not None and injection.kind is InjectionKind.TASK_OOM:
            # force the footprint over the request and die like the kernel
            # OOM killer struck
            memory = definition.requested.memory_bytes
            metrics = replace(metrics, rss_bytes=memory + max(1, memory // 4))
            exit_code = EXIT_OOM
        elif injection is not None and injection.kind is InjectionKind.TASK_NON_ZERO_EXIT:
            exit_code = EXIT_TASK_ERROR
        elif metrics.failure_draw < model.failure_probability:
            exit_code = EXIT_TASK_ERROR

        if runtime > definition.requested.max_runtime_ms:
            # killed at the limit before it could finish (or fail on its own)
            runtime = definition.requested.max_runtime_ms
            exit_code = EXIT_TIMEOUT

        instance.mark_running(t_ms, machine_id)
        generation = next(self._generation)
        execution = _Execution(
            task_id=task_id,
            machine_id=machine_id,
            start_ms=t_ms,
            planned_end_ms=t_ms + runtime,
            metrics=metrics,
            exit_code=exit_code,
            generation=generation,
        )
        self._executions[task_id] = execution
        self._push(execution.planned_end_ms, "completion", execution)
        self._emit(t_ms, "instance_started", task_id, f"machine={machine_id}")
        self.log_store.append(task_id, t_ms, LogLevel.INFO, f"started on {machine_id}")

    # -- event handlers -----------------------------------------------------

    def _scaled_record(self, execution: _Execution, end_ms: int, status: str, exit_code: int) -> TaskTraceRecord:
        """Build the final trace record, scaling cumulative counters down
        when the task was cut short of its planned runtime."""
        instance = self._instances[execution.task_id]
        metrics = execution.metrics
        duration = end_ms - execution.start_ms
        planned = metrics.runtime_ms
        ratio = min(1.0, duration / planned) if planned else 1.0
        return TaskTraceRecord(
            task_id=execution.task_id,
            status=status,
            exit_code=exit_code,
            submit_ms=instance.submit_ms,
            start_ms=execution.start_ms,
            end_ms=end_ms,
            duration_ms=duration,
            cpu_pct=metrics.cpu_pct,
            rss_bytes=metrics.rss_bytes,
            rchar_bytes=int(metrics.rchar_bytes * ratio),
            wchar_bytes=int(metrics.wchar_bytes * ratio),
            syscall_read_count=int(metrics.syscall_read_count * ratio),
            syscall_write_count=int(metrics.syscall_write_count * ratio),
            cpu_wait_ms=int(metrics.cpu_wait_ms * ratio),
            page_cache_hits=int(metrics.page_cache_hits * ratio),
            page_cache_misses=int(metrics.page_cache_misses * ratio),
        )

    def _finish_instance(self, t_ms: int, execution: _Execution, exit_code: int) -> None:
        task_id = execution.task_id
        instance = self._instances[task_id]
        status = TaskState.SUCCEEDED if exit_code == 0 else TaskState.FAILED
        record = self._scaled_record(execution, t_ms, status.value, exit_code)
        instance.mark_finished(t_ms, status)
        self._open -= 1
        self.rm.release(task_id, record.wchar_bytes)
        del self._executions[task_id]
        self.trace_records.append(record)
        self._trace_index.setdefault(task_id, record)

        requested = self._definitions[instance.definition][0].requested
        machine_status = self.registry.descriptor(execution.machine_id).status
        diagnosis = diagnose(record, requested, machine_status)
        self.diagnoses[task_id] = diagnosis

        if status is TaskState.SUCCEEDED:
            self._count_success(instance.definition)
            self._emit(
                t_ms, "instance_succeeded", task_id,
                f"exit=0 machine={execution.machine_id}",
            )
            self.log_store.append(task_id, t_ms, LogLevel.INFO, "finished exit=0")
        else:
            self._emit(
                t_ms, "instance_failed", task_id,
                f"exit={exit_code} verdict={diagnosis.verdict.value} "
                f"machine={execution.machine_id}",
            )
            self.log_store.append(
                task_id, t_ms, LogLevel.ERROR,
                f"failed exit={exit_code} ({diagnosis.verdict.value})",
            )
            self._poison_descendants(instance.definition)

    def _on_completion(self, t_ms: int, execution: _Execution) -> None:
        if execution.generation in self._cancelled:
            return
        self._finish_instance(t_ms, execution, execution.exit_code)
        self._pump(t_ms)

    def _on_machine_unhealthy(self, t_ms: int, machine_id: str) -> None:
        self._pending_machine_events -= 1
        self.registry.set_status(machine_id, MachineStatus.UNHEALTHY)
        self._emit(t_ms, "machine_status", machine_id, "status=unhealthy")
        for task_id in self.rm.running_on(machine_id):
            execution = self._executions[task_id]
            self._cancelled.add(execution.generation)
            self._finish_instance(t_ms, execution, EXIT_MACHINE_KILL)
        self._pump(t_ms)

    def _on_sample_tick(self, t_ms: int) -> None:
        for machine_id in self.registry.machine_ids():
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
            self._push(t_ms + self.sample_cadence_ms, "sample_tick", None)

    def _count_success(self, definition: str) -> None:
        """Mark successors ready when ``definition``'s last instance has
        succeeded and so have all their other predecessors."""
        self._remaining[definition] -= 1
        if self._remaining[definition]:
            return
        predecessors, successors = self.spec.adjacency
        for successor in successors.get(definition, ()):
            if all(self._remaining[p] == 0 for p in predecessors[successor]):
                self._newly_ready.add(successor)

    def _poison_descendants(self, failed_definition: str) -> None:
        """A failed instance makes every instance of every transitively
        downstream definition permanently ineligible."""
        successors = self.spec.adjacency[1]
        frontier = [failed_definition]
        while frontier:
            for successor in successors.get(frontier.pop(), ()):
                if successor in self._poisoned_defs:
                    continue
                self._poisoned_defs.add(successor)
                frontier.append(successor)
                for instance in self._groups[successor]:
                    if instance.state is TaskState.PENDING:
                        self._poisoned.add(instance.task_id)
                        self._open -= 1

    def _check_completion(self, t_ms: int) -> None:
        if self._finished or self._open:
            return
        self.run.final_state = resolve_final_state(self.run, frozenset(self._poisoned))
        if self.run.final_state is RunState.RUNNING:
            return
        self._finished = True
        self._emit(
            t_ms, "run_completed", self.spec.workflow_id,
            f"final={self.run.final_state.value}",
        )


def run_simulation(
    spec: WorkflowSpec,
    machines: list[MachineDescriptor],
    fs_total_bytes: int,
    input_count: int,
    seed: int,
    topology: TopologyMode = TopologyMode.WORKFLOW_AWARE,
    injections: list[FaultInjection] = (),
    **kwargs,
) -> SimulationResult:
    simulation = Simulation(
        spec, machines, fs_total_bytes, input_count, seed, topology, **kwargs
    )
    for injection in injections:
        simulation.inject(injection)
    return simulation.run_to_completion()


@dataclass(frozen=True)
class ScenarioSpec:
    workflow_path: Path
    cluster_path: Path
    input_count: int
    seed: int
    topology: TopologyMode
    injections: tuple[FaultInjection, ...]


class ScenarioSyntaxError(SimulationError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _scenario_int(text: str, line: int, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioSyntaxError(line, f"{key} is not an integer: {text!r}") from None


def parse_scenario(text: str, base_dir: "Path | str" = ".") -> ScenarioSpec:
    """Parse a scenario file tying together a workflow, a cluster, run
    parameters, and scripted faults.  Relative paths resolve against
    base_dir."""
    base = Path(base_dir)
    workflow_path = None
    cluster_path = None
    input_count = 1
    seed = 0
    topology = TopologyMode.WORKFLOW_AWARE
    injections = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "workflow" and len(parts) == 2:
            workflow_path = base / parts[1]
        elif parts[0] == "cluster" and len(parts) == 2:
            cluster_path = base / parts[1]
        elif parts[0] == "input_count" and len(parts) == 2:
            input_count = _scenario_int(parts[1], lineno, "input_count")
            if input_count <= 0:
                raise ScenarioSyntaxError(
                    lineno, f"input_count must be positive, got {input_count}"
                )
        elif parts[0] == "seed" and len(parts) == 2:
            seed = _scenario_int(parts[1], lineno, "seed")
        elif parts[0] == "topology" and len(parts) == 2:
            try:
                topology = TopologyMode.from_wire(parts[1])
            except BlueprintError as exc:
                raise ScenarioSyntaxError(lineno, str(exc)) from None
        elif parts[0] == "inject":
            if len(parts) != 4:
                raise ScenarioSyntaxError(
                    lineno, "expected 'inject <kind> <target> at=<ms>|on_run=<n>'"
                )
            try:
                kind = InjectionKind(parts[1])
            except ValueError:
                raise ScenarioSyntaxError(lineno, f"unknown injection kind {parts[1]!r}") from None
            key, eq, value = parts[3].partition("=")
            if not eq or key not in ("at", "on_run"):
                raise ScenarioSyntaxError(lineno, f"expected at= or on_run=, got {parts[3]!r}")
            number = _scenario_int(value, lineno, key)
            when = {"at_ms": number} if key == "at" else {"on_nth_run": number}
            try:
                injections.append(FaultInjection(kind=kind, target=parts[2], **when))
            except SimulationError as exc:
                raise ScenarioSyntaxError(lineno, str(exc)) from None
        else:
            raise ScenarioSyntaxError(lineno, f"bad directive: {line!r}")
    if workflow_path is None:
        raise SimulationError("scenario missing 'workflow' line")
    if cluster_path is None:
        raise SimulationError("scenario missing 'cluster' line")
    return ScenarioSpec(
        workflow_path=workflow_path,
        cluster_path=cluster_path,
        input_count=input_count,
        seed=seed,
        topology=topology,
        injections=tuple(injections),
    )


def load_scenario(path: "Path | str") -> ScenarioSpec:
    path = Path(path)
    return parse_scenario(path.read_text(encoding="utf-8"), base_dir=path.parent)


def run_scenario(scenario: ScenarioSpec, **kwargs) -> SimulationResult:
    from .machine import parse_cluster
    from .workflow import parse_workflow

    spec = parse_workflow(
        scenario.workflow_path.read_text(encoding="utf-8"),
        default_workflow_id=scenario.workflow_path.stem,
    )
    machines, fs_total = parse_cluster(scenario.cluster_path.read_text(encoding="utf-8"))
    return run_simulation(
        spec,
        machines,
        fs_total,
        scenario.input_count,
        scenario.seed,
        scenario.topology,
        injections=list(scenario.injections),
        **kwargs,
    )
