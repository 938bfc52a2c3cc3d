"""Task layer: per-task trace records, fault diagnosis, application logs,
and synthetic code-part profiles.

The trace format mirrors the wrapper-script idiom: at task exit one
tab-separated line of final metrics is appended to the run's trace file.
The format is bit-exact; emitting and re-parsing a record is the identity.
"""

import enum
from dataclasses import dataclass, fields
from operator import attrgetter

from .machine import MachineStatus
from .textfmt import LineError, fold_name, parse_decimal
from .workflow import ResourceRequest, TaskInstance

TRACE_COLUMNS = (
    "task_id",
    "status",
    "exit",
    "submit_ms",
    "start_ms",
    "end_ms",
    "duration_ms",
    "cpu_pct",
    "rss_bytes",
    "rchar_bytes",
    "wchar_bytes",
    "syscr",
    "syscw",
    "cpu_wait_ms",
    "pcache_hit",
    "pcache_miss",
)

TRACE_HEADER = "\t".join(TRACE_COLUMNS)


class TraceError(Exception):
    pass


class MissingHeaderError(LineError, TraceError):
    def __init__(self):
        super().__init__(1, f"first line must be the header {TRACE_HEADER!r}")


class FieldCountMismatchError(LineError, TraceError):
    pass


class InvariantViolationError(LineError, TraceError):
    def __init__(self, line: int, fieldname: str, message: str):
        super().__init__(line, f"{fieldname}: {message}")
        self.field = fieldname


@dataclass(slots=True)
class TaskTraceRecord:
    """Final metrics of one task instance, as written by the exit wrapper.

    cpu_pct is mean CPU utilization in integer percent (250 means 2.5 cores
    busy on average).  cpu_wait_ms is time spent runnable but not scheduled.
    """

    task_id: str
    status: str
    exit_code: int
    submit_ms: int
    start_ms: int
    end_ms: int
    duration_ms: int
    cpu_pct: int
    rss_bytes: int
    rchar_bytes: int
    wchar_bytes: int
    syscall_read_count: int
    syscall_write_count: int
    cpu_wait_ms: int
    page_cache_hits: int
    page_cache_misses: int

    def __post_init__(self):
        if self.duration_ms != self.end_ms - self.start_ms:
            raise TraceError(
                f"{self.task_id}: duration {self.duration_ms} != "
                f"end {self.end_ms} - start {self.start_ms}"
            )
        if min(_counters(self)) < 0:
            # name the first negative counter in column order
            for name in _COUNTER_FIELDS:
                if getattr(self, name) < 0:
                    raise TraceError(f"{self.task_id}: {name} is negative")
        if (self.exit_code == 0) != (self.status == "succeeded"):
            raise TraceError(
                f"{self.task_id}: exit {self.exit_code} inconsistent with "
                f"status {self.status!r}"
            )


# the fields after task_id, status and exit_code: the counters, which may
# not be negative, in column order
_COUNTER_FIELDS = tuple(f.name for f in fields(TaskTraceRecord))[3:]
_counters = attrgetter(*_COUNTER_FIELDS)


def emit_trace(record: TaskTraceRecord) -> str:
    """One tab-separated line in the fixed column order, base-10 integers."""
    return "\t".join(
        (
            record.task_id,
            record.status,
            str(record.exit_code),
            str(record.submit_ms),
            str(record.start_ms),
            str(record.end_ms),
            str(record.duration_ms),
            str(record.cpu_pct),
            str(record.rss_bytes),
            str(record.rchar_bytes),
            str(record.wchar_bytes),
            str(record.syscall_read_count),
            str(record.syscall_write_count),
            str(record.cpu_wait_ms),
            str(record.page_cache_hits),
            str(record.page_cache_misses),
        )
    )


def format_trace_file(records: "list[TaskTraceRecord]") -> str:
    return "\n".join([TRACE_HEADER] + [emit_trace(r) for r in records]) + "\n"


def _int_field(value: str, line: int, name: str) -> int:
    try:
        return parse_decimal(value, canonical=True)
    except ValueError:
        raise InvariantViolationError(line, name, f"not an integer: {value!r}") from None


def parse_trace(text: str) -> list[TaskTraceRecord]:
    """Parse a trace file back into records, validating every invariant and
    reporting violations with the offending line number."""
    lines = text.splitlines()
    if not lines or lines[0] != TRACE_HEADER:
        raise MissingHeaderError()
    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        if len(fields) != len(TRACE_COLUMNS):
            raise FieldCountMismatchError(
                lineno, f"expected {len(TRACE_COLUMNS)} fields, got {len(fields)}"
            )
        ints = [
            _int_field(value, lineno, name)
            for value, name in zip(fields[2:], TRACE_COLUMNS[2:])
        ]
        try:
            record = TaskTraceRecord(fields[0], fields[1], *ints)
        except TraceError as exc:
            raise InvariantViolationError(lineno, "record", str(exc)) from None
        records.append(record)
    return records


class Verdict(enum.Enum):
    NONE = "none"
    OUT_OF_MEMORY = "out_of_memory"
    TIMEOUT = "timeout"
    NON_ZERO_EXIT = "non_zero_exit"
    MACHINE_FAILURE = "machine_failure"


@dataclass(slots=True)
class Diagnosis:
    task_id: str
    verdict: Verdict
    evidence: str


def success_diagnosis(record: TaskTraceRecord) -> Diagnosis:
    """A succeeded record's diagnosis: no verdict, whatever the machine."""
    return Diagnosis(record.task_id, Verdict.NONE, "exit 0")


def diagnose(
    record: TaskTraceRecord,
    requested: ResourceRequest,
    machine_status_at_end: MachineStatus,
) -> Diagnosis:
    """Classify a trace record into a single failure verdict.

    A successful record is never diagnosed as a failure.  For failures, the
    first matching cause in precedence order wins: machine failure, out of
    memory, timeout, plain non-zero exit.  Lower-precedence signals that
    also matched are kept in the evidence text.
    """
    if record.status == "succeeded":
        return success_diagnosis(record)
    # a record that did not succeed has a non-zero exit code
    signals = []
    if machine_status_at_end is MachineStatus.UNHEALTHY:
        signals.append(
            (Verdict.MACHINE_FAILURE, "assigned machine unhealthy at task end")
        )
    if record.rss_bytes > requested.memory_bytes:
        signals.append(
            (
                Verdict.OUT_OF_MEMORY,
                f"rss {record.rss_bytes} > requested {requested.memory_bytes}",
            )
        )
    if record.duration_ms >= requested.max_runtime_ms:
        signals.append(
            (
                Verdict.TIMEOUT,
                f"duration {record.duration_ms} >= limit {requested.max_runtime_ms}",
            )
        )
    signals.append((Verdict.NON_ZERO_EXIT, f"exit code {record.exit_code}"))
    verdict, evidence = signals[0]
    extra = "; ".join(e for _, e in signals[1:])
    if extra:
        evidence = f"{evidence} (also: {extra})"
    return Diagnosis(record.task_id, verdict, evidence)


@dataclass(frozen=True)
class UtilizationRecord:
    cpu_ratio: float
    memory_ratio: float
    runtime_ratio: float


def consumed_vs_requested(record: TaskTraceRecord, requested: ResourceRequest) -> UtilizationRecord:
    """Consumed over requested per dimension; consumed cpu cores are the
    mean percentage divided by 100."""
    return UtilizationRecord(
        cpu_ratio=(record.cpu_pct / 100) / requested.cpu_cores,
        memory_ratio=record.rss_bytes / requested.memory_bytes,
        runtime_ratio=record.duration_ms / requested.max_runtime_ms,
    )


class LogLevel(enum.IntEnum):
    DEBUG = 10
    INFO = 20
    WARNING = 30
    ERROR = 40

    @property
    def wire_name(self) -> str:
        return self.name.capitalize()

    @classmethod
    def from_wire(cls, name: str) -> "LogLevel":
        try:
            return cls[fold_name(name).upper()]
        except KeyError:
            raise ValueError(f"unknown log level: {name!r}") from None


@dataclass(frozen=True)
class LogEntry:
    task_id: str
    t_ms: int
    level: LogLevel
    message: str


def task_log(
    instance: TaskInstance,
    record: "TaskTraceRecord | None",
    diagnosis: "Diagnosis | None",
    min_level: LogLevel = LogLevel.DEBUG,
) -> list[LogEntry]:
    """A task's application log, derived from its lifecycle: ``started on
    <machine>`` once it has started, then, once it has a diagnosis, its
    end line at the trace record's end.  Lines below ``min_level`` are
    dropped."""
    if instance.start_ms is None:
        return []
    task_id = instance.task_id
    entries = [
        LogEntry(task_id, instance.start_ms, LogLevel.INFO, f"started on {instance.machine}")
    ]
    if diagnosis is not None:
        if record.exit_code == 0:
            level, message = LogLevel.INFO, "finished exit=0"
        else:
            level = LogLevel.ERROR
            message = f"failed exit={record.exit_code} ({diagnosis.verdict.value})"
        entries.append(LogEntry(task_id, record.end_ms, level, message))
    return [e for e in entries if e.level >= min_level]


@dataclass(frozen=True)
class CodePartProfile:
    task_id: str
    part_name: str
    duration_ms: int
    peak_memory_bytes: int


def synthesize_code_parts(record: TaskTraceRecord) -> list[CodePartProfile]:
    """Fixed-shape synthetic profile derived from a trace record: setup,
    compute, teardown covering at most 90 percent of the task duration."""
    duration = record.duration_ms
    return [
        CodePartProfile(record.task_id, "setup", duration * 10 // 100, record.rss_bytes * 20 // 100),
        CodePartProfile(record.task_id, "compute", duration * 70 // 100, record.rss_bytes),
        CodePartProfile(record.task_id, "teardown", duration * 10 // 100, record.rss_bytes * 10 // 100),
    ]
