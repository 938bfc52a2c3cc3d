"""Task layer tests: trace emit/parse identity over randomized records,
malformed-input rejection with line numbers, diagnosis precedence, and logs."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GiB
from oracles import trace_line, validate_code_parts
from stratus.machine import MachineStatus
from stratus.taskmon import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    CodePartProfile,
    FieldCountMismatchError,
    InvariantViolationError,
    LogEntry,
    LogLevel,
    MissingHeaderError,
    TaskTraceRecord,
    TraceError,
    Verdict,
    diagnose,
    emit_trace,
    format_log,
    format_trace_file,
    parse_trace,
    synthesize_code_parts,
    task_log,
)
from stratus.workflow import ResourceRequest, TaskInstance


def make_record(**overrides) -> TaskTraceRecord:
    base = dict(
        task_id="w/a/0",
        status="succeeded",
        exit_code=0,
        submit_ms=10,
        start_ms=20,
        end_ms=120,
        duration_ms=100,
        cpu_pct=85,
        rss_bytes=64 * 1024 * 1024,
        rchar_bytes=1_000_000,
        wchar_bytes=500_000,
        syscall_read_count=120,
        syscall_write_count=60,
        cpu_wait_ms=5,
        page_cache_hits=200,
        page_cache_misses=50,
    )
    base.update(overrides)
    return TaskTraceRecord(**base)


def random_record(rng: random.Random) -> TaskTraceRecord:
    start = rng.randint(0, 10**6)
    duration = rng.randint(0, 10**6)
    failed = rng.random() < 0.4
    return make_record(
        task_id=f"wf{rng.randint(0, 99)}/t{rng.randint(0, 30)}/{rng.randint(0, 63)}",
        status="failed" if failed else "succeeded",
        exit_code=rng.choice([1, 124, 137, 143]) if failed else 0,
        submit_ms=rng.randint(0, start),
        start_ms=start,
        end_ms=start + duration,
        duration_ms=duration,
        cpu_pct=rng.randint(0, 3200),
        rss_bytes=rng.randint(0, 32 * GiB),
        rchar_bytes=rng.randint(0, 10 * GiB),
        wchar_bytes=rng.randint(0, 10 * GiB),
        syscall_read_count=rng.randint(0, 10**7),
        syscall_write_count=rng.randint(0, 10**7),
        cpu_wait_ms=rng.randint(0, 10**5),
        page_cache_hits=rng.randint(0, 10**7),
        page_cache_misses=rng.randint(0, 10**7),
    )


# --- record invariants ---


def test_header_matches_column_order():
    assert len(TRACE_COLUMNS) == 16
    assert TRACE_HEADER.split("\t") == list(TRACE_COLUMNS)
    assert TRACE_COLUMNS[0] == "task_id"
    assert TRACE_COLUMNS[-1] == "pcache_miss"


@pytest.mark.parametrize("overrides, message", [
    (dict(duration_ms=99), "w/a/0: duration 99 != end 120 - start 20"),
    (dict(syscall_read_count=-1), "w/a/0: syscall_read_count is negative"),
    # exit code and status agree: exit 0 iff succeeded
    (dict(status="failed", exit_code=0), "w/a/0: exit 0 inconsistent with status 'failed'"),
    (dict(status="succeeded", exit_code=1), "w/a/0: exit 1 inconsistent with status 'succeeded'"),
])
def test_record_refuses(overrides, message):
    with pytest.raises(TraceError) as err:
        make_record(**overrides)
    assert str(err.value) == message


# --- emit/parse identity ---


def test_emit_parse_identity_over_randomized_records():
    rng = random.Random(9001)
    records = [random_record(rng) for _ in range(10_000)]
    parsed = parse_trace(format_trace_file(records))
    assert parsed == records


def test_emit_is_tab_joined_base10():
    line = emit_trace(make_record())
    fields = line.split("\t")
    assert len(fields) == 16
    assert fields[0] == "w/a/0"
    assert fields[1] == "succeeded"
    assert fields[2] == "0"
    assert fields[8] == str(64 * 1024 * 1024)


def test_format_round_trips_byte_exactly():
    rng = random.Random(4)
    records = [random_record(rng) for _ in range(50)]
    text = format_trace_file(records)
    assert format_trace_file(parse_trace(text)) == text
    assert text.startswith(TRACE_HEADER + "\n")
    assert text.endswith("\n")


_counter = st.integers(0, 2**63)


@st.composite
def trace_records(draw) -> TaskTraceRecord:
    """A valid record with counters up to 2**63 and any text for its id."""
    start_ms = draw(st.integers(0, 2**62))
    duration_ms = draw(st.integers(0, 2**62))
    exit_code = draw(st.sampled_from([0, 1, 124, 137, 143, -9, 2**31]))
    return TaskTraceRecord(
        draw(st.text()),
        "succeeded" if exit_code == 0 else "failed",
        exit_code,
        draw(_counter),
        start_ms,
        start_ms + duration_ms,
        duration_ms,
        *(draw(_counter) for _ in range(9)),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(trace_records(), max_size=6))
def test_trace_rendering_equals_the_per_column_reference(records):
    assert [emit_trace(record) for record in records] == [trace_line(r) for r in records]
    reference = "\n".join([TRACE_HEADER] + [trace_line(r) for r in records]) + "\n"
    assert format_trace_file(records) == reference


# --- malformed input rejection ---


GOOD = emit_trace(make_record())


def replaced(index: int, value: str) -> str:
    """GOOD with field ``index`` replaced by ``value``."""
    fields = GOOD.split("\t")
    fields[index] = value
    return "\t".join(fields)


@pytest.mark.parametrize("text, error, line, field, message", [
    (GOOD + "\n", MissingHeaderError, 1, None,
     f"line 1: first line must be the header {TRACE_HEADER!r}"),
    ("", MissingHeaderError, 1, None, f"line 1: first line must be the header {TRACE_HEADER!r}"),
    (f"{TRACE_HEADER}\n{GOOD}\n{GOOD}\textra\n", FieldCountMismatchError, 3, None,
     "line 3: expected 16 fields, got 17"),
    (f"{TRACE_HEADER}\n{replaced(7, 'fast')}\n", InvariantViolationError, 2, "cpu_pct",
     "line 2: cpu_pct: not an integer: 'fast'"),
    (f"{TRACE_HEADER}\n{GOOD}\n{replaced(6, '1')}\n", InvariantViolationError, 3, "record",
     "line 3: record: w/a/0: duration 1 != end 120 - start 20"),
])
def test_parse_trace_refuses(text, error, line, field, message):
    with pytest.raises(error) as err:
        parse_trace(text)
    assert (err.value.line, getattr(err.value, "field", None)) == (line, field)
    assert str(err.value) == message


def test_parse_skips_blank_lines():
    text = TRACE_HEADER + "\n\n" + GOOD + "\n\n"
    assert len(parse_trace(text)) == 1


# the counters a record may not hold negative, in the order it checks them
COUNTERS = (
    "submit_ms",
    "start_ms",
    "end_ms",
    "duration_ms",
    "cpu_pct",
    "rss_bytes",
    "rchar_bytes",
    "wchar_bytes",
    "syscall_read_count",
    "syscall_write_count",
    "cpu_wait_ms",
    "page_cache_hits",
    "page_cache_misses",
)


def reference_trace_error(fields: dict) -> "str | None":
    """The record's checks as a plain walk in their documented order: the
    message of the first that fails, or None."""
    task_id = fields["task_id"]
    if fields["duration_ms"] != fields["end_ms"] - fields["start_ms"]:
        return (
            f"{task_id}: duration {fields['duration_ms']} != "
            f"end {fields['end_ms']} - start {fields['start_ms']}"
        )
    for name in COUNTERS:
        if fields[name] < 0:
            return f"{task_id}: {name} is negative"
    if (fields["exit_code"] == 0) != (fields["status"] == "succeeded"):
        return (
            f"{task_id}: exit {fields['exit_code']} inconsistent with "
            f"status {fields['status']!r}"
        )
    return None


@st.composite
def trace_fields(draw):
    fields = {name: draw(st.integers(min_value=0, max_value=10**12)) for name in COUNTERS}
    # none, one or a few negative counters, anywhere in the column order
    for name in draw(st.lists(st.sampled_from(COUNTERS), max_size=3)):
        fields[name] = draw(st.integers(min_value=-(10**12), max_value=-1))
    if draw(st.booleans()):
        fields["duration_ms"] = fields["end_ms"] - fields["start_ms"]
    fields["task_id"] = draw(st.text(max_size=10))
    fields["status"] = draw(st.sampled_from(["succeeded", "failed", "weird"]))
    fields["exit_code"] = draw(st.sampled_from([0, 1, 124, 137, -1]))
    return fields


def assert_validates_like_the_reference(fields: dict) -> None:
    expected = reference_trace_error(fields)
    if expected is None:
        record = TaskTraceRecord(**fields)
        assert [getattr(record, name) for name in COUNTERS] == [fields[n] for n in COUNTERS]
    else:
        with pytest.raises(TraceError) as info:
            TaskTraceRecord(**fields)
        assert str(info.value) == expected


@settings(max_examples=500, deadline=None)
@given(trace_fields())
def test_record_validation_matches_the_reference_walk(fields):
    assert_validates_like_the_reference(fields)


def test_record_names_the_first_negative_of_every_counter_pair():
    # every ordered pair of negative counters, so an order slip in the
    # fallback walk cannot hide behind the random draws above
    for first in COUNTERS:
        for second in COUNTERS:
            fields = dataclasses.asdict(make_record()) | {first: -1, second: -2}
            for consistent in (False, True):
                if consistent:
                    fields["duration_ms"] = fields["end_ms"] - fields["start_ms"]
                assert_validates_like_the_reference(fields)


# digits, signs, separators and characters int() treats specially
_trace_char = st.sampled_from(list("0123456789-\t\n x_+\r\u00a0\u0661"))


@st.composite
def fuzzed_trace_text(draw):
    """A trace file with random edits: valid rows, rows with fields
    replaced by junk, dropped or added, and a header that may be damaged."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rows = [emit_trace(random_record(rng)) for _ in range(draw(st.integers(0, 4)))]
    lines = [TRACE_HEADER] + rows
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        fields = lines[at].split("\t")
        edit = draw(st.sampled_from(["replace", "drop", "add", "junk_line"]))
        if edit == "replace":
            k = draw(st.integers(0, len(fields) - 1))
            fields[k] = draw(st.one_of(st.text(_trace_char, max_size=6), st.text(max_size=6)))
        elif edit == "drop" and len(fields) > 1:
            fields.pop(draw(st.integers(0, len(fields) - 1)))
        elif edit == "add":
            fields.append(draw(st.text(_trace_char, max_size=4)))
        else:
            fields = [draw(st.text(max_size=20))]
        lines[at] = "\t".join(fields)
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(fuzzed_trace_text(), st.text(max_size=200)))
def test_parse_trace_raises_only_trace_errors_with_a_line(text):
    try:
        records = parse_trace(text)
    except TraceError as exc:
        assert isinstance(exc.line, int) and exc.line >= 1
        return
    for record in records:
        assert isinstance(record, TaskTraceRecord)


# --- diagnosis ---

REQ = ResourceRequest(cpu_cores=2, memory_bytes=GiB, disk_bytes=0, max_runtime_ms=5000)


@pytest.mark.parametrize("overrides, machine, verdict, evidence", [
    # a success is never a failure, whatever else holds
    (dict(rss_bytes=2 * GiB, end_ms=20 + 9000, duration_ms=9000), MachineStatus.UNHEALTHY,
     Verdict.NONE, "exit 0"),
    # a machine failure outranks everything
    (dict(status="failed", exit_code=143, rss_bytes=2 * GiB, end_ms=20 + 9000, duration_ms=9000),
     MachineStatus.UNHEALTHY, Verdict.MACHINE_FAILURE,
     "assigned machine unhealthy at task end (also: rss 2147483648 > requested 1073741824; "
     "duration 9000 >= limit 5000; exit code 143)"),
    # an OOM needs rss above the request
    (dict(status="failed", exit_code=137, rss_bytes=GiB + 1), MachineStatus.HEALTHY,
     Verdict.OUT_OF_MEMORY, "rss 1073741825 > requested 1073741824 (also: exit code 137)"),
    (dict(status="failed", exit_code=137, rss_bytes=GiB), MachineStatus.HEALTHY,
     Verdict.NON_ZERO_EXIT, "exit code 137"),
    # a timeout needs a duration at the limit
    (dict(status="failed", exit_code=124, end_ms=20 + 5000, duration_ms=5000),
     MachineStatus.HEALTHY, Verdict.TIMEOUT, "duration 5000 >= limit 5000 (also: exit code 124)"),
    (dict(status="failed", exit_code=124, end_ms=20 + 4999, duration_ms=4999),
     MachineStatus.HEALTHY, Verdict.NON_ZERO_EXIT, "exit code 124"),
    # an OOM outranks a timeout
    (dict(status="failed", exit_code=137, rss_bytes=2 * GiB, end_ms=20 + 6000, duration_ms=6000),
     MachineStatus.HEALTHY, Verdict.OUT_OF_MEMORY,
     "rss 2147483648 > requested 1073741824 (also: duration 6000 >= limit 5000; exit code 137)"),
    (dict(status="failed", exit_code=1), MachineStatus.HEALTHY, Verdict.NON_ZERO_EXIT,
     "exit code 1"),
])
def test_diagnose_verdict(overrides, machine, verdict, evidence):
    diagnosis = diagnose(make_record(**overrides), REQ, machine)
    assert (diagnosis.verdict, diagnosis.evidence) == (verdict, evidence)


def test_diagnose_verdict_none_iff_succeeded():
    rng = random.Random(61)
    statuses = list(MachineStatus)
    for _ in range(500):
        record = random_record(rng)
        verdict = diagnose(record, REQ, rng.choice(statuses)).verdict
        assert (verdict is Verdict.NONE) == (record.status == "succeeded")


# --- logs ---


def test_log_levels_round_trip_wire_names():
    for level in LogLevel:
        assert LogLevel.from_wire(level.wire_name) is level
    assert LogLevel.from_wire("warning") is LogLevel.WARNING
    with pytest.raises(ValueError):
        LogLevel.from_wire("loud")


def test_task_log_follows_the_lifecycle():
    instance = TaskInstance("w/a/0", "a")
    assert task_log(instance, None, None) == []
    instance.mark_queued(5)
    assert task_log(instance, None, None) == []
    instance.mark_running(10, "m1")
    started = LogEntry("w/a/0", 10, LogLevel.INFO, "started on m1")
    assert task_log(instance, None, None) == [started]
    record = make_record(start_ms=10, end_ms=40, duration_ms=30)
    # the record alone does not end the log; the diagnosis does
    assert task_log(instance, record, None) == [started]
    done = diagnose(record, REQ, MachineStatus.HEALTHY)
    assert task_log(instance, record, done) == [
        started, LogEntry("w/a/0", 40, LogLevel.INFO, "finished exit=0")
    ]
    assert task_log(instance, record, done, LogLevel.WARNING) == []

    failed = make_record(
        status="failed", exit_code=124, start_ms=10, end_ms=5010, duration_ms=5000
    )
    verdict = diagnose(failed, REQ, MachineStatus.HEALTHY)
    error = LogEntry("w/a/0", 5010, LogLevel.ERROR, "failed exit=124 (timeout)")
    assert task_log(instance, failed, verdict) == [started, error]
    for level in (LogLevel.WARNING, LogLevel.ERROR):
        assert task_log(instance, failed, verdict, level) == [error]


def test_log_export_format():
    assert format_log([]) == ""
    entries = [
        LogEntry("w/a/0", 15, LogLevel.WARNING, "careful"),
        LogEntry("w/a/0", 20, LogLevel.ERROR, "failed exit=1 (non_zero_exit)"),
    ]
    assert format_log(entries) == (
        "15\tWarning\tw/a/0\tcareful\n20\tError\tw/a/0\tfailed exit=1 (non_zero_exit)\n"
    )


# --- code parts ---


def test_code_parts_must_fit_task_duration():
    record = make_record()
    parts = [
        CodePartProfile("w/a/0", "setup", 10, 1),
        CodePartProfile("w/a/0", "compute", 80, 2),
    ]
    validate_code_parts(parts, record)
    parts.append(CodePartProfile("w/a/0", "teardown", 11, 1))
    with pytest.raises(TraceError):
        validate_code_parts(parts, record)
    validate_code_parts(synthesize_code_parts(record), record)
