"""Task layer tests: trace emit/parse identity over randomized records,
malformed-input rejection with line numbers, diagnosis precedence, and logs."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

GiB = 1024**3


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


def test_record_rejects_duration_mismatch():
    with pytest.raises(TraceError):
        make_record(duration_ms=99)


def test_record_rejects_negative_counter():
    with pytest.raises(TraceError):
        make_record(syscall_read_count=-1)


def test_record_couples_exit_code_and_status():
    with pytest.raises(TraceError):
        make_record(status="failed", exit_code=0)
    with pytest.raises(TraceError):
        make_record(status="succeeded", exit_code=1)
    make_record(status="failed", exit_code=137)


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


def test_parse_rejects_missing_header():
    with pytest.raises(MissingHeaderError):
        parse_trace(emit_trace(make_record()) + "\n")
    with pytest.raises(MissingHeaderError) as err:
        parse_trace("")
    assert err.value.line == 1


def test_parse_rejects_field_count_mismatch_with_line():
    good = emit_trace(make_record())
    text = TRACE_HEADER + "\n" + good + "\n" + good + "\textra\n"
    with pytest.raises(FieldCountMismatchError) as err:
        parse_trace(text)
    assert err.value.line == 3


def test_parse_rejects_noninteger_with_line_and_field():
    fields = emit_trace(make_record()).split("\t")
    fields[7] = "fast"
    text = TRACE_HEADER + "\n" + "\t".join(fields) + "\n"
    with pytest.raises(InvariantViolationError) as err:
        parse_trace(text)
    assert err.value.line == 2
    assert err.value.field == "cpu_pct"


def test_parse_rejects_invariant_violation_with_line():
    fields = emit_trace(make_record()).split("\t")
    fields[6] = "1"
    text = TRACE_HEADER + "\n" + emit_trace(make_record()) + "\n" + "\t".join(fields) + "\n"
    with pytest.raises(InvariantViolationError) as err:
        parse_trace(text)
    assert err.value.line == 3


def test_parse_skips_blank_lines():
    text = TRACE_HEADER + "\n\n" + emit_trace(make_record()) + "\n\n"
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


def test_diagnose_success_is_never_a_failure():
    record = make_record(
        status="succeeded", exit_code=0, rss_bytes=2 * GiB,
        end_ms=20 + 9000, duration_ms=9000,
    )
    diagnosis = diagnose(record, REQ, MachineStatus.UNHEALTHY)
    assert diagnosis.verdict is Verdict.NONE
    assert diagnosis.evidence == "exit 0"


def test_diagnose_machine_failure_outranks_everything():
    record = make_record(
        status="failed", exit_code=143, rss_bytes=2 * GiB,
        end_ms=20 + 9000, duration_ms=9000,
    )
    diagnosis = diagnose(record, REQ, MachineStatus.UNHEALTHY)
    assert diagnosis.verdict is Verdict.MACHINE_FAILURE
    assert "also:" in diagnosis.evidence


def test_diagnose_oom_needs_rss_above_request():
    record = make_record(status="failed", exit_code=137, rss_bytes=GiB + 1)
    assert diagnose(record, REQ, MachineStatus.HEALTHY).verdict is Verdict.OUT_OF_MEMORY
    record = make_record(status="failed", exit_code=137, rss_bytes=GiB)
    assert diagnose(record, REQ, MachineStatus.HEALTHY).verdict is Verdict.NON_ZERO_EXIT


def test_diagnose_timeout_needs_duration_at_limit():
    record = make_record(status="failed", exit_code=124, end_ms=20 + 5000, duration_ms=5000)
    assert diagnose(record, REQ, MachineStatus.HEALTHY).verdict is Verdict.TIMEOUT
    record = make_record(status="failed", exit_code=124, end_ms=20 + 4999, duration_ms=4999)
    assert diagnose(record, REQ, MachineStatus.HEALTHY).verdict is Verdict.NON_ZERO_EXIT


def test_diagnose_oom_outranks_timeout():
    record = make_record(
        status="failed", exit_code=137, rss_bytes=2 * GiB,
        end_ms=20 + 6000, duration_ms=6000,
    )
    diagnosis = diagnose(record, REQ, MachineStatus.HEALTHY)
    assert diagnosis.verdict is Verdict.OUT_OF_MEMORY
    assert "also:" in diagnosis.evidence


def test_diagnose_plain_failure():
    record = make_record(status="failed", exit_code=1)
    diagnosis = diagnose(record, REQ, MachineStatus.HEALTHY)
    assert diagnosis.verdict is Verdict.NON_ZERO_EXIT
    assert diagnosis.evidence == "exit code 1"


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
