"""Run history store tests: summary lines and their run directories, the
reading of whole-record lines, ordering, corruption."""

import itertools
import json
import random
import tempfile
from functools import partial
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratus.store import RunEntry, RunStore, RunSummary, StoreError
from stratus.workflow import RunRecord, RunState, TaskInstance, TaskState, makespan_ms


def finished_run(run_id, workflow_id, submission_ms, duration=100) -> RunRecord:
    inst = TaskInstance(task_id=f"{workflow_id}/a/0", definition="a")
    inst.mark_queued(0)
    inst.mark_running(0, "m1")
    inst.mark_finished(duration, TaskState.SUCCEEDED)
    return RunRecord(
        run_id=run_id,
        workflow_id=workflow_id,
        submission_ms=submission_ms,
        instances=[inst],
        final_state=RunState.SUCCEEDED,
    )


def old_line(run: RunRecord) -> bytes:
    """A history line as written before the store became an index."""
    return json.dumps(run.to_record(), sort_keys=True).encode() + b"\n"


def test_append_then_load_round_trip(tmp_path, monkeypatch):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    run = finished_run("r1", "w", 1000)
    monkeypatch.chdir(tmp_path)
    store.append(run, "out/r1")  # a relative directory is stored absolute
    store.append(finished_run("r2", "v", 2000, duration=7))
    summary = RunSummary("r1", "w", 1000, "succeeded", 100)
    assert store.load_all() == [
        RunEntry(summary, tmp_path.resolve() / "out" / "r1"),
        RunEntry(RunSummary("r2", "v", 2000, "succeeded", 7), None),
    ]
    assert RunStore(path).load_all() == store.load_all()
    # one short line per run: the five summary fields and the run directory
    assert path.read_bytes().split(b"\n")[0] == json.dumps(
        {**vars(summary), "run_dir": str(tmp_path.resolve() / "out" / "r1")}, sort_keys=True
    ).encode()


def test_load_missing_file_is_empty(tmp_path):
    assert RunStore(tmp_path / "absent.jsonl").load_all() == []


def test_append_creates_parent_directories(tmp_path):
    store = RunStore(tmp_path / "deep" / "nested" / "runs.jsonl")
    store.append(finished_run("r1", "w", 0))
    assert len(store.load_all()) == 1


def test_one_json_object_per_line(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    store.append(finished_run("r2", "w", 1))
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["run_id"] == "r1"
    assert json.loads(lines[1])["run_id"] == "r2"


# a history as its writers left it: a run id is that run appended by a new
# store, bytes are written as they are, and READ has the store under test
# read the history so far
READ = None
CORRUPT = b"{not json\n"


@pytest.mark.parametrize("read", ["load_all", "list_previous_executions"])
@pytest.mark.parametrize("history, position", [
    (["r1", CORRUPT], 2),
    # a torn line that more appends followed is interior garbage too
    (["r1", b'{"run_id": "torn', "r2", CORRUPT, "r3"], 3),
    # corruption after what the store has read
    (["r1", "r2", READ, CORRUPT, "r3"], 3),
])
def test_a_corrupt_interior_line_raises_with_its_position(tmp_path, history, position, read):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    reader = store.load_all if read == "load_all" else partial(store.list_previous_executions, "w")
    for submission_ms, item in enumerate(history):
        if item is READ:
            reader()
        elif isinstance(item, bytes):
            with open(path, "ab") as fh:
                fh.write(item)
        else:
            RunStore(path).append(finished_run(item, "w", submission_ms))
    # a failed read keeps nothing, so the next read raises too
    for _ in range(2):
        with pytest.raises(StoreError) as err:
            reader()
        assert f":{position}:" in str(err.value)


def test_torn_final_append_is_skipped_then_truncated(tmp_path, caplog):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    store.append(finished_run("r2", "w", 1))
    path.write_bytes(path.read_bytes()[:-20])  # a crash cut the last append short
    with caplog.at_level("WARNING", logger="stratus"):
        assert [e.summary.run_id for e in store.load_all()] == ["r1"]
    assert "torn final record" in caplog.text
    store.append(finished_run("r3", "w", 2))
    assert [e.summary.run_id for e in store.load_all()] == ["r1", "r3"]
    assert [json.loads(l)["run_id"] for l in path.read_text().splitlines()] == ["r1", "r3"]


def test_unterminated_whole_final_record_is_kept(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    path.write_bytes(path.read_bytes()[:-1])
    assert [e.summary.run_id for e in store.load_all()] == ["r1"]
    store.append(finished_run("r2", "w", 1))
    assert [e.summary.run_id for e in store.load_all()] == ["r1", "r2"]


def test_previous_executions_ordering_matches_sort_oracle(tmp_path):
    rng = random.Random(77)
    store = RunStore(tmp_path / "runs.jsonl")
    appended = []
    for position in range(40):
        submission = rng.randint(0, 5) * 100
        run_id = f"r{position}"
        store.append(finished_run(run_id, "w", submission))
        appended.append((position, submission, run_id))
    expected = [
        run_id
        for _, _, run_id in sorted(appended, key=lambda row: (-row[1], -row[0]))
    ]
    assert [s.run_id for s in store.list_previous_executions("w")] == expected


# --- incremental summaries against a full reload ---


def summary_of(record: RunRecord) -> RunSummary:
    return RunSummary(
        run_id=record.run_id,
        workflow_id=record.workflow_id,
        submission_ms=record.submission_ms,
        final_state=record.final_state.value,
        makespan_ms=makespan_ms(record),
    )


def newest_first(summaries, workflow_id):
    """``workflow_id``'s summaries in ``summaries``, a list in append order:
    newest submission first, the later append first on a tie."""
    matches = [
        (position, summary)
        for position, summary in enumerate(summaries)
        if summary.workflow_id == workflow_id
    ]
    matches.sort(key=lambda pair: (-pair[1].submission_ms, -pair[0]))
    return [summary for _, summary in matches]


def naive_previous_executions(path, workflow_id):
    """The summaries derived from a full load_all() of a fresh store."""
    return newest_first([entry.summary for entry in RunStore(path).load_all()], workflow_id)


def summaries_of(history, workflow_id):
    """The summaries of ``workflow_id``'s records in ``history``, a list of
    run records in append order."""
    return newest_first([summary_of(record) for record in history], workflow_id)


def test_summaries_follow_appends_from_any_writer(tmp_path):
    """Two long-lived stores read one history while it is appended to by
    either of them, cleared in place and appended to before anyone reads,
    rewritten in place longer or shorter, and replaced by a rename.  After
    each step both list what a fresh store lists, and that is the history
    as written."""
    path = tmp_path / "runs.jsonl"
    rng = random.Random(5)
    store, other = RunStore(path), RunStore(path)
    assert store.list_previous_executions("w") == []
    made = itertools.count()

    def new_entries(count):
        """``count`` new (run, run directory or None) pairs."""
        pairs = []
        for _ in range(count):
            run = finished_run(
                f"r{next(made)}", rng.choice(("w", "v")), rng.randint(0, 4) * 100,
                duration=rng.randint(1, 500),
            )
            pairs.append((run, rng.choice((None, tmp_path.resolve() / run.run_id))))
        return pairs

    def written(pairs, target):
        """Clear ``target`` in place, then append ``pairs`` to it."""
        target.write_bytes(b"")
        for run, run_dir in pairs:
            RunStore(target).append(run, run_dir)

    steps = ["append"] * 30 + ["clear", "longer", "shorter", "replace"] * 4
    rng.shuffle(steps)
    history = []  # (run, run_dir) per line of the file
    for step in ["append"] * 3 + steps:
        if step == "append":
            (run, run_dir), = new_entries(1)
            rng.choice((store, other)).append(run, run_dir)
            history.append((run, run_dir))
        elif step == "clear":
            # appended to before any read: longer than what was read when
            # more runs follow than there were
            history = new_entries(rng.randint(0, len(history) + 3))
            written(history, path)
        elif step == "replace":
            history = rng.sample(history, len(history)) + new_entries(rng.randint(0, 3))
            written(history, tmp_path / "next.jsonl")
            (tmp_path / "next.jsonl").replace(path)
        else:
            # in place: the old lines reordered, then more runs or fewer lines
            history = rng.sample(history, len(history))
            if step == "longer":
                history += new_entries(rng.randint(1, 3))
            else:
                history = history[: rng.randint(0, max(len(history) - 1, 0))]
            written(history, path)
        expected = [RunEntry(summary_of(run), run_dir) for run, run_dir in history]
        assert RunStore(path).load_all() == expected, step
        for reader in (store, other):
            assert reader.load_all() == expected, step
        for workflow_id in ("w", "v"):
            expected = naive_previous_executions(path, workflow_id)
            assert store.list_previous_executions(workflow_id) == expected, step
            assert other.list_previous_executions(workflow_id) == expected, step


def test_summaries_skip_a_torn_tail_until_the_next_append(tmp_path, caplog):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r1"]
    RunStore(path).append(finished_run("r2", "w", 1))
    path.write_bytes(path.read_bytes()[:-20])
    with caplog.at_level("WARNING", logger="stratus"):
        assert [s.run_id for s in store.list_previous_executions("w")] == ["r1"]
    assert "torn final record" in caplog.text
    RunStore(path).append(finished_run("r3", "w", 2), tmp_path.resolve() / "r3")
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r3", "r1"]
    assert store.list_previous_executions("w") == naive_previous_executions(path, "w")
    assert store.load_all() == [
        RunEntry(summary_of(finished_run("r1", "w", 0)), None),
        RunEntry(summary_of(finished_run("r3", "w", 2)), tmp_path.resolve() / "r3"),
    ]


def test_summaries_keep_a_whole_record_missing_its_newline(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    store.append(finished_run("r2", "w", 1))
    path.write_bytes(path.read_bytes()[:-1])
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r2", "r1"]
    store.append(finished_run("r3", "w", 1))
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r3", "r2", "r1"]


def test_summaries_start_over_when_the_file_is_rewritten(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    for position in range(4):
        store.append(finished_run(f"r{position}", "w", position))
    assert len(store.list_previous_executions("w")) == 4
    first_line = path.read_bytes().split(b"\n")[0] + b"\n"
    path.write_bytes(first_line)  # shorter, same inode
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r0"]

    replacement = tmp_path / "replacement.jsonl"
    other = RunStore(replacement)
    for position in range(3):
        other.append(finished_run(f"n{position}", "w", 10 + position))
    replacement.replace(path)  # longer, new inode
    assert [s.run_id for s in store.list_previous_executions("w")] == ["n2", "n1", "n0"]
    path.unlink()
    assert store.list_previous_executions("w") == []


_runs = st.builds(
    finished_run,
    st.text(max_size=12),
    st.sampled_from(("w", "v")),
    st.integers(0, 2**53),
    st.integers(1, 10**6),
)


# each example cuts and heals its history about 300 times per format of
# its second line
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_runs, min_size=3, max_size=3))
def test_a_history_cut_anywhere_in_its_last_record_heals_on_the_next_append(runs):
    """A crash may cut an append at any byte.  Cut a two-record history at
    every byte of its second line, newline included, then append a third
    record: the cut record is gone unless only its newline was, and both a
    fresh store and one that read the cut file list the rest.  The second
    line is a summary line, or a whole-record line as written before the
    store became an index."""
    first, second, third = runs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        run_dir = Path(tmp).resolve() / "run"
        entries = [
            RunEntry(summary_of(first), run_dir),
            RunEntry(summary_of(second), None),
            RunEntry(summary_of(third), run_dir),
        ]
        for second_line in ("summary", "whole record"):
            path.unlink(missing_ok=True)
            RunStore(path).append(first, run_dir)
            head = path.stat().st_size
            if second_line == "summary":
                RunStore(path).append(second)
            else:
                with open(path, "ab") as fh:
                    fh.write(old_line(second))
            whole = path.read_bytes()
            for cut in range(head, len(whole) + 1):
                path.write_bytes(whole[:cut])
                # the second line lacks at most its newline
                kept = 2 if cut >= len(whole) - 1 else 1
                reader = RunStore(path)
                assert reader.load_all() == entries[:kept], (second_line, cut)
                expected = summaries_of(runs[:kept], "w")
                assert reader.list_previous_executions("w") == expected, (second_line, cut)

                RunStore(path).append(third, run_dir)
                history = [*runs[:kept], third]
                for store in (reader, RunStore(path)):
                    assert store.load_all() == [*entries[:kept], entries[2]], (second_line, cut)
                    for workflow_id in ("w", "v"):
                        expected = summaries_of(history, workflow_id)
                        assert store.list_previous_executions(workflow_id) == expected, (
                            second_line, cut,
                        )


# --- histories written before the store became an index ---


def test_a_whole_record_history_and_a_mixed_one_list_as_before(tmp_path):
    """Whole-record lines, alone or between summary lines, give the same
    previous_executions payloads as when every line was a whole record; their
    entries have no run directory."""
    runs = [
        finished_run("a", "w", 300, duration=40),
        finished_run("b", "w", 100, duration=250),
        finished_run("c", "v", 200),
        finished_run("d", "w", 300, duration=9),
    ]
    # the payload previous_executions serves for "w" from these runs
    expected = [
        {"run_id": "d", "workflow_id": "w", "submission_ms": 300,
         "final_state": "succeeded", "makespan_ms": 9},
        {"run_id": "a", "workflow_id": "w", "submission_ms": 300,
         "final_state": "succeeded", "makespan_ms": 40},
        {"run_id": "b", "workflow_id": "w", "submission_ms": 100,
         "final_state": "succeeded", "makespan_ms": 250},
    ]
    old = tmp_path / "old.jsonl"
    old.write_bytes(b"".join(old_line(run) for run in runs))
    mixed = tmp_path / "mixed.jsonl"
    run_dir = tmp_path.resolve() / "b"
    mixed.write_bytes(old_line(runs[0]))
    RunStore(mixed).append(runs[1], run_dir)
    with open(mixed, "ab") as fh:
        fh.write(old_line(runs[2]))
    RunStore(mixed).append(runs[3])
    for path in (old, mixed):
        store = RunStore(path)
        assert [vars(s) for s in store.list_previous_executions("w")] == expected
        assert store.list_previous_executions("v") == [summary_of(runs[2])]
    assert [e.run_dir for e in RunStore(old).load_all()] == [None] * 4
    assert RunStore(mixed).load_all() == [
        RunEntry(summary_of(runs[0]), None),
        RunEntry(summary_of(runs[1]), run_dir),
        RunEntry(summary_of(runs[2]), None),
        RunEntry(summary_of(runs[3]), None),
    ]


def test_an_append_costs_the_same_bytes_whatever_the_run_size(tmp_path):
    small = finished_run("r", "w", 5, duration=100)
    large = finished_run("r", "w", 5, duration=100)
    for index in range(1, 10_000):
        inst = TaskInstance(task_id=f"w/a/{index}", definition="a")
        inst.mark_queued(0)
        inst.mark_running(0, "m1")
        inst.mark_finished(100, TaskState.SUCCEEDED)
        large.instances.append(inst)
    assert len(large.instances) == 10_000
    assert summary_of(large) == summary_of(small)
    sizes = []
    for run in (small, large):
        path = tmp_path / f"{len(run.instances)}.jsonl"
        RunStore(path).append(run, tmp_path / "run")
        sizes.append(path.stat().st_size)
    assert sizes[0] == sizes[1]
