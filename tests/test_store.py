"""Run history store tests: append/load round trips, ordering, corruption."""

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stratus.store import RunStore, RunSummary, StoreError
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


def test_append_then_load_round_trip(tmp_path):
    store = RunStore(tmp_path / "runs.jsonl")
    run = finished_run("r1", "w", 1000)
    store.append(run)
    loaded = store.load_all()
    assert len(loaded) == 1
    assert loaded[0].to_record() == run.to_record()


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


def test_corrupt_line_reports_position(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    with open(path, "a") as fh:
        fh.write("{not json\n")
    with pytest.raises(StoreError) as err:
        store.load_all()
    assert ":2:" in str(err.value)


def test_torn_final_append_is_skipped_then_truncated(tmp_path, caplog):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    store.append(finished_run("r2", "w", 1))
    path.write_bytes(path.read_bytes()[:-20])  # a crash cut the last append short
    with caplog.at_level("WARNING", logger="stratus"):
        assert [r.run_id for r in store.load_all()] == ["r1"]
    assert "torn final record" in caplog.text
    store.append(finished_run("r3", "w", 2))
    assert [r.run_id for r in store.load_all()] == ["r1", "r3"]
    assert [json.loads(l)["run_id"] for l in path.read_text().splitlines()] == ["r1", "r3"]


def test_unterminated_whole_final_record_is_kept(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    path.write_bytes(path.read_bytes()[:-1])
    assert [r.run_id for r in store.load_all()] == ["r1"]
    store.append(finished_run("r2", "w", 1))
    assert [r.run_id for r in store.load_all()] == ["r1", "r2"]


def test_interior_garbage_still_raises(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    with open(path, "a") as fh:
        fh.write('{"run_id": "torn')
    store.append(finished_run("r2", "w", 1))
    with open(path, "a") as fh:
        fh.write("{not json\n")
    store.append(finished_run("r3", "w", 2))
    with pytest.raises(StoreError) as err:
        store.load_all()
    assert ":3:" in str(err.value)


def test_previous_executions_newest_first(tmp_path):
    store = RunStore(tmp_path / "runs.jsonl")
    store.append(finished_run("old", "w", 100))
    store.append(finished_run("new", "w", 300))
    store.append(finished_run("mid", "w", 200))
    store.append(finished_run("other", "different", 999))
    summaries = store.list_previous_executions("w")
    assert [s.run_id for s in summaries] == ["new", "mid", "old"]
    assert all(s.workflow_id == "w" for s in summaries)
    assert summaries[0].final_state == "succeeded"
    assert summaries[0].makespan_ms == 100


def test_previous_executions_tie_keeps_latest_append_first(tmp_path):
    store = RunStore(tmp_path / "runs.jsonl")
    store.append(finished_run("first", "w", 500))
    store.append(finished_run("second", "w", 500))
    summaries = store.list_previous_executions("w")
    assert [s.run_id for s in summaries] == ["second", "first"]


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


def naive_previous_executions(path, workflow_id):
    """The summaries derived from a full load_all() of a fresh store."""
    return summaries_of(RunStore(path).load_all(), workflow_id)


def summaries_of(history, workflow_id):
    """The summaries of ``workflow_id``'s records in ``history``, a list in
    append order: newest submission first, the later append first on a tie."""
    records = [
        (position, record)
        for position, record in enumerate(history)
        if record.workflow_id == workflow_id
    ]
    records.sort(key=lambda pair: (-pair[1].submission_ms, -pair[0]))
    return [
        RunSummary(
            run_id=r.run_id,
            workflow_id=r.workflow_id,
            submission_ms=r.submission_ms,
            final_state=r.final_state.value,
            makespan_ms=makespan_ms(r),
        )
        for _, r in records
    ]


def test_summaries_follow_appends_from_any_writer(tmp_path):
    path = tmp_path / "runs.jsonl"
    rng = random.Random(5)
    store, other = RunStore(path), RunStore(path)
    assert store.list_previous_executions("w") == []
    for position in range(30):
        writer = store if rng.random() < 0.5 else other
        run = finished_run(
            f"r{position}", rng.choice(("w", "v")), rng.randint(0, 4) * 100,
            duration=rng.randint(1, 500),
        )
        writer.append(run)
        for workflow_id in ("w", "v"):
            expected = naive_previous_executions(path, workflow_id)
            assert store.list_previous_executions(workflow_id) == expected
            assert other.list_previous_executions(workflow_id) == expected


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
    RunStore(path).append(finished_run("r3", "w", 2))
    assert [s.run_id for s in store.list_previous_executions("w")] == ["r3", "r1"]
    assert store.list_previous_executions("w") == naive_previous_executions(path, "w")


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


def test_summaries_raise_on_interior_corruption_not_yet_read(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = RunStore(path)
    store.append(finished_run("r1", "w", 0))
    store.append(finished_run("r2", "w", 1))
    assert len(store.list_previous_executions("w")) == 2
    with open(path, "a") as fh:
        fh.write("{not json\n")
    RunStore(path).append(finished_run("r3", "w", 2))
    for _ in range(2):
        with pytest.raises(StoreError) as err:
            store.list_previous_executions("w")
        assert ":3:" in str(err.value)


_runs = st.builds(
    finished_run,
    st.text(max_size=12),
    st.sampled_from(("w", "v")),
    st.integers(0, 2**53),
    st.integers(1, 10**6),
)


# each example cuts and heals its history about 300 times
@settings(max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_runs, min_size=3, max_size=3))
def test_a_history_cut_anywhere_in_its_last_record_heals_on_the_next_append(runs):
    """A crash may cut an append at any byte.  Cut a two-record history at
    every byte of its second line, newline included, then append a third
    record: the cut record is gone unless only its newline was, and both a
    fresh store and one that read the cut file list the rest."""
    first, second, third = runs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        RunStore(path).append(first)
        head = path.stat().st_size
        RunStore(path).append(second)
        whole = path.read_bytes()
        for cut in range(head, len(whole) + 1):
            path.write_bytes(whole[:cut])
            # the second line lacks at most its newline
            kept = [first, second] if cut >= len(whole) - 1 else [first]
            reader = RunStore(path)
            assert reader.load_all() == kept, cut
            assert reader.list_previous_executions("w") == summaries_of(kept, "w"), cut

            RunStore(path).append(third)
            history = kept + [third]
            for store in (reader, RunStore(path)):
                assert store.load_all() == history, cut
                for workflow_id in ("w", "v"):
                    expected = summaries_of(history, workflow_id)
                    assert store.list_previous_executions(workflow_id) == expected, cut
