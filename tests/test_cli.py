"""Command line tests: exit codes, run artifacts, inspection commands, and
the serve subcommand end to end."""

import importlib.resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests

import stratus
from stratus.blueprint import TopologyMode
from stratus.cli import main
from stratus.service import ServiceContext
from stratus.store import RunStore
from stratus.taskmon import parse_trace
from stratus.workflow import RunRecord, RunState


def data_path(name: str) -> str:
    return str(importlib.resources.files("stratus.data") / name)


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("STRATUS_OUT", str(out))
    monkeypatch.delenv("STRATUS_STORE", raising=False)
    return out


# --- run ---


def test_run_scenario_writes_all_artifacts(sandbox, capsys):
    code = main(["run", data_path("fig1.scenario"), "--run-id", "r1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "run r1: succeeded" in out
    assert "instances 18 (succeeded 18, failed 0)" in out

    run_dir = sandbox / "r1"
    expected_files = {"trace-r1.tsv", "events.log", "run.json", "machines.json", "report.json"}
    assert {p.name for p in run_dir.iterdir()} == expected_files

    records = parse_trace((run_dir / "trace-r1.tsv").read_text())
    assert len(records) == 18
    # run.json is the run's header; events.log holds the instances
    run_payload = json.loads((run_dir / "run.json").read_text())
    submission_ms = run_payload.pop("submission_ms")
    assert run_payload == {
        "final_state": "succeeded", "input_count": 4, "never_eligible": [], "run_id": "r1",
        "seed": 42, "topology": "workflow_aware", "workflow_id": "wf1",
    }
    assert isinstance(submission_ms, int)
    machines = json.loads((run_dir / "machines.json").read_text())
    assert [m["machine_id"] for m in machines] == ["m1", "m2"]
    report = json.loads((run_dir / "report.json").read_text())
    assert report["counts"]["succeeded"] == 18

    store = RunStore(sandbox / "runs.jsonl")
    assert [e.summary.run_id for e in store.load_all()] == ["r1"]


def test_run_same_seed_gives_identical_artifact_bytes(sandbox, capsys):
    assert main(["run", data_path("fig1.scenario"), "--run-id", "a"]) == 0
    assert main(["run", data_path("fig1.scenario"), "--run-id", "b"]) == 0
    read = lambda rid, name: (sandbox / rid / name).read_bytes()
    assert read("a", "trace-a.tsv") == read("b", "trace-b.tsv")
    assert read("a", "events.log") == read("b", "events.log")


def test_run_workflow_cluster_pair_matches_scenario(sandbox, capsys):
    assert main(["run", data_path("fig1.scenario"), "--run-id", "a"]) == 0
    assert main([
        "run", data_path("fig1.wf"), data_path("two.cluster"),
        "--input-count", "4", "--seed", "42", "--run-id", "b",
    ]) == 0
    assert (sandbox / "a" / "events.log").read_bytes() == (
        sandbox / "b" / "events.log"
    ).read_bytes()


def test_run_override_flags_change_the_run(sandbox, capsys):
    assert main(["run", data_path("fig1.scenario"), "--run-id", "a"]) == 0
    assert main([
        "run", data_path("fig1.scenario"), "--run-id", "c", "--seed", "43",
    ]) == 0
    assert (sandbox / "a" / "trace-a.tsv").read_bytes() != (
        sandbox / "c" / "trace-c.tsv"
    ).read_bytes()


@pytest.mark.parametrize("flag, scenario_topology", [
    ("disjoint", "workflow-aware"), ("workflow-aware", "disjoint"),
])
def test_run_topology_flag_overrides_the_scenario(
    sandbox, tmp_path, capsys, flag, scenario_topology
):
    scenario = tmp_path / "s.scenario"
    scenario.write_text(
        f"workflow {data_path('fig1.wf')}\n"
        f"cluster {data_path('two.cluster')}\n"
        f"input_count 4\nseed 42\ntopology {scenario_topology}\n"
    )
    assert main(["run", str(scenario), "--run-id", "t", "--topology", flag]) == 0
    wire_name = TopologyMode.from_wire(flag).wire_name
    assert json.loads((sandbox / "t" / "run.json").read_text())["topology"] == wire_name
    submitted = (sandbox / "t" / "events.log").read_text().splitlines()[0].split("\t")
    assert submitted[1] == "run_submitted"
    assert f"topology={wire_name}" in submitted[3].split()


@pytest.mark.parametrize("injection, error", [
    ("TaskOOM wf1/ZZ/0", "unknown task: 'wf1/ZZ/0'"),
    ("MachineUnhealthy m9", "unknown machine: 'm9'"),
])
def test_run_names_an_unknown_fault_target_by_its_layer(
    sandbox, tmp_path, capsys, injection, error
):
    scenario = tmp_path / "ghost.scenario"
    scenario.write_text(
        f"workflow {data_path('fig1.wf')}\ncluster {data_path('two.cluster')}\n"
        f"inject {injection} at=5\n"
    )
    assert main(["run", str(scenario), "--run-id", "g"]) == 1
    assert capsys.readouterr().err == f"stratus: error: {error}\n"


def test_run_failing_scenario_exits_two(sandbox, capsys):
    code = main(["run", data_path("faults.scenario"), "--run-id", "f1"])
    assert code == 2
    assert "run f1: failed" in capsys.readouterr().out
    run_payload = json.loads((sandbox / "f1" / "run.json").read_text())
    assert run_payload["final_state"] == "failed"
    assert run_payload["never_eligible"] != []


@pytest.mark.parametrize(
    "run_id", ["../escape", "a/b", "a\\b", "t\tx", "nl\nx", "cr\rx", "", ".", ".."]
)
def test_a_run_id_that_is_not_one_path_segment_is_refused(sandbox, tmp_path, capsys, run_id):
    assert main(["run", data_path("fig1.scenario"), "--run-id", run_id]) == 1
    assert capsys.readouterr().err == (
        "stratus: error: name must be one non-empty path segment other than '.' and"
        f" '..', without '/', '\\', tabs or line breaks: {run_id!r}\n"
    )
    # refused before any file is written, inside the output root or beside it
    assert sorted(p.name for p in tmp_path.iterdir()) == []


def test_run_rejects_bad_file_combinations(sandbox, capsys):
    assert main(["run", data_path("fig1.wf")]) == 1
    assert "stratus: error:" in capsys.readouterr().err
    assert main(["run", data_path("fig1.scenario"), data_path("fig1.wf")]) == 1
    assert main(["run", str(sandbox / "missing.scenario")]) == 1


def test_run_respects_store_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("STRATUS_OUT", str(tmp_path / "out"))
    monkeypatch.setenv("STRATUS_STORE", str(tmp_path / "elsewhere" / "history.jsonl"))
    assert main(["run", data_path("fig1.scenario"), "--run-id", "r1"]) == 0
    store = RunStore(tmp_path / "elsewhere" / "history.jsonl")
    assert [e.summary.run_id for e in store.load_all()] == ["r1"]


# --- status and report ---


def test_status_prints_summary(sandbox, capsys):
    main(["run", data_path("fig1.scenario"), "--run-id", "r1"])
    capsys.readouterr()
    assert main(["status", "r1"]) == 0
    out = capsys.readouterr().out
    assert out == "state=succeeded finished=18 total=18 progress=1.000 failures=0\n"


def test_status_unknown_run_fails(sandbox, capsys):
    main(["run", data_path("fig1.scenario"), "--run-id", "r1"])
    capsys.readouterr()
    assert main(["status", "ghost"]) == 1
    assert "not found" in capsys.readouterr().err


def test_report_prints_and_writes(sandbox, capsys):
    main(["run", data_path("fig1.scenario"), "--run-id", "r1"])
    written = (sandbox / "r1" / "report.json").read_bytes()
    capsys.readouterr()
    assert main(["report", "r1"]) == 0
    out = capsys.readouterr().out
    assert "state     succeeded" in out
    assert "makespan" in out
    for name in ("I", "II", "III", "IV", "V", "VI"):
        assert f"  {name} " in out
    # report reads the report that run wrote, and writes nothing
    assert (sandbox / "r1" / "report.json").read_bytes() == written
    assert json.loads(written)["run_id"] == "r1"


FAULTS_REPORT = """\
run       r1
state     failed
makespan  9507 ms
tasks     34 total, 18 succeeded, 6 failed
durations per definition (ms):
  I    count=8 min=1088 mean=1184.9 max=1318
  II   count=8 min=2714 mean=3023.9 max=3263
  III  count=8 min=1419 mean=3069.9 max=4926
"""


def test_status_and_report_read_the_run_directory_from_anywhere(
    tmp_path, monkeypatch, capsys
):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    monkeypatch.delenv("STRATUS_STORE", raising=False)
    monkeypatch.chdir(first)
    monkeypatch.setenv("STRATUS_OUT", "out")  # relative to the first directory
    assert main(["run", data_path("faults.scenario"), "--run-id", "r1"]) == 2
    run_dir = first / "out" / "r1"
    written = (run_dir / "report.json").read_bytes()
    # both read only the history entry and report.json
    (run_dir / "run.json").unlink()
    (run_dir / "events.log").unlink()
    capsys.readouterr()

    monkeypatch.chdir(second)
    monkeypatch.setenv("STRATUS_OUT", str(tmp_path / "elsewhere"))
    store = str(first / "out" / "runs.jsonl")
    assert main(["status", "r1", "--store", store]) == 0
    assert capsys.readouterr().out == (
        "state=failed finished=18 total=34 progress=0.529 failures=6\n"
    )
    assert main(["report", "r1", "--store", store]) == 0
    assert capsys.readouterr().out == FAULTS_REPORT
    assert (run_dir / "report.json").read_bytes() == written
    assert sorted(p.name for p in second.iterdir()) == []
    assert not (tmp_path / "elsewhere").exists()


def append_index_line(out: Path) -> None:
    """A history line with no run directory, as another writer may append."""
    RunStore(out / "runs.jsonl").append(RunRecord("r1", "wf1", 0, [], RunState.SUCCEEDED))


def append_whole_record_line(out: Path) -> None:
    """A whole-record line, as histories were written before they were an
    index."""
    record = {"final_state": "succeeded", "instances": [], "run_id": "r1",
              "submission_ms": 0, "workflow_id": "wf1"}
    with open(out / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def remove_report(out: Path) -> None:
    (out / "r1" / "report.json").unlink()


def empty_report(out: Path) -> None:
    (out / "r1" / "report.json").write_text("{}\n")


def cut_report(out: Path) -> None:
    """report.json cut inside its counts object."""
    report = out / "r1" / "report.json"
    report.write_text(report.read_text()[:16])


@pytest.mark.parametrize("command", ["status", "report"])
@pytest.mark.parametrize("damage, error", [
    pytest.param(append_index_line, "run 'r1' in {out}/runs.jsonl has no run directory",
                 id="an index line"),
    pytest.param(append_whole_record_line,
                 "{out}/runs.jsonl:2: bad record: 'makespan_ms'",
                 id="a whole-record line"),
    pytest.param(remove_report, "run 'r1' has no report: {out}/r1/report.json is missing",
                 id="a run directory without report.json"),
    pytest.param(empty_report, "{out}/r1/report.json: bad report: 'counts'",
                 id="an empty report.json"),
    pytest.param(cut_report,
                 "{out}/r1/report.json: bad report: Expecting property name enclosed in "
                 "double quotes: line 3 column 1 (char 16)",
                 id="a cut report.json"),
])
def test_a_damaged_history_entry_or_report_is_refused(sandbox, capsys, command, damage, error):
    main(["run", data_path("fig1.scenario"), "--run-id", "r1"])
    damage(sandbox)
    capsys.readouterr()
    assert main([command, "r1"]) == 1
    assert capsys.readouterr().err == f"stratus: error: {error.format(out=sandbox)}\n"


def test_a_reused_run_id_is_refused_and_status_names_the_newest_entry(
    sandbox, tmp_path, monkeypatch, capsys
):
    assert main(["run", data_path("faults.scenario"), "--run-id", "demo"]) == 2
    written = (sandbox / "demo" / "report.json").read_bytes()
    history = (sandbox / "runs.jsonl").read_bytes()
    capsys.readouterr()
    # refused before the engine runs: the first run's directory and its one
    # history entry stay as they were
    assert main(["run", data_path("fig1.scenario"), "--run-id", "demo"]) == 1
    assert capsys.readouterr() == (
        "", f"stratus: error: run directory {sandbox / 'demo'} already exists\n"
    )
    assert (sandbox / "demo" / "report.json").read_bytes() == written
    assert (sandbox / "runs.jsonl").read_bytes() == history
    assert main(["status", "demo"]) == 0
    assert capsys.readouterr().out.startswith("state=failed ")

    # another output root may repeat the id in one history; the newest
    # entry names the run
    elsewhere = tmp_path / "elsewhere"
    monkeypatch.setenv("STRATUS_OUT", str(elsewhere))
    store = ["--store", str(sandbox / "runs.jsonl")]
    assert main(["run", data_path("fig1.scenario"), "--run-id", "demo", *store]) == 0
    capsys.readouterr()
    assert main(["status", "demo", *store]) == 0
    assert capsys.readouterr().out == (
        "state=succeeded finished=18 total=18 progress=1.000 failures=0\n"
    )
    assert main(["report", "demo", *store]) == 0
    assert "state     succeeded" in capsys.readouterr().out
    assert (sandbox / "demo" / "report.json").read_bytes() == written


def test_every_history_reader_decodes_through_load_all(sandbox, monkeypatch, capsys):
    assert main(["run", data_path("fig1.scenario"), "--run-id", "r1"]) == 0
    readers = []
    load_all = RunStore.load_all

    def counted(store):
        readers.append(store.path)
        return load_all(store)

    monkeypatch.setattr(RunStore, "load_all", counted)
    history = sandbox / "runs.jsonl"
    assert main(["status", "r1"]) == 0
    assert readers == [history]

    context = ServiceContext(TopologyMode.WORKFLOW_AWARE, store=RunStore(history))
    _, _, body = context.answer("/v1/workflow/previous_executions?as_layer=workflow&subject=wf1")
    assert [e["run_id"] for e in json.loads(body)["payload"]["executions"]] == ["r1"]
    assert readers == [history, history]


# --- dot, matrix, classify ---


def test_dot_renders_workflow(sandbox, capsys):
    assert main(["dot", data_path("fig1.wf")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph wf1 {")
    assert out.count("label=") == 6
    assert out.count("->") == 7


def test_a_workflow_that_repeats_a_task_is_refused_at_its_line(sandbox, tmp_path, capsys):
    task = "task a scatter=false cpus=1 mem=1 disk=0 timeout=1000 model=default\n"
    workflow = tmp_path / "repeat.wf"
    workflow.write_text(f"workflow w\n{task}{task}")
    expected = "line 3: duplicate task name: 'a'\n"
    assert main(["dot", str(workflow)]) == 1
    assert capsys.readouterr().err == f"stratus: error: {workflow}: {expected}"
    assert main(["run", str(workflow), data_path("two.cluster")]) == 1
    assert capsys.readouterr().err == f"stratus: error: {workflow}: {expected}"


_RUN = ["run", "s.scenario"]
_SERVE = ["serve", "--scenario", "s.scenario"]
_BAD_SEED = "s.scenario: line 3: seed is not an integer: 'x'"


@pytest.mark.parametrize(
    "workflow, cluster, rest, argv, expected",
    [
        ("bad.wf", "two.cluster", "", _RUN, "bad.wf: line 2: duplicate task name: 'a'"),
        ("fig1.wf", "bad.cluster", "", _RUN, "bad.cluster: line 1: total is not an integer: 'x'"),
        ("fig1.wf", "two.cluster", "seed x\n", _RUN, _BAD_SEED),
        ("fig1.wf", "two.cluster", "seed x\n", _SERVE, _BAD_SEED),
        (
            "fig1.wf", "two.cluster", "", [*_SERVE, "--overrides", "bad.matrix"],
            "bad.matrix: line 1: unknown feature key: 'bogus'",
        ),
        ("", "", "", ["dot", "bad.wf"], "bad.wf: line 2: duplicate task name: 'a'"),
        (
            "", "", "", ["classify", "bad.profile"],
            "bad.profile: line 2: unknown feature key: 'bogus'",
        ),
        (
            "", "", "", ["matrix", "--overrides", "bad.matrix"],
            "bad.matrix: line 1: unknown feature key: 'bogus'",
        ),
    ],
)
def test_every_command_names_the_file_a_line_error_is_in(
    sandbox, tmp_path, monkeypatch, capsys, workflow, cluster, rest, argv, expected
):
    task = "task a scatter=false cpus=1 mem=1 disk=0 timeout=1000 model=default\n"
    (tmp_path / "bad.wf").write_text(f"{task}{task}")
    (tmp_path / "bad.cluster").write_text("fs total=x\n")
    (tmp_path / "bad.matrix").write_text("bogus: workflow\n")
    (tmp_path / "bad.profile").write_text("name p\nbogus\n")
    for name in ("fig1.wf", "two.cluster"):
        (tmp_path / name).write_text(Path(data_path(name)).read_text())
    # line 2 of the scenario is its cluster line: the text must name the file
    (tmp_path / "s.scenario").write_text(f"workflow {workflow}\ncluster {cluster}\n{rest}")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err == f"stratus: error: {expected}\n"


def test_matrix_grid_is_stable_and_topology_sensitive(sandbox, capsys):
    assert main(["matrix"]) == 0
    first = capsys.readouterr().out
    assert main(["matrix"]) == 0
    again = capsys.readouterr().out
    assert first == again
    assert first.count("\n") == 24

    assert main(["matrix", "--topology", "disjoint"]) == 0
    disjoint = capsys.readouterr().out
    assert disjoint != first
    flips = sum(
        1
        for a, b in zip(first.splitlines(), disjoint.splitlines())
        if a != b
    )
    assert flips == 3


def test_matrix_with_override_file(sandbox, tmp_path, capsys):
    overrides = tmp_path / "policy.matrix"
    overrides.write_text("task_duration: task\n")
    assert main(["matrix", "--overrides", str(overrides)]) == 0
    out = capsys.readouterr().out
    row = next(l for l in out.splitlines() if l.startswith("task_duration"))
    assert row.count("x") == 1

    overrides.write_text("task_duration: basement\n")
    assert main(["matrix", "--overrides", str(overrides)]) == 1


def test_classify_bundled_profile(sandbox, capsys):
    assert main(["classify", data_path("nextflow.profile")]) == 0
    out = capsys.readouterr().out
    assert "profile Nextflow" in out
    assert "resource_manager 0/3" in out
    assert "workflow 6/6" in out
    assert "machine 0/5" in out
    assert "task 6/9" in out
    assert "missing:" in out


# --- argparse behavior ---


def test_unknown_command_and_flag_exit_64(sandbox):
    with pytest.raises(SystemExit) as err:
        main(["warp"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main(["run", "--frobnicate", "x"])
    assert err.value.code == 64
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 64


def test_serve_rejects_bad_bind(sandbox, capsys):
    # a port is ASCII digits: no sign and no other digit characters
    for bind in ("nonsense", "127.0.0.1:\u00b2", "127.0.0.1:+8080"):
        assert main(["serve", "--bind", bind]) == 1
        assert f"--bind expects host:port, got {bind!r}" in capsys.readouterr().err


# --- serve, end to end ---


def start_serve(tmp_path, *flags) -> subprocess.Popen:
    env = dict(os.environ)
    env["STRATUS_OUT"] = str(tmp_path / "out")
    # the server process imports the same stratus package as this one
    src = str(Path(stratus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-u", "-m", "stratus.cli", "serve", "--bind", "127.0.0.1:0", *flags],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )


def read_line(process, prefix: str, lines: list[str]) -> str:
    """Read the server's output up to the first line that starts with
    ``prefix``; every line read is appended to ``lines``."""
    for line in iter(process.stdout.readline, ""):
        lines.append(line.rstrip("\n"))
        if line.startswith(prefix):
            return lines[-1]
    raise AssertionError(f"server exited without a {prefix!r} line: {lines}")


def stop(process) -> None:
    process.terminate()
    # reads both pipes to the end and closes them
    process.communicate(timeout=10)


def test_serve_subcommand_answers_queries(tmp_path):
    process = start_serve(tmp_path, "--scenario", data_path("fig1.scenario"))
    try:
        lines = []
        run_id = read_line(process, "attached run ", lines).removeprefix("attached run ")
        url = read_line(process, "serving on ", lines).removeprefix("serving on ")
        # the run is attached live: its progress streams from the engine
        with requests.get(
            f"{url}/v1/workflow/live_progress",
            params={"as_layer": "workflow", "subject": run_id},
            stream=True,
            timeout=30,
        ) as stream:
            assert stream.status_code == 200
            records = [json.loads(line) for line in stream.iter_lines() if line]
        assert (records[-1]["state"], records[-1]["progress"]) == ("succeeded", 1.0)
        # the run starts once the server is up and reports its end
        read_line(process, f"run {run_id}: ", lines)
        assert lines == [f"attached run {run_id}", f"serving on {url}", f"run {run_id}: succeeded"]

        response = requests.get(
            f"{url}/v1/resource_manager/infrastructure_status",
            params={"as_layer": "resource_manager"},
            timeout=10,
        )
        assert response.status_code == 200
        assert response.json()["payload"]["machines_total"] == 2
        denied = requests.get(
            f"{url}/v1/workflow/workflow_status",
            params={"as_layer": "task", "subject": "whatever"},
            timeout=10,
        )
        assert denied.status_code == 403
    finally:
        stop(process)


def test_serve_adds_its_finished_run_to_the_run_history(tmp_path, capsys):
    store = tmp_path / "runs.jsonl"
    process = start_serve(tmp_path, "--scenario", data_path("faults.scenario"), "--store", str(store))
    try:
        lines = []
        run_id = read_line(process, "attached run ", lines).removeprefix("attached run ")
        url = read_line(process, "serving on ", lines).removeprefix("serving on ")
        read_line(process, f"run {run_id}: ", lines)
        assert lines[-1] == f"run {run_id}: failed"
        response = requests.get(
            f"{url}/v1/workflow/previous_executions",
            params={"as_layer": "workflow", "subject": "wf1"},
            timeout=10,
        )
        assert response.status_code == 200
        executions = response.json()["payload"]["executions"]
        assert [(e["run_id"], e["final_state"]) for e in executions] == [(run_id, "failed")]
    finally:
        stop(process)
    assert main(["status", run_id, "--store", str(store)]) == 0
    assert capsys.readouterr().out.startswith("state=failed ")


def test_serve_writes_the_run_directory_that_run_writes(tmp_path, capsys, monkeypatch):
    process = start_serve(tmp_path, "--scenario", data_path("fig1.scenario"))
    try:
        lines = []
        run_id = read_line(process, "attached run ", lines).removeprefix("attached run ")
        read_line(process, f"run {run_id}: ", lines)
    finally:
        stop(process)
    served = tmp_path / "out" / run_id
    monkeypatch.setenv("STRATUS_OUT", str(tmp_path / "ran"))
    monkeypatch.delenv("STRATUS_STORE", raising=False)
    assert main(["run", data_path("fig1.scenario"), "--run-id", "r1"]) == 0
    ran = tmp_path / "ran" / "r1"
    renamed = {f"trace-{run_id}.tsv": "trace-r1.tsv"}
    assert {renamed.get(p.name, p.name) for p in served.iterdir()} == {
        p.name for p in ran.iterdir()
    }
    # the file that does not name the run holds the same bytes
    assert (served / "machines.json").read_bytes() == (ran / "machines.json").read_bytes()
    # the served run is in its history, which names its directory
    capsys.readouterr()
    assert main(["status", run_id, "--store", str(tmp_path / "out" / "runs.jsonl")]) == 0
    assert capsys.readouterr().out == (
        "state=succeeded finished=18 total=18 progress=1.000 failures=0\n"
    )


@pytest.mark.parametrize("flags, status", [((), 403), (("--topology", "workflow-aware"), 200)])
def test_serve_keeps_the_scenario_topology_unless_given(tmp_path, flags, status):
    scenario = tmp_path / "disjoint.scenario"
    scenario.write_text(
        f"workflow {data_path('fig1.wf')}\n"
        f"cluster {data_path('two.cluster')}\n"
        "input_count 4\nseed 42\ntopology disjoint\n"
    )
    process = start_serve(tmp_path, "--scenario", str(scenario), *flags)
    try:
        lines = []
        run_id = read_line(process, "attached run ", lines).removeprefix("attached run ")
        url = read_line(process, "serving on ", lines).removeprefix("serving on ")
        # in a disjoint deployment the resource manager reads no workflow feature
        response = requests.get(
            f"{url}/v1/workflow/workflow_status",
            params={"as_layer": "resource_manager", "subject": run_id},
            timeout=10,
        )
        assert response.status_code == status
    finally:
        stop(process)


def test_serve_closes_and_exits_1_when_the_run_fails_to_finish(tmp_path):
    workflow = tmp_path / "huge.wf"
    workflow.write_text(
        "workflow w\n"
        "task huge scatter=false cpus=64 mem=1073741824 disk=0 timeout=1000 model=quick\n"
    )
    scenario = tmp_path / "huge.scenario"
    scenario.write_text(f"workflow {workflow}\ncluster {data_path('two.cluster')}\n")
    store = tmp_path / "runs.jsonl"
    process = start_serve(tmp_path, "--scenario", str(scenario), "--store", str(store))
    try:
        lines = []
        read_line(process, "serving on ", lines)
        out, err = process.communicate(timeout=10)
    finally:
        if process.poll() is None:
            stop(process)
    assert process.returncode == 1
    assert out == ""
    assert "stratus: error: event queue drained with non-terminal instances: w/huge/0" in err
    # a run that did not finish is not history
    assert not store.exists()
