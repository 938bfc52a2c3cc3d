"""Command line tests: exit codes, run artifacts, inspection commands, and
the serve subcommand end to end."""

import importlib.resources
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import requests

import stratus
from stratus.cli import main
from stratus.store import RunStore
from stratus.taskmon import parse_trace


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
    expected_files = {
        "trace-r1.tsv", "events.log", "run.json", "samples.tsv",
        "machines.json", "logs.tsv", "report.json",
    }
    assert {p.name for p in run_dir.iterdir()} == expected_files

    records = parse_trace((run_dir / "trace-r1.tsv").read_text())
    assert len(records) == 18
    run_payload = json.loads((run_dir / "run.json").read_text())
    assert run_payload["final_state"] == "succeeded"
    assert run_payload["topology"] == "workflow_aware"
    assert (run_payload["input_count"], run_payload["seed"]) == (4, 42)
    assert run_payload["never_eligible"] == []
    machines = json.loads((run_dir / "machines.json").read_text())
    assert [m["machine_id"] for m in machines] == ["m1", "m2"]
    report = json.loads((run_dir / "report.json").read_text())
    assert report["counts"]["succeeded"] == 18
    assert (run_dir / "samples.tsv").read_text().startswith("t_ms\tmachine\t")

    store = RunStore(sandbox / "runs.jsonl")
    assert [r.run_id for r in store.load_all()] == ["r1"]


def test_run_same_seed_gives_identical_artifact_bytes(sandbox, capsys):
    assert main(["run", data_path("fig1.scenario"), "--run-id", "a"]) == 0
    assert main(["run", data_path("fig1.scenario"), "--run-id", "b"]) == 0
    read = lambda rid, name: (sandbox / rid / name).read_bytes()
    assert read("a", "trace-a.tsv") == read("b", "trace-b.tsv")
    assert read("a", "events.log") == read("b", "events.log")
    assert read("a", "samples.tsv") == read("b", "samples.tsv")


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


def test_run_failing_scenario_exits_two(sandbox, capsys):
    code = main(["run", data_path("faults.scenario"), "--run-id", "f1"])
    assert code == 2
    assert "run f1: failed" in capsys.readouterr().out
    run_payload = json.loads((sandbox / "f1" / "run.json").read_text())
    assert run_payload["final_state"] == "failed"
    assert run_payload["never_eligible"] != []


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
    assert [r.run_id for r in store.load_all()] == ["r1"]


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
    capsys.readouterr()
    assert main(["report", "r1"]) == 0
    out = capsys.readouterr().out
    assert "state     succeeded" in out
    assert "makespan" in out
    for name in ("I", "II", "III", "IV", "V", "VI"):
        assert f"  {name} " in out
    report = json.loads((sandbox / "r1" / "report.json").read_text())
    assert report["run_id"] == "r1"


# --- dot, matrix, classify ---


def test_dot_renders_workflow(sandbox, capsys):
    assert main(["dot", data_path("fig1.wf")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph wf1 {")
    assert out.count("label=") == 6
    assert out.count("->") == 7


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
    assert main(["serve", "--bind", "nonsense"]) == 1
    assert "host:port" in capsys.readouterr().err


# --- serve, end to end ---


def test_serve_subcommand_answers_queries(tmp_path):
    env = dict(os.environ)
    env["STRATUS_OUT"] = str(tmp_path / "out")
    # the server process imports the same stratus package as this one
    src = str(Path(stratus.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [
            sys.executable, "-u", "-m", "stratus.cli",
            "serve", "--bind", "127.0.0.1:0",
            "--scenario", data_path("fig1.scenario"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        url = None
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            if line.startswith("serving on "):
                url = line.split("serving on ", 1)[1].strip()
                break
        assert url, "server never reported its address"
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
        process.terminate()
        process.wait(timeout=10)
