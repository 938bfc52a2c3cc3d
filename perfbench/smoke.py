"""Small-size smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/smoke.py     (or: python3 perfbench/smoke.py)

Runs every workload at a fraction of its size, untraced and traced, and
checks that each prints exactly the metrics BENCHMARK.json declares with
every output correct; also checks that the inputs are a function of the
seed and that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = {"engine-fig1": "0.05", "engine-wide-faults": "0.2", "service-mix": "0.125"}


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 42):
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", "0.5", "--trace", str(trace), "--scale", SCALE[workload]]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, done.stdout
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == declared
        for name, metric in result["metrics"].items():
            assert isinstance(metric["value"], float), name
            if key == "end_to_end":
                assert metric["value"] > 0, name


def test_engine_fig1():
    _check_workload("engine-fig1")


def test_engine_wide_faults():
    _check_workload("engine-wide-faults")


def test_service_mix():
    _check_workload("service-mix")


def test_inputs_follow_the_seed():
    sys.path.insert(0, str(HERE))
    import inputs

    first, again, other = inputs.wide_inputs(5, 24), inputs.wide_inputs(5, 24), inputs.wide_inputs(6, 24)
    assert first == again
    assert first.workflow_text != other.workflow_text
    assert first.cluster_text != other.cluster_text
    assert first.workflow_text.count("scatter=true") == inputs.WIDE_SCATTER
    targets = {f.target.split("/")[1] for f in first.faults if f.kind != "MachineUnhealthy"}
    assert targets and all(t in first.workflow_text for t in targets)


def test_refuses_without_program_source():
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        done = _run("engine-fig1", 0, cwd=bare)
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout


if __name__ == "__main__":
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
