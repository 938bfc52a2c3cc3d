"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                 [--seconds S] [--out FILE]

Runs ``run.py`` once per (workload, seed), one process at a time, and prints
for every metric the median, the quartiles and the quartile spread as a
share of the median (``statistics.quantiles(values, n=4)``), next to the
metric's bound from BENCHMARK.json.  ``--out`` writes all values as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary = {}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        runs = []
        for seed in _seeds(args.seeds):
            command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
            last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else "{}"
            result = json.loads(last) if done.returncode == 0 else {}
            runs.append({"seed": seed, "exit": done.returncode, **result})
            if done.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: exit {done.returncode}, "
                      f"failed {result.get('failed')}\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
            for name, metric in result.get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result.get("metrics", {}).items()
            ), flush=True)
        stats = {}
        for name, series in values.items():
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4) if len(series) > 1 else (median,) * 3
            spread = (q3 - q1) / median if median else 0.0
            stats[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                           "values": series}
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            print(f"  {workload:20s} {name:24s} median {median:12.5g}  q1 {q1:12.5g}  "
                  f"q3 {q3:12.5g}  spread {spread:7.2%}  bound {bound}  {flag}")
        summary[workload] = {"runs": runs, "metrics": stats}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
