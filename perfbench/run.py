"""Layered benchmark of the stratus engine and query service.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds against the program in ``src/`` of
the checkout this file sits in, checks every output, prints each metric as
``name = value unit`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones (see BENCHMARK.json); with ``--trace 1`` a
traced run reports the per-layer ones and writes its spans under
``.bench_build/perfbench/``.  The same seed always gives the same inputs.

Workloads:
  engine-fig1         bundled fig1.wf on four.cluster, 256 inputs, no faults
  engine-wide-faults  seeded 48-definition layered DAG on a seeded 16-machine
                      cluster, 24 inputs, disjoint topology, three faults
  service-mix         seeded request mix over 8 served fig1 runs, one
                      keep-alive client, store appends beside the reads
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("engine-fig1", "engine-wide-faults", "service-mix")


def _import_program():
    """Make the checkout's own ``src/stratus`` importable, and refuse to run
    against any other copy of the program."""
    package = ROOT / "src" / "stratus"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import stratus

    if Path(stratus.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported stratus from {stratus.__file__}, not {package}")


def _emit(report) -> None:
    for problem in report.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    if len(report.problems) > 20:
        print(f"CHECK FAILED: ... and {len(report.problems) - 20} more")
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in report.notes:
        print(f"  {name}: {value}")
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report.metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink input sizes (the smoke test uses this)")
    args = parser.parse_args(argv)
    _import_program()
    import workloads

    work_root = ROOT / ".bench_build" / "perfbench"
    work_root.mkdir(parents=True, exist_ok=True)
    report = workloads.Report()
    trace = bool(args.trace)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        if args.workload == "service-mix":
            workloads.run_service(args.scale, args.seed, args.seconds, trace, Path(tmp), report)
        else:
            workloads.run_engine(
                args.workload, args.scale, args.seed, args.seconds, trace, Path(tmp), report
            )
    if not trace:
        report.metric("peak_rss_mb", workloads.peak_rss_mb(), "MiB")
    report.note("error_rate", f"{report.failed}/{report.attempted}")
    _emit(report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
