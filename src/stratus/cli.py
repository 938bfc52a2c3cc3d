"""Operator command line: run scenarios, inspect runs, render graphs and
matrices, classify capability profiles, and serve the query API.

Exit codes: 0 success (for `run`: the workflow succeeded), 2 the workflow
failed, 1 usage or engine error after parsing, 64 unknown subcommand or
flag.
"""

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from pathlib import Path

from .blueprint import (
    ALL_LAYERS,
    TopologyMode,
    classify_capabilities,
    default_access_matrix,
    parse_capability_profile,
    parse_matrix_overrides,
    render_matrix_grid,
)
from .sim import ScenarioSpec, load_scenario, parse_file, scenario_simulation
from .store import RunStore
from .service import ServiceContext, serve
from .taskmon import format_log
from .textfmt import field_dict, parse_decimal
from .workflow import (
    ExecutionReport,
    RunRecord,
    RunState,
    execution_report,
    export_dot,
    parse_workflow,
    workflow_status,
)

logger = logging.getLogger("stratus")

EX_USAGE = 64

# the --topology spellings, in TopologyMode's order
_TOPOLOGIES = tuple(mode.wire_name.replace("_", "-") for mode in TopologyMode)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def out_root() -> Path:
    return Path(os.environ.get("STRATUS_OUT", "stratus-out"))


def default_store_path() -> Path:
    env = os.environ.get("STRATUS_STORE")
    return Path(env) if env else out_root() / "runs.jsonl"


def build_parser() -> _Parser:
    parser = _Parser(prog="stratus", description=__doc__.splitlines()[0])
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a scenario or workflow+cluster pair")
    run_p.add_argument("files", nargs="+", help="one .scenario file, or a .wf and a .cluster file")
    run_p.add_argument("--input-count", type=int, default=None)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--topology", choices=_TOPOLOGIES, default=None)
    run_p.add_argument("--run-id", default=None)
    run_p.add_argument("--store", default=None, help="run history file (default: STRATUS_STORE)")

    status_p = sub.add_parser("status", help="print a stored run's status")
    status_p.add_argument("run_id")
    status_p.add_argument("--store", default=None)

    report_p = sub.add_parser("report", help="print a stored run's execution report")
    report_p.add_argument("run_id")
    report_p.add_argument("--store", default=None)

    dot_p = sub.add_parser("dot", help="render a workflow file as DOT")
    dot_p.add_argument("workflow")

    matrix_p = sub.add_parser("matrix", help="print the effective access matrix")
    matrix_p.add_argument("--topology", choices=_TOPOLOGIES, default="workflow-aware")
    matrix_p.add_argument("--overrides", default=None, help="matrix override file")

    classify_p = sub.add_parser("classify", help="score a capability profile")
    classify_p.add_argument("profile")

    serve_p = sub.add_parser("serve", help="start the monitoring query service")
    serve_p.add_argument("--bind", default="127.0.0.1:8321", help="host:port")
    serve_p.add_argument(
        "--topology",
        choices=_TOPOLOGIES,
        default=None,
        help="default: the scenario's topology, else workflow-aware",
    )
    serve_p.add_argument("--scenario", default=None, help="run this scenario live while serving")
    serve_p.add_argument("--store", default=None)
    serve_p.add_argument("--overrides", default=None, help="matrix override file")
    return parser


def _store_from(flag: str | None) -> RunStore:
    return RunStore(Path(flag) if flag else default_store_path())


def _scenario_from_run_args(args) -> ScenarioSpec:
    paths = [Path(f) for f in args.files]
    scenario_files = [p for p in paths if p.suffix == ".scenario"]
    workflow_files = [p for p in paths if p.suffix == ".wf"]
    cluster_files = [p for p in paths if p.suffix == ".cluster"]
    counts = len(scenario_files), len(workflow_files), len(cluster_files)
    if counts not in ((1, 0, 0), (0, 1, 1)):
        raise ValueError("give either one .scenario file or a .wf/.cluster pair")
    if scenario_files:
        scenario = load_scenario(scenario_files[0])
    else:
        scenario = ScenarioSpec(workflow_path=workflow_files[0], cluster_path=cluster_files[0])
    if args.input_count is not None:
        scenario = replace(scenario, input_count=args.input_count)
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.topology is not None:
        scenario = replace(scenario, topology=TopologyMode.from_wire(args.topology))
    return scenario


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _write_run_outputs(result, run_dir: Path) -> ExecutionReport:
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / f"trace-{result.run_id}.tsv").write_text(result.trace_text(), encoding="utf-8")
    (run_dir / "events.log").write_text(result.event_log_text(), encoding="utf-8")

    run_payload = result.run.to_record()
    run_payload["topology"] = result.topology.wire_name
    run_payload["input_count"] = result.input_count
    run_payload["seed"] = result.seed
    run_payload["never_eligible"] = sorted(result.never_eligible)
    _write_json(run_dir / "run.json", run_payload)

    sample_lines = ["t_ms\tmachine\tcpu_cores\tmemory_bytes\tdisk_bytes"]
    for sample in result.samples:
        used = sample.used
        sample_lines.append(
            f"{sample.t_ms}\t{sample.machine_id}\t{int(used.cpu_cores)}"
            f"\t{used.memory_bytes}\t{used.disk_bytes}"
        )
    (run_dir / "samples.tsv").write_text("\n".join(sample_lines) + "\n", encoding="utf-8")

    descriptors = [result.registry.descriptor(m) for m in result.registry.machine_ids()]
    _write_json(run_dir / "machines.json", [
        {
            "machine_id": d.machine_id,
            "type": d.machine_type.value,
            "status": d.status.value,
            **field_dict(d.capacity),
            "cpu_architecture": d.hardware.cpu_architecture,
            "cpu_model": d.hardware.cpu_model,
            "memory_clock_mhz": d.hardware.memory_clock_mhz,
        }
        for d in descriptors
    ])

    log_text = "".join(
        format_log(result.application_logs(task_id)) for task_id in sorted(result.instances_by_id)
    )
    (run_dir / "logs.tsv").write_text(log_text, encoding="utf-8")

    _write_json(run_dir / "report.json", result.report.to_record())
    return result.report


def _print_status(record) -> None:
    report = workflow_status(record)
    print(
        f"state={report.state.value} finished={report.finished} "
        f"total={report.total} progress={report.progress:.3f} "
        f"failures={report.failures}"
    )


def _keep(result, store: RunStore) -> tuple[Path, ExecutionReport]:
    """Keep a finished run, the one way `run` and `serve` do: write its
    directory, ``$STRATUS_OUT/<run id>``, append its history entry naming
    that directory, and print its final state.  Returns the directory and
    the run's report."""
    run_dir = out_root() / result.run_id
    report = _write_run_outputs(result, run_dir)
    store.append(result.run, run_dir)
    print(f"run {result.run_id}: {result.run.final_state.value}", flush=True)
    return run_dir, report


def cmd_run(args) -> int:
    simulation = scenario_simulation(_scenario_from_run_args(args), run_id=args.run_id)
    # a run directory holds one run, the one its history entry names
    taken = out_root() / simulation.run_id
    if taken.exists():
        raise ValueError(f"run directory {taken} already exists")
    result = simulation.run_to_completion()
    run_dir, report = _keep(result, _store_from(args.store))
    print(
        f"instances {report.total} (succeeded {report.succeeded}, "
        f"failed {report.failed}), makespan {report.makespan_ms} ms"
    )
    print(f"outputs in {run_dir}")
    return 0 if result.run.final_state is RunState.SUCCEEDED else 2


def _load_run(store: RunStore, run_id: str) -> tuple[RunRecord, Path]:
    """The run record in the run directory of the newest history entry
    with ``run_id``, and that directory."""
    # `run` refuses a reused run id, but an older history may repeat one
    for summary, run_dir in reversed(store.load_all()):
        if summary.run_id == run_id:
            if run_dir is None:
                raise ValueError(f"run {run_id!r} in {store.path} has no run directory")
            run_payload = json.loads((run_dir / "run.json").read_text(encoding="utf-8"))
            return RunRecord.from_record(run_payload), run_dir
    raise ValueError(f"run {run_id!r} not found in {store.path}")


def cmd_status(args) -> int:
    record, _ = _load_run(_store_from(args.store), args.run_id)
    _print_status(record)
    return 0


def cmd_report(args) -> int:
    record, run_dir = _load_run(_store_from(args.store), args.run_id)
    report = execution_report(record)
    print(f"run       {report.run_id}")
    print(f"state     {record.final_state.value}")
    print(f"makespan  {report.makespan_ms} ms")
    print(
        f"tasks     {report.total} total, {report.succeeded} succeeded, "
        f"{report.failed} failed"
    )
    if report.task_stats:
        print("durations per definition (ms):")
        width = max(len(name) for name in report.task_stats)
        for name, stats in report.task_stats.items():
            print(
                f"  {name:<{width}}  count={stats.count} min={stats.min_ms} "
                f"mean={stats.mean_ms:.1f} max={stats.max_ms}"
            )
    out_path = run_dir / "report.json"
    _write_json(out_path, report.to_record())
    print(f"written to {out_path}")
    return 0


def cmd_dot(args) -> int:
    spec = parse_file(parse_workflow, args.workflow, default_workflow_id=Path(args.workflow).stem)
    sys.stdout.write(export_dot(spec))
    return 0


def _matrix_from(overrides: str | None):
    if overrides:
        return parse_file(parse_matrix_overrides, overrides)
    return default_access_matrix()


def cmd_matrix(args) -> int:
    matrix = _matrix_from(args.overrides)
    topology = TopologyMode.from_wire(args.topology)
    sys.stdout.write(render_matrix_grid(matrix, topology))
    return 0


def cmd_classify(args) -> int:
    profile = parse_file(
        parse_capability_profile, args.profile, default_name=Path(args.profile).stem
    )
    summary = classify_capabilities(profile)
    print(f"profile {profile.name}")
    for layer in ALL_LAYERS:
        supported, total = summary.per_layer[layer]
        print(f"{layer.wire_name} {supported}/{total}")
    missing = sorted(f.value for f in summary.missing)
    if missing:
        print("missing: " + ", ".join(missing))
    return 0


def cmd_serve(args) -> int:
    host, _, port_text = args.bind.partition(":")
    try:
        # the port is ASCII digits with no sign
        if not host or port_text[:1] in ("+", "-"):
            raise ValueError
        port = parse_decimal(port_text)
    except ValueError:
        raise ValueError(f"--bind expects host:port, got {args.bind!r}") from None
    simulation = None
    if args.scenario:
        scenario = load_scenario(args.scenario)
        if args.topology is not None:
            scenario = replace(scenario, topology=TopologyMode.from_wire(args.topology))
        simulation = scenario_simulation(scenario)
        topology = scenario.topology
    else:
        topology = TopologyMode.from_wire(args.topology or "workflow-aware")
    context = ServiceContext(
        topology, matrix=_matrix_from(args.overrides), store=_store_from(args.store)
    )
    if simulation is not None:
        context.attach_live(simulation)
        print(f"attached run {simulation.run_id}", flush=True)
    handle = serve(context, host, port)
    print(f"serving on {handle.url}", flush=True)
    try:
        # the run executes here, streamed live, and is then written and
        # stored as `run` does; an engine error closes the server and
        # reaches main, which exits 1 with nothing written or stored
        if simulation is not None:
            _keep(simulation.run_to_completion(), context.store)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        handle.close()


_COMMANDS = {
    "run": cmd_run,
    "status": cmd_status,
    "report": cmd_report,
    "dot": cmd_dot,
    "matrix": cmd_matrix,
    "classify": cmd_classify,
    "serve": cmd_serve,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except KeyboardInterrupt:
        return 1
    except Exception as exc:
        logger.debug("command failed", exc_info=True)
        print(f"stratus: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
