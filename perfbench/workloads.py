"""The three workloads: what each runs, times and checks, and how its
metrics are made.  Imported by run.py once the program is importable."""

import resource
import statistics
from pathlib import Path
from time import perf_counter

from stratus.fixtures import fixture_text

import engine
import inputs
import layers
import service_mix
from speed import Speedometer
from tracing import Tracer

FIG1_INPUTS = 256
WIDE_INPUTS = 24
MIN_ENGINE_RUNS = 3
SERVICE_SETUP_REPEATS = 5
TRACE_REQUESTS = 150  # requests per traced (and per untraced) service pass
PROBE_REQUESTS = 40  # requests of the service probe after a traced engine run


class Report:
    """Metrics, notes and the tally of checked operations of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}
        self.notes: list[tuple[str, object]] = []
        self.problems: list[str] = []

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value) -> None:
        self.notes.append((name, value))

    def checked(self, attempted: int, problems: list[str], failed: "int | None" = None) -> None:
        self.attempted += attempted
        self.failed += len(problems) if failed is None else failed
        self.problems.extend(problems)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _repeat(seconds: float, minimum: int, body) -> int:
    """Call body() at least ``minimum`` times, and again while the next call
    (predicted to last as long as the last one) still ends within
    ``seconds``.  Returns the number of calls."""
    begin = perf_counter()
    count = 0
    while True:
        start = perf_counter()
        body()
        count += 1
        now = perf_counter()
        if count >= minimum and (now - begin) + (now - start) > seconds:
            return count


# -- engine workloads ----------------------------------------------------------


def run_engine(workload: str, scale: float, seed: int, seconds: float, trace: bool,
               work: Path, report: Report) -> None:
    if workload == "engine-fig1":
        given = inputs.fig1_inputs(fixture_text, seed, max(1, round(FIG1_INPUTS * scale)))
    else:
        given = inputs.wide_inputs(seed, max(2, round(WIDE_INPUTS * scale)))
    loop = engine.EngineLoop(workload, given)
    if trace:
        _trace_engine(loop, seconds, work, report)
    else:
        _time_engine(loop, seconds, report)
    report.checked(loop.attempted, loop.problems, loop.failed)


def _time_engine(loop, seconds: float, report: Report) -> None:
    setups = [engine.timed_setup(loop.inputs)[1] for _ in range(engine.SETUP_REPEATS)]
    runs = []
    instances = []

    def body():
        setup_speed, run_speed, result = loop.one()
        if run_speed is not None:
            setups.append(setup_speed)
            runs.append(run_speed)
            instances.append(len(result.run.instances))

    _repeat(seconds, MIN_ENGINE_RUNS, body)
    if runs:
        wall = statistics.median(r.normalized() for r in runs)
        report.metric("setup_s", statistics.median(s.normalized() for s in setups), "s")
        report.metric("latency_p50_ms", wall * 1000, "ms")
        report.metric("throughput_per_s", instances[0] / wall, "1/s")
        host = statistics.median(r.host_s() for r in runs)
        report.note("run_wall_s (median, normalized)", f"{wall:.4f} s over {len(runs)} runs")
        report.note("run_wall_s (median, host clock)", f"{host:.4f} s")
        report.note("instances_per_s", f"{instances[0] / wall:.1f} at {instances[0]} instances")
    if loop.first_digests:
        report.note("event log / trace sha256", " / ".join(d[:12] for d in loop.first_digests))


def _trace_engine(loop, seconds: float, work: Path, report: Report) -> None:
    tracer = Tracer(layers.KEPT)
    untraced, traced, client = [], [], []

    def body():
        _, run_speed, _ = loop.one()
        if run_speed is not None:
            untraced.append(run_speed.normalized())
        _, run_speed, result = loop.one(tracer)
        if run_speed is not None:
            traced.append(run_speed.normalized())
            client.extend(_probe(result, loop.inputs.seed, tracer, work, report))

    passes = _repeat(seconds, 1, body)
    if untraced and traced:
        base = statistics.median(untraced)
        _per_layer(report, tracer, passes, client, statistics.median(traced) / base, base * 1000)
    _write_spans(tracer, client, work, f"{loop.workload}-{loop.inputs.seed}")


def _probe(result, seed: int, tracer, work: Path, report: Report) -> list:
    """Traced service probe of one engine result, so that the query path
    reports on every workload.  Its requests are in no end-to-end metric."""
    expected = service_mix.expectations([result])
    layers.install(tracer)
    try:
        served = service_mix.serve_results([result], work / "probe-runs.jsonl")
        try:
            outcome = service_mix.drive(served, service_mix.Plan(seed, served), None, PROBE_REQUESTS)
        finally:
            served.close()
    finally:
        tracer.uninstall()
    report.checked(outcome.operations(), service_mix.check(expected, outcome))
    return outcome.requests


# -- service workload ------------------------------------------------------------


def run_service(scale: float, seed: int, seconds: float, trace: bool, work: Path,
                report: Report) -> None:
    input_count = max(1, round(service_mix.MIX_INPUTS * scale))
    # every served run is engine output and must pass the engine's checks
    served_inputs = inputs.fig1_inputs(fixture_text, seed, input_count)
    store_path = work / "runs.jsonl"

    def setup(tracer=None):
        if tracer is not None:
            layers.install(tracer)
        try:
            with Speedometer() as speed:
                served = service_mix.setup_mix(fixture_text, seed, store_path, input_count)
            rendered = [(r, r.event_log_text(), r.trace_text()) for r in served.results]
        finally:
            if tracer is not None:
                tracer.uninstall()
        problems, failed = [], 0
        for result, event_log, trace_text in rendered:
            found = engine.check_run(served_inputs, result, event_log, trace_text, tracer)
            failed += bool(found)
            problems.extend(found)
        report.checked(len(rendered), problems, failed)
        return served, speed.normalized(), service_mix.expectations(served.results)

    def one_pass(tracer, seconds_left, max_requests):
        served, setup_s, expected = setup(tracer)
        if tracer is not None:
            layers.install(tracer)
        try:
            outcome = service_mix.drive(
                served, service_mix.Plan(seed, served), seconds_left, max_requests
            )
        finally:
            if tracer is not None:
                tracer.uninstall()
            served.close()
        report.checked(outcome.operations(), service_mix.check(expected, outcome))
        return outcome, setup_s

    if trace:
        requests = max(PROBE_REQUESTS, round(TRACE_REQUESTS * scale))
        tracer = Tracer(layers.KEPT)
        untraced, traced = [], []

        def body():
            untraced.extend(one_pass(None, None, requests)[0].requests)
            traced.extend(one_pass(tracer, None, requests)[0].requests)

        passes = _repeat(seconds, 1, body)
        base = service_mix.latency_summary(untraced)["p50_ms"]
        ratio = service_mix.latency_summary(traced)["p50_ms"] / base
        _per_layer(report, tracer, passes, traced, ratio, base)
        _write_spans(tracer, traced, work, f"service-mix-{seed}")
        return

    setups = []
    for _ in range(SERVICE_SETUP_REPEATS - 1):
        served, setup_s, _ = setup()
        served.close()
        setups.append(setup_s)
    outcome, setup_s = one_pass(None, seconds, None)
    setups.append(setup_s)
    summary = service_mix.latency_summary(outcome.requests, outcome.elapsed_s)
    report.metric("setup_s", statistics.median(setups), "s")
    report.metric("latency_p50_ms", summary["p50_ms"], "ms")
    report.metric("throughput_per_s", summary["per_s"], "1/s")
    report.note("query_p50_ms", f"{summary['p50_ms']:.3f} ms over {summary['count']} requests")
    report.note("query_p99_ms", f"{summary['p99_ms']:.3f} ms over {summary['count']} requests")
    report.note("queries_per_s", f"{summary['per_s']:.2f}")
    for category, (p50, count) in summary["by_category"].items():
        report.note(f"{category} p50_ms", f"{p50:.3f} ms over {count} requests")
    report.note("store appends", outcome.appends)


# -- per-layer metrics -----------------------------------------------------------


def _per_layer(report: Report, tracer, passes: int, client_requests: list,
               overhead_ratio: float, base_ms: float) -> None:
    values = layers.tracer_metrics(tracer, passes)
    summary = service_mix.latency_summary(client_requests)
    values["service.requests"] = summary["count"] / passes
    for category, (p50, _) in summary["by_category"].items():
        values[f"service.{category}.p50_ms"] = p50
    values["service.query_p99_ms"] = summary["p99_ms"]
    overheads = layers.request_overheads(tracer, _intervals(client_requests))
    values["service.overhead_p50_ms"] = statistics.median(overheads) if overheads else 0.0
    values["trace.overhead_ratio"] = overhead_ratio
    values["trace.base_latency_p50_ms"] = base_ms
    for name, unit, _ in layers.PER_LAYER:
        report.metric(name, values[name], unit)
    report.note("traced passes", passes)


def _intervals(client_requests: list) -> list[tuple[float, float]]:
    return [(start, end) for _, _, _, start, end in client_requests]


def _write_spans(tracer, client_requests: list, work: Path, label: str) -> None:
    """Kept spans go next to the work directory, tagged with the index of
    the client request they served."""
    tracer.write_spans(
        work.parent / f"spans-{label}.jsonl", layers.request_index(_intervals(client_requests))
    )
