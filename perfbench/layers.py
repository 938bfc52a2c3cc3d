"""Which public functions are traced, and the per-layer metrics made from
their spans.

Functions the engine or the service import by name are patched in the
importing module (``stratus.sim.ready_tasks``, ``stratus.service.authorize``
and so on); methods are patched on their class.  The one private function
wrapped, ``stratus.service._build_payload``, is the service's payload
boundary: without it the time a request spends inside the service layer
could not be told apart from transport and framework time.
"""

import bisect
import statistics

from stratus import machine as st_machine
from stratus import resman as st_resman
from stratus import service as st_service
from stratus import sim as st_sim
from stratus import store as st_store
from stratus import workflow as st_workflow

from tracing import Stat

# spans kept individually (the rest are only aggregated)
KEPT = frozenset({
    "sim.run",
    "resman.schedule",
    "service.authorize",
    "service.build_payload",
    "service.find_task",
    "service.replay_progress",
    "store.append",
    "store.load_all",
})

# the service spans that cover a request's time inside the service layer;
# they never nest in one another
SERVICE_TOP = ("service.authorize", "service.build_payload", "service.replay_progress")


def _schedule_counts(args, assigned):
    rm = args[0]
    # a pass removes exactly the assigned entries from the queue
    examined = rm.queue_depth() + len(assigned)
    return {"examined": examined, "assigned": len(assigned), "peak:queue_depth": examined}


def install(tracer) -> None:
    w = tracer.wrap
    w(st_sim.Simulation, "run_to_completion", "sim.run",
      count=lambda args, result: {"events": len(result.event_records)})
    w(st_sim, "ready_tasks", "workflow.ready_tasks")
    w(st_sim, "workflow_status", "workflow.workflow_status")
    w(st_service, "workflow_status", "workflow.workflow_status")
    w(st_workflow.RunRecord, "instance", "workflow.run_instance")
    for attr in ("definition", "predecessors", "successors"):
        w(st_workflow.WorkflowSpec, attr, "workflow.spec_lookup")
    w(st_workflow, "parse_workflow", "workflow.parse")
    w(st_resman.ResourceManager, "schedule", "resman.schedule", count=_schedule_counts)
    w(st_resman.ResourceManager, "enqueue", "resman.enqueue")
    w(st_resman.ResourceManager, "submit_task", "resman.submit_task")
    w(st_machine.MachineRegistry, "descriptor", "machine.descriptor")
    w(st_machine.MachineRegistry, "record_sample", "machine.record_sample")
    w(st_machine.MachineRegistry, "query_series", "machine.query_series")
    w(st_sim, "diagnose", "taskmon.diagnose")
    w(st_sim, "format_trace_file", "taskmon.trace_emit")
    w(st_service, "authorize", "service.authorize",
      count=lambda args, denial: {"denied": denial is not None})
    w(st_service, "_build_payload", "service.build_payload")
    w(st_service.ServiceContext, "find_task", "service.find_task")
    w(st_service, "replay_progress", "service.replay_progress")
    w(st_store.RunStore, "append", "store.append")
    w(st_store.RunStore, "load_all", "store.load_all",
      count=lambda args, records: {"records": len(records)})


# (metric name, unit, better) in report order; the service request metrics
# at the end come from the client, the rest from the tracer
PER_LAYER = (
    ("sim.run.self_s", "s", "lower"),
    ("sim.events", "count", "lower"),
    ("workflow.ready_tasks.calls", "count", "lower"),
    ("workflow.ready_tasks.self_s", "s", "lower"),
    ("workflow.workflow_status.calls", "count", "lower"),
    ("workflow.workflow_status.self_s", "s", "lower"),
    ("workflow.run_instance.calls", "count", "lower"),
    ("workflow.run_instance.self_s", "s", "lower"),
    ("workflow.spec_lookup.calls", "count", "lower"),
    ("workflow.spec_lookup.self_s", "s", "lower"),
    ("workflow.parse.self_s", "s", "lower"),
    ("resman.schedule.calls", "count", "lower"),
    ("resman.schedule.self_s", "s", "lower"),
    ("resman.schedule.examined", "count", "lower"),
    ("resman.schedule.assigned", "count", "higher"),
    ("resman.schedule.yield", "ratio", "higher"),
    ("resman.enqueue.self_s", "s", "lower"),
    ("resman.submit_task.calls", "count", "lower"),
    ("resman.peak_queue_depth", "count", "lower"),
    ("machine.descriptor.calls", "count", "lower"),
    ("machine.descriptor.self_s", "s", "lower"),
    ("machine.record_sample.calls", "count", "lower"),
    ("machine.record_sample.self_s", "s", "lower"),
    ("machine.query_series.self_s", "s", "lower"),
    ("taskmon.diagnose.self_s", "s", "lower"),
    ("taskmon.trace_emit.self_s", "s", "lower"),
    ("taskmon.trace_parse.self_s", "s", "lower"),
    ("service.authorize.calls", "count", "lower"),
    ("service.authorize.self_s", "s", "lower"),
    ("service.denied", "count", "lower"),
    ("service.build_payload.self_s", "s", "lower"),
    ("service.find_task.self_s", "s", "lower"),
    ("service.replay_progress.self_s", "s", "lower"),
    ("store.append.calls", "count", "lower"),
    ("store.append.p50_ms", "ms", "lower"),
    ("store.load_all.calls", "count", "lower"),
    ("store.load_all.self_s", "s", "lower"),
    ("store.records_parsed", "count", "lower"),
    ("service.requests", "count", "higher"),
    ("service.rm.p50_ms", "ms", "lower"),
    ("service.workflow.p50_ms", "ms", "lower"),
    ("service.machine.p50_ms", "ms", "lower"),
    ("service.task.p50_ms", "ms", "lower"),
    ("service.denied.p50_ms", "ms", "lower"),
    ("service.previous_executions.p50_ms", "ms", "lower"),
    ("service.live_progress.p50_ms", "ms", "lower"),
    ("service.query_p99_ms", "ms", "lower"),
    ("service.overhead_p50_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.base_latency_p50_ms", "ms", "lower"),
)


def tracer_metrics(tracer, passes: int) -> dict[str, float]:
    """Per-layer metrics from the tracer, averaged over ``passes`` traced
    passes (counts are exact per pass because every pass does the same
    work)."""
    totals = tracer.totals()

    def stat(name):
        return totals.get(name) or Stat()

    out: dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        base, _, leaf = name.rpartition(".")
        if leaf == "calls":
            out[name] = stat(base).calls / passes
        elif leaf == "self_s":
            out[name] = stat(base).self_s / passes
    out["sim.events"] = stat("sim.run").counts.get("events", 0) / passes
    schedule = stat("resman.schedule").counts
    out["resman.schedule.examined"] = schedule.get("examined", 0) / passes
    out["resman.schedule.assigned"] = schedule.get("assigned", 0) / passes
    out["resman.schedule.yield"] = (
        schedule.get("assigned", 0) / schedule["examined"] if schedule.get("examined") else 0.0
    )
    out["resman.peak_queue_depth"] = schedule.get("peak:queue_depth", 0)
    out["service.denied"] = stat("service.authorize").counts.get("denied", 0) / passes
    appends = [end - start for start, end in tracer.kept_spans("store.append")]
    out["store.append.p50_ms"] = statistics.median(appends) * 1000 if appends else 0.0
    out["store.records_parsed"] = stat("store.load_all").counts.get("records", 0) / passes
    return out


def request_overheads(tracer, requests) -> list[float]:
    """Client latency minus the service-layer spans inside it, in ms, for
    each (start, end) request interval of a single closed-loop client."""
    inner = sorted(
        (start, end)
        for name in SERVICE_TOP
        for start, end in tracer.kept_spans(name)
    )
    out = []
    j = 0
    for start, end in requests:
        while j < len(inner) and inner[j][0] < start:
            j += 1
        covered = 0.0
        k = j
        while k < len(inner) and inner[k][0] < end:
            covered += min(end, inner[k][1]) - inner[k][0]
            k += 1
        out.append((end - start - covered) * 1000)
    return out


def request_index(requests):
    """Maps a span start to the index of the client request (start, end)
    interval holding it, or None; for tagging spans with their request."""
    starts = [start for start, _ in requests]

    def index_of(t: float):
        k = bisect.bisect_right(starts, t) - 1
        return k if k >= 0 and t <= requests[k][1] else None

    return index_of
