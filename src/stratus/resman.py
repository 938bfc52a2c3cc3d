"""Resource manager layer: FIFO task queue, first-fit machine assignment
with capacity reservation, infrastructure and file-system status, and the
running-workflow registry.

The queue holds task ids, stored as run-length segments: each segment
holds consecutive ids with an equal ResourceRequest, and that request's
(cpu, memory, disk) vector, computed once when the segment opens.  The
queue is its own depth: queue_depth sums the segment lengths.  Each
machine's reservation is the only capacity state; a machine's headroom is
its capacity minus its reservation, computed at each fit test, so an
assignment and a release write only the reservation.  Within one
scheduling pass headroom only shrinks, so once a request vector fits
nowhere, every later task with the same vector fits nowhere either, and a
machine too small for a vector stays too small for it.  A pass therefore
skips whole segments and resumes each vector's first-fit scan where the
previous task left off, costing O(segments + assignments + machines x
distinct vectors) instead of O(queue x machines).  The healthy machines
and their capacities persist between passes: the list is rebuilt only
when the registry's version moves.  Capacities, reservations and request
vectors are plain (cpu, memory, disk) tuples inside the class, so a pass
and a release build no ResourceVector and hash no dataclass; the public
reads (reserved_on, infrastructure_status) still return ResourceVector.
README's "Engine cost model" records what this was measured against.

Two coupling topologies exist; in both, the engine resolves readiness and
queues each ready instance as a task id and its request.  In workflow-aware
mode runs are registered with submit_workflow, instances are queued with
enqueue, and running_workflows lists the registered runs.  In disjoint mode
instances arrive through submit_task, as from an external driver, and the
resource manager sees no workflow: running_workflows is always empty.  The
access matrix (blueprint) decides which features each topology may serve.
"""

from collections import deque
from dataclasses import dataclass

from .blueprint import TopologyMode
from .machine import MachineRegistry, MachineStatus, ResourceVector
from .workflow import ResourceRequest, RunRecord

class ResmanError(Exception):
    pass


class WrongTopologyError(ResmanError):
    def __init__(self, operation: str, topology: TopologyMode):
        super().__init__(f"{operation} not available in {topology.wire_name} mode")
        self.operation = operation


class DuplicateEntryError(ResmanError):
    def __init__(self, task_id: str):
        super().__init__(f"task already submitted: {task_id!r}")
        self.task_id = task_id


class UnknownEntryError(ResmanError):
    def __init__(self, task_id: str):
        super().__init__(f"no such queued or running task: {task_id!r}")
        self.task_id = task_id


# (cpu_cores, memory_bytes, disk_bytes): the scheduler's own arithmetic runs
# on plain tuples; ResourceVector is built only for callers
_Vector = tuple[float, int, int]
_ZERO: _Vector = (0, 0, 0)
_DISJOINT = TopologyMode.DISJOINT  # bound once: submit_task reads it per instance


def _triple(v: "ResourceVector | ResourceRequest") -> _Vector:
    return (v.cpu_cores, v.memory_bytes, v.disk_bytes)


@dataclass(frozen=True)
class InfrastructureStatus:
    machines_total: int
    machines_by_status: dict[MachineStatus, int]
    capacity_total: ResourceVector
    capacity_reserved: ResourceVector
    queue_depth: int
    running_tasks: int


@dataclass(frozen=True)
class FileSystemStatus:
    total_bytes: int
    used_bytes: int
    healthy: bool


class ResourceManager:
    """Single-actor scheduler core.  All mutation goes through the engine
    thread; reads build fresh values and are safe to expose."""

    def __init__(self, topology: TopologyMode, registry: MachineRegistry, fs_total_bytes: int):
        if fs_total_bytes <= 0:
            raise ResmanError("fs_total_bytes must be positive")
        self.topology = topology
        self.registry = registry
        self.fs_total_bytes = fs_total_bytes
        # (request, request vector, task ids) segments in FIFO order
        self._segments: list[tuple[ResourceRequest, _Vector, deque[str]]] = []
        # every task id ever enqueued: a task runs and finishes only after
        # it was enqueued, so this alone keeps ids unique
        self._seen: set[str] = set()
        # task_id -> (machine_id, request vector)
        self._running: dict[str, tuple[str, _Vector]] = {}
        self._reserved: dict[str, _Vector] = {}
        self._fs_written_bytes = 0
        self._runs: list[RunRecord] = []
        # (machine_id, capacity) of each healthy machine in ascending id
        # order, as of registry version _healthy_version
        self._healthy_version: int | None = None
        self._healthy: list[tuple[str, _Vector]] = []

    # -- submission ---------------------------------------------------------

    def submit_workflow(self, run: RunRecord) -> str:
        """Register a whole workflow run for workflow-aware execution.  The
        engine expands and enqueues its instances as they become ready."""
        if self.topology is not TopologyMode.WORKFLOW_AWARE:
            raise WrongTopologyError("submit_workflow", self.topology)
        self._runs.append(run)
        return run.run_id

    def submit_task(self, task_id: str, requested: ResourceRequest) -> None:
        """External single-task submission; only the disjoint driver may use
        this path."""
        if self.topology is not _DISJOINT:
            raise WrongTopologyError("submit_task", self.topology)
        self.enqueue(task_id, requested)

    def enqueue(self, task_id: str, requested: ResourceRequest) -> None:
        """FIFO append; a task id is refused if it was ever enqueued, whether
        it is queued, running or finished.  A task joins the last segment
        when their requests are equal."""
        if task_id in self._seen:
            raise DuplicateEntryError(task_id)
        self._seen.add(task_id)
        segments = self._segments
        # a definition's instances share one request object: test identity first
        if segments and (segments[-1][0] is requested or segments[-1][0] == requested):
            segments[-1][2].append(task_id)
        else:
            segments.append((requested, _triple(requested), deque([task_id])))

    # -- scheduling ---------------------------------------------------------

    def _refresh_healthy(self) -> None:
        version = self.registry.version
        self._healthy = []
        for machine_id in self.registry.machine_ids():
            descriptor = self.registry.descriptor(machine_id)
            if descriptor.status is MachineStatus.HEALTHY:
                self._healthy.append((machine_id, _triple(descriptor.capacity)))
        self._healthy_version = version

    def schedule(self, t_ms: int) -> list[tuple[str, str]]:
        """One scheduling pass: walk the queue in FIFO order and give each
        task the first healthy machine (ascending id) with room on every
        dimension.  Assignment reserves capacity immediately; tasks that
        fit nowhere stay queued."""
        if not self._segments:
            return []
        if self.registry.version != self._healthy_version:
            self._refresh_healthy()
        healthy = self._healthy
        # per request vector: index of the first machine that may still fit
        # it; len(healthy) once it fits nowhere
        first_fit: dict[_Vector, int] = {}
        assignments = []
        remaining = []
        reservations = self._reserved
        for segment in self._segments:
            _, need, task_ids = segment
            cpu, mem, disk = need
            k = first_fit.get(need, 0)
            while task_ids and k < len(healthy):
                chosen, cap = healthy[k]
                held = reservations.get(chosen, _ZERO)
                # headroom is cap - held, computed here and nowhere else
                if not (
                    cpu <= cap[0] - held[0] and mem <= cap[1] - held[1] and disk <= cap[2] - held[2]
                ):
                    k += 1
                    continue
                task_id = task_ids.popleft()
                reservations[chosen] = (held[0] + cpu, held[1] + mem, held[2] + disk)
                self._running[task_id] = (chosen, need)
                assignments.append((task_id, chosen))
            first_fit[need] = k
            if task_ids:
                remaining.append(segment)
        self._segments = remaining
        return assignments

    def release(self, task_id: str, wchar_bytes: int = 0) -> None:
        """Return a finished task's reservation and account its writes
        against the shared file system."""
        try:
            machine_id, need = self._running.pop(task_id)
        except KeyError:
            raise UnknownEntryError(task_id) from None
        held = self._reserved[machine_id]
        self._reserved[machine_id] = (held[0] - need[0], held[1] - need[1], held[2] - need[2])
        self._fs_written_bytes += max(0, wchar_bytes)

    def running_on(self, machine_id: str) -> list[str]:
        return sorted(
            task_id for task_id, (m, _) in self._running.items() if m == machine_id
        )

    def queue_depth(self) -> int:
        return sum(len(task_ids) for _, _, task_ids in self._segments)

    def reserved_on(self, machine_id: str) -> ResourceVector:
        return ResourceVector(*self._reserved.get(machine_id, _ZERO))

    # -- status -------------------------------------------------------------

    def infrastructure_status(self) -> InfrastructureStatus:
        counts = self.registry.status_counts()
        total = reserved = ResourceVector(*_ZERO)
        for machine_id in self.registry.machine_ids():
            total = total.plus(self.registry.descriptor(machine_id).capacity)
            reserved = reserved.plus(self.reserved_on(machine_id))
        return InfrastructureStatus(
            machines_total=sum(counts.values()),
            machines_by_status=counts,
            capacity_total=total,
            capacity_reserved=reserved,
            queue_depth=self.queue_depth(),
            running_tasks=len(self._running),
        )

    def filesystem_status(self) -> FileSystemStatus:
        used = min(self.fs_total_bytes, self._fs_written_bytes)
        return FileSystemStatus(
            total_bytes=self.fs_total_bytes,
            used_bytes=used,
            healthy=used < self.fs_total_bytes,
        )

    def running_workflows(self) -> list[tuple[str, str, str]]:
        """(run_id, workflow_id, state) triples for registered runs; only
        the workflow-aware resource manager has any (``submit_workflow``)."""
        return [
            (run.run_id, run.workflow_id, run.final_state.value) for run in self._runs
        ]
