"""Resource manager layer: FIFO task queue, first-fit machine assignment
with capacity reservation, infrastructure and file-system status, and the
running-workflow registry.

The queue is stored as run-length segments: each segment holds consecutive
entries with an equal ResourceRequest.  Within one scheduling pass headroom
only shrinks, so once a request vector fits nowhere, every later entry with
the same vector fits nowhere either, and a machine too small for a vector
stays too small for it.  A pass therefore skips whole segments and resumes
each vector's first-fit scan where the previous entry left off, costing
O(segments + assignments + machines x distinct vectors) instead of
O(queue x machines).  The healthy machines, their capacities and headroom
persist between passes: the list is rebuilt only when the registry's
version moves, and a machine's headroom is recomputed when an assignment or
a release changes its reservation.  Capacities, reservations, headroom and
request vectors are plain (cpu, memory, disk) tuples inside the class, so
a pass and a release build no ResourceVector and hash no dataclass; the
public reads (reserved_on, infrastructure_status) still return
ResourceVector.

Two coupling topologies exist.  In workflow-aware mode the resource manager
is handed whole workflows and resolves readiness itself; in disjoint mode an
external driver submits ready instances one at a time and the resource
manager knows nothing about workflow structure (running_workflows is always
empty there).
"""

from collections import deque
from dataclasses import dataclass

from .blueprint import TopologyMode
from .machine import MachineRegistry, MachineStatus, ResourceVector
from .workflow import ResourceRequest, RunRecord, WorkflowSpec

__all__ = [
    "TopologyMode",
    "QueueEntry",
    "InfrastructureStatus",
    "FileSystemStatus",
    "ResourceManager",
    "ResmanError",
    "WrongTopologyError",
    "DuplicateTaskError",
    "UnknownEntryError",
]


class ResmanError(Exception):
    pass


class WrongTopologyError(ResmanError):
    def __init__(self, operation: str, topology: TopologyMode):
        super().__init__(f"{operation} not available in {topology.wire_name} mode")
        self.operation = operation


class DuplicateTaskError(ResmanError):
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


def _triple(v: "ResourceVector | ResourceRequest") -> _Vector:
    return (v.cpu_cores, v.memory_bytes, v.disk_bytes)


def _minus(a: _Vector, b: _Vector) -> _Vector:
    """a - b per dimension, as ResourceVector.minus computes it."""
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@dataclass(slots=True)
class QueueEntry:
    """One ready-to-run instance waiting for a machine.  workflow_id is
    known only in workflow-aware mode."""

    task_id: str
    requested: ResourceRequest
    enqueue_ms: int
    workflow_id: str | None = None


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
        # (request, entries) segments in FIFO order
        self._segments: list[tuple[ResourceRequest, deque[QueueEntry]]] = []
        self._queued: set[str] = set()
        # task_id -> (machine_id, request, request vector)
        self._running: dict[str, tuple[str, ResourceRequest, _Vector]] = {}
        self._finished: set[str] = set()
        self._reserved: dict[str, _Vector] = {}
        self._fs_written_bytes = 0
        self._runs: list[tuple[str, str, RunRecord]] = []
        self._vectors: dict[ResourceRequest, _Vector] = {}
        # healthy machines in ascending id order with capacity, headroom and
        # slot by id, as of registry version _healthy_version
        self._healthy_version: int | None = None
        self._machine_ids: list[str] = []
        self._capacity: list[_Vector] = []
        self._headroom: list[_Vector] = []
        self._slot: dict[str, int] = {}

    # -- submission ---------------------------------------------------------

    def submit_workflow(self, spec: WorkflowSpec, input_count: int, run: RunRecord) -> str:
        """Register a whole workflow for workflow-aware execution.  The
        engine expands and enqueues its instances as they become ready."""
        if self.topology is not TopologyMode.WORKFLOW_AWARE:
            raise WrongTopologyError("submit_workflow", self.topology)
        if input_count <= 0:
            raise ResmanError(f"input_count must be positive, got {input_count}")
        self._runs.append((run.run_id, spec.workflow_id, run))
        return run.run_id

    def submit_task(self, entry: QueueEntry) -> None:
        """External single-task submission; only the disjoint driver may use
        this path."""
        if self.topology is not TopologyMode.DISJOINT:
            raise WrongTopologyError("submit_task", self.topology)
        if entry.workflow_id is not None:
            raise ResmanError("disjoint submissions must not carry a workflow_id")
        self.enqueue(entry)

    def enqueue(self, entry: QueueEntry) -> None:
        """FIFO append with task-id uniqueness across queue, running, and
        finished sets."""
        task_id = entry.task_id
        if task_id in self._queued or task_id in self._running or task_id in self._finished:
            raise DuplicateTaskError(task_id)
        self._queued.add(task_id)
        requested, segments = entry.requested, self._segments
        # a definition's instances share one request object: test identity first
        if segments and (segments[-1][0] is requested or segments[-1][0] == requested):
            segments[-1][1].append(entry)
        else:
            segments.append((requested, deque([entry])))

    # -- scheduling ---------------------------------------------------------

    def _vector(self, requested: ResourceRequest) -> _Vector:
        vector = self._vectors.get(requested)
        if vector is None:
            vector = self._vectors[requested] = _triple(requested)
        return vector

    def _refresh_healthy(self) -> None:
        version = self.registry.version
        if version == self._healthy_version:
            return
        self._machine_ids, self._capacity, self._headroom = [], [], []
        self._slot = {}
        for machine_id in self.registry.machine_ids():
            descriptor = self.registry.descriptor(machine_id)
            if descriptor.status is MachineStatus.HEALTHY:
                self._slot[machine_id] = len(self._machine_ids)
                self._machine_ids.append(machine_id)
                capacity = _triple(descriptor.capacity)
                self._capacity.append(capacity)
                self._headroom.append(_minus(capacity, self._reserved.get(machine_id, _ZERO)))
        self._healthy_version = version

    def schedule(self, t_ms: int) -> list[tuple[str, str]]:
        """One scheduling pass: walk the queue in FIFO order and give each
        entry the first healthy machine (ascending id) with room on every
        dimension.  Assignment reserves capacity immediately; entries that
        fit nowhere stay queued."""
        if not self._segments:
            return []
        self._refresh_healthy()
        machine_ids, capacity, headroom = self._machine_ids, self._capacity, self._headroom
        # per request vector: index of the first machine that may still fit
        # it; len(machine_ids) once it fits nowhere
        first_fit: dict[_Vector, int] = {}
        assignments = []
        remaining = []
        reservations = self._reserved
        for requested, entries in self._segments:
            need = self._vector(requested)
            cpu, mem, disk = need
            k = first_fit.get(need, 0)
            while entries and k < len(machine_ids):
                room = headroom[k]
                if not (cpu <= room[0] and mem <= room[1] and disk <= room[2]):
                    k += 1
                    continue
                entry = entries.popleft()
                chosen = machine_ids[k]
                reserved = reservations.get(chosen, _ZERO)
                reserved = reservations[chosen] = (
                    reserved[0] + cpu, reserved[1] + mem, reserved[2] + disk,
                )
                headroom[k] = _minus(capacity[k], reserved)
                self._queued.discard(entry.task_id)
                self._running[entry.task_id] = (chosen, requested, need)
                assignments.append((entry.task_id, chosen))
            first_fit[need] = k
            if not entries:
                continue
            if remaining and (remaining[-1][0] is requested or remaining[-1][0] == requested):
                remaining[-1][1].extend(entries)
            else:
                remaining.append((requested, entries))
        self._segments = remaining
        return assignments

    def release(self, task_id: str, wchar_bytes: int = 0) -> None:
        """Return a finished task's reservation and account its writes
        against the shared file system."""
        if task_id not in self._running:
            raise UnknownEntryError(task_id)
        machine_id, _, need = self._running.pop(task_id)
        reserved = self._reserved[machine_id] = _minus(self._reserved[machine_id], need)
        slot = self._slot.get(machine_id)
        if slot is not None:
            self._headroom[slot] = _minus(self._capacity[slot], reserved)
        self._finished.add(task_id)
        self._fs_written_bytes += max(0, wchar_bytes)

    def running_on(self, machine_id: str) -> list[str]:
        return sorted(
            task_id for task_id, (m, _, _) in self._running.items() if m == machine_id
        )

    def assignment(self, task_id: str) -> "tuple[str, ResourceRequest] | None":
        running = self._running.get(task_id)
        return None if running is None else running[:2]

    def queue_depth(self) -> int:
        return len(self._queued)

    def reserved_on(self, machine_id: str) -> ResourceVector:
        return ResourceVector(*self._reserved.get(machine_id, _ZERO))

    # -- status -------------------------------------------------------------

    def infrastructure_status(self) -> InfrastructureStatus:
        counts = self.registry.status_counts()
        total = ResourceVector(0, 0, 0)
        for machine_id in self.registry.machine_ids():
            total = total.plus(self.registry.descriptor(machine_id).capacity)
        reserved = ResourceVector(0, 0, 0)
        for machine_id in self.registry.machine_ids():
            reserved = reserved.plus(self.reserved_on(machine_id))
        return InfrastructureStatus(
            machines_total=sum(counts.values()),
            machines_by_status=counts,
            capacity_total=total,
            capacity_reserved=reserved,
            queue_depth=len(self._queued),
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
        """(run_id, workflow_id, state) triples for registered runs; the
        disjoint resource manager cannot see workflows and reports none."""
        if self.topology is TopologyMode.DISJOINT:
            return []
        return [
            (run_id, workflow_id, run.final_state.value)
            for run_id, workflow_id, run in self._runs
        ]
