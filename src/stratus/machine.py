"""Machine layer: per-node identity, health status, hardware description,
and utilization time series.

Samples arrive from the simulation clock (or, eventually, a real probe) and
land in an in-memory list per machine, kept in strictly increasing time
order, so window and latest-sample queries bisect it.  Readers always get
copies, so they can run concurrently with ingest.
"""

import enum
import itertools
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from operator import attrgetter

from .textfmt import LineError, directive_lines, key_values, line_int, one_field_line, set_once

_T_MS = attrgetter("t_ms")


class MachineError(Exception):
    pass


class DuplicateMachineIdError(MachineError):
    def __init__(self, machine_id: str):
        super().__init__(f"machine id already used: {machine_id!r}")
        self.machine_id = machine_id


class UnknownMachineError(MachineError):
    def __init__(self, machine_id: str):
        super().__init__(f"unknown machine: {machine_id!r}")
        self.machine_id = machine_id


class InvalidWindowError(MachineError):
    def __init__(self, t_from: int, t_to: int):
        super().__init__(f"invalid window: from {t_from} > to {t_to}")


class InvalidSampleError(MachineError):
    pass


class ClusterSyntaxError(LineError, MachineError):
    pass


class MachineType(enum.Enum):
    BARE_METAL = "bare_metal"
    VIRTUAL_MACHINE = "vm"


class MachineStatus(enum.Enum):
    HEALTHY = "healthy"
    MAINTENANCE = "maintenance"
    UNHEALTHY = "unhealthy"


@dataclass(frozen=True)
class ResourceVector:
    """Cpu/memory/disk triple used for capacities, usage, and headroom."""

    cpu_cores: float
    memory_bytes: int
    disk_bytes: int

    def plus(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores + other.cpu_cores,
            self.memory_bytes + other.memory_bytes,
            self.disk_bytes + other.disk_bytes,
        )

    def minus(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu_cores - other.cpu_cores,
            self.memory_bytes - other.memory_bytes,
            self.disk_bytes - other.disk_bytes,
        )

    def fits_within(self, other: "ResourceVector") -> bool:
        return (
            self.cpu_cores <= other.cpu_cores
            and self.memory_bytes <= other.memory_bytes
            and self.disk_bytes <= other.disk_bytes
        )


@dataclass(frozen=True)
class HardwareSpec:
    cpu_architecture: str
    cpu_model: str
    memory_clock_mhz: int
    disk_partitions: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.memory_clock_mhz <= 0:
            raise MachineError(f"memory_clock_mhz must be positive, got {self.memory_clock_mhz}")
        for name, size in self.disk_partitions:
            if size < 0:
                raise MachineError(f"partition {name!r} has negative size")


@dataclass(frozen=True)
class MachineDescriptor:
    machine_id: str
    machine_type: MachineType
    hardware: HardwareSpec
    capacity: ResourceVector
    status: MachineStatus = MachineStatus.HEALTHY

    def __post_init__(self):
        # the event log and samples.tsv are tab-separated lines
        if not one_field_line(self.machine_id):
            raise MachineError(f"machine id must be one line without tabs: {self.machine_id!r}")
        if self.capacity.cpu_cores <= 0 or self.capacity.memory_bytes <= 0 or self.capacity.disk_bytes <= 0:
            raise MachineError(f"{self.machine_id}: capacity values must be strictly positive")
        partition_total = sum(size for _, size in self.hardware.disk_partitions)
        if partition_total > self.capacity.disk_bytes:
            raise MachineError(
                f"{self.machine_id}: partitions total {partition_total} exceeds "
                f"disk capacity {self.capacity.disk_bytes}"
            )


@dataclass(slots=True)
class MachineSample:
    """One utilization reading."""

    machine_id: str
    t_ms: int
    used: ResourceVector


@dataclass(slots=True)
class _Entry:
    """One registered machine: its descriptor and its samples in time order."""

    descriptor: MachineDescriptor
    series: list[MachineSample] = field(default_factory=list)


class MachineRegistry:
    """Registry of machines plus their sample series.

    A machine id is accepted once, so each sample series names one machine.

    ``version`` changes whenever the set of machines or a status changes,
    so readers can cache what they derive from descriptors.
    """

    def __init__(self):
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        self.version = 0

    def _entry(self, machine_id: str) -> _Entry:
        # the caller holds the lock
        try:
            return self._entries[machine_id]
        except KeyError:
            raise UnknownMachineError(machine_id) from None

    def register_machine(self, descriptor: MachineDescriptor) -> None:
        with self._lock:
            if descriptor.machine_id in self._entries:
                raise DuplicateMachineIdError(descriptor.machine_id)
            self._entries[descriptor.machine_id] = _Entry(descriptor)
            self.version += 1

    def machine_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def descriptor(self, machine_id: str) -> MachineDescriptor:
        with self._lock:
            return self._entry(machine_id).descriptor

    def set_status(self, machine_id: str, status: MachineStatus) -> None:
        with self._lock:
            entry = self._entry(machine_id)
            entry.descriptor = replace(entry.descriptor, status=status)
            self.version += 1

    def status_counts(self) -> dict[MachineStatus, int]:
        with self._lock:
            counts = {status: 0 for status in MachineStatus}
            for entry in self._entries.values():
                counts[entry.descriptor.status] += 1
            return counts

    def record_sample(self, sample: MachineSample) -> None:
        with self._lock:
            entry = self._entry(sample.machine_id)
            used = sample.used
            if used.cpu_cores < 0 or used.memory_bytes < 0 or used.disk_bytes < 0:
                raise InvalidSampleError(f"{sample.machine_id}: negative usage at t={sample.t_ms}")
            if not used.fits_within(entry.descriptor.capacity):
                raise InvalidSampleError(
                    f"{sample.machine_id}: usage exceeds capacity at t={sample.t_ms}"
                )
            series = entry.series
            if series and sample.t_ms <= series[-1].t_ms:
                raise InvalidSampleError(
                    f"{sample.machine_id}: sample time {sample.t_ms} not after "
                    f"{series[-1].t_ms}"
                )
            series.append(sample)

    def query_series(self, machine_id: str, t_from: int, t_to: int) -> list[MachineSample]:
        if t_from > t_to:
            raise InvalidWindowError(t_from, t_to)
        with self._lock:
            series = self._entry(machine_id).series
            start = bisect_left(series, t_from, key=_T_MS)
            return series[start:bisect_right(series, t_to, lo=start, key=_T_MS)]

    def latest_sample(self, machine_id: str, t_ms: int) -> MachineSample | None:
        with self._lock:
            series = self._entry(machine_id).series
            end = bisect_right(series, t_ms, key=_T_MS)
            return series[end - 1] if end else None

    def all_samples(self) -> list[MachineSample]:
        """Every machine's series merged by time, then machine id."""
        with self._lock:
            samples = itertools.chain.from_iterable(e.series for e in self._entries.values())
            return sorted(samples, key=attrgetter("t_ms", "machine_id"))

    def available_resources(self, machine_id: str, t_ms: int) -> ResourceVector:
        """Capacity minus the most recent sample at or before t_ms; full
        capacity when nothing has been sampled yet."""
        with self._lock:
            capacity = self._entry(machine_id).descriptor.capacity
        latest = self.latest_sample(machine_id, t_ms)  # the lock is not re-entrant
        return capacity if latest is None else capacity.minus(latest.used)


_MACHINE_KEYS = ("type", "cpus", "mem", "disk", "arch", "model", "clock")


def parse_cluster(text: str) -> tuple[list[MachineDescriptor], int]:
    """Parse a cluster file into machine descriptors plus the shared file
    system's total size.  Lines: ``machine <id> type= cpus= mem= disk= arch=
    model= clock=`` and one ``fs total=<bytes>``."""
    machines: list[MachineDescriptor] = []
    seen = set()
    fs_total = 0
    first_lines: dict[str, int] = {}
    for lineno, line in directive_lines(text):
        parts = line.split()
        if parts[0] == "machine":
            if len(parts) != 9:
                raise ClusterSyntaxError(
                    lineno, "expected 'machine <id> type= cpus= mem= disk= arch= model= clock='"
                )
            machine_id = parts[1]
            if machine_id in seen:
                raise ClusterSyntaxError(lineno, f"duplicate machine id {machine_id!r}")
            seen.add(machine_id)
            kv = key_values(parts[2:], _MACHINE_KEYS, lineno, ClusterSyntaxError)
            try:
                machine_type = MachineType(kv["type"])
            except ValueError:
                raise ClusterSyntaxError(lineno, f"unknown machine type {kv['type']!r}") from None
            disk, clock, cpus, mem = [
                line_int(kv[key], lineno, key, ClusterSyntaxError)
                for key in ("disk", "clock", "cpus", "mem")
            ]
            capacity = ResourceVector(cpu_cores=cpus, memory_bytes=mem, disk_bytes=disk)
            try:
                hardware = HardwareSpec(kv["arch"], kv["model"], clock, (("root", disk),))
                machines.append(MachineDescriptor(machine_id, machine_type, hardware, capacity))
            except MachineError as exc:
                raise ClusterSyntaxError(lineno, str(exc)) from None
        elif parts[0] == "fs":
            if len(parts) != 2 or not parts[1].startswith("total="):
                raise ClusterSyntaxError(lineno, "expected 'fs total=<bytes>'")
            set_once(first_lines, "fs", lineno, ClusterSyntaxError)
            fs_total = line_int(parts[1][len("total="):], lineno, "total", ClusterSyntaxError)
            if fs_total <= 0:
                raise ClusterSyntaxError(lineno, "fs total must be positive")
        else:
            raise ClusterSyntaxError(lineno, f"unknown directive {parts[0]!r}")
    if not machines:
        raise MachineError("no machines")
    if fs_total <= 0:
        raise MachineError("missing 'fs total=' line")
    return machines, fs_total
