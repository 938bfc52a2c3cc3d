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
from dataclasses import dataclass, replace
from operator import attrgetter

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


class ClusterSyntaxError(MachineError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


class MachineRegistry:
    """Registry of machines plus their sample series.

    A machine id is never accepted twice within one registry lifetime, even
    after deregistration, so historical series stay unambiguous.

    ``version`` changes whenever the set of machines or a status changes,
    so readers can cache what they derive from descriptors.
    """

    def __init__(self):
        self._machines: dict[str, MachineDescriptor] = {}
        self._ever_used: set[str] = set()
        self._series: dict[str, list[MachineSample]] = {}
        self._lock = threading.Lock()
        self.version = 0

    def register_machine(self, descriptor: MachineDescriptor) -> None:
        with self._lock:
            if descriptor.machine_id in self._ever_used:
                raise DuplicateMachineIdError(descriptor.machine_id)
            self._ever_used.add(descriptor.machine_id)
            self._machines[descriptor.machine_id] = descriptor
            self._series[descriptor.machine_id] = []
            self.version += 1

    def deregister_machine(self, machine_id: str) -> None:
        with self._lock:
            if machine_id not in self._machines:
                raise UnknownMachineError(machine_id)
            del self._machines[machine_id]
            self.version += 1

    def machine_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._machines)

    def descriptor(self, machine_id: str) -> MachineDescriptor:
        with self._lock:
            try:
                return self._machines[machine_id]
            except KeyError:
                raise UnknownMachineError(machine_id) from None

    def set_status(self, machine_id: str, status: MachineStatus) -> None:
        with self._lock:
            if machine_id not in self._machines:
                raise UnknownMachineError(machine_id)
            self._machines[machine_id] = replace(self._machines[machine_id], status=status)
            self.version += 1

    def status_counts(self) -> dict[MachineStatus, int]:
        with self._lock:
            counts = {status: 0 for status in MachineStatus}
            for descriptor in self._machines.values():
                counts[descriptor.status] += 1
            return counts

    def record_sample(self, sample: MachineSample) -> None:
        with self._lock:
            descriptor = self._machines.get(sample.machine_id)
            if descriptor is None:
                raise UnknownMachineError(sample.machine_id)
            used = sample.used
            if used.cpu_cores < 0 or used.memory_bytes < 0 or used.disk_bytes < 0:
                raise InvalidSampleError(f"{sample.machine_id}: negative usage at t={sample.t_ms}")
            if not used.fits_within(descriptor.capacity):
                raise InvalidSampleError(
                    f"{sample.machine_id}: usage exceeds capacity at t={sample.t_ms}"
                )
            series = self._series[sample.machine_id]
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
            series = self._series.get(machine_id)
            if series is None:
                raise UnknownMachineError(machine_id)
            start = bisect_left(series, t_from, key=_T_MS)
            return series[start:bisect_right(series, t_to, lo=start, key=_T_MS)]

    def latest_sample(self, machine_id: str, t_ms: int) -> MachineSample | None:
        with self._lock:
            series = self._series.get(machine_id)
            if series is None:
                raise UnknownMachineError(machine_id)
            end = bisect_right(series, t_ms, key=_T_MS)
            return series[end - 1] if end else None

    def all_samples(self) -> list[MachineSample]:
        """Every machine's series merged by time, then machine id."""
        with self._lock:
            samples = itertools.chain.from_iterable(self._series.values())
            return sorted(samples, key=attrgetter("t_ms", "machine_id"))

    def available_resources(self, machine_id: str, t_ms: int) -> ResourceVector:
        """Capacity minus the most recent sample at or before t_ms; full
        capacity when nothing has been sampled yet."""
        capacity = self.descriptor(machine_id).capacity
        latest = self.latest_sample(machine_id, t_ms)
        if latest is None:
            return capacity
        return capacity.minus(latest.used)

    def used_resources(self, machine_id: str, t_ms: int) -> ResourceVector:
        latest = self.latest_sample(machine_id, t_ms)
        if latest is None:
            return ResourceVector(0, 0, 0)
        return latest.used


_MACHINE_KEYS = ("type", "cpus", "mem", "disk", "arch", "model", "clock")


def _parse_int(text: str, line: int, key: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ClusterSyntaxError(line, f"{key} is not an integer: {text!r}") from None


def parse_cluster(text: str) -> tuple[list[MachineDescriptor], int]:
    """Parse a cluster file into machine descriptors plus the shared file
    system's total size.  Lines: ``machine <id> type= cpus= mem= disk= arch=
    model= clock=`` and one ``fs total=<bytes>``."""
    machines: list[MachineDescriptor] = []
    seen = set()
    fs_total = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            kv = {}
            for part in parts[2:]:
                key, eq, value = part.partition("=")
                if not eq:
                    raise ClusterSyntaxError(lineno, f"expected key=value, got {part!r}")
                kv[key] = value
            missing = [k for k in _MACHINE_KEYS if k not in kv]
            if missing:
                raise ClusterSyntaxError(lineno, f"missing keys: {missing}")
            unknown = [k for k in kv if k not in _MACHINE_KEYS]
            if unknown:
                raise ClusterSyntaxError(lineno, f"unknown keys: {unknown}")
            try:
                machine_type = MachineType(kv["type"])
            except ValueError:
                raise ClusterSyntaxError(lineno, f"unknown machine type {kv['type']!r}") from None
            disk = _parse_int(kv["disk"], lineno, "disk")
            clock = _parse_int(kv["clock"], lineno, "clock")
            capacity = ResourceVector(
                cpu_cores=_parse_int(kv["cpus"], lineno, "cpus"),
                memory_bytes=_parse_int(kv["mem"], lineno, "mem"),
                disk_bytes=disk,
            )
            try:
                hardware = HardwareSpec(kv["arch"], kv["model"], clock, (("root", disk),))
                machines.append(MachineDescriptor(machine_id, machine_type, hardware, capacity))
            except MachineError as exc:
                raise ClusterSyntaxError(lineno, str(exc)) from None
        elif parts[0] == "fs":
            if len(parts) != 2 or not parts[1].startswith("total="):
                raise ClusterSyntaxError(lineno, "expected 'fs total=<bytes>'")
            fs_total = _parse_int(parts[1][len("total="):], lineno, "total")
            if fs_total <= 0:
                raise ClusterSyntaxError(lineno, "fs total must be positive")
        else:
            raise ClusterSyntaxError(lineno, f"unknown directive {parts[0]!r}")
    if not machines:
        raise MachineError("no machines")
    if fs_total <= 0:
        raise MachineError("missing 'fs total=' line")
    return machines, fs_total
