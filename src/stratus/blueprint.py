"""Monitoring layer taxonomy, feature access matrix, and capability scoring.

Four monitoring layers form a strict hierarchy: resource manager above
workflow above machine above task.  Abstraction decreases and metric
granularity increases as you move down.  Every monitoring feature is owned
by exactly one layer, and the access matrix records which layers are
permitted to serve it (a layer may always serve its own features; higher
layers may additionally read features owned below them).

All taxonomy values here are immutable after construction and safe to share
across concurrent readers.
"""

import enum
import re
from dataclasses import dataclass, field

from .textfmt import LineError, directive_lines, fold_name, set_once


class BlueprintError(Exception):
    """Base class for taxonomy and matrix errors."""


class UnknownLayerError(BlueprintError):
    def __init__(self, name: str):
        super().__init__(f"unknown layer: {name!r}")
        self.layer_name = name


class UnknownFeatureError(BlueprintError):
    """A name that spells no standard feature.  A file's line that names
    one raises its format's own line error, which is also this error."""


class MatrixFileError(LineError, BlueprintError):
    pass


class ProfileSyntaxError(LineError, BlueprintError):
    pass


class UnknownMatrixFeatureError(MatrixFileError, UnknownFeatureError):
    pass


class UnknownProfileFeatureError(ProfileSyntaxError, UnknownFeatureError):
    pass


class InvalidMatrixError(BlueprintError):
    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key  # the entry at fault as a row names it: <feature> or extension <name>


class LayerId(enum.IntEnum):
    """Monitoring layer.  Numeric value orders the hierarchy: a larger value
    means a more abstract layer that may read everything below it."""

    TASK = 0
    MACHINE = 1
    WORKFLOW = 2
    RESOURCE_MANAGER = 3

    @property
    def wire_name(self) -> str:
        return self.name.lower()

    @classmethod
    def from_wire(cls, name: str) -> "LayerId":
        try:
            return cls[fold_name(name).upper()]
        except KeyError:
            raise UnknownLayerError(name) from None


class TopologyMode(enum.Enum):
    """How the workflow system and the resource manager are coupled.

    WORKFLOW_AWARE: the resource manager sees whole workflows and resolves
    task dependencies itself.  DISJOINT: a separate workflow driver submits
    ready instances one by one, and the resource manager cannot see any
    workflow-owned monitoring feature.  Fixed for the lifetime of a run.
    """

    WORKFLOW_AWARE = "workflow_aware"
    DISJOINT = "disjoint"

    @property
    def wire_name(self) -> str:
        return self.value

    @classmethod
    def from_wire(cls, name: str) -> "TopologyMode":
        try:
            return cls(fold_name(name).replace("-", "_"))
        except ValueError:
            raise BlueprintError(f"unknown topology: {name!r}") from None


# the hierarchy from the top down
ALL_LAYERS: tuple[LayerId, ...] = tuple(reversed(LayerId))

_EVERY_LAYER = frozenset(ALL_LAYERS)
_RM = frozenset({LayerId.RESOURCE_MANAGER})
_RM_WF = frozenset({LayerId.RESOURCE_MANAGER, LayerId.WORKFLOW})
_WF = frozenset({LayerId.WORKFLOW})
_RM_M = frozenset({LayerId.RESOURCE_MANAGER, LayerId.MACHINE})
_M = frozenset({LayerId.MACHINE})
_T = frozenset({LayerId.TASK})


class FeatureKey(str, enum.Enum):
    """The monitoring features, in the canonical grouped order (resource
    manager, workflow, machine, task).  Values are the wire spelling used in
    every file format and API path.  Each member carries its row of the
    default access matrix, ``default_permitted``; the lowest layer of a row
    owns the feature."""

    # resource manager layer
    INFRASTRUCTURE_STATUS = "infrastructure_status", _RM
    FILE_SYSTEM_STATUS = "file_system_status", _RM
    RUNNING_WORKFLOWS = "running_workflows", _RM
    # workflow layer
    WORKFLOW_STATUS = "workflow_status", _RM_WF
    WORKFLOW_SPECIFICATION = "workflow_specification", _RM_WF
    GRAPHICAL_REPRESENTATION = "graphical_representation", _WF
    WORKFLOW_ID = "workflow_id", _RM_WF
    EXECUTION_REPORT = "execution_report", _WF
    PREVIOUS_EXECUTIONS = "previous_executions", _WF
    # machine layer
    MACHINE_STATUS = "machine_status", _RM_M
    MACHINE_TYPE = "machine_type", _RM_M
    HARDWARE_SPECIFICATION = "hardware_specification", _M
    AVAILABLE_RESOURCES = "available_resources", _RM_M
    USED_RESOURCES = "used_resources", _RM_M
    # task layer
    TASK_STATUS = "task_status", _EVERY_LAYER
    REQUESTED_RESOURCES = "requested_resources", _EVERY_LAYER
    CONSUMED_RESOURCES = "consumed_resources", _EVERY_LAYER
    RESOURCE_CONSUMPTION_FOR_CODE_PARTS = "resource_consumption_for_code_parts", _T
    TASK_ID = "task_id", _EVERY_LAYER
    APPLICATION_LOGS = "application_logs", _T
    TASK_DURATION = "task_duration", _EVERY_LAYER
    LOW_LEVEL_TASK_METRICS = "low_level_task_metrics", _T
    FAULT_DIAGNOSIS = "fault_diagnosis", _T

    def __new__(cls, wire_name: str, default_permitted: frozenset[LayerId]):
        member = str.__new__(cls, wire_name)
        member._value_ = wire_name
        member.default_permitted = default_permitted
        return member

    @property
    def wire_name(self) -> str:
        return self.value

    @property
    def owning_layer(self) -> LayerId:
        return min(self.default_permitted)

    @classmethod
    def from_wire(cls, name: str) -> "FeatureKey":
        try:
            return cls(name.strip())
        except ValueError:
            raise UnknownFeatureError(f"unknown feature key: {name!r}") from None


ALL_FEATURES: tuple[FeatureKey, ...] = tuple(FeatureKey)


def features_owned_by(layer: LayerId) -> tuple[FeatureKey, ...]:
    return tuple(f for f in ALL_FEATURES if f.owning_layer is layer)


_EXTENSION_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

# path segments the query service routes before any extension: a layer's
# bare `status` and the workflow layer's live progress stream
_SERVICE_ROUTES = frozenset({"status", "live_progress"})


@dataclass(frozen=True)
class AccessMatrix:
    """Mapping from monitoring feature to the set of layers permitted to
    serve it.

    ``entries`` covers the standard features and must satisfy two rules for
    each of them: the owning layer is always permitted, and every permitted
    layer sits at or above the owning layer in the hierarchy.  ``extensions``
    holds additional deployment-specific features declared in an override
    file; they are exempt from table conformance but still hierarchy-checked
    against their lowest permitted layer.
    """

    entries: dict[FeatureKey, frozenset[LayerId]]
    extensions: dict[str, frozenset[LayerId]] = field(default_factory=dict)

    def __post_init__(self):
        missing = [f for f in ALL_FEATURES if f not in self.entries]
        if missing:
            raise InvalidMatrixError(
                f"matrix is missing entries for: {[f.value for f in missing]}"
            )
        for feature, permitted in self.entries.items():
            owner = feature.owning_layer
            if owner not in permitted:
                raise InvalidMatrixError(
                    f"{feature.value}: owning layer {owner.wire_name} not permitted",
                    feature.value,
                )
            below = [l for l in permitted if l < owner]
            if below:
                raise InvalidMatrixError(
                    f"{feature.value}: layers below the owner are permitted: "
                    f"{[l.wire_name for l in below]}",
                    feature.value,
                )
        standard_names = {f.value for f in ALL_FEATURES}
        for name, permitted in self.extensions.items():
            key = f"extension {name}"
            if not _EXTENSION_NAME_RE.match(name):
                raise InvalidMatrixError(f"extension name not lower_snake_case: {name!r}", key)
            if name in standard_names:
                raise InvalidMatrixError(f"extension {name!r} shadows a standard feature", key)
            if name in _SERVICE_ROUTES:
                raise InvalidMatrixError(f"extension {name!r} shadows a service route", key)
            if not permitted:
                raise InvalidMatrixError(f"extension {name!r} permits no layer", key)

    def lookup(self, feature: "FeatureKey | str") -> frozenset[LayerId]:
        if feature in self.extensions:
            return self.extensions[feature]
        return self.entries[FeatureKey.from_wire(feature)]

    def owning_layer(self, feature: "FeatureKey | str") -> LayerId:
        """Owning layer of a feature: the lowest permitted layer, which a
        valid matrix makes the owner of every standard feature and which
        stands in as the owner of an extension."""
        return min(self.lookup(feature))


def default_access_matrix() -> AccessMatrix:
    """The built-in access matrix: one permitted-layer set per feature, the
    default policy every deployment starts from."""
    return AccessMatrix(entries={f: f.default_permitted for f in ALL_FEATURES})


def authorize(
    matrix: AccessMatrix,
    layer: LayerId,
    feature: "FeatureKey | str",
    topology: TopologyMode,
) -> str | None:
    """The access decision: None when ``layer`` may serve/report ``feature``
    under the matrix, otherwise the violated rule as text.  In the disjoint
    topology the resource manager also loses every workflow-owned feature,
    since the workflow system no longer shares its structures with it."""
    name = feature.value if isinstance(feature, FeatureKey) else feature
    permitted = matrix.lookup(feature)
    if layer not in permitted:
        allowed = ", ".join(sorted(l.wire_name for l in permitted))
        return f"layer {layer.wire_name} is not permitted to read {name} (permitted: {allowed})"
    disjoint = topology is TopologyMode.DISJOINT and layer is LayerId.RESOURCE_MANAGER
    if disjoint and min(permitted) is LayerId.WORKFLOW:
        return (
            f"{name} is workflow-owned and the resource manager layer is "
            f"disjoint from the workflow layer in this deployment"
        )
    return None


def access_allowed(
    matrix: AccessMatrix,
    layer: LayerId,
    feature: "FeatureKey | str",
    topology: TopologyMode,
) -> bool:
    """Whether ``layer`` may serve/report ``feature`` under the matrix."""
    return authorize(matrix, layer, feature, topology) is None


@dataclass(frozen=True)
class CapabilityProfile:
    """The set of standard monitoring features one workflow system supports."""

    name: str
    supported: frozenset[FeatureKey]

    def __post_init__(self):
        for f in self.supported:
            if not isinstance(f, FeatureKey):
                raise BlueprintError(f"profile {self.name!r}: not a FeatureKey: {f!r}")


@dataclass(frozen=True)
class CoverageSummary:
    """Per-layer supported/total counts for a capability profile, plus the
    features the profile is missing."""

    per_layer: dict[LayerId, tuple[int, int]]
    missing: frozenset[FeatureKey]


def classify_capabilities(profile: CapabilityProfile) -> CoverageSummary:
    """Score a profile against the standard feature set, layer by layer."""
    per_layer = {}
    for layer in ALL_LAYERS:
        owned = features_owned_by(layer)
        supported = sum(1 for f in owned if f in profile.supported)
        per_layer[layer] = (supported, len(owned))
    missing = frozenset(f for f in ALL_FEATURES if f not in profile.supported)
    return CoverageSummary(per_layer=per_layer, missing=missing)


def parse_matrix_overrides(text: str) -> AccessMatrix:
    """Parse an access-matrix override file and apply it over the default.

    One line per feature: ``<feature_key>: <layer>[,<layer>...]`` with layers
    spelled ``resource_manager|workflow|machine|task``.  A bare feature key
    must be one of the standard ones; unknown keys are an error.  New
    deployment-specific features are declared explicitly with an
    ``extension`` prefix: ``extension <name>: <layer>[,<layer>...]``.
    Blank lines and ``#`` comments are ignored.  The matrix checks its own
    rules; a row that breaks one raises ``MatrixFileError`` at its line,
    with the matrix's ``InvalidMatrixError`` as its ``__cause__``.
    """
    entries = dict(default_access_matrix().entries)
    extensions: dict[str, frozenset[LayerId]] = {}
    rows: dict[str, int] = {}  # row key -> the line that last set it
    for lineno, line in directive_lines(text):
        if ":" not in line:
            raise MatrixFileError(lineno, f"expected '<feature>: <layers>', got {line!r}")
        key_part, _, layer_part = line.partition(":")
        key_part = key_part.strip()
        layer_names = [p.strip() for p in layer_part.split(",") if p.strip()]
        if not layer_names:
            raise MatrixFileError(lineno, "no layers listed")
        try:
            layers = frozenset(LayerId.from_wire(n) for n in layer_names)
        except UnknownLayerError as exc:
            raise MatrixFileError(lineno, str(exc)) from None
        if key_part.startswith("extension "):
            name = key_part[len("extension "):].strip()
            extensions[name] = layers
            rows[f"extension {name}"] = lineno
        else:
            try:
                feature = FeatureKey.from_wire(key_part)
            except UnknownFeatureError as exc:
                raise UnknownMatrixFeatureError(lineno, str(exc)) from None
            entries[feature] = layers
            rows[feature.value] = lineno
    try:
        return AccessMatrix(entries=entries, extensions=extensions)
    except InvalidMatrixError as exc:
        # the defaults obey every rule, so a row set the entry at fault
        raise MatrixFileError(rows[exc.key], str(exc)) from exc


def parse_capability_profile(text: str, default_name: str = "profile") -> CapabilityProfile:
    """Parse a capability profile file: an optional ``name <text>`` line, at
    most once, and one standard feature key per line.  ``#`` comments and
    blanks ignored."""
    name = default_name
    supported = set()
    first_lines: dict[str, int] = {}
    for lineno, line in directive_lines(text):
        if line.startswith("name "):
            set_once(first_lines, "name", lineno, ProfileSyntaxError)
            name = line[len("name "):].strip()
            continue
        try:
            supported.add(FeatureKey.from_wire(line))
        except UnknownFeatureError as exc:
            raise UnknownProfileFeatureError(lineno, str(exc)) from None
    return CapabilityProfile(name=name, supported=frozenset(supported))


def render_matrix_grid(matrix: AccessMatrix, topology: TopologyMode) -> str:
    """Render the effective access matrix as a fixed-width x/· grid, one row
    per standard feature, columns in hierarchy order.  Byte-stable for equal
    inputs."""
    key_width = max(len(f.value) for f in ALL_FEATURES)
    headers = [l.wire_name for l in ALL_LAYERS]
    lines = ["{:<{w}}  {}".format("feature", " ".join(headers), w=key_width)]
    for feature in ALL_FEATURES:
        cells = []
        for layer in ALL_LAYERS:
            mark = "x" if access_allowed(matrix, layer, feature, topology) else "·"
            cells.append("{:<{w}}".format(mark, w=len(layer.wire_name)))
        lines.append("{:<{w}}  {}".format(feature.value, " ".join(cells), w=key_width))
    return "\n".join(lines) + "\n"
