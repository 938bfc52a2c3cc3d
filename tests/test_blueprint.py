"""Tests for the layer taxonomy, access matrix, and capability scoring."""

import random

import pytest

from conftest import load_profile
from oracles import ORACLE_ROWS, oracle_permitted
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    AccessMatrix,
    BlueprintError,
    CapabilityProfile,
    FeatureKey,
    InvalidMatrixError,
    LayerId,
    MatrixFileError,
    ProfileSyntaxError,
    TopologyMode,
    UnknownFeatureError,
    UnknownLayerError,
    access_allowed,
    classify_capabilities,
    default_access_matrix,
    features_owned_by,
    parse_capability_profile,
    parse_matrix_overrides,
    render_matrix_grid,
)


def test_feature_census():
    assert len(ALL_FEATURES) == 23
    assert len(ORACLE_ROWS) == 23
    totals = {layer: len(features_owned_by(layer)) for layer in ALL_LAYERS}
    assert totals == {
        LayerId.RESOURCE_MANAGER: 3,
        LayerId.WORKFLOW: 6,
        LayerId.MACHINE: 5,
        LayerId.TASK: 9,
    }
    assert sum(totals.values()) == 23


def test_layer_hierarchy_ordering():
    assert LayerId.RESOURCE_MANAGER > LayerId.WORKFLOW > LayerId.MACHINE > LayerId.TASK
    names = [l.wire_name for l in ALL_LAYERS]
    assert names == ["resource_manager", "workflow", "machine", "task"]
    for layer in ALL_LAYERS:
        assert LayerId.from_wire(layer.wire_name) is layer
        assert LayerId.from_wire(layer.wire_name.upper()) is layer
    with pytest.raises(UnknownLayerError):
        LayerId.from_wire("cloud")


def test_feature_wire_round_trip():
    for feature in ALL_FEATURES:
        assert FeatureKey.from_wire(feature.wire_name) is feature
    with pytest.raises(UnknownFeatureError):
        FeatureKey.from_wire("gpu_temperature")


def test_owning_layer_matches_oracle_grouping():
    for feature in ALL_FEATURES:
        permitted = oracle_permitted(feature.value)
        # the owner is the lowest layer in the permitted set
        assert feature.owning_layer == min(permitted)


# (changes to the default owner-only entries, None deleting one; extensions;
# the key of the entry at fault; message)
@pytest.mark.parametrize("changes, extensions, key, message", [
    ({FeatureKey.TASK_ID: {LayerId.RESOURCE_MANAGER}}, {}, "task_id",
     "task_id: owning layer task not permitted"),
    ({FeatureKey.WORKFLOW_ID: {LayerId.WORKFLOW, LayerId.TASK}}, {}, "workflow_id",
     "workflow_id: layers below the owner are permitted: ['task']"),
    ({FeatureKey.FAULT_DIAGNOSIS: None}, {}, None,
     "matrix is missing entries for: ['fault_diagnosis']"),
    ({}, {"gpu": frozenset()}, "extension gpu", "extension 'gpu' permits no layer"),
    ({feature: {LayerId.TASK} for feature in ALL_FEATURES}, {}, "infrastructure_status",
     "infrastructure_status: owning layer resource_manager not permitted"),
])
def test_access_matrix_refuses(changes, extensions, key, message):
    entries = {f: frozenset({f.owning_layer}) for f in ALL_FEATURES}
    for feature, permitted in changes.items():
        if permitted is None:
            del entries[feature]
        else:
            entries[feature] = frozenset(permitted)
    with pytest.raises(InvalidMatrixError) as info:
        AccessMatrix(entries=entries, extensions=extensions)
    assert (info.value.key, str(info.value)) == (key, message)
    # a matrix built in code has no rows
    assert not isinstance(info.value, MatrixFileError)


def test_random_matrices_validate_iff_rules_hold():
    rng = random.Random(11)
    for _ in range(300):
        entries = {}
        legal = True
        for feature in ALL_FEATURES:
            owner = feature.owning_layer
            permitted = {l for l in ALL_LAYERS if rng.random() < 0.5}
            if rng.random() < 0.8:
                permitted.add(owner)
            entries[feature] = frozenset(permitted)
            if owner not in permitted or any(l < owner for l in permitted):
                legal = False
        if legal:
            matrix = AccessMatrix(entries=entries)
            for feature in ALL_FEATURES:
                assert matrix.lookup(feature) == entries[feature]
        else:
            with pytest.raises(InvalidMatrixError):
                AccessMatrix(entries=entries)


def test_classify_empty_and_full_profiles():
    empty = classify_capabilities(CapabilityProfile(name="none", supported=frozenset()))
    assert all(s == 0 for s, _ in empty.per_layer.values())
    assert len(empty.missing) == 23

    full = classify_capabilities(
        CapabilityProfile(name="all", supported=frozenset(ALL_FEATURES))
    )
    assert full.per_layer == {l: (t, t) for l, (_, t) in empty.per_layer.items()}
    assert full.missing == frozenset()

    # a feature's wire name is a str equal to its key, but not the key
    with pytest.raises(BlueprintError, match=r"^profile 'raw': not a FeatureKey: 'task_id'$"):
        CapabilityProfile(name="raw", supported=frozenset({"task_id"}))


def test_classify_counts_only_owned_features_per_layer():
    rng = random.Random(23)
    for _ in range(200):
        chosen = frozenset(f for f in ALL_FEATURES if rng.random() < 0.4)
        summary = classify_capabilities(CapabilityProfile(name="p", supported=chosen))
        for layer in ALL_LAYERS:
            owned = features_owned_by(layer)
            expected = sum(1 for f in owned if f in chosen)
            assert summary.per_layer[layer] == (expected, len(owned))
        assert summary.missing == frozenset(ALL_FEATURES) - chosen
        total_supported = sum(s for s, _ in summary.per_layer.values())
        assert total_supported + len(summary.missing) == 23


# each bundled profile's (supported, total) per layer, which criterion 2 checks
SYSTEM_EXPECTED = {
    "pegasus": {"resource_manager": (0, 3), "workflow": (5, 6), "machine": (0, 5), "task": (6, 9)},
    "nextflow": {"resource_manager": (0, 3), "workflow": (6, 6), "machine": (0, 5), "task": (6, 9)},
    "airflow": {"resource_manager": (1, 3), "workflow": (6, 6), "machine": (0, 5), "task": (4, 9)},
    "snakemake": {"resource_manager": (0, 3), "workflow": (5, 6), "machine": (0, 5), "task": (6, 9)},
    "argo": {"resource_manager": (1, 3), "workflow": (6, 6), "machine": (0, 5), "task": (5, 9)},
}


def test_pegasus_profile_exact_membership():
    profile = load_profile("pegasus")
    assert profile.name == "Pegasus"
    assert profile.supported == frozenset(
        {
            FeatureKey.WORKFLOW_STATUS,
            FeatureKey.WORKFLOW_SPECIFICATION,
            FeatureKey.WORKFLOW_ID,
            FeatureKey.EXECUTION_REPORT,
            FeatureKey.PREVIOUS_EXECUTIONS,
            FeatureKey.TASK_STATUS,
            FeatureKey.CONSUMED_RESOURCES,
            FeatureKey.TASK_ID,
            FeatureKey.APPLICATION_LOGS,
            FeatureKey.TASK_DURATION,
            FeatureKey.FAULT_DIAGNOSIS,
        }
    )


def test_parse_overrides_applies_changes_over_default():
    text = """
    # widen hardware specification to the resource manager
    hardware_specification: machine, resource_manager

    application_logs: task, workflow
    """
    matrix = parse_matrix_overrides(text)
    assert matrix.lookup(FeatureKey.HARDWARE_SPECIFICATION) == frozenset(
        {LayerId.MACHINE, LayerId.RESOURCE_MANAGER}
    )
    assert matrix.lookup(FeatureKey.APPLICATION_LOGS) == frozenset(
        {LayerId.TASK, LayerId.WORKFLOW}
    )
    # untouched rows keep the default
    assert matrix.lookup(FeatureKey.TASK_ID) == default_access_matrix().lookup(
        FeatureKey.TASK_ID
    )


# (text, error, line, the key of the matrix's own error as __cause__, message)
@pytest.mark.parametrize("text, error, line, key, message", [
    ("task_id: task\ngpu_temp: machine\n", UnknownFeatureError, 2, None,
     "line 2: unknown feature key: 'gpu_temp'"),
    ("task_id: task, hypervisor\n", MatrixFileError, 1, None, "line 1: unknown layer: 'hypervisor'"),
    ("workflow_status: workflow, task\n", MatrixFileError, 1, "workflow_status",
     "line 1: workflow_status: layers below the owner are permitted: ['task']"),
    ("# c\nworkflow_status: machine,workflow\n", MatrixFileError, 2, "workflow_status",
     "line 2: workflow_status: layers below the owner are permitted: ['machine']"),
    # the last row for a feature is the one in force
    ("workflow_id: task\nworkflow_id: workflow\n\nworkflow_id: resource_manager\n",
     MatrixFileError, 4, "workflow_id", "line 4: workflow_id: owning layer workflow not permitted"),
    # an extension and a feature of one name are told apart
    ("workflow_status: workflow\nextension workflow_status: task\n", MatrixFileError, 2,
     "extension workflow_status", "line 2: extension 'workflow_status' shadows a standard feature"),
    # a layer's bare status and the live stream resolve before any
    # extension, so an extension of either name could never be served
    *[
        (f"extension gpu: machine\nextension {name}: workflow\n", MatrixFileError, 2,
         f"extension {name}", f"line 2: extension {name!r} shadows a service route")
        for name in ["status", "live_progress"]
    ],
    ("extension GPU Util: machine\n", MatrixFileError, 1, "extension GPU Util",
     "line 1: extension name not lower_snake_case: 'GPU Util'"),
])
def test_parse_overrides_refuses(text, error, line, key, message):
    with pytest.raises(error) as info:
        parse_matrix_overrides(text)
    # the format's own line error
    assert isinstance(info.value, MatrixFileError)
    assert (info.value.line, str(info.value)) == (line, message)
    # the matrix's own error stays reachable
    cause = info.value.__cause__
    if key is None:
        assert cause is None
    else:
        assert isinstance(cause, InvalidMatrixError)
        assert (cause.key, str(info.value)) == (key, f"line {line}: {cause}")


def test_parse_overrides_extension_declarations():
    matrix = parse_matrix_overrides(
        "extension gpu_utilization: machine, resource_manager\n"
    )
    assert matrix.lookup("gpu_utilization") == frozenset(
        {LayerId.MACHINE, LayerId.RESOURCE_MANAGER}
    )
    assert matrix.owning_layer("gpu_utilization") is LayerId.MACHINE
    # extensions live outside the standard set
    assert all(f.value != "gpu_utilization" for f in ALL_FEATURES)
    assert "gpu_utilization" in matrix.extensions
    assert access_allowed(
        matrix, LayerId.RESOURCE_MANAGER, "gpu_utilization", TopologyMode.DISJOINT
    )
    assert not access_allowed(
        matrix, LayerId.TASK, "gpu_utilization", TopologyMode.WORKFLOW_AWARE
    )


def test_parse_profile_errors_carry_line_numbers():
    with pytest.raises(UnknownFeatureError) as info:
        parse_capability_profile("task_id\nnot_a_feature\n")
    assert info.value.line == 2
    assert isinstance(info.value, ProfileSyntaxError)
    assert str(info.value) == "line 2: unknown feature key: 'not_a_feature'"


def test_parse_profile_name_and_dedup():
    profile = parse_capability_profile("name Duo\ntask_id\ntask_id\nworkflow_id\n")
    assert profile.name == "Duo"
    assert profile.supported == frozenset({FeatureKey.TASK_ID, FeatureKey.WORKFLOW_ID})


def test_render_matrix_grid_shape_and_stability():
    matrix = default_access_matrix()
    aware = render_matrix_grid(matrix, TopologyMode.WORKFLOW_AWARE)
    assert aware == render_matrix_grid(matrix, TopologyMode.WORKFLOW_AWARE)
    lines = aware.splitlines()
    assert len(lines) == 24  # header plus one row per feature

    def mark_count(grid: str) -> int:
        # skip the feature-name column, some names contain the letter x
        return sum(line.split(None, 1)[1].count("x") for line in grid.splitlines()[1:])

    assert mark_count(aware) == sum(len(v) for v in ORACLE_ROWS.values())

    disjoint = render_matrix_grid(matrix, TopologyMode.DISJOINT)
    assert mark_count(disjoint) == mark_count(aware) - 3


def test_topology_wire_names():
    assert TopologyMode.from_wire("workflow-aware") is TopologyMode.WORKFLOW_AWARE
    assert TopologyMode.from_wire("workflow_aware") is TopologyMode.WORKFLOW_AWARE
    assert TopologyMode.from_wire("disjoint") is TopologyMode.DISJOINT
