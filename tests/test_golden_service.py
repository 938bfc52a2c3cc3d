"""Golden digests of the query service's responses: the status and body bytes
of every feature, asked as every layer and with every kind of bad request,
are pinned for the bundled fault scenario in both topologies.  Each request
list is answered twice, in-process by ``ServiceContext.answer`` and over
HTTP, and both must give the pinned digest.  A refactor of the service that
changes any response byte fails here, even when the change is the same on
every run.  A change that means to alter a response is a behaviour change
and must update these digests and say so.  Each request is also compared,
both ways, with ``oracles.reference_answer``."""

import dataclasses
import hashlib
from urllib.parse import urlencode

import pytest
import requests

from oracles import reference_answer
from stratus.blueprint import (
    ALL_FEATURES,
    ALL_LAYERS,
    FeatureKey,
    LayerId,
    TopologyMode,
    parse_matrix_overrides,
)
from stratus.fixtures import fixture_path
from stratus.service import ServiceContext, serve
from stratus.sim import load_scenario, scenario_simulation
from stratus.store import RunStore
from stratus.taskmon import LogLevel

RUN_ID = "golden"
EXTENSION = "gpu_utilization"
TASK = "wf1/III/0"  # OOM-killed: has a trace record, a diagnosis and logs
NEVER_STARTED = "wf1/IV/0"  # poisoned by the failures upstream
SUBJECTS = {
    LayerId.WORKFLOW: RUN_ID,
    LayerId.MACHINE: "m2",  # goes unhealthy mid-run
    LayerId.TASK: TASK,
}

# sha256 per (topology, feature) over the responses listed in feature_requests
GOLDEN = {
    "workflow_aware": {
        "infrastructure_status": "7bdc7a1e5317b93285e125898d77cd0881dbb24da0df1ebe11ec411eba79bf07",
        "file_system_status": "5e830aaf67517bab60c26eb54c2c8bdb6c77435e3c7a1f9fc6448e442d2a92ec",
        "running_workflows": "b6d9b85a4d5900ac5b3c36f433ac86120f424a406205b1fe5e701e96da15fac3",
        "workflow_status": "6b21faf95334b6ca4883dbde52602774e6780503252584adf9be9604a3520977",
        "workflow_specification": "c40f312a8a784fe6a5b0953fe3787271174e692385c5f6c9415dc89b4cb99b24",
        "graphical_representation": "d69cbe5ecee5e882424149710763d17a69d194c915107644ec708ff20c1f3c43",
        "workflow_id": "fefc72c536022ce40c94689370a67fa22604f5693dd068447548b4404ae32172",
        "execution_report": "a5789295faa2e30c77263ae33e4542e0133286c15b3895032843ad008ca05bbe",
        "previous_executions": "d184133feb53ae40d52665cf238167a9a1af408e997cb4a29df76450031230bc",
        "machine_status": "9af1780cc9784f4b296b7a185288aeb9500091a1af289544fa009a4e4870fa05",
        "machine_type": "958221a88d672a4ee1cac39767e702b607b5519f65d86714eebddf279c79417d",
        "hardware_specification": "ae8a70047f52942e3d9f507b015af73b6eee2238d72403927ec5d215419186ed",
        "available_resources": "eef3b13b44d029684445379d0d18a7be90c57321cb28fdc54eb585559a4e6b58",
        "used_resources": "e2c1e013a4f4bb5e9f854d7a06a0b3f6e5f83691db4b11cdb526ee9aee67fea6",
        "task_status": "5e870d190a49541f7ab165c3929d4380ab106db2f072643d2eefb2a3009518a8",
        "requested_resources": "960745fb1a3a74bee901c7370ad85aa960a7f085b7d9978d01f15b5ad2911199",
        "consumed_resources": "e2a04a6b2e3f3cd21e13d3b1730a990478b2cabe52410eb9029a249ea4d73931",
        "resource_consumption_for_code_parts": "39228444e2c86f4e877e3d9bccd579bd1bb7e9563d869b54c6450b1e65bb301d",
        "task_id": "4fdb79a59ab24cf269a7da884094164b695f4f596e0813e5870f0666087a1833",
        "application_logs": "a1d23136e84c9ede06f0596d03efc2ff56732c84d17235692b45afc1b7db8d71",
        "task_duration": "cc4461ff58ef33df9e030ec01d5660d6f4207d276f7f0cabfdb0485b76d6ecee",
        "low_level_task_metrics": "0916277dcb4611182ea8df47e749a9bbede207ae3454b02f8e4af17017f4ba59",
        "fault_diagnosis": "24ba87054b0f44ba6bc4efee86c59bf7404600d59581190c0f3f2e81518020c9",
    },
    "disjoint": {
        "infrastructure_status": "7bdc7a1e5317b93285e125898d77cd0881dbb24da0df1ebe11ec411eba79bf07",
        "file_system_status": "5e830aaf67517bab60c26eb54c2c8bdb6c77435e3c7a1f9fc6448e442d2a92ec",
        "running_workflows": "96c45d68727b9afe8f44e8511755fd64d84ba50856bde6599fa42c312dbfd29a",
        "workflow_status": "ca854038691bb61b224faf3f527070aa955f13b475964171d313d1fde101a8ad",
        "workflow_specification": "d6e6161937870b97421a336eb13c0b9ef27513f010e9c9de54cc7c1216c7382d",
        "graphical_representation": "d69cbe5ecee5e882424149710763d17a69d194c915107644ec708ff20c1f3c43",
        "workflow_id": "1e23fc849bf062e647fe5408eebd5d87616f2dd22952d02b876d0ca25059dbd4",
        "execution_report": "a5789295faa2e30c77263ae33e4542e0133286c15b3895032843ad008ca05bbe",
        "previous_executions": "d184133feb53ae40d52665cf238167a9a1af408e997cb4a29df76450031230bc",
        "machine_status": "9af1780cc9784f4b296b7a185288aeb9500091a1af289544fa009a4e4870fa05",
        "machine_type": "958221a88d672a4ee1cac39767e702b607b5519f65d86714eebddf279c79417d",
        "hardware_specification": "ae8a70047f52942e3d9f507b015af73b6eee2238d72403927ec5d215419186ed",
        "available_resources": "eef3b13b44d029684445379d0d18a7be90c57321cb28fdc54eb585559a4e6b58",
        "used_resources": "e2c1e013a4f4bb5e9f854d7a06a0b3f6e5f83691db4b11cdb526ee9aee67fea6",
        "task_status": "5e870d190a49541f7ab165c3929d4380ab106db2f072643d2eefb2a3009518a8",
        "requested_resources": "960745fb1a3a74bee901c7370ad85aa960a7f085b7d9978d01f15b5ad2911199",
        "consumed_resources": "e2a04a6b2e3f3cd21e13d3b1730a990478b2cabe52410eb9029a249ea4d73931",
        "resource_consumption_for_code_parts": "39228444e2c86f4e877e3d9bccd579bd1bb7e9563d869b54c6450b1e65bb301d",
        "task_id": "4fdb79a59ab24cf269a7da884094164b695f4f596e0813e5870f0666087a1833",
        "application_logs": "a1d23136e84c9ede06f0596d03efc2ff56732c84d17235692b45afc1b7db8d71",
        "task_duration": "cc4461ff58ef33df9e030ec01d5660d6f4207d276f7f0cabfdb0485b76d6ecee",
        "low_level_task_metrics": "0916277dcb4611182ea8df47e749a9bbede207ae3454b02f8e4af17017f4ba59",
        "fault_diagnosis": "24ba87054b0f44ba6bc4efee86c59bf7404600d59581190c0f3f2e81518020c9",
    },
}

# sha256 per topology over the responses listed in extra_requests
GOLDEN_EXTRA = {
    "workflow_aware": "1af36677333cb9ce8322b23f0fd35908fee0e3bcd703604dd8e1d8e6a47e3c48",
    "disjoint": "ea0529ff6a1de9d63ee1a6b24f3d48b310a3bf810bd6683fcd8c0f1582d0b2a0",
}


def subject_for(feature: FeatureKey) -> str | None:
    if feature is FeatureKey.PREVIOUS_EXECUTIONS:
        return "wf1"
    return SUBJECTS.get(feature.owning_layer)


def feature_requests(feature: FeatureKey) -> list[tuple[str, dict]]:
    """(path, query) pairs: the feature as every layer, then with a missing,
    unknown and never-started subject, a reversed window, a bad level, and
    a valid window and level."""
    path = f"/v1/{feature.owning_layer.wire_name}/{feature.value}"
    owner = feature.owning_layer.wire_name
    subject = {"subject": subject_for(feature)} if subject_for(feature) else {}
    plan = [(path, {"as_layer": layer.wire_name, **subject}) for layer in ALL_LAYERS]
    plan += [
        (path, {"as_layer": owner}),
        (path, {"as_layer": owner, "subject": "ghost"}),
        (path, {"as_layer": owner, "subject": NEVER_STARTED}),
        (path, {"as_layer": owner, **subject, "from": "100", "to": "50"}),
        (path, {"as_layer": owner, **subject, "min_level": "Loud"}),
        (
            path,
            {
                "as_layer": owner, **subject, "from": "1000", "to": "5000",
                "min_level": LogLevel.WARNING.wire_name,
            },
        ),
    ]
    return plan


def extra_requests() -> list[tuple[str, dict]]:
    """Path errors, the `status` aliases, live_progress and the matrix
    extension."""
    task = {"as_layer": "task"}
    out = [
        ("/v2/task/task_status", task),
        ("/v1/task", task),
        ("/v1/task/task_status/extra", task),
        ("/v1/basement/task_status", task),
        ("/v1/task/no_such_feature", task),
        ("/v1/machine/task_status", task),
        ("/v1/task/task_status", {"subject": TASK}),
        ("/v1/task/task_status", {"as_layer": "chef", "subject": TASK}),
        ("/v1/task/live_progress", {"as_layer": "task", "subject": RUN_ID}),
        ("/v1/workflow/live_progress", {"subject": RUN_ID}),
        ("/v1/workflow/live_progress", {"as_layer": "chef", "subject": RUN_ID}),
        ("/v1/workflow/live_progress", {"as_layer": "workflow"}),
        ("/v1/workflow/live_progress", {"as_layer": "workflow", "subject": ""}),
        ("/v1/workflow/live_progress", {"as_layer": "workflow", "subject": "ghost"}),
        (f"/v1/task/{EXTENSION}", task),
    ]
    for layer in ALL_LAYERS:
        as_layer = {"as_layer": layer.wire_name}
        out.append((f"/v1/{layer.wire_name}/status", {**as_layer, **_alias_subject(layer)}))
        out.append(("/v1/workflow/live_progress", {**as_layer, "subject": RUN_ID}))
        out.append((f"/v1/machine/{EXTENSION}", {**as_layer, "subject": "m1"}))
    return out


def _alias_subject(layer: LayerId) -> dict:
    return {"subject": SUBJECTS[layer]} if layer in SUBJECTS else {}


def empty_context_requests() -> list[tuple[str, dict]]:
    """Every resource-manager feature, a machine feature and
    previous_executions against a context with no run and no store."""
    out = [
        (f"/v1/resource_manager/{f.value}", {"as_layer": "resource_manager"})
        for f in ALL_FEATURES
        if f.owning_layer is LayerId.RESOURCE_MANAGER
    ]
    out.append(("/v1/machine/machine_status", {"as_layer": "machine", "subject": "m1"}))
    out.append(("/v1/workflow/previous_executions", {"as_layer": "workflow", "subject": "wf1"}))
    return out


def fetchers(context: ServiceContext, url: str) -> dict:
    """Two ways to get (status, body bytes) for a (path, query): in-process
    from ``context.answer``, a stream's chunks joined, and over HTTP from
    the server at ``url`` that serves ``context``."""

    def answer(path: str, query: dict) -> tuple[int, bytes]:
        status, _, body = context.answer(f"{path}?{urlencode(query)}")
        return status, body if isinstance(body, bytes) else b"".join(body)

    def http(path: str, query: dict) -> tuple[int, bytes]:
        response = requests.get(url + path, params=query, timeout=10)
        return response.status_code, response.content

    return {"answer": answer, "http": http}


def digest(fetch, plan: list[tuple[str, dict]]) -> str:
    h = hashlib.sha256()
    for path, query in plan:
        status, body = fetch(path, query)
        h.update(f"{path} {sorted(query.items())} {status}\n".encode())
        h.update(body)
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module", params=["workflow_aware", "disjoint"])
def served(request, tmp_path_factory):
    topology = TopologyMode(request.param)
    scenario = dataclasses.replace(
        load_scenario(fixture_path("faults.scenario")), topology=topology
    )
    result = scenario_simulation(scenario, run_id=RUN_ID, submission_ms=0).run_to_completion()
    store = RunStore(tmp_path_factory.mktemp("store") / "runs.jsonl")
    store.append(result.run)
    matrix = parse_matrix_overrides(f"extension {EXTENSION}: machine, resource_manager\n")
    context = ServiceContext(topology, matrix=matrix, store=store)
    context.add_result(result)
    empty = ServiceContext(topology)
    handle, empty_handle = serve(context), serve(empty)
    ways = fetchers(context, handle.url), fetchers(empty, empty_handle.url)
    yield request.param, *ways, result, store
    handle.close()
    empty_handle.close()


def test_golden_keys_cover_every_feature():
    for topology in ("workflow_aware", "disjoint"):
        assert set(GOLDEN[topology]) == {f.value for f in ALL_FEATURES}


@pytest.mark.parametrize("feature", ALL_FEATURES, ids=lambda f: f.value)
def test_feature_responses_match_golden_digests(served, feature):
    topology, fetchers, *_ = served
    for way, fetch in fetchers.items():
        assert digest(fetch, feature_requests(feature)) == GOLDEN[topology][feature.value], way


def test_extra_responses_match_golden_digest(served):
    topology, fetchers, empty_fetchers, *_ = served
    for way in fetchers:
        combined = digest(fetchers[way], extra_requests())
        combined += digest(empty_fetchers[way], empty_context_requests())
        assert hashlib.sha256(combined.encode()).hexdigest() == GOLDEN_EXTRA[topology], way


@pytest.mark.parametrize("feature", [*ALL_FEATURES, None], ids=lambda f: f.value if f else "extra")
def test_responses_equal_the_reference_answer(served, feature):
    """Both ways give ``oracles.reference_answer`` to each pinned request, so
    each pinned byte follows from README's rules; ``None`` stands for the
    extra requests and those of the empty context."""
    topology, fetchers, empty_fetchers, result, store = served
    plan = feature_requests(feature) if feature else extra_requests()
    plans = [(fetchers, [result], store, plan)]
    if feature is None:
        plans.append((empty_fetchers, [], None, empty_context_requests()))
    for ways, results, history, plan in plans:
        for path, query in plan:
            expected = reference_answer(
                results, f"{path}?{urlencode(query)}", history, TopologyMode(topology)
            )
            assert all(fetch(path, query) == expected for fetch in ways.values()), (path, query)
