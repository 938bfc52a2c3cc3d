"""Import and definition hygiene: every module in src/stratus/ and tests/
reads each name it imports, every src definition is read by some src
module, and no two src raise sites state the same refusal.  Checked with
the stdlib ast module, so no linter is needed."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (path relative to the repository root, name) pairs allowed to go unread
UNREAD_ALLOWED = {
    # the benchmark's tracer wraps these by their stratus.sim name; they go
    # when the tracer wraps the stratus.workflow names instead
    ("src/stratus/sim.py", "ready_tasks"),
    ("src/stratus/sim.py", "workflow_status"),
}

# src definitions (module.name or module.Class.method) that no src module
# reads, each with the reason it stays
UNREAD_DEFINITIONS_ALLOWED = {
    "workflow.ready_tasks": "the benchmark's tracer wraps it as stratus.sim.ready_tasks",
    "workflow.RunRecord.snapshot": "the benchmark's service mix copies stored runs with it",
    "workflow.WorkflowSpec.successors": "the benchmark's tracer wraps it by attribute",
    "sim.SimulationResult.progress_records": "the benchmark checks replay against it",
    "service.ServiceContext.add_result": "the benchmark's service mix registers its runs with it",
    "fixtures.fixture_text": "the benchmark reads the bundled inputs with it",
    "taskmon.parse_trace": "the public reader of the trace file a run writes",
    "fixtures.fixture_path": "the path of a bundled file, for loaders of scenario files",
    "machine.ResourceVector.plus": "the arithmetic of the resource manager's test oracles",
    "cli._Parser.error": "argparse calls it on a usage error",
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of its import, for every import in the module."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, string annotations included."""
    read = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            annotations.append(node.returns)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                read |= read_names(ast.parse(node.value, mode="eval"))
    return read


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for folder in ("src/stratus", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            relative = path.relative_to(ROOT).as_posix()
            used = read_names(tree) | exported_names(tree)
            unread += [
                f"{relative}:{line}: {name}"
                for name, line in imported_names(tree).items()
                if name not in used and (relative, name) not in UNREAD_ALLOWED
            ]
    assert not unread, "imported but never read:\n" + "\n".join(unread)


def test_the_scan_sees_unread_and_string_annotation_imports():
    tree = ast.parse(
        "import os.path\n"
        "from a import b, c as d\n"
        "from e import F\n"
        "def g(x: 'F') -> None:\n"
        "    return b\n"
    )
    used = read_names(tree)
    assert {name for name in imported_names(tree) if name not in used} == {"os", "d"}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, line) of every top-level function, class
    and assigned name that is not a dunder, and of every method of a
    top-level class that is not a dunder."""
    functions = ast.FunctionDef | ast.AsyncFunctionDef
    for node in tree.body:
        if isinstance(node, ast.Assign | ast.AnnAssign):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    # Python reads the dunders (``__all__``) itself
                    if isinstance(name, ast.Name) and not is_dunder(name.id):
                        yield f"{module}.{name.id}", name.id, node.lineno
            continue
        if not isinstance(node, functions | ast.ClassDef):
            continue
        yield f"{module}.{node.name}", node.name, node.lineno
        for member in node.body if isinstance(node, ast.ClassDef) else ():
            # Python calls the dunders itself
            if isinstance(member, functions) and not is_dunder(member.name):
                yield f"{module}.{node.name}.{member.name}", member.name, member.lineno


def unread_definitions(trees: dict[str, ast.Module]) -> dict[str, int]:
    """Qualified name -> line of each definition in ``trees`` that none of
    them reads as a name or an attribute, leaving out each module's
    ``__all__``."""
    read = set()
    for tree in trees.values():
        read |= read_names(tree)
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return {
        qualified: line
        for module, tree in trees.items()
        for qualified, name, line in definitions(module, tree)
        if name not in read and qualified.split(".")[1] not in exported_names(tree)
    }


def test_every_src_definition_is_read_by_src():
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src/stratus").glob("*.py"))
    }
    unread = [
        f"{qualified} (line {line})"
        for qualified, line in unread_definitions(trees).items()
        if qualified not in UNREAD_DEFINITIONS_ALLOWED
    ]
    assert not unread, "defined in src/ but read by no src module:\n" + "\n".join(unread)
    defined = {q for module, tree in trees.items() for q, _, _ in definitions(module, tree)}
    assert set(UNREAD_DEFINITIONS_ALLOWED) <= defined


def test_the_scan_sees_unread_definitions():
    trees = {
        "a": ast.parse(
            "__all__ = ['exported', 'EXPORTED']\n"
            "def exported(): pass\n"
            "def unread(): pass\n"
            "class C:\n"
            "    def __init__(self): pass\n"
            "    def used(self): pass\n"
            "    def unused(self): pass\n"
            "EXPORTED = 1\n"
            "UNREAD = 2\n"
            "_READ, (_UNPACKED, _USED) = 3, (4, 5)\n"
            "TYPED: int = _READ + _USED\n"
            "__version__ = '1'\n"
        ),
        "b": ast.parse("from a import C\nC().used()\n"),
    }
    assert unread_definitions(trees) == {
        "a.unread": 3, "a.C.unused": 7, "a.UNREAD": 9, "a._UNPACKED": 10, "a.TYPED": 11,
    }


# error-message templates that more than one src raise site builds, each
# with the reason it is stated more than once
RESTATED_REFUSALS_ALLOWED = {
    "unknown directive {}": "the workflow and cluster formats each refuse a first word they do"
    " not define as their own line error; the shared grammar keeps no table of directives",
    "input_count must be positive, got {}": "a scenario file refuses it at its line, and"
    " expand_instances refuses it from a caller that builds the run in code, with no line",
}


def _template(node: ast.expr) -> str | None:
    """The text of a str or f-string literal, each f-string field as ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else "{}" for part in node.values
        )
    return None


def _is_error_name(name: str) -> bool:
    return name.endswith(("Error", "Exception"))


def raised_templates(tree: ast.Module):
    """(template, line) of each str or f-string literal passed to an
    exception constructor (a callee named ``...Error`` or ``...Exception``,
    or the call a ``raise`` raises) or to ``super().__init__`` in an error
    class."""
    raised = {id(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise)}
    in_error_class = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef) and _is_error_name(cls.name)
        for node in ast.walk(cls)
    }
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        callee = call.func
        name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", "")
        is_super_init = (
            isinstance(callee, ast.Attribute)
            and name == "__init__"
            and isinstance(callee.value, ast.Call)
            and getattr(callee.value.func, "id", None) == "super"
            and id(call) in in_error_class
        )
        if _is_error_name(name) or id(call) in raised or is_super_init:
            for arg in [*call.args, *(k.value for k in call.keywords)]:
                template = _template(arg)
                if template is not None:
                    yield template, arg.lineno


def restated_templates(trees: dict[str, ast.Module]) -> dict[str, list[str]]:
    """Template -> its ``path:line`` sites, for each template built at
    more than one raise site across ``trees``."""
    sites: dict[str, list[str]] = {}
    for path, tree in trees.items():
        for template, line in raised_templates(tree):
            sites.setdefault(template, []).append(f"{path}:{line}")
    return {t: where for t, where in sites.items() if len(where) > 1}


def test_no_refusal_is_stated_twice():
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((ROOT / "src/stratus").glob("*.py"))
    }
    restated = restated_templates(trees)
    unexplained = [
        f"{template!r} at {', '.join(where)}"
        for template, where in restated.items()
        if template not in RESTATED_REFUSALS_ALLOWED
    ]
    assert not unexplained, "one refusal stated at two raise sites:\n" + "\n".join(unexplained)
    # an entry whose pair was folded goes with it
    assert set(RESTATED_REFUSALS_ALLOWED) <= set(restated)


def test_the_scan_sees_restated_templates():
    trees = {
        "a.py": ast.parse(
            "class AError(Exception):\n"
            "    def __init__(self, x):\n"
            "        super().__init__(f'unknown a: {x!r}')\n"
            "class Other:\n"
            "    def __init__(self, x):\n"
            "        super().__init__(f'unknown a: {x!r}')\n"
            "def f(error, x):\n"
            "    raise error(1, f'{x} is bad')\n"
        ),
        "b.py": ast.parse(
            "def g(x):\n"
            "    if x:\n"
            "        raise ValueError(f'unknown a: {x!r}')\n"
            "    log(f'{x} is bad')\n"
            "    raise HTTPError(400, f'{x} is bad')\n"
            "    raise AError(x)\n"
        ),
    }
    assert restated_templates(trees) == {
        "unknown a: {}": ["a.py:3", "b.py:3"],
        "{} is bad": ["a.py:8", "b.py:5"],
    }


def test_the_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    """perfbench/layers.py wraps src names by string, so a src change that
    drops or renames one of them fails here, not only in the benchmark."""
    from conftest import run_simulation
    from stratus import machine, resman, service, sim, store, taskmon, workflow
    from stratus.blueprint import TopologyMode
    from stratus.fixtures import fixture_text

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    tracing = importlib.import_module("tracing")
    modules = (machine, resman, service, sim, store, taskmon, workflow)
    owners = [*modules] + [
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    before = [dict(vars(owner)) for owner in owners]

    tracer = tracing.Tracer(kept=layers.KEPT)
    layers.install(tracer)
    try:
        spec = workflow.parse_workflow(fixture_text("fig1.wf"))
        machines, fs_total = machine.parse_cluster(fixture_text("two.cluster"))
        result = run_simulation(spec, machines, fs_total, 2, 42, run_id="traced")
        context = service.ServiceContext(TopologyMode.WORKFLOW_AWARE)
        context.add_result(result)
        assert [r for batch in context.progress("traced") for r in batch] == (
            result.progress_records
        )
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["sim.run"].calls == 1
    # the progress stream calls replay_progress by its stratus.service name
    assert totals["service.replay_progress"].calls == 1
    after = [dict(vars(owner)) for owner in owners]
    assert all(
        a.keys() == b.keys() and all(a[k] is b[k] for k in a) for a, b in zip(after, before)
    )
