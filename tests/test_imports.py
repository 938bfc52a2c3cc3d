"""Import and definition hygiene: every module in src/stratus/ and tests/
reads each name it imports, every src definition is read by some src
module, no two src raise sites state the same refusal, no src function
defines a class, and every src name perfbench imports exists.  Checked
with the stdlib ast module, so no linter is needed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (path relative to the repository root, name) pairs allowed to go unread
UNREAD_ALLOWED = {
    # the benchmark's tracer wraps these by their stratus.sim name; they go
    # when the tracer wraps the stratus.workflow names instead
    ("src/stratus/sim.py", "ready_tasks"),
    ("src/stratus/sim.py", "workflow_status"),
    # the service answers workflow_status from its kept progress fold; the
    # tracer wraps the scan by its stratus.service name
    ("src/stratus/service.py", "workflow_status"),
}

# src definitions (module.name or module.Class.method) that no src module
# reads, each with the reason it stays
UNREAD_DEFINITIONS_ALLOWED = {
    "workflow.ready_tasks": "the benchmark's tracer wraps it as stratus.sim.ready_tasks",
    "workflow.RunRecord.snapshot": "the benchmark's service mix copies stored runs with it",
    "sim.SimulationResult.progress_records": "the benchmark checks replay against it",
    "service.ServiceContext.add_result": "the benchmark's service mix registers its runs with it",
    "fixtures.fixture_text": "the benchmark reads the bundled inputs with it",
    "taskmon.parse_trace": "the public reader of the trace file a run writes",
    "sim.parse_event_log": "the public reader of the event log a run writes",
    "fixtures.fixture_path": "the path of a bundled file, for loaders of scenario files",
    "service._Handler.do_GET": "http.server calls it",
    "service._Handler.log_message": "http.server calls it",
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
    unread = {}  # (path, name) -> line
    for folder in ("src/stratus", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            relative = path.relative_to(ROOT).as_posix()
            used = read_names(tree) | exported_names(tree)
            unread |= {
                (relative, name): line
                for name, line in imported_names(tree).items()
                if name not in used
            }
    unexplained = [
        f"{path}:{line}: {name}"
        for (path, name), line in unread.items()
        if (path, name) not in UNREAD_ALLOWED
    ]
    assert not unexplained, "imported but never read:\n" + "\n".join(unexplained)
    # an entry whose name is now read goes with it
    assert UNREAD_ALLOWED <= set(unread)


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
    found = unread_definitions(trees)
    unread = [
        f"{qualified} (line {line})"
        for qualified, line in found.items()
        if qualified not in UNREAD_DEFINITIONS_ALLOWED
    ]
    assert not unread, "defined in src/ but read by no src module:\n" + "\n".join(unread)
    # an entry that src now reads, or that is gone, goes with it
    assert set(UNREAD_DEFINITIONS_ALLOWED) <= set(found)


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


def classes_defined_in_functions(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of each class statement in a function body.  Each call
    of the function makes a new class, and a class sits in a reference
    cycle, so what its methods close over lives until a full collection."""
    functions = ast.FunctionDef | ast.AsyncFunctionDef
    return sorted({
        (node.name, node.lineno)
        for function in ast.walk(tree)
        if isinstance(function, functions)
        for node in ast.walk(function)
        if isinstance(node, ast.ClassDef)
    })


def test_no_src_function_defines_a_class():
    factories = [
        f"{path.relative_to(ROOT).as_posix()}:{line}: {name}"
        for path in sorted((ROOT / "src/stratus").glob("*.py"))
        for name, line in classes_defined_in_functions(
            ast.parse(path.read_text(), filename=str(path))
        )
    ]
    assert not factories, "class defined inside a function:\n" + "\n".join(factories)


def test_the_scan_sees_classes_defined_in_functions():
    tree = ast.parse(
        "class Top:\n"
        "    class Nested:\n"
        "        pass\n"
        "    def method(self):\n"
        "        class InMethod:\n"
        "            pass\n"
        "def factory(x):\n"
        "    def inner():\n"
        "        class Deep:\n"
        "            pass\n"
        "    class Made:\n"
        "        y = x\n"
        "    return Made\n"
        "async def later():\n"
        "    class Waited:\n"
        "        pass\n"
    )
    assert classes_defined_in_functions(tree) == [
        ("Deep", 9), ("InMethod", 5), ("Made", 11), ("Waited", 15),
    ]


def test_the_benchmark_tracer_installs_and_uninstalls(perfbench):
    """perfbench/layers.py wraps src names by string, so a src change that
    drops or renames one of them fails here, not only in the benchmark."""
    from conftest import run_simulation
    from stratus import machine, resman, service, sim, store, taskmon, workflow
    from stratus.blueprint import TopologyMode
    from stratus.fixtures import fixture_text

    layers = perfbench("layers")
    tracing = perfbench("tracing")
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


class RecordingTracer:
    """Stands in for perfbench's Tracer: records each patch point it is
    asked to wrap and patches nothing."""

    def __init__(self):
        self.wrapped: list[tuple[object, str]] = []

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        self.wrapped.append((owner, attr))


def test_every_benchmark_patch_point_is_a_src_callable(perfbench):
    """A src rename or move that leaves one of perfbench/layers.py's
    (owner, attr) pairs dangling breaks the benchmark's traced runs."""
    layers = perfbench("layers")
    tracer = RecordingTracer()
    layers.install(tracer)
    assert tracer.wrapped
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in tracer.wrapped
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, "patch points that name no callable:\n" + "\n".join(missing)


def test_every_src_name_perfbench_imports_resolves(perfbench):
    """A src rename of a name perfbench imports or annotates breaks the
    benchmark at import; ``workloads`` pulls in every other perfbench module
    but ``run``, and importing them only defines things."""
    for module in ("workloads", "run"):
        perfbench(module)
