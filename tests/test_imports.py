"""Import hygiene: every module in src/stratus/ and tests/ reads each name
it imports.  Checked with the stdlib ast module, so no linter is needed."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (path relative to the repository root, name) pairs allowed to go unread
UNREAD_ALLOWED = {
    # the benchmark's tracer wraps these by their stratus.sim name; they go
    # when the tracer wraps the stratus.workflow names instead
    ("src/stratus/sim.py", "ready_tasks"),
    ("src/stratus/sim.py", "workflow_status"),
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
