"""The planted-fault list of ``tests/planted.py`` still plants what it says:
read without running a fault or collecting a test."""

import ast

from planted import FAULTS, ROOT


def test_each_planted_fault_still_applies_and_names_existing_tests():
    stale = []
    for fault in FAULTS:
        count = (ROOT / fault.file).read_text().count(fault.old)
        if count != 1:
            stale.append(f"{fault.file}: {fault.rule!r}: snippet occurs {count} times")
        if fault.new == fault.old:
            stale.append(f"{fault.file}: {fault.rule!r}: replacement equals snippet")
        for node_id in fault.tests:
            path, _, name = node_id.partition("::")
            module = ast.parse((ROOT / path).read_text())
            defined = {node.name for node in module.body if isinstance(node, ast.FunctionDef)}
            # a whole test function, never one [case] of it: a table's rows change
            if name not in defined:
                stale.append(f"{fault.rule!r}: no test function {node_id}")
    assert not stale, "\n".join(stale)
    assert len(FAULTS) >= 20
