"""Drift guard on the package's shape: every module-level function and
class in ``src/powersplit`` has a caller in ``src/``.

A definition that only the tests call is an oracle, not part of the
system, and belongs in a ``tests/`` reference module. A reference counts
when some ``src/`` module names the definition, reads it as an attribute or
imports it, outside the definition itself. Click commands are exempt: the
command group calls them.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "powersplit"


def _references(node) -> Counter:
    """Every name that ``node`` reads, reads as an attribute or imports."""
    refs = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            refs[n.id] += 1
        elif isinstance(n, ast.Attribute):
            refs[n.attr] += 1
        elif isinstance(n, ast.alias):
            refs[n.name] += 1
    return refs


def _is_click_command(node) -> bool:
    return any(isinstance(d, ast.Call)
               and getattr(d.func, "attr", getattr(d.func, "id", None)) in ("command", "group")
               for d in node.decorator_list)


def test_every_src_definition_has_a_src_caller():
    trees = {p.relative_to(SRC.parent).as_posix(): ast.parse(p.read_text(), str(p))
             for p in sorted(SRC.rglob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [f"{path}:{node.name}" for path, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not _is_click_command(node)
                and refs[node.name] - _references(node)[node.name] == 0]
    assert uncalled == []
