"""Drift guard on the package's shape: every module-level function and
class in ``src/powersplit`` has a caller in ``src/``, and every public
method and property of its classes a reader in ``src/`` or ``perfbench/``.

A definition that only the tests call is an oracle, not part of the
system, and belongs in a ``tests/`` reference module. A reference counts
when some ``src/`` module names the definition, reads it as an attribute or
imports it, outside the definition itself. Click commands are exempt: the
command group calls them. A class member counts as read when some module of
``src/`` or of the benchmark reads an attribute of its name, outside the
member itself; the benchmark's reads are the package's API.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "powersplit"


def _trees(paths) -> dict:
    return {p.relative_to(ROOT).as_posix(): ast.parse(p.read_text(), str(p)) for p in paths}


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
    trees = _trees(sorted(SRC.rglob("*.py")))
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    uncalled = [f"{path}:{node.name}" for path, tree in trees.items() for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not _is_click_command(node)
                and refs[node.name] - _references(node)[node.name] == 0]
    assert uncalled == []


def _attribute_reads(node) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_class_member_is_read():
    src = _trees(sorted(SRC.rglob("*.py")))
    bench = _trees(sorted((ROOT / "perfbench").glob("*.py")))
    reads = sum((_attribute_reads(tree) for tree in [*src.values(), *bench.values()]), Counter())
    unread = [f"{path}:{cls.name}.{node.name}" for path, tree in src.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not node.name.startswith("_")
              and reads[node.name] - _attribute_reads(node)[node.name] == 0]
    assert unread == []
