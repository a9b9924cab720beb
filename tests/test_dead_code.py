"""Dead-code guard: every function, method and class defined in the
package is used somewhere in the repository, no module of the package
imports a name it never uses, and no function of the package takes a
parameter its body never reads.

A name counts as used when it occurs, outside its own definition, as a
name, an attribute, an imported name or a string constant (the benchmark
tracer and `__all__` name functions by string) in a Python file under
src/, tests/, bench/ or demos/.  Dunder methods are called by the
language and are skipped.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "homotopylie"
SCANNED = ("src", "tests", "bench", "demos")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _trees(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _references(node):
    """Counter of the names a subtree mentions."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def unreferenced_definitions():
    trees = list(_trees(SCANNED))
    total = Counter()
    for _, tree in trees:
        total += _references(tree)
    dead = []
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        for node in ast.walk(tree):
            if not isinstance(node, DEFS) or node.name.startswith("__"):
                continue
            if total[node.name] - _references(node)[node.name] == 0:
                dead.append("%s:%d %s" % (path.name, node.lineno, node.name))
    return dead


def unused_imports():
    unused = []
    for path, tree in _trees(["src"]):
        used = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name))
        used += Counter(
            n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)
        )  # __all__
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not used[bound]:
                    unused.append("%s:%d %s" % (path.name, node.lineno, bound))
    return unused


def unread_parameters():
    """Parameters (`self` and `cls` apart) that a package function's body
    never reads; a nested function reading one counts as a read."""
    unread = []
    for path, tree in _trees(["src"]):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            read = {
                n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for p in params:
                if p.arg not in ("self", "cls") and p.arg not in read:
                    unread.append("%s:%d %s(%s)" % (path.name, node.lineno, node.name, p.arg))
    return unread


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_no_unused_imports_in_the_package():
    assert unused_imports() == []


def test_no_unread_parameters_in_the_package():
    assert unread_parameters() == []
