"""Dead-code guard: every function, method and class defined in the
package is used somewhere in the repository, no module or function of the
package imports a name it never uses, no function of the package takes a
parameter its body never reads, and no parameter with a default is left
at that default by every caller (`unset_defaults`) or passed one and the
same literal by every caller (`constant_arguments`): no dead flags.

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
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


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


def _imports_by_scope(node, scope):
    """(import, scope) for every import under `node`: its scope is the
    innermost function around it, or the module."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child, scope
        yield from _imports_by_scope(child, child if isinstance(child, FUNCS) else scope)


def _names_used(scope):
    """Names read in a scope, string constants included (`__all__`)."""
    return {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)} | {
        n.value for n in ast.walk(scope) if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def unused_imports():
    """Imports whose name is never used in their scope: the module for a
    module-level import, the function body for an import inside a
    function."""
    unused = []
    for path, tree in _trees(["src"]):
        used = {}
        for node, scope in _imports_by_scope(tree, tree):
            if getattr(node, "module", None) == "__future__":
                continue
            if id(scope) not in used:
                used[id(scope)] = _names_used(scope)
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used[id(scope)]:
                    unused.append("%s:%d %s" % (path.name, node.lineno, bound))
    return unused


def unread_parameters():
    """Parameters (`self` and `cls` apart) that a package function's body
    never reads; a nested function reading one counts as a read."""
    unread = []
    for path, tree in _trees(["src"]):
        for node in ast.walk(tree):
            if not isinstance(node, FUNCS):
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


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _calls(node, cls=None):
    """(callee name, call) for every call by name or attribute under
    `node`; `cls(...)` inside a class is a call of that class."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and _callee(child.func):
            name = _callee(child.func)
            yield (cls if name == "cls" and cls else name), child
        yield from _calls(child, child.name if isinstance(child, ast.ClassDef) else cls)


def _call_index(trees):
    """({callee name: what each call passes}, the names that occur other
    than as a callee).  What a call passes maps each position and each
    keyword to its argument node, and has the key "*" when the call has
    *args or **kwargs, which may pass anything."""
    calls, referenced = {}, set()
    for _, tree in trees:
        callees = set()
        for name, call in _calls(tree):
            callees.add(id(call.func))
            got = dict(enumerate(call.args))
            got.update((k.arg, k.value) for k in call.keywords if k.arg is not None)
            if any(isinstance(a, ast.Starred) for a in call.args) or any(k.arg is None for k in call.keywords):
                got["*"] = None
            calls.setdefault(name, []).append(got)
        referenced.update(
            _callee(n) for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and id(n) not in callees
        )
    return calls, referenced


def _defaulted_parameters(skip_referenced):
    """("file:line function(parameter)", the argument node each call
    passes for it or None) for every parameter with a default in the
    package.  Calls are matched by name: a function with a call that has
    *args or **kwargs is skipped, and an `__init__` is matched by its
    class name.  With skip_referenced, a function that is referenced other
    than by a call (a callback, say) is skipped too, because some of its
    calls cannot be seen; a class is not skipped for being referenced
    (isinstance, a patched method), as its instances still come from
    calls."""
    trees = list(_trees(SCANNED))
    calls, referenced = _call_index(trees)
    for path, tree in trees:
        if not path.is_relative_to(PACKAGE):
            continue
        methods = {
            id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
            for f in c.body if isinstance(f, FUNCS)
        }
        for node in ast.walk(tree):
            if not isinstance(node, FUNCS) or node.name.startswith("__") and node.name != "__init__":
                continue
            name = methods[id(node)] if node.name == "__init__" else node.name
            seen = calls.get(name, [])
            if any("*" in got for got in seen) or (skip_referenced and node.name != "__init__" and name in referenced):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
            shift = 1 if id(node) in methods and not static else 0  # self or cls
            first = len(positional) - len(a.defaults)
            params = [(i - shift, p.arg) for i, p in enumerate(positional) if i >= first]
            params += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for position, arg in params:
                label = "%s:%d %s(%s)" % (path.name, node.lineno, name, arg)
                yield label, [got.get(position, got.get(arg)) for got in seen]


def _literal(node):
    """A key for a literal argument (a constant, a negative number, a
    tuple of them, ...), equal for equal literals; None for any other
    argument and for a missing one (None)."""
    try:
        ast.literal_eval(node)
    except ValueError:
        return None
    return ast.dump(node)


def unset_defaults():
    """Parameters with a default that no call passes, by position or by
    keyword.  A name collision can only hide a finding."""
    return [label for label, args in _defaulted_parameters(True) if all(a is None for a in args)]


def constant_arguments():
    """Parameters with a default that every call passes, all with one and
    the same literal: a flag that no caller varies is as dead as one that
    no caller sets.  A function referenced other than by a call is not
    skipped here: a call that cannot be seen can only make a finding
    spurious, which fails loudly, while skipping would hide every finding
    under a name that collides with an attribute (`bv.algebra` and
    `Twist.algebra`)."""
    out = []
    for label, args in _defaulted_parameters(False):
        literals = set(map(_literal, args))
        if len(literals) == 1 and None not in literals:
            out.append(label)
    return out


def test_no_unreferenced_definitions():
    assert unreferenced_definitions() == []


def test_no_unused_imports_in_the_package():
    assert unused_imports() == []


def test_no_unread_parameters_in_the_package():
    assert unread_parameters() == []


def test_no_parameter_is_left_at_its_default_by_every_caller():
    assert unset_defaults() == []


def test_no_parameter_is_passed_one_literal_by_every_caller():
    assert constant_arguments() == []
