"""No dead private helpers: every module-level ``_``-prefixed name that
``sagan_ray/`` defines is used somewhere — in its own module, another
module, ``tools/``, ``bench.py``, ``perfbench/`` or ``tests/`` (a test
that uses a reference helper keeps it alive)."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCES = ["sagan_ray", "tools", "bench.py", "__ray_entry__.py",
           "perfbench", "tests"]


def _py_files(rel):
    path = os.path.join(REPO, rel)
    if os.path.isfile(path):
        yield path
        return
    for root, _dirs, files in os.walk(path):
        for f in sorted(files):
            if f.endswith(".py"):
                yield os.path.join(root, f)


def _defined(node):
    """Names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def _used(tree):
    """Identifiers a module reads: name loads, attribute names and
    imported names."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def dead_private_names():
    defined, used = [], set()
    for rel in SOURCES:
        for path in _py_files(rel):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            used |= _used(tree)
            if rel != "sagan_ray":
                continue
            mod = os.path.relpath(path, REPO)
            for node in tree.body:
                defined += [(mod, name) for name in _defined(node)
                            if name.startswith("_")
                            and not name.startswith("__")]
    return sorted(f"{mod}::{name}" for mod, name in defined
                  if name not in used)


def test_no_dead_private_names():
    assert dead_private_names() == []
