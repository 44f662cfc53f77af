"""The engine core is closed: its static import closure never reaches
the corpus tier (``sagan_ray.datapipe``). The corpus tier may import the
engine core (it is a client of ``sagan_ray.exchange``), never the other
way round.

The walk reads every ``import``/``from`` statement with ``ast`` —
including the ones inside functions, since the engine imports lazily —
resolves relative imports, and counts each module's parent packages
(importing ``a.b.c`` runs ``a/__init__`` and ``a/b/__init__``)."""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a package root stands for every module in it
CORE_ROOTS = [
    "sagan_ray.pipelines.engine", "sagan_ray.pipelines.aggregates",
    "sagan_ray.exchange", "sagan_ray.stages", "sagan_ray.rules",
    "sagan_ray.functions", "sagan_ray.oracle.evaluator",
    "sagan_ray.io.sinks", "sagan_ray.state", "sagan_ray.sources",
    "sagan_ray.config",
]


def _path(mod):
    """The source file of a ``sagan_ray`` module, or None."""
    base = os.path.join(REPO, *mod.split("."))
    for path in (base + ".py", os.path.join(base, "__init__.py")):
        if os.path.isfile(path):
            return path
    return None


def _is_package(mod):
    return _path(mod).endswith("__init__.py")


def _with_parents(mod):
    parts = mod.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def _imports(mod):
    """Every ``sagan_ray`` module that ``mod``'s import statements name,
    at any depth of its body."""
    with open(_path(mod), encoding="utf-8") as f:
        tree = ast.parse(f.read(), _path(mod))
    pkg = mod if _is_package(mod) else mod.rpartition(".")[0]
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = pkg.split(".")
                base = ".".join(base[:len(base) - node.level + 1])
                target = f"{base}.{node.module}" if node.module else base
            else:
                target = node.module
            out.append(target)
            # ``from pkg import sub`` imports the submodule
            out += [f"{target}.{a.name}" for a in node.names
                    if _path(f"{target}.{a.name}")]
    return [m for m in out if m.split(".")[0] == "sagan_ray" and _path(m)]


def _package_modules(mod):
    root = os.path.dirname(_path(mod))
    out = []
    for dirpath, _dirs, files in os.walk(root):
        rel = os.path.relpath(dirpath, REPO).replace(os.sep, ".")
        out += [f"{rel}.{f[:-3]}" if f != "__init__.py" else rel
                for f in sorted(files) if f.endswith(".py")]
    return out


def import_closure(roots):
    todo = []
    for mod in roots:
        todo += _package_modules(mod) if _is_package(mod) else [mod]
    seen = set()
    while todo:
        mod = todo.pop()
        for m in _with_parents(mod):
            if m not in seen:
                seen.add(m)
                todo += _imports(m)
    return sorted(seen)


def test_engine_core_reaches_no_datapipe_module():
    core = import_closure(CORE_ROOTS)
    assert "sagan_ray.pipelines.engine" in core
    assert "sagan_ray.exchange" in core
    assert [m for m in core if _with_parents(m)[:2] ==
            ["sagan_ray", "sagan_ray.datapipe"]] == []


def test_walk_sees_lazy_and_relative_imports():
    """The walk is not vacuous: a function-local relative import (the
    engine's ``from ..exchange import ...``) is followed, and the corpus
    tier's own closure does reach its modules."""
    assert "sagan_ray.exchange" in import_closure(
        ["sagan_ray.pipelines.engine"])
    corpus = import_closure(["sagan_ray.pipelines.queries"])
    assert "sagan_ray.datapipe.dedup" in corpus
    assert "sagan_ray.exchange" in corpus
