"""No dead names: every module-level function and class, and every
``_``-prefixed name, that ``sagan_ray/`` defines is used somewhere — in
its own module, another module, ``tools/``, ``bench.py``,
``perfbench/`` or ``tests/`` (a test that uses a reference helper keeps
it alive); a read inside the name's own definition (recursion) does not
count. No unused imports either,
function-local or module-level, outside the benchmark's own
``perfbench/`` tree. And no ``datapipe._EXPORTS`` name that only tests
call."""

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


def _checked(node):
    """The names of a module-level statement that must have a reader:
    a function or class, or any ``_``-prefixed (non-dunder) name."""
    public = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef))
    return [name for name in _defined(node) if not name.startswith("__")
            and (public or name.startswith("_"))]


def dead_names():
    defined, used = [], set()
    for rel in SOURCES:
        for path in _py_files(rel):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            if rel != "sagan_ray":
                used |= _used(tree)
                continue
            mod = os.path.relpath(path, REPO)
            for node in tree.body:
                own = _checked(node)
                defined += [(mod, name) for name in own]
                used |= _used(node) - set(own)
    return sorted(f"{mod}::{name}" for mod, name in defined
                  if name not in used)


def test_no_dead_private_names():
    assert [n for n in dead_names() if n.split("::")[1][0] == "_"] == []


def test_no_dead_public_names():
    assert [n for n in dead_names() if n.split("::")[1][0] != "_"] == []


def _local_imports(fn):
    """(name, import node) for each name that an import statement in
    ``fn``'s own body binds; nested functions are scanned on their own."""
    out, stack = [], list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(a.asname or a.name.split(".")[0], node)
                    for a in node.names if a.name != "*"]
        stack.extend(ast.iter_child_nodes(node))
    return out


def unused_local_imports():
    """``path:line function name`` for each function-local import that
    neither the function nor a function nested in it reads. An import
    marked ``# noqa: F401`` is kept on purpose (e.g. a module loaded
    for its side effect)."""
    out = []
    for rel in SOURCES:
        if rel == "perfbench":
            continue
        for path in _py_files(rel):
            with open(path, encoding="utf-8") as f:
                src = f.read()
            lines = src.splitlines()
            for fn in ast.walk(ast.parse(src, path)):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                        and not isinstance(n.ctx, ast.Store)}
                for name, node in _local_imports(fn):
                    noqa = any("noqa: F401" in line for line in
                               lines[node.lineno - 1:node.end_lineno])
                    if name not in read and not noqa:
                        out.append(f"{os.path.relpath(path, REPO)}:"
                                   f"{node.lineno} {fn.name} {name}")
    return sorted(out)


def test_no_unused_local_imports():
    assert unused_local_imports() == []


def unused_module_imports():
    """``path:line name`` for each name that a module-level import binds
    and its module never reads. Exempt: ``from __future__``, the
    re-exports of ``__init__.py`` files and imports marked
    ``# noqa: F401``."""
    out = []
    for rel in SOURCES:
        if rel == "perfbench":
            continue
        for path in _py_files(rel):
            if os.path.basename(path) == "__init__.py":
                continue
            with open(path, encoding="utf-8") as f:
                src = f.read()
            lines = src.splitlines()
            tree = ast.parse(src, path)
            read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                    and not isinstance(n.ctx, ast.Store)}
            for node in tree.body:
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if any("noqa: F401" in line for line in
                       lines[node.lineno - 1:node.end_lineno]):
                    continue
                out += [f"{os.path.relpath(path, REPO)}:{node.lineno} {name}"
                        for name in (a.asname or a.name.split(".")[0]
                                     for a in node.names if a.name != "*")
                        if name not in read]
    return sorted(out)


def test_no_unused_module_imports():
    assert unused_module_imports() == []


CALLER_SOURCES = ["sagan_ray", "tools", "bench.py", "__ray_entry__.py"]


def uncalled_exports():
    """``module::name`` for each ``datapipe._EXPORTS`` name that no code
    outside ``tests/`` reads. A read inside the name's own definition
    (recursion) does not count."""
    from sagan_ray.datapipe import _EXPORTS
    exports = {name: os.path.join("sagan_ray", "datapipe", f"{mod}.py")
               for mod, names in _EXPORTS.items() for name in names.split()}
    read = set()
    for rel in CALLER_SOURCES:
        for path in _py_files(rel):
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            mod = os.path.relpath(path, REPO)
            for node in tree.body:
                own = [n for n in _defined(node) if exports.get(n) == mod]
                read |= _used(node) - set(own)
    return sorted(f"{exports[name]}::{name}" for name in exports
                  if name not in read)


def test_every_export_has_a_caller():
    assert uncalled_exports() == []
