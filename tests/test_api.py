"""The package's public name list, its acyclic module graph, a
stdlib-only linalg, and no dead imports, dead definitions, bare asserts
or unbounded caches in its modules."""

import ast
import graphlib
import importlib
import sys
from pathlib import Path

import pytest

import z4dc

SOURCES = sorted(Path(z4dc.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def test_every_exported_name_resolves():
    assert len(set(z4dc.__all__)) == len(z4dc.__all__)
    missing = [name for name in z4dc.__all__ if not hasattr(z4dc, name)]
    assert not missing


def unused_imports(source: str) -> list[str]:
    """Names bound by the top-level imports of a module that nothing in
    it refers to (``from __future__`` imports excepted)."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_import_check_flags_a_dead_name():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _referenced_names(node) -> set[str]:
    """The names a statement refers to: bare names, attribute names and
    imported names."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name.split(".")[-1])
    return names


def dead_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the given modules (stem to
    source) whose name no other top-level statement of any of them
    refers to; the package's own exports are imports of its __init__,
    so they count."""
    defs, refs = [], []
    for stem, source in sources.items():
        for i, stmt in enumerate(ast.parse(source).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((stem, i, stmt.name))
            refs.append(((stem, i), _referenced_names(stmt)))
    return [f"{stem}.{name}" for stem, i, name in defs
            if not any(name in names for key, names in refs if key != (stem, i))]


def test_dead_definition_check_flags_a_planted_one():
    sources = {"a": "def used(): pass\ndef dead(): return dead()\nclass Kept: pass\n",
               "b": "from a import used\nimport a\nx = a.Kept\n"}
    assert dead_definitions(sources) == ["a.dead"]


def test_no_dead_top_level_definitions():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert dead_definitions(sources) == []


def bare_asserts(source: str) -> list[int]:
    """Lines of the assert statements and raised AssertionErrors of a
    module: asserts vanish under python -O, and neither is a Z4DCError,
    so a failed check must raise InternalCheckFailed instead."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assert):
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                lines.append(node.lineno)
    return sorted(lines)


def test_bare_assert_check_flags_a_planted_one():
    source = ("def f(x):\n    assert x\n    if x > 1:\n"
              "        raise AssertionError('x')\n    raise AssertionError\n"
              "    raise ValueError('assert')\n")
    assert bare_asserts(source) == [2, 4, 5]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_asserts(path):
    assert bare_asserts(path.read_text(encoding="utf-8")) == []


def _functools_name(node) -> str | None:
    """'lru_cache' or 'cache' when node names that functools decorator."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "functools"):
        return node.attr
    if isinstance(node, ast.Name) and node.id == "lru_cache":
        return node.id
    return None


def unbounded_caches(source: str, namespace: dict) -> list[int]:
    """Lines of a module's caches that no finite integer maxsize bounds:
    functools.cache, a bare lru_cache (its maxsize left implicit) and an
    lru_cache whose maxsize is None or not a positive int.  A maxsize
    given by a name is evaluated in the module's namespace."""
    tree = ast.parse(source)
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(a.name == "cache" for a in node.names):
                lines.append(node.lineno)
        elif _functools_name(node) == "cache":
            lines.append(node.lineno)
        elif _functools_name(node) == "lru_cache" and id(node) not in called:
            lines.append(node.lineno)
        elif isinstance(node, ast.Call) and _functools_name(node.func) == "lru_cache":
            size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
            value = size and eval(compile(ast.Expression(size[0]), "<maxsize>", "eval"),
                                  dict(namespace))
            if type(value) is not int or value < 1:
                lines.append(node.lineno)
    return sorted(lines)


def test_unbounded_cache_check_flags_planted_ones():
    source = ("import functools\n"
              "from functools import cache, lru_cache\n"
              "@functools.lru_cache(maxsize=N)\ndef a(): pass\n"
              "@lru_cache(16)\ndef b(): pass\n"
              "@functools.lru_cache(maxsize=None)\ndef c(): pass\n"
              "@functools.lru_cache\ndef d(): pass\n"
              "@functools.cache\ndef e(): pass\n"
              "memo = lru_cache(maxsize=2.5)\n"
              "f = lru_cache()(len)\n")
    assert unbounded_caches(source, {"N": 8}) == [2, 7, 9, 11, 13, 14]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_cache_is_bounded(path):
    module = importlib.import_module(
        "z4dc" if path.stem == "__init__" else f"z4dc.{path.stem}")
    assert unbounded_caches(path.read_text(encoding="utf-8"), vars(module)) == []


def package_imports(source: str, modules) -> set[str]:
    """The sibling modules that a module imports, at any depth (function
    level included): ``from . import x``, ``from .x import y`` and their
    absolute ``z4dc`` forms."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "z4dc":
                    continue
                base = base[len("z4dc"):].lstrip(".")
            found.update([base.split(".")[0]] if base else
                         [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("z4dc."))
    return found & set(modules)


def import_graph() -> dict[str, set[str]]:
    stems = [p.stem for p in MODULES]
    return {p.stem: package_imports(p.read_text(encoding="utf-8"), stems)
            for p in MODULES}


def test_import_graph_reads_every_import_form():
    source = ("from __future__ import annotations\nimport os\n"
              "from . import gray, os\nfrom .code import x\n"
              "import z4dc.linalg\nfrom z4dc.f2poly import y\n"
              "def f():\n    from .dual import z\n")
    assert package_imports(source, ["code", "dual", "f2poly", "gray", "linalg"]) \
        == {"code", "dual", "f2poly", "gray", "linalg"}


def test_import_graph_is_acyclic():
    # static_order raises graphlib.CycleError, naming the cycle
    assert len(list(graphlib.TopologicalSorter(import_graph()).static_order())) \
        == len(MODULES)


@pytest.mark.parametrize("module", ["code", "gray"])
def test_enumeration_layers_reach_neither_dual_nor_search(module):
    graph = import_graph()
    reached, todo = set(), [module]
    while todo:
        for dep in graph[todo.pop()] - reached:
            reached.add(dep)
            todo.append(dep)
    assert not reached & {"dual", "search"}


def foreign_imports(source: str) -> list[str]:
    """The modules a module imports, at any depth, that are neither in
    the standard library nor the sibling module errors."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = ["." + (node.module or a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found += [name for name in names
                  if name.lstrip(".").split(".")[0] not in
                  (("errors",) if name.startswith(".") else sys.stdlib_module_names)]
    return found


def test_foreign_import_check_flags_planted_ones():
    source = ("from __future__ import annotations\nimport os.path\n"
              "from dataclasses import dataclass\nfrom .errors import X\n"
              "import numpy as np\nfrom . import code\nfrom .gray import y\n"
              "def f():\n    from scipy import linalg\n")
    assert foreign_imports(source) == ["numpy", ".code", ".gray", "scipy"]


def test_linalg_imports_only_the_standard_library_and_errors():
    """Howell forms back dual, which enumerates nothing: linalg must not
    pull in numpy or any other module beyond the standard library."""
    path = Path(z4dc.__file__).parent / "linalg.py"
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
