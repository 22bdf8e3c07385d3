"""Every name a library module imports is used there or re-exported, and
every name its ``__all__`` lists is bound; every name a test module
imports is used there, and no helper is defined twice under ``tests/``.

A stand-in for pyflakes' unused-import check: each module under
``src/uchain/`` except ``__init__``, and each module under ``tests/``, is
parsed with ``ast``, and an imported name must appear as a name in the
module's code (string annotations included) or, in the library, be listed
in its ``__all__``.  A stale ``__all__`` entry would break
``from uchain.<module> import *``.

The helper check compares the top-level functions and classes of the
test modules that are not tests themselves: two with the same body, once
a docstring is set aside, are one helper written twice, and a fix to one
copy would miss the other.  It catches exact copies only.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

_TESTS = Path(__file__).resolve().parent
_PACKAGE = _TESTS.parent / "src" / "uchain"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
_TEST_MODULES = sorted(_TESTS.glob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of each import, ``__future__`` aside."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ann = node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
        else:
            continue
        if ann is not None:
            yield ann


def _used(tree: ast.Module) -> set[str]:
    trees = [tree]
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                trees.append(ast.parse(node.value, mode="eval"))
    return {node.id for t in trees for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    kept = _used(tree) | _exported(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in kept)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\n"
                     "def f(x: 'b') -> None: pass\n__all__ = ['e']\n")
    kept = _used(tree) | _exported(tree)
    assert sorted(n for n in _imported(tree) if n not in kept) == ["d", "os"]


@pytest.mark.parametrize("path", _TEST_MODULES, ids=lambda p: p.name)
def test_every_import_in_a_test_module_is_used(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def _unbound(module: types.ModuleType) -> list[str]:
    return [name for name in getattr(module, "__all__", ())
            if not hasattr(module, name)]


_EXPORTING = [p for p in _MODULES
              if _exported(ast.parse(p.read_text(), filename=str(p)))]


@pytest.mark.parametrize("path", _EXPORTING, ids=lambda p: p.name)
def test_every_exported_name_is_bound(path: Path):
    module = importlib.import_module(f"uchain.{path.stem}")
    unbound = _unbound(module)
    assert not unbound, f"{path.name}: __all__ lists unbound names {unbound}"


def test_the_check_sees_a_stale_export():
    module = types.ModuleType("stale")
    module.__all__ = ["kept", "gone"]
    module.kept = 1
    assert _unbound(module) == ["gone"]


def _helper_bodies(tree: ast.Module) -> dict[str, str]:
    """Name -> ``ast.dump`` of the body, docstring aside, of each top-level
    function or class whose name does not start with ``test_``."""
    out = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
                and not node.name.startswith("test_")):
            body = node.body
            if ast.get_docstring(node) is not None:
                body = body[1:]
            out[node.name] = "\n".join(map(ast.dump, body))
    return out


def _copied_helpers(trees: dict[str, ast.Module]) -> list[list[str]]:
    """Groups of ``module.name`` helpers with one body, from two or more
    modules."""
    groups: dict[str, list[str]] = {}
    for module, tree in trees.items():
        for name, body in _helper_bodies(tree).items():
            groups.setdefault(body, []).append(f"{module}.{name}")
    return sorted(sorted(g) for g in groups.values()
                  if len({q.partition(".")[0] for q in g}) > 1)


def test_no_helper_is_defined_in_two_test_modules():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in _TEST_MODULES}
    copies = _copied_helpers(trees)
    assert not copies, f"helpers defined more than once: {copies}"


def test_the_helper_check_sees_a_copy():
    trees = {"a": ast.parse('def _f(x):\n    """One."""\n    return x + 1\n'
                            "def g(x):\n    return x\n"
                            "def test_t():\n    pass\n"),
             "b": ast.parse("def _h(x):\n    return x + 1\n"
                            "def test_u():\n    pass\n"
                            "class K:\n    pass\n"),
             "c": ast.parse("def g(y):\n    return y\n"
                            "def _k():\n    pass\n")}
    assert _copied_helpers(trees) == [["a._f", "b._h"], ["b.K", "c._k"]]
