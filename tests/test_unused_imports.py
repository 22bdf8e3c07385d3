"""Every name a library module imports is used there or re-exported, and
every name its ``__all__`` lists is bound.

A stand-in for pyflakes' unused-import check: each module under
``src/uchain/`` except ``__init__`` is parsed with ``ast``, and an imported
name must appear as a name in the module's code (string annotations
included) or be listed in its ``__all__``.  A stale ``__all__`` entry
would break ``from uchain.<module> import *``.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uchain"
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


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
