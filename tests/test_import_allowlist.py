"""Every module-level import in ``src/uchain/`` is package-relative or
from a short list of standard-library modules, the tests' F2 reference
takes nothing from ``uchain.gf2`` but ``set_bits``, and the CLI takes no
private name from the package.

``import uchain, uchain.cli`` is what every CLI invocation pays before it
does any work, so a module-level import of anything heavier (a process
pool, a numeric library) costs every call.  Imports inside a function run
only when that function does, like the worker pool's in
``verify_proposition``, and are exempt.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uchain"
_MODULES = sorted(_PACKAGE.glob("*.py"))

ALLOWED = {
    "__future__", "argparse", "bisect", "collections", "dataclasses",
    "functools", "heapq", "itertools", "json", "math", "os", "pathlib",
    "random", "re", "sys", "time", "typing",
}


def _module_level(node: ast.AST):
    """Statements run at import time: everything outside function bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.Lambda)):
            continue
        yield child
        yield from _module_level(child)


def _outside(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each module-level import not on the list."""
    out = []
    for node in _module_level(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module or ""]
        else:
            continue
        out += [(node.lineno, n) for n in names
                if n.split(".")[0] not in ALLOWED]
    return out


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_on_the_list(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = _outside(tree)
    assert not outside, f"{path.name}: module-level imports {outside}"


def test_the_check_sees_an_import_off_the_list():
    tree = ast.parse(
        "import os, numpy\nfrom . import gf2\nfrom .scalars import Poly\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "if True:\n    import decimal\n"
        "class K:\n    import fractions\n"
        "def f():\n    import multiprocessing\n")
    assert _outside(tree) == [(1, "numpy"), (4, "concurrent.futures"),
                              (6, "decimal"), (8, "fractions")]


def _from_gf2(tree: ast.Module) -> list[str]:
    """Names taken from ``uchain.gf2`` anywhere in ``tree``, the module
    itself as ``gf2``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += ["gf2" for alias in node.names if alias.name == "uchain.gf2"]
        elif isinstance(node, ast.ImportFrom) and node.module == "uchain.gf2":
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "uchain":
            out += ["gf2" for alias in node.names if alias.name == "gf2"]
    return out


def test_the_f2_reference_takes_only_set_bits_from_gf2():
    """``f2_reference`` is what the tests check ``gf2``'s elimination
    against, so it must not run that elimination itself."""
    path = Path(__file__).resolve().parent / "f2_reference.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert set(_from_gf2(tree)) <= {"set_bits"}


def test_the_gf2_check_sees_every_way_in():
    tree = ast.parse(
        "import uchain.gf2\nfrom uchain import gf2, scalars\n"
        "from uchain.gf2 import set_bits, rank\nimport uchain.scalars\n"
        "def f():\n    from uchain.gf2 import Quotient\n")
    assert _from_gf2(tree) == ["gf2", "gf2", "set_bits", "rank", "Quotient"]


def _private_from_package(tree: ast.Module) -> list[str]:
    """``_``-prefixed names imported anywhere in ``tree`` from the package,
    relatively or as ``uchain``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "uchain"):
            out += [a.name for a in node.names if a.name.startswith("_")]
    return out


def test_the_cli_imports_no_private_name_from_the_package():
    """Each verb is one call into the library, so what the CLI computes
    lives in the library; an engine's private name here would mean a verb
    doing that work itself."""
    tree = ast.parse((_PACKAGE / "cli.py").read_text())
    assert _private_from_package(tree) == []


def test_the_private_import_check_sees_every_way_in():
    tree = ast.parse(
        "from .complexes import _dual_id, dual\n"
        "from uchain.scalars import _pmul\nfrom . import _x\n"
        "from __future__ import annotations\nfrom os import _exit\n"
        "def f():\n    from ..homology import _h_plus\n")
    assert _private_from_package(tree) == ["_dual_id", "_pmul", "_x", "_h_plus"]
