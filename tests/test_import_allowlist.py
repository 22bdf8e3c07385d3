"""Every module-level import in ``src/uchain/`` is package-relative or
from a short list of standard-library modules.

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
