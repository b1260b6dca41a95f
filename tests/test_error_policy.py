"""The package raises no bare ValueError, RuntimeError or Exception.

An input that the model or a size limit cannot take raises
lattice.InputError, on which the CLI exits 2; a numeric failure raises its
own class (EigensolverError, TransportStepError, ...), on which it exits 3.
A bare ValueError would exit 3 as a "numeric error" whatever it meant.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "peierls"
BARE = {"ValueError", "RuntimeError", "Exception"}


def bare_raises() -> list:
    """"module.py:line Name" of every raise of a class in BARE."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                found.append(f"{path.name}:{node.lineno} {exc.id}")
    return found


def test_no_bare_builtin_raises():
    assert bare_raises() == []
