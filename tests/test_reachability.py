"""Every public top-level function and class of the package is reached.

A name counts as reached when another module of the package, another
top-level statement of its own module, or the acceptance suite mentions it.
Code that only its own unit tests call is not part of the pipeline.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "peierls"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"

# names kept although nothing above mentions them, with the reason
ALLOWED = {
    # the exact flux reference that test_line_phase_cocycle_* compare the
    # line phases against
    ("magnetic", "triangle_flux"),
}


def _mentions(nodes) -> set:
    """Identifiers read, attributes accessed and names imported in nodes."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.alias):
                out.add(sub.name)
    return out


def unreached_names() -> list:
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    whole = {name: _mentions([tree]) for name, tree in trees.items()}
    acceptance = _mentions([ast.parse(ACCEPTANCE.read_text())])
    unreached = []
    for module, tree in trees.items():
        outside = acceptance.union(*(m for name, m in whole.items()
                                     if name != module))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            own = _mentions([n for n in tree.body if n is not node])
            if node.name not in outside | own:
                unreached.append((module, node.name))
    return unreached


def test_public_names_are_reached():
    unreached = set(unreached_names())
    assert unreached - ALLOWED == set()
    # an allowlisted name that something now reaches leaves the allowlist
    assert ALLOWED <= unreached
