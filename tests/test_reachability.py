"""Every public top-level function and class of the package is reached,
and so is every public method and property of a public class.

A name counts as reached when another module of the package, another
statement of its own module, or the acceptance suite mentions it.  A
member counts as mentioned wherever its name is read as an attribute,
whatever the object.  Code that only its own unit tests call is not part
of the pipeline.
"""

import ast
import importlib
import inspect
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "peierls"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
BENCH = Path(__file__).resolve().parents[1] / "bench"

# names kept although nothing above mentions them, with the reason
ALLOWED: set = set()


def _mentions(nodes, skip=None) -> set:
    """Identifiers read, attributes accessed and names imported in nodes,
    outside the subtree of the node skip."""
    out = set()
    stack = list(nodes)
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name)
        stack.extend(ast.iter_child_nodes(sub))
    return out


def _public(nodes, kinds) -> list:
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def unreached_names() -> list:
    """(module, name) and (module, "class.member") pairs nothing reaches."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    whole = {name: _mentions([tree]) for name, tree in trees.items()}
    acceptance = _mentions([ast.parse(ACCEPTANCE.read_text())])
    unreached = []
    for module, tree in trees.items():
        outside = acceptance.union(*(m for name, m in whole.items()
                                     if name != module))
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            members = (_public(node.body, ast.FunctionDef)
                       if isinstance(node, ast.ClassDef) else [])
            for item in [node, *members]:
                if item.name not in outside | _mentions(tree.body, skip=item):
                    unreached.append((module, item.name if item is node
                                      else f"{node.name}.{item.name}"))
    return unreached


def test_public_names_are_reached():
    unreached = set(unreached_names())
    assert unreached - ALLOWED == set()
    # an allowlisted name that something now reaches leaves the allowlist
    assert ALLOWED <= unreached


def test_benchmark_span_names_name_package_code(monkeypatch):
    """A span the benchmark reads is "module.qualname" of a function or
    method defined there, or "module." for all of a module: a rename in
    the package would silently zero the metric that reads it."""
    monkeypatch.syspath_prepend(str(BENCH))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer")
    names = {name for keys in layers.TIME_METRICS.values() for name in keys}
    names |= set(layers.COUNT_METRICS.values()) | set(tracer.OBSERVED)
    names |= {".".join(method) for method in tracer.METHODS}
    names |= {f"{module}.{name}" for module, private in tracer.PRIVATE.items()
              for name in private}
    missing = []
    for name in sorted(names):
        module, _, qualname = name.partition(".")
        if not (PACKAGE / f"{module}.py").is_file():
            missing.append(name)
            continue
        if not qualname:  # "module.": every span of the module
            continue
        obj = importlib.import_module(f"peierls.{module}")
        for attr in qualname.split("."):
            obj = getattr(obj, attr, None)
        if not (inspect.isfunction(obj)
                and obj.__module__ == f"peierls.{module}"
                and obj.__qualname__ == qualname):
            missing.append(name)
    assert missing == []
