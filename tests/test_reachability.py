"""Every public top-level function and class of the package is reached,
and so is every public method and property of a public class, and every
public field of a public dataclass.

A name counts as reached when another module of the package, another
statement of its own module, or the acceptance suite mentions it.  A
member counts as mentioned wherever its name is read as an attribute,
whatever the object.  A field counts as reached only where it is read as
an attribute, not declared or stored: by a module of the package (a
method of its own class included), the acceptance suite or the
benchmark.  Every default of a public function or method, or of a public
field of a public dataclass, is left out by some call of its name in the
package, the acceptance suite or the benchmark, and passed by another: a
value that every caller passes is no default, and one that no caller
passes is a constant.  Code that only its own unit tests call is not part
of the pipeline.
"""

import ast
import importlib
import inspect
import textwrap
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


def _package_trees() -> dict:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def unreached_names() -> list:
    """(module, name) and (module, "class.member") pairs nothing reaches."""
    trees = _package_trees()
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


def _attributes_read(trees) -> set:
    """Attribute names loaded anywhere in the trees."""
    return {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def _is_dataclass(node) -> bool:
    """@dataclass or @dataclass(...)"""
    return any(getattr(getattr(dec, "func", dec), "id", None) == "dataclass"
               for dec in node.decorator_list)


def unread_fields(trees: dict, readers: list) -> list:
    """(module, "class.field") pairs of the public fields of the public
    dataclasses in trees (module name: AST) that no module of trees and
    none of the reader ASTs reads as an attribute.  A read by a method of
    the field's own class counts, as a call by a sibling method does for a
    method; a declaration or a store does not."""
    read = _attributes_read([*trees.values(), *readers])
    return [(module, f"{node.name}.{item.target.id}")
            for module, tree in trees.items()
            for node in _public(tree.body, ast.ClassDef) if _is_dataclass(node)
            for item in node.body
            if isinstance(item, ast.AnnAssign)
            and not item.target.id.startswith("_")
            and item.target.id not in read]


def test_public_names_are_reached():
    unreached = set(unreached_names())
    assert unreached - ALLOWED == set()
    # an allowlisted name that something now reaches leaves the allowlist
    assert ALLOWED <= unreached


def test_dataclass_fields_are_read():
    assert unread_fields(_package_trees(), _acceptance_and_bench()) == []


SYNTHETIC = textwrap.dedent("""
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Pair:
        left: int
        right: int
        middle: int = 0
        _hidden: int = 0

        def total(self):
            return self.right


    @dataclass
    class Box:
        size: int


    class Plain:
        width: int


    def left_of(pair, box):
        box.size = 3  # a store is no read
        return pair.left
""")


def test_a_field_nothing_reads_is_flagged():
    # left and right are read, middle nowhere, Box.size only stored, and
    # Plain is no dataclass
    module = ast.parse(SYNTHETIC)
    assert sorted(unread_fields({"pairs": module}, [])) == [
        ("pairs", "Box.size"), ("pairs", "Pair.middle")]
    # another module and a reader each reach what they read
    other = ast.parse("def middle(pair):\n    return pair.middle\n")
    reader = ast.parse("def test(box):\n    assert box.size\n")
    assert unread_fields({"pairs": module, "other": other}, [reader]) == []


def _defaulted(function, bound: bool) -> list:
    """(position, name) of each argument of function with a default, the
    position among those a call passes positionally (None for a
    keyword-only one); bound drops self or cls."""
    args = function.args
    positional = [*args.posonlyargs, *args.args][bound:]
    first = len(positional) - len(args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default
               in zip(args.kwonlyargs, args.kw_defaults) if default])


def _field_defaults(node) -> list:
    """(position, name) of each public field with a default of the
    dataclass node, the position among the arguments of its __init__,
    which takes no ClassVar and no field(init=False)."""
    taken = []
    for item in node.body:
        if (not isinstance(item, ast.AnnAssign)
                or "ClassVar" in ast.unparse(item.annotation)):
            continue
        call = item.value
        keywords = ({kw.arg: kw.value for kw in call.keywords}
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "field" else None)
        if keywords is None:
            taken.append((item.target.id, call is not None))
        elif getattr(keywords.get("init"), "value", True) is not False:
            taken.append((item.target.id, bool(
                {"default", "default_factory"} & keywords.keys())))
    return [(i, name) for i, (name, default) in enumerate(taken)
            if default and not name.startswith("_")]


def _passes(call, position, name) -> bool:
    """Whether call passes a value for the argument by position or name."""
    return ((position is not None and position < len(call.args))
            or name in {keyword.arg for keyword in call.keywords})


def _starred(call) -> bool:
    """Whether call has *args or **kwargs: it counts as passing every
    argument and as leaving each out."""
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(keyword.arg is None for keyword in call.keywords))


def defaults_no_call(trees: dict, callers: list, passed: bool) -> list:
    """(module, qualname, argument) of each default of a public function,
    public method or public dataclass field in trees (module name: AST)
    that no call in trees or in the caller ASTs passes (passed True) or
    leaves out (passed False); a class's __init__, and a dataclass's
    fields, are called through the class.  Calls are matched by the name
    called, f(...) or x.f(...), whatever the object, as the field check
    matches attribute names."""
    calls: dict = {}
    for tree in [*trees.values(), *callers]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr",
                               getattr(node.func, "id", None))
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(node, ast.FunctionDef):
                targets = [(node.name, node.name, _defaulted(node, False))]
            else:
                targets = [
                    (f"{node.name}.{item.name}",
                     node.name if item.name == "__init__" else item.name,
                     _defaulted(item, True))
                    for item in node.body if isinstance(item, ast.FunctionDef)
                    and (item.name == "__init__"
                         or not item.name.startswith("_"))]
                if _is_dataclass(node):
                    targets.append((node.name, node.name,
                                    _field_defaults(node)))
            for qualname, called, defaulted in targets:
                for position, name in defaulted:
                    if not any(_starred(call)
                               or _passes(call, position, name) == passed
                               for call in calls.get(called, [])):
                        found.append((module, qualname, name))
    return found


def _acceptance_and_bench() -> list:
    return [ast.parse(path.read_text())
            for path in [ACCEPTANCE, *sorted(BENCH.glob("*.py"))]]


def test_every_default_is_left_out_by_some_call():
    assert defaults_no_call(_package_trees(), _acceptance_and_bench(),
                            passed=False) == []


def test_every_default_is_passed_by_some_call():
    assert defaults_no_call(_package_trees(), _acceptance_and_bench(),
                            passed=True) == []


DEFAULTS = textwrap.dedent("""
    def scale(x, factor=2.0, *, shift=0.0):
        return x * factor + shift


    class Box:
        def __init__(self, size, label="box"):
            self.size = size

        def grow(self, by=1):
            return Box(self.size + by, label="grown")

        def _shrink(self, by=1):
            return self.size - by


    def _private(k=3):
        return scale(k, 3.0)


    def area(box):
        return box.grow().size * scale(x=1.0, factor=2.0, shift=1.0)
""")


def test_a_default_every_call_passes_is_flagged():
    # factor is passed by each call of scale, positionally or by name, and
    # label by each of Box; shift and by are left out, and the private
    # _shrink and _private are not covered
    module = ast.parse(DEFAULTS)
    assert sorted(defaults_no_call({"shapes": module}, [], passed=False)) == [
        ("shapes", "Box.__init__", "label"), ("shapes", "scale", "factor")]
    # a call with *args or **kwargs leaves every default out
    reader = ast.parse("def test(args, kwargs):\n"
                       "    scale(*args)\n    Box(3, **kwargs)\n")
    assert defaults_no_call({"shapes": module}, [reader],
                            passed=False) == []


def test_a_default_no_call_passes_is_flagged():
    # factor is passed positionally by _private and by name by area, shift
    # by area and label by grow; grow's by is passed by no call, and the
    # private _shrink and _private are not covered
    module = ast.parse(DEFAULTS)
    assert defaults_no_call({"shapes": module}, [], passed=True) == [
        ("shapes", "Box.grow", "by")]
    # a call with *args or **kwargs passes every default
    for call in ("box.grow(*args)", "box.grow(**kwargs)"):
        reader = ast.parse(f"def test(box, args, kwargs):\n    {call}\n")
        assert defaults_no_call({"shapes": module}, [reader],
                                passed=True) == []


FIELD_DEFAULTS = textwrap.dedent("""
    from dataclasses import dataclass, field
    from typing import ClassVar

    @dataclass(frozen=True)
    class Cell:
        size: int
        kind: ClassVar[str] = "cell"
        area: float = field(init=False)
        label: str = "cell"
        scale: float = 1.0
        tags: list = field(default_factory=list)
        _cache: dict = field(default_factory=dict)

    def cells():
        return [Cell(1, "small"), Cell(2, "big", 2.0), Cell(size=3, label="x")]
""")


def test_a_dataclass_field_default_is_checked_as_an_argument():
    # label is passed by every call, in the second place, which neither
    # the ClassVar kind nor the init=False area takes; tags by none, and
    # scale by one; the private _cache is not covered
    module = ast.parse(FIELD_DEFAULTS)
    assert defaults_no_call({"cells": module}, [], passed=False) == [
        ("cells", "Cell", "label")]
    assert defaults_no_call({"cells": module}, [], passed=True) == [
        ("cells", "Cell", "tags")]


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


def _config_keys_read(tree) -> set:
    """The string keys read by name from the top-level config cfg:
    cfg.get(key) and _number(cfg, "", key, ...)."""
    def text(node):
        return node.value if isinstance(node, ast.Constant) else None

    def name(node):
        return getattr(node, "id", None)

    keys = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute):
            if func.attr == "get" and name(func.value) == "cfg":
                keys.add(text(args[0]))
        elif (args and name(args[0]) == "cfg" and name(func) == "_number"
              and text(args[1]) == ""):
            keys.add(text(args[2]))
    return keys - {None}


def test_config_keys_are_the_keys_cli_reads():
    """A top-level key is admitted exactly when cli reads it, once: a
    cli.SETTINGS key through that table, any other key by name.  A new
    reader must admit its key, and a key leaves with its last reader.  No
    command reads the config: each gets the values resolved from it."""
    cli = importlib.import_module("peierls.cli")
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    by_name = _config_keys_read(tree)
    assert by_name.isdisjoint(cli.SETTINGS)
    assert by_name | set(cli.SETTINGS) == cli.CONFIG_KEYS
    commands = [node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name.startswith("cmd_")]
    assert len(commands) == len(cli.COMMANDS)
    assert [node.name for node in commands
            if "cfg" in _mentions([node]) | {a.arg for a in node.args.args}
            ] == []
    # keys of an inner section or of another dict are not top-level keys
    synthetic = ast.parse(textwrap.dedent("""
        cfg.get("a", 1); section.get("b")
        _number(cfg, "", "c", 0); _number(section, "", "d", 0)
        _number(cfg, "numerics", "e", 0); _number(cfg, "", key, 0)
    """))
    assert _config_keys_read(synthetic) == {"a", "c"}


def test_one_krylov_call_with_an_explicit_stop():
    """The package runs ARPACK (eigs, eigsh) at one call site, eigsh in
    direct.window_eigs, and that call names its tol: one Krylov path with
    one documented stopping rule (KRYLOV_TOL and its rerun at 0)."""
    trees = _package_trees()
    sites = [(module, node) for module, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)
             and _mentions([node.func]) & {"eigs", "eigsh"}]
    assert [module for module, _ in sites] == ["direct"]
    call = sites[0][1]
    window_eigs = next(node for node in trees["direct"].body
                       if getattr(node, "name", None) == "window_eigs")
    assert call in list(ast.walk(window_eigs))
    assert "eigsh" in _mentions([call.func])
    assert "tol" in {keyword.arg for keyword in call.keywords}



def test_one_reference_routine():
    """The package calls direct.direct_spectrum and direct.certified_below
    at one call site each, inside cli._reference, and names them nowhere
    else: direct, and compare serial or beside its Peierls side, run the
    one job list that it builds."""
    names = {"direct_spectrum", "certified_below"}
    trees = _package_trees()
    reference = next(node for node in trees["cli"].body
                     if getattr(node, "name", None) == "_reference")
    calls = [node for node in ast.walk(reference)
             if isinstance(node, ast.Call) and _mentions([node.func]) & names]
    assert sorted(call.func.attr for call in calls) == sorted(names)
    for module, tree in trees.items():
        assert not _mentions([tree], skip=reference) & names, module

def test_one_band_solve_routine():
    """The package calls bloch.compute_bands at one call site, inside
    cli._bands, as an attribute of the module bloch, and names it nowhere
    else: every command's band solve goes through the last solve that
    _bands keeps, and a wrapper set on bloch.compute_bands sees each one."""
    trees = _package_trees()
    bands = next(node for node in trees["cli"].body
                 if getattr(node, "name", None) == "_bands")
    [call] = [node for node in ast.walk(bands) if isinstance(node, ast.Call)
              and "compute_bands" in _mentions([node.func])]
    assert isinstance(call.func, ast.Attribute)
    assert isinstance(call.func.value, ast.Name)
    assert (call.func.value.id, call.func.attr) == ("bloch", "compute_bands")
    for module, tree in trees.items():
        assert "compute_bands" not in _mentions([tree], skip=bands), module

def test_one_fiber_eigensolver_handle():
    """bloch is the one module that reaches scipy.linalg.cython_lapack, and
    no module fetches ?syevr or ?heevr as an f2py wrapper, by
    get_lapack_funcs or by name: every band fiber goes through bloch's one
    ctypes handle, in the calling thread and in the workers."""
    trees = _package_trees()
    reaching = [module for module, tree in trees.items()
                if any("cython_lapack" in name for name in _mentions([tree]))]
    assert reaching == ["bloch"]
    for tree in trees.values():
        assert not any(kind in name for name in _mentions([tree])
                       for kind in ("syevr", "heevr"))
        fetched = [arg.value for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and "get_lapack_funcs" in _mentions([node.func])
                   for arg in ast.walk(node) if isinstance(arg, ast.Constant)]
        assert not any(kind in str(value) for value in fetched
                       for kind in ("syevr", "heevr"))

def test_one_line_phase_per_operator_kind():
    """The package calls magnetic.line_phase in two functions, once each:
    hermitian_hops, for every hop of a lattice operator (the FD stencil,
    the Peierls fibers and the box), and quantize_on_grid, for the kernel
    of the grid quantizer of criteria 6 and 10."""
    trees = _package_trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and "line_phase" in _mentions([node.func])]
    callers = [(module, function.name) for module, tree in trees.items()
               for function in ast.walk(tree)
               if isinstance(function, ast.FunctionDef)
               and any(node in calls for node in ast.walk(function))]
    assert len(calls) == 2
    assert sorted(callers) == [("magnetic", "hermitian_hops"),
                               ("magnetic", "quantize_on_grid")]
