"""Span tracer that wraps ``peierls`` functions from outside the package.

``Tracer.installed()`` replaces the public functions of the measured
``peierls`` modules at every module attribute that binds them (including
names bound by ``from .x import y``, such as ``peierls.direct.compute_bands``)
and a few class methods, then restores the originals on exit.  Each call
becomes a span ``[id, name, start, end, parent]``; spans stay in memory and
are written out when the run ends.  The span name is the defining module
and qualified name, e.g. ``bloch.assemble_fiber_matrix`` or
``spectra.SpectrumSet.__post_init__``.

``magnetic`` is not measured: on the fixture CLI paths it only builds
``MagneticField``, whose cost lands inside ``direct``.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager

MEASURED = ("cli", "lattice", "symbols", "bloch", "section", "grushin",
            "effective", "direct", "spectra")

# private names wrapped in addition to the public functions
PRIVATE = {"cli": ("_numerics",)}

# (module, class, method) wrapped on the class itself
METHODS = (
    ("lattice", "BZGrid", "points"),
    ("lattice", "BZGrid", "coords"),
    ("lattice", "DualShell", "__post_init__"),
    ("direct", "DirectDiscretization", "bloch_matrix"),
    ("spectra", "SpectrumSet", "__post_init__"),
)

# spans whose arguments and results are kept for health values and counts
OBSERVED = frozenset({
    "bloch.compute_bands", "bloch.band_intervals", "section.transport_section",
    "grushin.invert_grushin", "effective.fourier_hoppings",
    "effective.bloch_eigenvalue_cloud", "direct.direct_spectrum",
    "direct.DirectDiscretization.bloch_matrix", "spectra.hausdorff_distance",
    "lattice.dual_shell",
})


class _CountingModule:
    """Stands in for a module attribute and counts calls to some names."""

    def __init__(self, module, counted: dict):
        self._module = module
        self._counted = counted

    def __getattr__(self, name):
        return self._counted.get(name) or getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent id or None]
        self.observed: list = []  # (name, args, kwargs, result)
        self.counters: dict = {}
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, time.perf_counter(), 0.0, parent]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str):
        observed = name in OBSERVED

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observed:
                self.observed.append((name, args, kwargs, result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    # ---------------------------------------------------------- install

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = {m: importlib.import_module(f"peierls.{m}")
                   for m in MEASURED}
        origin = {f"peierls.{m}": m for m in MEASURED}
        wrappers: dict = {}
        for short, module in modules.items():
            extra = PRIVATE.get(short, ())
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = origin.get(value.__module__)
                if home is None:
                    continue
                if attr.startswith("_") and attr not in extra:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value,
                                                 f"{home}.{value.__name__}")
                self._patch(module, attr, wrappers[value])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            fn = cls.__dict__[meth]
            self._patch(cls, meth,
                        self._wrap(fn, f"{short}.{cls_name}.{meth}"))
        spla = modules["direct"].spla
        self._patch(modules["direct"], "spla", _CountingModule(
            spla, {"eigsh": self._count(spla.eigsh, "direct.eigsh_calls")}))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def reset(self) -> None:
        """Forget the spans, observations and counters of the last pass."""
        self.spans = []
        self.observed = []
        self.counters = {}


def self_times(spans: list) -> list:
    """Per span: duration minus the durations of its direct children.

    Spans nest on one thread, so children never overlap each other.
    """
    selfs = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs
