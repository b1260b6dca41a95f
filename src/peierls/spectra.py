"""Spectrum-as-set utilities: merged intervals, gaps, Hausdorff distance.

Spectra are compared as unions of closed intervals obtained by merging
sorted eigenvalue clouds with a merge tolerance: a dense momentum grid
samples each band densely, and merging removes the sampling artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import InputError


@dataclass(frozen=True)
class SpectrumSet:
    points: np.ndarray  # sorted eigenvalues inside the window
    window: tuple  # (lo, hi)
    merge_tol: float
    merged_intervals: np.ndarray = field(init=False)  # (n, 2)

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise InputError("window must be a nonempty interval")
        pts = np.sort(np.asarray(self.points, dtype=float).ravel())
        pts = pts[(pts >= lo) & (pts <= hi)]
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "merged_intervals", _merge(pts, self.merge_tol))

    @property
    def is_empty(self) -> bool:
        return self.points.size == 0


def _merge(pts: np.ndarray, tol: float) -> np.ndarray:
    """Intervals of the sorted points, split where a step exceeds tol."""
    if pts.size == 0:
        return np.empty((0, 2))
    split = np.diff(pts) > tol  # between point i and i + 1
    out = np.empty((np.count_nonzero(split) + 1, 2))
    out[0, 0], out[-1, 1] = pts[0], pts[-1]
    out[1:, 0] = pts[1:][split]
    out[:-1, 1] = pts[:-1][split]
    return out


def from_intervals(intervals, window, merge_tol: float) -> SpectrumSet:
    """SpectrumSet whose merged intervals reproduce the given ones.

    Each interval is clipped to the window and represented by a point
    cloud fine enough (spacing merge_tol / 2) that merging recovers it.
    """
    lo, hi = window
    pts = []
    for a, b in intervals:
        a, b = max(a, lo), min(b, hi)
        if a > b:
            continue
        n = max(2, int(np.ceil((b - a) / (merge_tol / 2.0))) + 1)
        pts.append(np.linspace(a, b, n))
    cloud = np.concatenate(pts) if pts else np.empty(0)
    return SpectrumSet(points=cloud, window=window, merge_tol=merge_tol)


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """sup_{x in A} dist(x, B) over interval unions (sorted, disjoint rows).

    The supremum is attained at an endpoint of A or at a point of A
    facing a gap of B, so checking interval endpoints of A plus the
    B-gap midpoints clipped into each interval of A suffices.  A candidate
    outside B is nearest to the right end of the last interval of B to its
    left or the left end of the next one: the endpoints are sorted, so
    these give the least |endpoint - x| over all of B.
    """
    mids = 0.5 * (b[:-1, 1] + b[1:, 0])
    x = np.concatenate([a.ravel(),
                        np.clip(mids[:, None], a[:, 0], a[:, 1]).ravel()])
    # the last interval of B starting at or below x, -1 for none
    j = np.searchsorted(b[:, 0], x, side="right") - 1
    inside = (j >= 0) & (x <= b[j, 1])
    left = np.where(j >= 0, np.abs(b[j, 1] - x), np.inf)
    right = np.where(j + 1 < len(b),
                     np.abs(b[np.minimum(j + 1, len(b) - 1), 0] - x), np.inf)
    return float(np.minimum(left, right)[~inside].max(initial=0.0))


def hausdorff_distance(a: SpectrumSet, b: SpectrumSet):
    """Hausdorff distance between merged-interval spectra.

    Returns (distance, flagged).  When exactly one set is empty the
    distance is defined as the window width and flagged True; both empty
    raises InputError.
    """
    if a.is_empty and b.is_empty:
        raise InputError("both spectra empty: Hausdorff distance undefined")
    if a.is_empty or b.is_empty:
        win = a.window if a.is_empty else b.window
        return float(win[1] - win[0]), True
    ia, ib = a.merged_intervals, b.merged_intervals
    return float(max(_directed(ia, ib), _directed(ib, ia))), False


@dataclass(frozen=True)
class HausdorffReport:
    fitted_slope: float
    max_ratio: float
    residual: float


def lipschitz_fit(pairs) -> HausdorffReport:
    """Least-squares slope through the origin of d_H vs epsilon."""
    pairs = [(float(e), float(d)) for e, d in pairs]
    if len(pairs) < 3:
        raise InputError("lipschitz_fit needs at least 3 (epsilon, d_H) pairs")
    eps = np.array([p[0] for p in pairs])
    dh = np.array([p[1] for p in pairs])
    slope = float(np.dot(eps, dh) / np.dot(eps, eps))
    pred = slope * eps
    denom = np.linalg.norm(dh)
    residual = float(np.linalg.norm(dh - pred) / denom) if denom > 0 else 0.0
    max_ratio = float(np.max(dh / eps))
    return HausdorffReport(
        fitted_slope=slope, max_ratio=max_ratio, residual=residual
    )
