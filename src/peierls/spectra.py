"""Spectrum-as-set utilities: branch ranges, gaps, Hausdorff distance.

The spectrum of a periodic operator is the union over its ordered fiber
eigenvalue branches lambda_j of [min_k lambda_j(k), max_k lambda_j(k)].
Each branch is continuous on the connected momentum torus, so its range
is one closed interval: a momentum grid can move its edges inward but
never split it.  A SpectrumSet takes a table of branches (one row per
fiber, one column per ascending branch; -inf or +inf where a branch lies
below or above the window), clips each branch range to the window and
joins the ranges whose gap is at most merge_tol.  A 1-D cloud is the table
in which every value is its own branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import InputError


@dataclass(frozen=True)
class SpectrumSet:
    points: np.ndarray  # branch table; then its sorted values in the window
    window: tuple  # (lo, hi)
    merge_tol: float
    merged_intervals: np.ndarray = field(init=False)  # (n, 2)

    def __post_init__(self):
        lo, hi = self.window
        if not lo < hi:
            raise InputError("window must be a nonempty interval")
        table = np.atleast_2d(np.asarray(self.points, dtype=float))
        ranges = np.stack([
            np.maximum(table.min(axis=0, initial=np.inf), lo),
            np.minimum(table.max(axis=0, initial=-np.inf), hi)], axis=-1)
        inside = np.isfinite(table) & (table >= lo) & (table <= hi)
        object.__setattr__(self, "points", np.sort(table[inside]))
        object.__setattr__(self, "merged_intervals", _merge(
            ranges[ranges[:, 0] <= ranges[:, 1]], self.merge_tol))

    @property
    def is_empty(self) -> bool:
        return self.merged_intervals.size == 0


def _merge(ranges: np.ndarray, tol: float) -> np.ndarray:
    """Union of the ranges (rows [a, b], a <= b), ordered by start: a range
    joins those before it when its gap to their reach is at most tol."""
    if ranges.size == 0:
        return np.empty((0, 2))
    ranges = ranges[np.argsort(ranges[:, 0])]
    reach = np.maximum.accumulate(ranges[:, 1])
    split = ranges[1:, 0] - reach[:-1] > tol  # between range i and i + 1
    out = np.empty((np.count_nonzero(split) + 1, 2))
    out[0, 0], out[-1, 1] = ranges[0, 0], reach[-1]
    out[1:, 0] = ranges[1:, 0][split]
    out[:-1, 1] = reach[:-1][split]
    return out


def from_intervals(intervals, window, merge_tol: float) -> SpectrumSet:
    """SpectrumSet of the given intervals, clipped to the window: the
    two-row table of their starts and ends."""
    table = np.asarray(intervals, dtype=float).reshape(-1, 2).T
    return SpectrumSet(points=table, window=window, merge_tol=merge_tol)


def distance(x, b: np.ndarray) -> np.ndarray:
    """dist(x, B) at each x, for B the union of the intervals b (sorted,
    disjoint, nonempty rows); 0 inside B.

    Outside B the nearest point is the right end of the last interval to
    the left of x or the left end of the next one: the endpoints are
    sorted, so these give the least |endpoint - x| over all of B.
    """
    x = np.asarray(x, dtype=float)
    # the last interval of B starting at or below x, -1 for none
    j = np.searchsorted(b[:, 0], x, side="right") - 1
    inside = (j >= 0) & (x <= b[j, 1])
    left = np.where(j >= 0, np.abs(b[j, 1] - x), np.inf)
    right = np.where(j + 1 < len(b),
                     np.abs(b[np.minimum(j + 1, len(b) - 1), 0] - x), np.inf)
    return np.where(inside, 0.0, np.minimum(left, right))


def _directed(a: np.ndarray, b: np.ndarray) -> float:
    """sup_{x in A} dist(x, B) over interval unions (sorted, disjoint rows).

    The supremum is attained at an endpoint of A or at a point of A
    facing a gap of B, so checking interval endpoints of A plus the
    B-gap midpoints clipped into each interval of A suffices.
    """
    mids = 0.5 * (b[:-1, 1] + b[1:, 0])
    x = np.concatenate([a.ravel(),
                        np.clip(mids[:, None], a[:, 0], a[:, 1]).ravel()])
    return float(distance(x, b).max(initial=0.0))


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
