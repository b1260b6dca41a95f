import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peierls.lattice import InputError
from peierls.spectra import (
    SpectrumSet,
    _directed,
    _merge,
    from_intervals,
    hausdorff_distance,
    lipschitz_fit,
)

WIN = (0.0, 10.0)


def _points(pts, tol=0.1):
    return SpectrumSet(points=np.asarray(pts, dtype=float), window=WIN, merge_tol=tol)


def test_merge_and_clip():
    s = _points([3.0, 3.05, 3.11, 5.0, -1.0, 12.0])
    assert np.allclose(s.merged_intervals, [[3.0, 3.11], [5.0, 5.0]])
    assert s.points.min() >= WIN[0] and s.points.max() <= WIN[1]


def _merge_by_loop(pts, tol):
    """The merge as a loop: a point joins the interval of the point before
    it when it lies within tol of it."""
    if pts.size == 0:
        return np.empty((0, 2))
    starts, ends = [pts[0]], [pts[0]]
    for p in pts[1:]:
        if p - ends[-1] <= tol:
            ends[-1] = p
        else:
            starts.append(p)
            ends.append(p)
    return np.stack([starts, ends], axis=-1)


@settings(max_examples=50, deadline=None)
@given(pts=st.lists(st.floats(-5.0, 5.0), max_size=60),
       repeats=st.integers(0, 3), tol=st.sampled_from([0.0, 1e-3, 0.1, 1.0]))
def test_merge_matches_the_loop(pts, repeats, tol):
    # random clouds, repeated points, tol 0, one point and no points
    pts = np.sort(np.repeat(np.asarray(pts, dtype=float), repeats + 1))
    got, expected = _merge(pts, tol), _merge_by_loop(pts, tol)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_merge_edge_cases():
    for pts, tol in [([], 0.1), ([2.0], 0.0), ([1.0, 1.0, 1.0], 0.0),
                     ([1.0, 1.0, 2.0], 0.0), ([0.0, 0.1, 0.3], 0.1)]:
        pts = np.asarray(pts, dtype=float)
        assert np.array_equal(_merge(pts, tol), _merge_by_loop(pts, tol))


def test_from_intervals_round_trip():
    s = from_intervals([(1.0, 2.0), (4.0, 4.5)], WIN, merge_tol=0.05)
    assert np.allclose(s.merged_intervals, [[1.0, 2.0], [4.0, 4.5]], atol=1e-12)


def test_hausdorff_known_values():
    a = from_intervals([(1.0, 2.0)], WIN, 0.05)
    b = from_intervals([(1.5, 2.7)], WIN, 0.05)
    d, flagged = hausdorff_distance(a, b)
    assert not flagged
    assert abs(d - 0.7) < 1e-12
    # point vs interval: farthest endpoint wins
    c = from_intervals([(5.0, 5.0)], WIN, 0.05)
    d2, _ = hausdorff_distance(a, c)
    assert abs(d2 - 4.0) < 1e-12


def test_hausdorff_sees_interior_gaps():
    # equal hulls, but b has a hole facing the middle of a
    a = from_intervals([(0.0, 4.0)], WIN, 0.05)
    b = from_intervals([(0.0, 1.0), (3.0, 4.0)], WIN, 0.05)
    d, _ = hausdorff_distance(a, b)
    assert abs(d - 1.0) < 1e-12


def test_hausdorff_empty_conventions():
    empty = _points([])
    full = from_intervals([(2.0, 3.0)], WIN, 0.05)
    d, flagged = hausdorff_distance(empty, full)
    assert flagged and d == WIN[1] - WIN[0]
    with pytest.raises(InputError, match="both spectra empty"):
        hausdorff_distance(empty, _points([]))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8),
)
def test_hausdorff_metric_axioms(xs, ys, zs):
    a, b, c = _points(xs, 0.2), _points(ys, 0.2), _points(zs, 0.2)
    dab, _ = hausdorff_distance(a, b)
    dba, _ = hausdorff_distance(b, a)
    dac, _ = hausdorff_distance(a, c)
    dcb, _ = hausdorff_distance(c, b)
    daa, _ = hausdorff_distance(a, a)
    assert daa <= 1e-12
    assert abs(dab - dba) <= 1e-12
    assert dab <= dac + dcb + 1e-12


def _directed_loop(a, b):
    """The candidate loop that _directed vectorizes."""
    candidates = list(a.ravel())
    for i in range(b.shape[0] - 1):
        mid = 0.5 * (b[i, 1] + b[i + 1, 0])
        for lo, hi in a:
            candidates.append(float(np.clip(mid, lo, hi)))
    best = 0.0
    for x in candidates:
        if np.any((b[:, 0] <= x) & (x <= b[:, 1])):
            continue
        best = max(best, np.min(np.abs(b - x)))
    return best


def test_directed_equals_the_candidate_loop():
    # random unions with single points, repeated values and one-interval
    # sets; the distance is bit-identical, not only close
    rng = np.random.default_rng(0)
    for _ in range(40):
        a, b = (_points(np.round(rng.uniform(0.0, 10.0,
                                             size=rng.integers(1, 40)),
                                 rng.integers(1, 4)),
                        tol=rng.uniform(0.0, 0.5)).merged_intervals
                for _ in range(2))
        for x, y in ((a, b), (b, a), (a, a)):
            assert _directed(x, y) == _directed_loop(x, y)


def test_lipschitz_fit_recovers_linear_law():
    pairs = [(0.08, 0.16), (0.04, 0.08), (0.02, 0.04)]
    rep = lipschitz_fit(pairs)
    assert abs(rep.fitted_slope - 2.0) < 1e-12
    assert rep.residual < 1e-12
    assert abs(rep.max_ratio - 2.0) < 1e-12
    with pytest.raises(InputError, match="at least 3"):
        lipschitz_fit(pairs[:2])
