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


def test_branch_table_gives_one_range_per_branch():
    # two branches on three fibers: each is one range however far apart its
    # samples lie, and a gap is closed only by merge_tol
    table = np.array([[1.0, 3.0], [1.5, 3.2], [2.0, 2.9]])
    s = SpectrumSet(points=table, window=WIN, merge_tol=0.0)
    assert np.array_equal(s.merged_intervals, [[1.0, 2.0], [2.9, 3.2]])
    assert np.array_equal(s.points, np.sort(table, axis=None))
    joined = SpectrumSet(points=table, window=WIN, merge_tol=0.9)
    assert np.array_equal(joined.merged_intervals, [[1.0, 3.2]])
    # -inf and +inf: the branch lies below or above the window in that
    # fiber, so its range reaches the edge, and no point is added
    clipped = SpectrumSet(points=[[-np.inf, 4.0], [1.0, np.inf]], window=WIN,
                          merge_tol=0.0)
    assert np.array_equal(clipped.merged_intervals, [[0.0, 1.0], [4.0, 10.0]])
    assert np.array_equal(clipped.points, [1.0, 4.0])


def _ranges(pts):
    """The points as degenerate ranges [p, p]."""
    pts = np.asarray(pts, dtype=float)
    return np.stack([pts, pts], axis=-1)


def _merge_by_loop(ranges, tol):
    """The merge as a loop over the ranges by start: a range joins the
    interval before it when it starts within tol of its end."""
    starts, ends = [], []
    for a, b in sorted(ranges.tolist()):
        if starts and a - ends[-1] <= tol:
            ends[-1] = max(ends[-1], b)
        else:
            starts.append(a)
            ends.append(b)
    return np.array([starts, ends]).T.reshape(-1, 2)


@settings(max_examples=50, deadline=None)
@given(pts=st.lists(st.floats(-5.0, 5.0), max_size=60),
       repeats=st.integers(0, 3), tol=st.sampled_from([0.0, 1e-3, 0.1, 1.0]),
       spans=st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(0.0, 2.0)),
                      max_size=30))
def test_merge_matches_the_loop(pts, repeats, tol, spans):
    # random clouds, repeated points, tol 0, one point and no points, and
    # random ranges that nest, overlap, touch or stand apart
    pts = np.repeat(np.asarray(pts, dtype=float), repeats + 1)
    ranges = np.array([[a, a + w] for a, w in spans]).reshape(-1, 2)
    for given_ranges in (_ranges(pts), ranges):
        got = _merge(given_ranges, tol)
        expected = _merge_by_loop(given_ranges, tol)
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)


def test_merge_edge_cases():
    for pts, tol in [([], 0.1), ([2.0], 0.0), ([1.0, 1.0, 1.0], 0.0),
                     ([1.0, 1.0, 2.0], 0.0), ([0.0, 0.1, 0.3], 0.1)]:
        ranges = _ranges(pts)
        assert np.array_equal(_merge(ranges, tol),
                              _merge_by_loop(ranges, tol))


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
