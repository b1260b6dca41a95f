import numpy as np
import pytest

from peierls.lattice import InputError, Lattice
from peierls.symbols import (
    Nonrelativistic,
    PeriodicPotential,
    PeriodicSymbol,
    Relativistic,
    cosine_potential,
    evaluate_symbol,
    separable_cosine_2d,
    symbol_ellipticity_check,
    zero_potential,
)


def test_potential_rejects_complex_valued(lat1):
    with pytest.raises(InputError, match="not real"):
        PeriodicPotential(lat1, {(1,): 1.0, (-1,): 0.5j})


def test_potential_stores_exact_hermitian_pairs(lat1, lat2):
    # pairs off by 1e-12 are accepted and stored symmetrized
    pot = PeriodicPotential(lat1, {
        (1,): 1.0, (-1,): 1.0 + 1e-12,
        (2,): 0.5 + 0.3j, (-2,): 0.5 - 0.3j + 1e-12j,
        (0,): 0.2 + 1e-13j})
    for key, val in pot.coeffs.items():
        assert pot.coeffs[tuple(-k for k in key)] == np.conj(val)
    assert pot.coeffs[(1,)] == 1.0 + 0.5e-12
    assert pot.coeffs[(0,)] == 0.2
    # the catalog's pairs are exact already and stay bit-identical
    assert cosine_potential(lat1, 0.37).coeffs == {(1,): 0.37, (-1,): 0.37}
    assert all(v == 0.37 for v in separable_cosine_2d(lat2, 0.37)
               .coeffs.values())


def test_cosine_potential_pointwise(lat1):
    pot = cosine_potential(lat1, 0.5)
    ys = np.linspace(0.0, 2.0 * np.pi, 7)[:, None]
    assert np.allclose(pot.value(ys), np.cos(ys[:, 0]), atol=1e-14)


def test_separable_cosine_pointwise(lat2):
    pot = separable_cosine_2d(lat2, 0.5)
    y = np.array([0.3, 1.1])
    assert np.isclose(pot.value(y), np.cos(0.3) + np.cos(1.1))


def test_kinetic_kinds(lat1):
    pot = zero_potential(lat1)
    eta = np.array([[3.0]])
    nr = PeriodicSymbol(Nonrelativistic(), pot)
    rel = PeriodicSymbol(Relativistic(), pot)
    assert np.isclose(nr.kinetic(eta)[0], 9.0)
    assert np.isclose(rel.kinetic(eta)[0], np.sqrt(10.0))
    assert nr.kind.order == 2 and rel.kind.order == 1
    # both kinds are even in the momentum
    etas = np.array([[-2.5], [-0.3], [0.0], [0.3], [2.5]])
    for sym in (nr, rel):
        assert np.array_equal(sym.kinetic(etas), sym.kinetic(-etas))
    # any other kind is refused at construction, never taken as relativistic
    with pytest.raises(TypeError, match="Nonrelativistic or Relativistic"):
        PeriodicSymbol(object(), pot)


def test_evaluate_symbol_matches_parts(mathieu):
    y, eta = np.array([0.4]), np.array([1.3])
    assert np.isclose(
        evaluate_symbol(mathieu, y, eta), 1.3**2 + np.cos(0.4)
    )


def test_ellipticity_check_accepts_kinetic_kinds(mathieu, separable):
    ok1, c1 = symbol_ellipticity_check(mathieu)
    ok2, c2 = symbol_ellipticity_check(separable)
    assert ok1 and c1 > 0.5
    assert ok2 and c2 > 0.5


def _pinned_symbols(lat1, lat2):
    skew = Lattice(basis=np.array([[2.0 * np.pi, 1.0], [0.0, 2.0 * np.pi]]))
    return {
        "relativistic_skew": PeriodicSymbol(Relativistic(),
                                            separable_cosine_2d(skew, 0.2)),
        # V = 18 cos(y) outweighs |eta|^2 = 16 at the sampled radius 4
        "deep_cosine": PeriodicSymbol(Nonrelativistic(),
                                      cosine_potential(lat1, 9.0)),
    }


@pytest.mark.parametrize("name, expected", [
    ("mathieu", (True, 0.9375)),
    ("separable", (True, 0.875)),
    ("relativistic_skew", (True, 0.8307764064044152)),
    ("deep_cosine", (False, -0.125)),
])
def test_ellipticity_constant_is_pinned(name, expected, request, lat1, lat2):
    # C as the per-sample scalar loop computed it, at the CLI's settings
    symbols = _pinned_symbols(lat1, lat2)
    sym = symbols[name] if name in symbols else request.getfixturevalue(name)
    ok, c = symbol_ellipticity_check(sym)
    assert ok == expected[0]
    assert abs(c - expected[1]) <= 1e-12
    # the table holds p0 at every (position, momentum) pair
    ys = np.arange(6.0).reshape(-1, 1) * np.ones(sym.lattice.dim)
    etas = np.linspace(-3.0, 3.0, 4 * sym.lattice.dim).reshape(4, -1)
    table = evaluate_symbol(sym, ys, etas)
    pairs = [[evaluate_symbol(sym, y, eta)[0, 0] for eta in etas] for y in ys]
    assert table.shape == (6, 4)
    assert np.max(np.abs(table - np.array(pairs))) < 1e-13
