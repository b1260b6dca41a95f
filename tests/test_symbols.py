import numpy as np
import pytest

from peierls.symbols import (
    Nonrelativistic,
    PeriodicPotential,
    PeriodicSymbol,
    Polynomial,
    Relativistic,
    cosine_potential,
    evaluate_symbol,
    separable_cosine_2d,
    symbol_ellipticity_check,
    zero_potential,
)


def test_potential_rejects_complex_valued(lat1):
    with pytest.raises(ValueError, match="not real"):
        PeriodicPotential(lat1, {(1,): 1.0, (-1,): 0.5j})


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
    assert nr.order == 2 and rel.order == 1
    assert nr.even_in_momentum and rel.even_in_momentum


def test_polynomial_kind_evaluates_and_validates(lat1):
    const = PeriodicPotential(lat1, {(0,): 1.0})
    poly = Polynomial(terms={(2,): const}, order=2)
    sym = PeriodicSymbol(poly, zero_potential(lat1))
    assert np.isclose(evaluate_symbol(sym, [0.1], [2.0]), 4.0)
    with pytest.raises(ValueError, match="exceeds declared order"):
        Polynomial(terms={(3,): const}, order=2)


def test_evaluate_symbol_matches_parts(mathieu):
    y, eta = np.array([0.4]), np.array([1.3])
    assert np.isclose(
        evaluate_symbol(mathieu, y, eta), 1.3**2 + np.cos(0.4)
    )


def test_ellipticity_check_accepts_kinetic_kinds(mathieu, separable):
    ok1, c1 = symbol_ellipticity_check(mathieu, radius=4.0, samples=8)
    ok2, c2 = symbol_ellipticity_check(separable, radius=4.0, samples=8)
    assert ok1 and c1 > 0.5
    assert ok2 and c2 > 0.5


def test_ellipticity_check_flags_sign_changing_polynomial(lat1):
    # a_2(y) = cos(y) changes sign, so eta^2 cos(y) is not elliptic
    poly = Polynomial(terms={(2,): cosine_potential(lat1, 0.5)}, order=2)
    sym = PeriodicSymbol(poly, zero_potential(lat1))
    ok, c = symbol_ellipticity_check(sym, radius=4.0, samples=8)
    assert not ok and c < 0.0
