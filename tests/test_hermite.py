import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import hermite_e

from momentflow.boundary import _he_zeros as he_zeros, s_table
from momentflow.solver1d import largest_he_root

import oracles
from oracles import basis_eval, cube_from_dict, expansion_eval

SQRT_2PI = math.sqrt(2 * math.pi)

# the library evaluates He_n only at x = 0, for the wall map's half-range
# integrals (``boundary._he_zeros``, read by ``s_table``), and the largest
# root of He_{M+1} for the HLL signal speed (``solver1d.largest_he_root``);
# the checks of He_n below are of those


def test_he_eval_base_cases():
    # the shortest tables, where the closed form has one or two entries
    np.testing.assert_array_equal(he_zeros(0), [1.0])
    np.testing.assert_array_equal(he_zeros(1), [1.0, 0.0])
    np.testing.assert_array_equal(he_zeros(2), [1.0, 0.0, -1.0])


def test_he_eval_matches_rodrigues_form():
    # symbolic expansion oracle, at the table's point x = 0
    z = he_zeros(12)
    for n in range(13):
        assert z[n] == pytest.approx(oracles.he_quad_value(n, 0.0),
                                     rel=1e-12, abs=1e-12)


def test_he_eval_exact_at_rational_points():
    # x = 0 in exact arithmetic: every entry is an integer below 2^53 up to
    # n = 30, so the table is exact there
    z = he_zeros(30)
    for n in range(31):
        assert z[n] == float(oracles.he_exact(n, Fraction(0)))


def test_he_zeros_table():
    z = he_zeros(10)
    # He_{2k}(0) = (-1)^k (2k-1)!!
    want = [1.0, -1.0, 3.0, -15.0, 105.0, -945.0]
    np.testing.assert_array_equal(z[0::2], want)
    # s_table reads the table: S(0, n) = He_{n-1}(0) / sqrt(2 pi)
    S = s_table(11)
    np.testing.assert_allclose(S[0, 1:] * SQRT_2PI, z, rtol=1e-15, atol=0.0)
    with pytest.raises(ValueError):
        S[0, 0] = 2.0  # cached table must be immutable


@given(st.integers(0, 40))
def test_he_parity(n):
    # He_n(-x) = (-1)^n He_n(x) at x = 0: the odd entries vanish
    assert np.all(he_zeros(n)[1::2] == 0.0)


@given(st.integers(1, 40))
def test_he_three_term_recursion(n):
    # He_{n+1}(0) = 0 He_n(0) - n He_{n-1}(0), exactly: the table
    # multiplies in the recursion's order
    z = he_zeros(n + 1)
    assert z[n + 1] == -n * z[n - 1]


def test_largest_he_root():
    def he(n, x):
        return hermite_e.hermeval(x, [0] * n + [1])

    assert largest_he_root(2) == pytest.approx(1.0, abs=1e-13)
    assert largest_he_root(3) == pytest.approx(math.sqrt(3.0), abs=1e-13)
    for n in range(2, 14):
        r = largest_he_root(n)
        assert abs(he(n, r)) < 1e-8 * max(1.0, abs(he(n - 1, r)))
        assert r > largest_he_root(n - 1) if n > 2 else True
    with pytest.raises(ValueError):
        largest_he_root(0)


def test_basis_eval_center():
    assert basis_eval((0, 0, 0), 1.0, np.zeros(3)) == pytest.approx(
        (2 * math.pi) ** -1.5, rel=1e-14
    )


def test_basis_eval_negative_index_is_zero():
    assert basis_eval((-1, 0, 0), 1.3, np.array([0.4, -0.2, 1.0])) == 0.0
    assert basis_eval((0, 2, -3), 0.7, np.array([0.0, 0.0, 0.0])) == 0.0


def test_basis_eval_product_formula():
    # independent reimplementation of the weighted product
    alpha, theta, v = (2, 0, 0), 2.0, np.array([1.0, 0.0, 0.0])
    want = 1.0
    for d in range(3):
        want *= (
            oracles.he_quad_value(alpha[d], v[d])
            * math.exp(-v[d] ** 2 / 2)
            / (SQRT_2PI * theta ** ((alpha[d] + 1) / 2))
        )
    assert basis_eval(alpha, theta, v) == pytest.approx(want, rel=1e-13)


def test_expansion_eval_maxwellian_peak():
    state = oracles.maxwellian(1.0, np.zeros(3), 1.0, 3)
    assert state.evaluate(np.zeros(3)) == pytest.approx((2 * math.pi) ** -1.5)
    state = oracles.maxwellian(2.5, np.array([0.3, -0.1, 0.0]), 1.7, 4)
    peak = 2.5 * (2 * math.pi * 1.7) ** -1.5
    assert state.evaluate(state.u) == pytest.approx(peak, rel=1e-13)


def test_expansion_eval_decays_at_infinity():
    rng = np.random.default_rng(0)
    u, theta, f = oracles.random_admissible(rng, 4)
    coeffs = cube_from_dict(4, f)
    far = np.array([[9.0, -9.0, 9.0], [12.0, 0.0, 0.0]])
    vals = expansion_eval(coeffs, u, theta, far)
    assert np.all(np.abs(vals) < 1e-8)


def test_expansion_eval_term_by_term_exact_polynomials():
    # rational frame/points so every He factor is exact; only the Gaussian
    # weights are floating point
    rng = np.random.default_rng(1)
    u = np.array([0.5, -0.25, 0.75])
    theta = 2.25  # sqrt(theta) = 3/2 keeps v rational
    M = 4
    _, _, f = oracles.random_admissible(rng, M)
    coeffs = cube_from_dict(M, f)
    for xi in ([1.0, 0.5, -0.25], [0.25, 0.25, 0.25], [-2.0, 1.0, 0.0]):
        v = [(Fraction(x) - Fraction(ud)) / Fraction(3, 2) for x, ud in zip(xi, u)]
        want = 0.0
        for alpha, fa in f.items():
            term = fa
            for d in range(3):
                term *= (
                    float(oracles.he_exact(alpha[d], v[d]))
                    * math.exp(-float(v[d]) ** 2 / 2)
                    / (SQRT_2PI * theta ** ((alpha[d] + 1) / 2))
                )
            want += term
        got = expansion_eval(coeffs, u, theta, np.array(xi))
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_expansion_eval_batched_matches_single():
    rng = np.random.default_rng(2)
    u, theta, f = oracles.random_admissible(rng, 5)
    coeffs = cube_from_dict(5, f)
    pts = rng.uniform(-3, 3, size=(7, 3))
    batch = expansion_eval(coeffs, u, theta, pts)
    singles = [expansion_eval(coeffs, u, theta, p) for p in pts]
    np.testing.assert_allclose(batch, singles, rtol=1e-14)
