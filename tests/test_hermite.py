import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import hermite_e

from momentflow.hermite import he_sequence, he_zeros, largest_he_root

import oracles
from oracles import basis_eval, cube_from_dict, expansion_eval

SQRT_2PI = math.sqrt(2 * math.pi)


def he(n, x):
    """He_n at x, the last entry of the library's sequence."""
    return he_sequence(n, x)[n]


def test_he_eval_base_cases():
    assert he(0, 3.7) == 1.0
    assert he(1, 2.5) == 2.5
    assert he(2, 0.0) == -1.0
    np.testing.assert_array_equal(he_sequence(2, np.array([0.0, 2.5])),
                                  [[1.0, 1.0], [0.0, 2.5], [-1.0, 5.25]])


def test_he_eval_matches_rodrigues_form():
    # symbolic expansion oracle for low degrees, a spread of points
    for n in range(9):
        for x in (-2.0, -0.7, 0.0, 1.3, 3.1):
            want = oracles.he_quad_value(n, x)
            got = he(n, x)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_he_eval_exact_at_rational_points():
    for n in range(11):
        x = Fraction(7, 4)
        want = float(oracles.he_exact(n, x))
        assert he(n, 1.75) == pytest.approx(want, rel=1e-13)


def test_he_sequence_consistent_with_he_eval():
    # numpy's Hermite_e evaluator, column by column of the batched sequence
    x = np.linspace(-3, 3, 11)
    seq = he_sequence(8, x)
    assert seq.shape == (9, 11)
    for n in range(9):
        np.testing.assert_allclose(seq[n], hermite_e.hermeval(x, [0] * n + [1]),
                                   rtol=1e-13, atol=1e-13)


def test_he_zeros_table():
    z = he_zeros(10)
    assert z[1::2].max() == 0.0 and z[1::2].min() == 0.0
    # He_{2k}(0) = (-1)^k (2k-1)!!
    want = [1.0, -1.0, 3.0, -15.0, 105.0, -945.0]
    np.testing.assert_array_equal(z[0::2], want)
    with pytest.raises(ValueError):
        z[0] = 2.0  # cached table must be immutable


def test_orthogonality_by_quadrature():
    # 64-node Gauss rule integrates He_m He_n exactly for m+n <= 127; grade
    # the error against the norm sqrt(m! n!) sqrt(2 pi) of the pair, since the
    # raw summands reach ~1e5 and cancellation roundoff scales with them
    nodes, weights = hermite_e.hermegauss(64)
    seq = he_sequence(10, nodes)
    for m in range(11):
        for n in range(11):
            scale = math.sqrt(math.factorial(m) * math.factorial(n)) * SQRT_2PI
            val = float(np.sum(weights * seq[m] * seq[n]))
            want = math.factorial(m) * SQRT_2PI if m == n else 0.0
            assert abs(val - want) <= 1e-10 * scale


def test_derivative_relation():
    # He_n' = n He_{n-1}, by central differences
    h = 1e-6
    for n in range(1, 11):
        for x in (-1.7, 0.3, 2.2):
            num = (he(n, x + h) - he(n, x - h)) / (2 * h)
            want = n * he(n - 1, x)
            assert num == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_weighted_derivative_relation():
    # d/dx [He_n e^{-x^2/2}] = -He_{n+1} e^{-x^2/2}
    h = 1e-6

    def w(n, x):
        return he(n, x) * math.exp(-x * x / 2)

    for n in range(0, 9):
        for x in (-2.1, -0.4, 0.9, 1.8):
            num = (w(n, x + h) - w(n, x - h)) / (2 * h)
            assert num == pytest.approx(-w(n + 1, x), rel=2e-6, abs=1e-6)


@given(st.integers(0, 12, ), st.floats(-4, 4, allow_nan=False))
def test_he_parity(n, x):
    left = he(n, -x)
    right = (-1) ** n * he(n, x)
    assert left == pytest.approx(right, rel=1e-10, abs=1e-10)


@given(st.integers(1, 12), st.floats(-4, 4, allow_nan=False))
def test_he_three_term_recursion(n, x):
    lhs = he(n + 1, x)
    rhs = x * he(n, x) - n * he(n - 1, x)
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_largest_he_root():
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
