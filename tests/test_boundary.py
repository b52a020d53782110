import contextlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentflow import scenarios
from momentflow.boundary import WallSpec, _wall_factors, ghost_state, s_table
from momentflow.cdvm import DvField, DvGrid, dv_run
from momentflow.march import RunOptions
from momentflow.moments import grade_mask, order_cube
from momentflow.projection import shift_kernel
from momentflow.solver1d import Grid1D, RunConfig, run

import oracles
from oracles import (
    State,
    admissibility_violation,
    apply_wall_bc,
    even_slots,
    maxwellian,
    mirror,
    mirror_even,
    random_state,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def _bc(s, wall, sign=1.0):
    return State(*apply_wall_bc(*s, wall, sign))


def _ghost(s, wall, sign=1.0):
    return State(*ghost_state(*s, wall, sign))


# ---------------------------------------------------------------------------
# half-range pair table


def test_s_table_pinned_values():
    S = s_table(6)
    assert S[0, 0] == 0.5
    assert S[1, 0] == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
    assert S[2, 4] == 0.0
    for n in range(7):
        assert S[n, n] == pytest.approx(0.5, rel=1e-13)


def test_s_table_sparsity_exact():
    S = s_table(9)
    for m in range(10):
        for n in range(10):
            if m != n and (m - n) % 2 == 0:
                assert S[m, n] == 0.0


def test_s_table_matches_quadrature():
    # small corner here; the full m, n <= 13 sweep runs in the acceptance suite
    S = s_table(8)
    for m in range(0, 9, 2):
        for n in range(1, 9, 3):
            want = oracles.s_quadrature(m, n)
            assert S[m, n] == pytest.approx(want, rel=1e-10, abs=1e-12)


# ---------------------------------------------------------------------------
# wall-Maxwellian moment sequences: the full-line J_s(x) is the frame-change
# kernel h_s(x, theta_w - theta), the half-line J^_s the middle row of the
# wall map's factors


def _j_hat(nmax, theta, theta_wall):
    return _wall_factors(np.zeros(3), theta, WallSpec(theta_wall=theta_wall),
                         nmax + 1)[1][1]


def _half_maxwellian(u, theta, wall, rho_wall, K):
    """Cube rho_wall J_{a1} J^_{a2} J_{a3} of the wall map's factors, cut to
    the retained grades."""
    J = _wall_factors(u, theta, wall, K)[1]
    return rho_wall * np.einsum("i,j,k->ijk", *J) * grade_mask((K,) * 3, K - 1)


def test_j_full_matches_quadrature():
    for theta in (0.5, 2.0):
        for theta_wall in (0.5, 1.0):
            for x in (-1.0, 0.3):
                got = shift_kernel(x, theta_wall - theta, 8)
                ref = np.array(
                    [oracles.j_quadrature(s, theta, theta_wall, x) for s in range(9)]
                )
                scale = max(1.0, np.max(np.abs(ref)))
                assert np.max(np.abs(got - ref)) <= 1e-10 * scale
                # the wall map's tangential rows are the same sequence
                wall = WallSpec(u_wall=np.array([x, 0.0, -x]),
                                theta_wall=theta_wall)
                rows = _wall_factors(np.zeros(3), theta, wall, 9)[1]
                assert np.max(np.abs(rows[0] - ref)) <= 1e-10 * scale
                np.testing.assert_array_equal(
                    rows[2], shift_kernel(-x, theta_wall - theta, 8))


def test_j_hat_matches_quadrature():
    for theta in (0.5, 1.0, 2.0):
        for theta_wall in (0.5, 2.0):
            got = _j_hat(8, theta, theta_wall)
            ref = np.array(
                [
                    oracles.j_quadrature(s, theta, theta_wall, 0.0, half=True)
                    for s in range(9)
                ]
            )
            scale = max(1.0, np.max(np.abs(ref)))
            assert np.max(np.abs(got - ref)) <= 1e-8 * scale
            np.testing.assert_allclose(got, oracles.j_hat(8, theta, theta_wall),
                                       rtol=1e-14, atol=1e-17)


def test_j_seed_values():
    J = shift_kernel(0.45, 0.8 - 1.3, 3)
    assert J[0] == 1.0
    assert J[1] == 0.45
    Jh = _j_hat(1, 1.0, 1.0)
    assert Jh[0] == 0.5
    assert Jh[1] == pytest.approx(-math.sqrt(1.0 / (2 * math.pi)), rel=1e-14)
    pw = _wall_factors(np.zeros(3), 1.7, WallSpec(), 6)[0]
    np.testing.assert_allclose(pw, 1.7 ** (np.arange(6) / 2.0), rtol=1e-15)


# ---------------------------------------------------------------------------
# half-space cut-off: the axis-2 operator S(a, b) theta^{(a-b)/2} that the
# wall map applies to the even-a2 part of a state, here on the whole state


def _cutoff(coeffs, theta):
    """Coefficients of the v2 >= 0 cut-off in the same frame, truncated to
    |alpha| <= K - 1."""
    K = coeffs.shape[-1]
    a = np.arange(K)
    A = s_table(K - 1) * theta ** ((a[:, None] - a[None, :]) / 2.0)
    out = np.einsum("ab,ibk->iak", A, coeffs)
    out[a[:, None, None] + a[None, :, None] + a[None, None, :] > K - 1] = 0.0
    return out


def test_cutoff_of_maxwellian():
    s = maxwellian(1.7, np.zeros(3), 1.2, 4)
    q = _cutoff(s.coeffs, s.theta)
    assert q[0, 0, 0] == pytest.approx(1.7 / 2.0, rel=1e-14)
    nz = np.argwhere(q != 0.0)
    assert np.all(nz[:, 0] == 0) and np.all(nz[:, 2] == 0)


def test_cutoff_diagonal_is_half():
    K = 6
    for alpha in [(1, 2, 0), (0, 3, 1), (2, 0, 2)]:
        c = np.zeros((K, K, K))
        c[alpha] = 0.8
        q = _cutoff(c, 1.4)
        assert q[alpha] == pytest.approx(0.4, rel=1e-13)


def test_cutoff_matches_halfspace_quadrature():
    s = random_state(0, M=4)
    q = _cutoff(s.coeffs, s.theta)
    for alpha in [(0, 0, 0), (0, 1, 0), (1, 1, 1), (0, 3, 0), (2, 1, 0),
                  (0, 2, 2)]:
        want = oracles.halfspace_coeff_quadrature(s.evaluate, alpha, s.u, s.theta)
        assert q[alpha] == pytest.approx(want, rel=2e-8, abs=1e-9)


# ---------------------------------------------------------------------------
# wall density and the half-Maxwellian


def _map_wall_density(s, wall, sign=1.0):
    """rho_wall of the wall map, read off its odd-a2 slab: over the
    prefactor and less the reflected part, the slab is rho_wall times the
    unit-density incoming half-Maxwellian, fitted over every odd slot."""
    u_b, _, fb = apply_wall_bc(*s, wall, sign)
    reflected, unit = oracles.wall_parts(u_b, s.theta, s.coeffs, wall)
    pref = 2.0 * wall.chi / (2.0 - wall.chi)
    rest = fb[:, 1::2, :] / (sign * pref)
    rest -= reflected[:, 1::2, :]
    p = unit[:, 1::2, :]
    rho = np.sum(rest * p) / np.sum(p * p)
    np.testing.assert_allclose(rest, rho * p, rtol=0,
                               atol=1e-13 * np.abs(rest).max())
    return rho


def test_wall_density_equilibrium():
    # the density the wall map re-emits against the mass-flux balance
    # formula: pinned on Maxwellians, then on non-equilibrium states at
    # both walls
    s = maxwellian(1.3, np.zeros(3), 0.9, 5)
    for theta_wall, want in ((0.9, 1.3), (0.225, 2.6)):
        # theta = 4 theta_wall: the balance requires twice the density
        wall = WallSpec(1.0, np.zeros(3), theta_wall)
        assert _map_wall_density(s, wall) == pytest.approx(want, rel=1e-13)
        assert oracles.wall_density(s.coeffs, 0.9, theta_wall) == pytest.approx(
            want, rel=1e-13)
    for seed in range(6):
        s = random_state(seed, M=3 + seed)
        wall = _wall(seed, chi=(0.5, 1.0)[seed // 3])
        sign = (-1.0, 1.0)[seed % 2]
        want = oracles.wall_density(s.coeffs, s.theta, wall.theta_wall)
        assert _map_wall_density(s, wall, sign) == pytest.approx(want,
                                                                 rel=1e-12)


def test_half_maxwellian_pinned_slots():
    wall = WallSpec(chi=1.0, u_wall=np.array([0.2, 0.0, -0.1]), theta_wall=0.8)
    u = np.array([0.2, 0.0, -0.1])
    p = _half_maxwellian(u, 0.8, wall, rho_wall=1.9, K=6)
    assert p[0, 0, 0] == pytest.approx(1.9 / 2.0, rel=1e-14)
    assert p[0, 1, 0] == pytest.approx(-1.9 * math.sqrt(0.8 / (2 * math.pi)),
                                       rel=1e-13)


def test_half_maxwellian_matches_quadrature():
    # wall Maxwellian restricted to incoming velocities (v2 < 0 relative to
    # the frame), coefficients about the gas frame.  The quadrature oracle
    # integrates v2 >= 0, so reflect the integrand about u2 and flip the sign
    # for odd normal degree: C_a[v2<0, g] = (-1)^a2 C_a[v2>0, g reflected].
    wall = WallSpec(chi=1.0, u_wall=np.zeros(3), theta_wall=1.0)
    u = np.zeros(3)
    theta = 1.0
    rho_wall = 1.0

    def func(xi):
        return (
            rho_wall
            * (2 * math.pi * wall.theta_wall) ** -1.5
            * np.exp(-np.sum((xi - wall.u_wall) ** 2, axis=1) / (2 * wall.theta_wall))
        )

    def func_reflected(xi):
        z = xi.copy()
        z[:, 1] = 2 * u[1] - z[:, 1]
        return func(z)

    p = _half_maxwellian(u, theta, wall, rho_wall, K=5)
    for alpha in [(0, 0, 0), (1, 1, 0), (0, 2, 0), (0, 3, 0), (1, 0, 1)]:
        want = (-1) ** alpha[1] * oracles.halfspace_coeff_quadrature(
            func_reflected, alpha, u, theta
        )
        assert p[alpha] == pytest.approx(want, rel=1e-7, abs=1e-10)


# ---------------------------------------------------------------------------
# the exchange map


def _wall(seed=None, chi=None):
    rng = np.random.default_rng(0 if seed is None else seed)
    return WallSpec(
        chi=rng.uniform(0.2, 1.0) if chi is None else chi,
        u_wall=np.array([rng.uniform(-0.4, 0.4), 0.0, rng.uniform(-0.4, 0.4)]),
        theta_wall=rng.uniform(0.7, 1.4),
    )


def test_wallspec_validation():
    with pytest.raises(ValueError):
        WallSpec(chi=1.2)
    with pytest.raises(ValueError):
        WallSpec(chi=-0.1)
    with pytest.raises(ValueError):
        WallSpec(theta_wall=0.0)


@pytest.mark.parametrize("theta_wall", [np.inf, -np.inf, np.nan, 0.0, -1.0])
def test_wallspec_rejects_bad_wall_temperature(theta_wall):
    # an infinite wall temperature used to pass and fail later, in the
    # closure, as a non-finite density at an interface
    with pytest.raises(ValueError, match="theta_wall"):
        WallSpec(theta_wall=theta_wall)


@pytest.mark.parametrize("u_wall", [[1.0, 2.0], [np.nan, 0.0, 0.0],
                                    [0.0, 0.0, np.inf], (0.0, 0.2, 0.0),
                                    (0.3, -1e-300, 0.0)])
def test_wallspec_rejects_bad_wall_velocity(u_wall):
    # a wall velocity that is not a finite 3-vector, or one along the
    # normal e2, however small, fails when the wall is built
    with pytest.raises(ValueError, match="u_wall"):
        WallSpec(u_wall=u_wall)


@pytest.mark.parametrize("chi", [0.0, 0.4, 1.0])
@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["left", "right"])
@pytest.mark.parametrize("M", [3, 6, 10])
def test_wall_map_matches_full_cube_reference(M, sign, chi):
    # the odd-slab kernel against the full-cube s * map(s * f) form, with a
    # wall temperature off the gas one and a tangential wall speed
    rng = np.random.default_rng(100 * M + int(10 * chi) + (sign < 0))
    for _ in range(4):
        u, theta, f = oracles.random_admissible(rng, M)
        coeffs = oracles.cube_from_dict(M, f)
        wall = WallSpec(chi, np.array([rng.uniform(0.2, 0.5), 0.0,
                                       rng.uniform(-0.5, -0.2)]),
                        theta * rng.uniform(1.2, 1.6))
        u_b, th_b, fb = oracles.wall_bc_reference(u, theta, coeffs, wall, sign)
        ghost = (2.0 * u_b - u, theta, 2.0 * fb - coeffs)
        for got, want in ((apply_wall_bc(u, theta, coeffs, wall, sign),
                           (u_b, th_b, fb)),
                          (ghost_state(u, theta, coeffs, wall, sign), ghost)):
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1]
            scale = np.abs(want[2]).max()
            np.testing.assert_allclose(got[2], want[2], rtol=1e-13,
                                       atol=1e-13 * scale)
            # the even-a2 slots are the input's, bit for bit
            assert got[2][:, ::2, :].tobytes() == coeffs[:, ::2, :].tobytes()
        assert np.abs(fb[:, 1::2, :]).max() > 1e-3 * scale or chi == 0.0


@pytest.mark.parametrize("M", range(3, 13))
def test_wall_map_is_uniform_in_the_order(M):
    # the same wall condition at every order: for a two-beam gas, far from
    # equilibrium and moving across the wall, the wall state rides at the
    # wall's normal velocity with no mass flux, and the ghost is its
    # reflection, so the ghost and the gas average to it
    s = oracles.two_beam(M)
    assert admissibility_violation(s.theta, s.coeffs) is None
    assert abs(s.u[1]) > 0.1 and np.abs(s.coeffs[:, 1::2, :]).max() > 1e-3
    for sign in (-1.0, 1.0):
        for chi in (0.0, 0.5, 1.0):
            wall = WallSpec(chi, np.array([0.2, 0.0, -0.3]), 1.2)
            u_b, th_b, fb = apply_wall_bc(*s, wall, sign)
            assert u_b[1] == wall.u_wall[1] and th_b == s.theta
            assert abs(fb[0, 1, 0]) <= 1e-14 * fb[0, 0, 0]
            u_g, th_g, g = ghost_state(*s, wall, sign)
            assert th_g == s.theta
            np.testing.assert_allclose(0.5 * (u_g + s.u), u_b, rtol=0,
                                       atol=1e-15)
            np.testing.assert_allclose(0.5 * (g + s.coeffs), fb, rtol=0,
                                       atol=1e-14 * np.abs(fb).max())


@pytest.mark.parametrize("M", range(3, 13))
def test_wall_map_needs_no_top_grade(M):
    # the solver's cubes stop at grade M; its wall inputs had a zero
    # even-a2 top grade when the cubes stored it, so on the leading
    # (M+1)^3 block the wall map and the ghost equal the (M+2)-edge map on
    # the grades <= M, whatever the odd-a2 top slots hold; one even-a2 top
    # slot set moves the (M+2)-edge map off it
    s = oracles.two_beam(M)
    K = M + 1
    evolved = grade_mask((K,) * 3, M)
    top = order_cube((K + 1,) * 3) == K
    even_top = top.copy()
    even_top[:, 1::2, :] = False
    assert np.abs(s.coeffs[top & ~even_top]).max() > 1e-8
    full = s.coeffs * ~even_top
    kick = full.copy()
    kick[M - 1, 2, 0] = 0.3
    short = full[:K, :K, :K] * evolved
    for sign in (-1.0, 1.0):
        for chi in (0.0, 0.5, 1.0):
            wall = WallSpec(chi, np.array([0.2, 0.0, -0.3]), 1.2)
            for bc in (apply_wall_bc, ghost_state):
                u, th, got = bc(s.u, s.theta, short, wall, sign)
                u_f, th_f, want = bc(s.u, s.theta, full, wall, sign)
                tol = 1e-14 * np.abs(want).max()
                np.testing.assert_array_equal(u, u_f)
                assert th == th_f
                np.testing.assert_allclose(got * evolved,
                                           want[:K, :K, :K] * evolved,
                                           rtol=0, atol=tol)
                if chi > 0:
                    moved = bc(s.u, s.theta, kick, wall, sign)[2][:K, :K, :K]
                    assert np.abs((moved - got) * evolved).max() > 1e3 * tol


def test_specular_limit_zeroes_odd_slots():
    s = random_state(1)
    out = _bc(s, _wall(chi=0.0))
    assert np.all(out.coeffs[:, 1::2, :] == 0.0)


def test_bc_output_satisfies_invariants():
    for seed in range(8):
        s = random_state(seed, M=3 + seed % 5)
        out = _bc(s, _wall(seed))
        assert admissibility_violation(out.theta, out.coeffs) is None
        assert out.theta == s.theta
        assert out.u[1] == _wall(seed).u_wall[1]


def test_bc_mass_flux_vanishes_by_quadrature():
    s = random_state(2)
    wall = _wall(2)
    out = _bc(s, wall)
    flux = oracles.raw_moment_quadrature(
        out.evaluate, (0, 1, 0), npts=32, center=tuple(out.u),
        scale=math.sqrt(out.theta)
    )
    assert abs(flux) <= 1e-6


def test_wall_equilibrium_is_fixed_point():
    wall = _wall(3)
    s = maxwellian(1.1, wall.u_wall, wall.theta_wall, 6)
    out = _bc(s, wall)
    np.testing.assert_allclose(out.coeffs, s.coeffs, atol=1e-12)


def test_bc_idempotent():
    s = random_state(4)
    wall = _wall(4)
    once = _bc(s, wall)
    twice = _bc(once, wall)
    np.testing.assert_allclose(twice.coeffs, once.coeffs, rtol=1e-13, atol=1e-16)


def test_specular_continuity_in_chi():
    # odd-slot output scales linearly with chi as chi -> 0
    s = random_state(5)
    base = _wall(5)
    odd_norm = {}
    for chi in (0.02, 0.01):
        wall = WallSpec(chi, base.u_wall, base.theta_wall)
        out = _bc(s, wall)
        odd_norm[chi] = np.linalg.norm(out.coeffs[:, 1::2, :])
    ratio = odd_norm[0.02] / odd_norm[0.01]
    # 2 chi / (2 - chi): ratio of the prefactors at the two chi values
    want = (2 * 0.02 / (2 - 0.02)) / (2 * 0.01 / (2 - 0.01))
    assert ratio == pytest.approx(want, rel=1e-10)


# ---------------------------------------------------------------------------
# ghost construction


def test_ghost_density_and_velocity():
    s = random_state(6)
    wall = WallSpec(chi=1.0, u_wall=np.array([0.3, 0.0, 0.0]), theta_wall=1.1)
    g = _ghost(s, wall)
    assert g.coeffs[0, 0, 0] == pytest.approx(s.rho, rel=1e-13)
    assert g.u[1] == pytest.approx(-s.u[1], abs=1e-14)
    assert g.theta == s.theta


def test_ghost_of_bc_satisfying_state_is_identity():
    s = random_state(7)
    wall = _wall(7)
    b = _bc(s, wall)
    g = _ghost(b, wall)
    np.testing.assert_allclose(g.coeffs, b.coeffs, rtol=1e-12, atol=1e-15)
    np.testing.assert_allclose(g.u, b.u, atol=1e-15)


def test_ghost_interior_average_reproduces_bc():
    # the construction is linear: the midpoint of ghost and interior, about
    # the midpoint center, is exactly the f^b state
    s = random_state(8)
    wall = _wall(8)
    b = _bc(s, wall)
    g = _ghost(s, wall)
    avg = State(0.5 * (g.u + s.u), s.theta, 0.5 * (g.coeffs + s.coeffs))
    again = _bc(avg, wall)
    np.testing.assert_allclose(again.coeffs, b.coeffs, rtol=1e-12, atol=1e-15)


# ---------------------------------------------------------------------------
# mirror and the left wall


def test_mirror_is_involution():
    s = random_state(9)
    back = mirror(mirror(s))
    np.testing.assert_array_equal(back.coeffs, s.coeffs)
    np.testing.assert_array_equal(back.u, s.u)


def test_mirror_evaluates_reflected():
    s = random_state(10)
    m = mirror(s)
    xi = np.random.default_rng(11).uniform(-2, 2, size=(50, 3))
    flipped = xi * np.array([1.0, -1.0, 1.0])
    np.testing.assert_allclose(m.evaluate(flipped), s.evaluate(xi), rtol=1e-12,
                               atol=1e-16)


def test_left_wall_is_conjugated_right_wall():
    # the left wall seen in the reflected frame is the same wall on the
    # right: a wall moves only in its own plane, which the reflection keeps
    s = random_state(12)
    wall_l = _wall(12)
    assert np.all(wall_l.u_wall[[0, 2]] != 0.0)
    wall_r = WallSpec(wall_l.chi, wall_l.u_wall * [1.0, -1.0, 1.0],
                      wall_l.theta_wall)
    out = _bc(s, wall_l, -1.0)
    manual = mirror(_bc(mirror(s), wall_r))
    np.testing.assert_allclose(out.coeffs, manual.coeffs, rtol=1e-14, atol=1e-17)
    np.testing.assert_array_equal(out.u, manual.u)
    assert admissibility_violation(out.theta, out.coeffs) is None
    assert out.u[1] == 0.0
    g, manual_g = _ghost(s, wall_l, -1.0), mirror(_ghost(mirror(s), wall_r))
    np.testing.assert_allclose(g.coeffs, manual_g.coeffs, rtol=1e-14, atol=1e-17)
    np.testing.assert_allclose(g.u, manual_g.u, rtol=1e-14, atol=1e-17)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_bc_invariants_random(seed):
    rng = np.random.default_rng(seed)
    M = int(rng.integers(3, 7))
    u, theta, f = oracles.random_admissible(rng, M)
    s = State(u, theta, oracles.cube_from_dict(M, f))
    wall = WallSpec(
        chi=float(rng.uniform(0.0, 1.0)),
        u_wall=np.array([rng.uniform(-0.5, 0.5), 0.0, rng.uniform(-0.5, 0.5)]),
        theta_wall=float(rng.uniform(0.6, 1.5)),
    )
    out = _bc(s, wall, -1.0 if seed % 2 else 1.0)
    assert admissibility_violation(out.theta, out.coeffs) is None


@pytest.mark.parametrize("axes", [(0,), (2,), (0, 2)])
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize("M", [3, 6, 10])
def test_reduced_ghost_equals_the_full_even_slots(axes, sign, M):
    # a wall and a frame at rest along the reduced axes: the full ghost
    # stays even along them and the reduced ghost is its stored part; the
    # wall moves only in its plane
    rng = np.random.default_rng(M)
    K = M + 1
    c = mirror_even(0.05 * rng.standard_normal((K, K, K))
                    * grade_mask((K,) * 3, M), axes)
    c[0, 0, 0] = 1.2
    u, u_wall = rng.uniform(-0.5, 0.5, (2, 3))
    u[list(axes)] = u_wall[list(axes)] = u_wall[1] = 0.0
    wall = WallSpec(0.7, u_wall, 1.3)
    u_f, th_f, g_f = ghost_state(u, 0.9, c, wall, sign)
    np.testing.assert_array_equal(g_f, mirror_even(g_f, axes))
    u_r, th_r, g_r = ghost_state(u, 0.9, even_slots(c, axes), wall, sign)
    np.testing.assert_array_equal(u_r, u_f)
    assert th_r == th_f
    np.testing.assert_allclose(g_r, even_slots(g_f, axes), rtol=0.0,
                               atol=1e-14 * np.max(np.abs(g_f)))


# ---------------------------------------------------------------------------
# a specular wall is the mirror plane of the colliding streams (ROADMAP item 1)

# NRxx gap to the mirror, the largest difference of a snapshot column over
# the column's scale, by (limiter, M): at a wall interface the closure
# gradient is one-sided from the two end cells, where the mirrored run
# takes the 2 dx central difference of interface values
NRXX_MIRROR_GAPS = {
    ("none", 3): 2.4e-3, ("none", 4): 1.8e-2, ("none", 5): 3.6e-4,
    ("none", 6): 1.7e-3, ("central", 3): 1.9e-2, ("central", 4): 3.3e-2,
    ("central", 5): 2.5e-3, ("central", 6): 5.6e-3, ("minmod", 3): 6.7e-3,
    ("minmod", 4): 2.2e-2, ("minmod", 5): 1.1e-3, ("minmod", 6): 3.1e-3,
}


def _gap_xfail(gap, where):
    # raises=AssertionError: a failure of anything but the mirror check,
    # a RuntimeWarning raised as an error say, is a plain failure
    return pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 1: %s; off by %.1e of column scale" % (where, gap))


MIRROR_CASES = [
    # on 12^3 nodes both runs warn 39 times that nodes went negative after
    # collision (min -2.3e-9), the same in each; the odd xi_2 axis does not
    pytest.param("cdvm", "none", 3, (12, 12, 12), True, id="cdvm-none-12x12x12"),
    pytest.param("cdvm", "none", 3, (12, 13, 12), False, id="cdvm-none-12x13x12"),
    pytest.param("cdvm", "minmod", 3, (12, 12, 12), True, id="cdvm-minmod-12x12x12",
                 marks=_gap_xfail(5.1e-2, "cdvm._faces gives a minmod end "
                                  "cell no slope")),
] + [
    pytest.param("nrxx", limiter, M, None, False, id="nrxx-%s-M%d" % (limiter, M),
                 marks=_gap_xfail(gap, "the closure gradient at a wall "
                                  "interface is one-sided"))
    for (limiter, M), gap in NRXX_MIRROR_GAPS.items()
]


def _final_tables(solver, limiter, M, nodes):
    """Final snapshot tables at t = 1 of the shock preset with a specular
    wall (chi = 0) on 20 cells, and of the left half of the colliding
    streams, u2 = +0.5 on [-5, 0] and -0.5 on [0, 5] with free ends, on 40
    cells."""
    sc = scenarios.preset("shock", solver=solver, chi=0.0, cells=20, M=M,
                          limiter=limiter,
                          dv_nodes=nodes or scenarios.ScenarioConfig.dv_nodes)
    u = np.zeros((40, 3))
    u[:20, 1], u[20:, 1] = 0.5, -0.5
    streams = dict(y_lo=-5.0, y_hi=5.0, rho=np.ones(40), u=u, theta=1.0)
    options = dict(kn=sc.kn, t_end=1.0, limiter=limiter)
    if solver == "nrxx":
        pairs = ((scenarios.build_grid(sc), scenarios.to_run_config(sc)),
                 (Grid1D.from_fields(M=M, mirrored=(0, 2), **streams),
                  RunConfig(M=M, **options)))
        return [run(state, config).snapshots[-1][1] for state, config in pairs]
    grid = DvGrid(sc.dv_half_width, nodes, (0, 2))
    pairs = ((scenarios.build_dv_field(sc), scenarios.to_dv_config(sc)),
             (DvField.from_fields(grid, **streams), RunOptions(**options)))
    return [dv_run(state, config).snapshots[-1][1] for state, config in pairs]


@pytest.mark.parametrize("solver, limiter, M, nodes, warns", MIRROR_CASES)
def test_a_specular_wall_is_the_mirror_of_colliding_streams(solver, limiter, M,
                                                            nodes, warns):
    # both solvers build a specular wall's ghost as the exact mirror, so any
    # difference comes from how the end cells use it
    with (pytest.warns(RuntimeWarning, match="went negative .* after collision")
          if warns else contextlib.nullcontext()):
        wall, streams = _final_tables(solver, limiter, M, nodes)
    streams = streams[:20]
    scale = np.abs(streams).max(axis=0)
    gap = np.abs(wall - streams) / np.where(scale > 0, scale, 1.0)
    # a column zero in the streams (u1, u3, sigma12, q1) is zero at the wall
    assert np.all(wall[:, scale == 0] == 0.0)
    assert gap.max() <= 1e-13, "off by %.2e of column scale" % gap.max()
