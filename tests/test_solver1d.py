import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from momentflow import scenarios, solver1d
from momentflow.boundary import WallSpec
from momentflow.closure import _top_reads
from momentflow.cdvm import DvGrid
from momentflow.march import RunOptions
from momentflow.moments import (SNAPSHOT_COLUMNS, grade_mask, order_cube,
                               snapshot_table)
from momentflow.scenarios import COUETTE_WALL_SPEED
from momentflow.solver1d import (
    Grid1D,
    RunConfig,
    _flux_cube,
    _hll_combine,
    _interface_data,
    _put_state_vector,
    _stage_state,
    _state_vector,
    _transport_rate,
    cfl_timestep,
    largest_he_root,
    run,
    step,
)

import oracles
from oracles import cube_from_dict, maxwellian


def _couette_config(M=3, **kw):
    base = dict(
        M=M,
        kn=0.1,
        left=WallSpec(1.0, np.array([-0.63, 0.0, 0.0]), 1.0),
        right=WallSpec(1.0, np.array([0.63, 0.0, 0.0]), 1.0),
        steady_tol=None,
        t_end=1e9,
    )
    base.update(kw)
    return RunConfig(**base)


def _uniform_grid(n=20, M=3, rho=1.0, theta=1.0):
    return Grid1D.from_fields(-0.5, 0.5, np.full(n, rho), np.zeros(3), theta, M)


def _flux(coeffs, u2, theta):
    """Flux of a state (batched over leading axes) that stores its top
    grade, on the grades below it, through the solver's banded operator,
    applied as the HLL applies it."""
    K = coeffs.shape[-1]
    u2 = np.asarray(u2, dtype=float)
    op = _flux_cube(u2, np.asarray(theta, dtype=float), np.ones_like(u2),
                    np.zeros_like(u2), K)
    return np.matmul(op[..., None, :, :], coeffs) * grade_mask((K,) * 3, K - 2)


def _closed_flux(cubes, top, u2, theta):
    """Flux on the grades <= M of (M+1)-edge cubes closed by the top-grade
    prediction ``top``: the banded operator, then alpha2 P_alpha added at
    alpha - e2 one top slot at a time."""
    K = cubes.shape[-1]
    u2 = np.asarray(u2, dtype=float)
    op = _flux_cube(u2, np.asarray(theta, dtype=float), np.ones_like(u2),
                    np.zeros_like(u2), K)
    F = np.matmul(op[..., None, :, :], cubes)
    for i, (a1, a2, a3) in enumerate(_top_reads((K,) * 3)[0]):
        F[..., a1, a2 - 1, a3] += a2 * top[..., i]
    return F * grade_mask((K,) * 3, K - 1)


def _evolved(cubes):
    """The solver's (M+1)-edge cubes of (M+2)-edge ones: the grades <= M."""
    K = cubes.shape[-1] - 1
    return cubes[..., :K, :K, :K] * grade_mask((K,) * 3, K - 1)


def _top(cubes):
    """The top grade of (M+2)-edge cubes, in the closure's (..., T) order."""
    a1, a2, a3 = _top_reads((cubes.shape[-1] - 1,) * 3)[0].T
    return cubes[..., a1, a2, a3]


def _hll(a, b, *args):
    """The solver's HLL flux on the grades <= M, into a new array."""
    K = a.shape[-1]
    F = _hll_combine(a, b, *args, out=np.empty((2,) + a.shape))
    return F * grade_mask((K,) * 3, K - 1)


def _hll_calls(monkeypatch):
    """Record (a, b, top, u2, theta, lam_l, lam_r, result) of every HLL flux
    the solver takes; copies, as the solver reuses the arrays on its next
    call."""
    calls = []

    def spy(*args, **kwargs):
        out = _hll_combine(*args, **kwargs)
        calls.append(tuple(np.copy(x) for x in args + (out,)))
        return out

    monkeypatch.setattr(solver1d, "_hll_combine", spy)
    return calls


# ---------------------------------------------------------------------------
# grid container


def test_grid_geometry():
    g = _uniform_grid(n=10)
    assert g.n == 10
    assert g.M == 3
    assert g.coeffs.shape == (10, 4, 4, 4)
    assert g.total_mass() == pytest.approx(1.0)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D.from_fields(0.5, -0.5, np.ones(4), np.zeros(3), 1.0, 3)
    with pytest.raises(ValueError):
        Grid1D.from_fields(-0.5, 0.5, np.ones(4), np.zeros(3), -1.0, 3)
    with pytest.raises(ValueError):
        Grid1D.from_fields(-0.5, 0.5, np.zeros(4), np.zeros(3), 1.0, 3)
    with pytest.raises(ValueError):   # M = 2
        Grid1D(-0.5, 0.5, np.zeros((4, 3)), np.ones(4), _uniform_grid(4).coeffs[:, :3, :3, :3])
    with pytest.raises(ValueError):
        Grid1D(-0.5, 0.5, np.zeros((3, 3)), np.ones(4), _uniform_grid(4).coeffs)


def test_grid_rejects_nan_density_and_temperature():
    rho = np.ones(4)
    rho[2] = np.nan
    with pytest.raises(ValueError, match="density.*cell 2"):
        Grid1D.from_fields(-0.5, 0.5, rho, np.zeros(3), 1.0, 3)
    theta = np.ones(4)
    theta[1] = np.nan
    with pytest.raises(ValueError, match="temperature.*cell 1"):
        Grid1D.from_fields(-0.5, 0.5, np.ones(4), np.zeros(3), theta, 3)


NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: RunConfig(M=3, kn=NAN, t_end=1.0),
        lambda: RunOptions(kn=-1.0, t_end=1.0),
        lambda: RunOptions(kn=NAN, t_end=1.0),
        lambda: RunOptions(kn=0.1, pr=NAN, t_end=1.0),
        lambda: RunOptions(kn=0.1, pr=1.5, t_end=1.0),
        lambda: WallSpec(theta_wall=NAN),
        lambda: Grid1D.from_fields(0.0, NAN, np.ones(4), np.zeros(3), 1.0, 3),
        lambda: Grid1D.from_fields(NAN, 1.0, np.ones(4), np.zeros(3), 1.0, 3),
        lambda: Grid1D.from_fields(0.0, 1.0, np.ones(4), np.zeros(3), NAN, 3),
        lambda: Grid1D.from_fields(0.0, 1.0, np.full(4, NAN), np.zeros(3), 1.0, 3),
        # the axes run from -half_width to half_width
        lambda: DvGrid(NAN, (8, 8, 8)),
        lambda: DvGrid(-NAN, (8, 8, 8)),
    ],
    ids=[
        "RunConfig-kn-nan", "DvRunConfig-kn-negative", "DvRunConfig-kn-nan",
        "DvRunConfig-pr-nan", "DvRunConfig-pr-above-one", "WallSpec-theta-nan",
        "Grid1D-hi-nan", "Grid1D-lo-nan", "maxwellian-theta-nan", "maxwellian-rho-nan", "DvGrid-hi-nan",
        "DvGrid-lo-nan",
    ],
)
def test_constructors_reject_nan_and_nonpositive_input(build):
    with pytest.raises(ValueError):
        build()


def test_grid_totals_at_equilibrium():
    g = Grid1D.from_fields(-0.5, 0.5, np.full(8, 2.0), np.array([0.3, 0.0, -0.1]), 1.5, 3)
    assert g.total_mass() == pytest.approx(2.0)
    np.testing.assert_allclose(g.total_momentum(), [0.6, 0.0, -0.2], atol=1e-15)
    want_e = 0.5 * 2.0 * (0.3**2 + 0.1**2) + 1.5 * 2.0 * 1.5
    assert g.total_energy() == pytest.approx(want_e, rel=1e-13)


def test_runconfig_validation():
    for kw in (
        dict(M=2),
        dict(cfl=0.0),
        dict(cfl=1.01),
        dict(kn=0.0),
        dict(pr=0.0),
        dict(pr=1.2),
    ):
        with pytest.raises(ValueError):
            _couette_config(**kw)
    with pytest.raises(ValueError):
        RunConfig(M=3, kn=0.1)  # neither end time nor steady tolerance


@pytest.mark.parametrize("force", [[0.2, 0.0], [NAN, 0.0, 0.0],
                                   [0.0, 0.0, np.inf]])
def test_runconfig_rejects_bad_force(force):
    with pytest.raises(ValueError, match="force"):
        _couette_config(force=force)


def test_signal_speed_constant():
    cfg = _couette_config(M=3)
    assert cfg.signal_speed == pytest.approx(1.2 * largest_he_root(4), rel=1e-14)


# ---------------------------------------------------------------------------
# fluxes


def test_flux_of_equilibrium():
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    F = _flux(s.coeffs, s.u[1], s.theta)
    assert F[0, 0, 0] == 0.0          # no mass flux at rest
    assert F[0, 1, 0] == pytest.approx(1.0)   # pressure flux theta * rho
    assert F[1, 0, 0] == 0.0
    assert F[0, 2, 0] == 0.0


def test_flux_of_zero_cube():
    Z = _flux(np.zeros((6, 6, 6)), np.asarray(0.3), np.asarray(1.2))
    assert np.all(Z == 0.0)


def test_flux_matches_quadrature():
    rng = np.random.default_rng(3)
    u, theta, f = oracles.random_admissible(rng, 4)
    s = oracles.State(u, theta, cube_from_dict(4, f))
    F = _flux(s.coeffs, s.u[1], s.theta)
    want = oracles.flux_reference(s.coeffs, s.u[1], s.theta)
    np.testing.assert_allclose(F, want, rtol=0, atol=1e-15 * np.abs(want).max())

    def func(xi):
        return xi[:, 1] * s.evaluate(xi)

    for alpha in [(0, 0, 0), (0, 1, 0), (1, 0, 0), (0, 2, 0), (1, 1, 1),
                  (0, 0, 3), (2, 2, 0)]:
        want = oracles.hermite_coeff_quadrature(func, alpha, u, theta)
        assert F[alpha] == pytest.approx(want, rel=2e-8, abs=1e-10)


def test_hll_consistency(monkeypatch):
    # identical states on both sides of every interface: the solver's HLL
    # flux is the physical flux of that state (in its own frame, since the
    # common frame of two equal states is theirs), with the top grade
    # supplied by the closure -- zero here, as no gradient is present
    rng = np.random.default_rng(5)
    u, theta, f = oracles.random_admissible(rng, 3)
    s = oracles.State(u, theta, cube_from_dict(3, f))
    g = Grid1D(-0.5, 0.5, np.tile(u, (3, 1)), np.full(3, theta),
               np.tile(_evolved(s.coeffs), (3, 1, 1, 1)))
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0)
    calls = _hll_calls(monkeypatch)
    rate = _transport_rate(g, cfg, 0.01, np.empty_like(g.coeffs))
    top = order_cube((5,) * 3) == 4
    want = _flux(np.where(top, 0.0, s.coeffs), s.u[1], s.theta)
    ((top, F),) = [(c[2], c[-1]) for c in calls]
    assert F.shape == (4, 4, 4, 4)
    np.testing.assert_array_equal(top, 0.0)
    for Fi in F:
        np.testing.assert_allclose(Fi * grade_mask((4,) * 3, 3), _evolved(want),
                                   rtol=1e-13, atol=1e-16)
    assert np.max(np.abs(rate)) <= 1e-13


def test_hll_upwind_limit_ignores_right_state():
    # both signal bounds positive: the flux is the left flux, whatever the
    # right state; both negative: the right flux, whatever the left state --
    # exactly, bit for bit
    rng = np.random.default_rng(6)
    a, b = rng.standard_normal((2, 2, 5, 5, 5)) * grade_mask((5,) * 3, 4)
    top = rng.standard_normal((2, len(_top_reads((5,) * 3)[0])))
    u2, theta = np.array([0.3, -0.4]), np.array([1.1, 0.7])
    lam_l = np.array([0.5, -3.0])
    lam_r = np.array([4.0, -0.2])
    out = _hll(a, b, top, u2, theta, lam_l, lam_r)
    np.testing.assert_array_equal(out[0], _closed_flux(a[0], top[0], u2[0], theta[0]))
    np.testing.assert_array_equal(out[1], _closed_flux(b[1], top[1], u2[1], theta[1]))
    out2 = _hll(a, -b, top, u2, theta, lam_l, lam_r)
    np.testing.assert_array_equal(out2[0], out[0])
    out3 = _hll(2.0 * a, b, top, u2, theta, lam_l, lam_r)
    np.testing.assert_array_equal(out3[1], out[1])


def _hll_case(rng, M, m, speeds):
    """m interface pairs of (M+2)-edge admissible states sharing their top
    grade, as one closure prediction makes them, with signal speeds: all
    subsonic, lam_l < 0 < lam_r, except that "mixed" makes the first three
    interfaces supersonic to the right and the last three to the left, and
    "positive" / "negative" make all of them supersonic."""
    a, b = np.empty((2, m, M + 2, M + 2, M + 2))
    for x in (a, b):
        for i in range(m):
            x[i] = cube_from_dict(M, oracles.random_admissible(rng, M, scale=0.3)[2])
    top = order_cube((M + 2,) * 3) == M + 1
    b[:, top] = a[:, top]
    u2 = rng.uniform(-0.5, 0.5, m)
    theta = rng.uniform(0.6, 1.6, m)
    lam_l = rng.uniform(-2.0, -0.1, m)
    lam_r = rng.uniform(0.1, 2.0, m)
    shift = np.zeros(m)
    if speeds in ("mixed", "positive"):
        shift[: 3 if speeds == "mixed" else m] = 2.5
    if speeds in ("mixed", "negative"):
        shift[-3 if speeds == "mixed" else 0:] = -2.5
    return a, b, u2, theta, lam_l + shift, lam_r + shift


@pytest.mark.parametrize("speeds", ["mixed", "positive", "negative"])
def test_hll_fused_flux_matches_two_flux_form(speeds):
    # the two banded operators on the two traces equal the textbook
    # combination of the traces' slot-wise fluxes on the grades < M, which
    # the top grade does not reach
    M = 6
    a, b, *rest = _hll_case(np.random.default_rng(11), M, 9, speeds)
    a, b = _evolved(a), _evolved(b)
    want = oracles.hll_reference(a, b, *rest)
    top = np.zeros((9, len(_top_reads((M + 1,) * 3)[0])))
    got = _hll(a, b, top, *rest) * grade_mask((M + 1,) * 3, M - 1)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("M", [3, 6, 10])
@pytest.mark.parametrize("speeds", ["mixed", "positive", "negative"])
def test_hll_closure_flux_term(M, speeds):
    # the HLL flux of the (M+1)-edge traces with the closure flux term
    # alpha2 P_alpha added at alpha - e2 is the textbook HLL flux of the
    # (M+2)-edge traces whose top grade is P, on every evolved grade
    a, b, *rest = _hll_case(np.random.default_rng(M), M, 9, speeds)
    want = oracles.hll_reference(a, b, *rest)
    got = _hll(_evolved(a), _evolved(b), _top(a), *rest)
    tol = 1e-14 * np.max(np.abs(want))
    np.testing.assert_allclose(got, _evolved(want), rtol=0, atol=tol)
    # without the term the comparison fails by far
    without = _hll(_evolved(a), _evolved(b), 0.0 * _top(a), *rest)
    assert np.max(np.abs(without - _evolved(want))) > 1e3 * tol


def test_supersonic_flow_is_upwinded(monkeypatch):
    # u2 = 5 > c sqrt(theta) in every cell: the solver's signal speeds are
    # both positive at every interface and the flux is the left-trace flux
    g = Grid1D.from_fields(
        -0.5, 0.5, np.array([1.0, 0.8, 0.6]), np.array([0.0, 5.0, 0.0]), 0.5, 3
    )
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0)
    assert 5.0 > cfg.signal_speed * math.sqrt(0.5)
    calls = _hll_calls(monkeypatch)
    _transport_rate(g, cfg, 0.01, np.empty_like(g.coeffs))
    ((a, b, top, u2, theta, lam_l, lam_r, F),) = calls
    assert np.all(lam_l > 0) and np.all(lam_r > lam_l)
    np.testing.assert_array_equal(F * grade_mask((4,) * 3, 3),
                                  _closed_flux(a, top, u2, theta))


def test_hll_mirror_interface_has_no_mass_flux(monkeypatch):
    # resting walls: the outer state is the trace-built ghost (the trace's
    # mirror image for a specular wall), so the mass component of the HLL
    # flux cancels identically at both wall interfaces, for states moving
    # towards or away from the wall
    rng = np.random.default_rng(7)
    cubes, us, ths = [], [], []
    for j in range(3):
        u, theta, f = oracles.random_admissible(rng, 4)
        u[1] = 0.17 * (1 - j)
        cubes.append(_evolved(cube_from_dict(4, f)))
        us.append(u)
        ths.append(theta)
    g = Grid1D(-0.5, 0.5, np.array(us), np.array(ths), np.array(cubes))
    calls = _hll_calls(monkeypatch)
    for chi in (0.0, 0.6, 1.0):
        cfg = RunConfig(
            M=4, kn=0.1, t_end=1.0,
            left=WallSpec(chi, np.zeros(3), 1.0),
            right=WallSpec(chi, np.zeros(3), 1.0),
        )
        _transport_rate(g, cfg, 0.01, np.empty_like(g.coeffs))
        F = calls[-1][-1]
        assert abs(F[0, 0, 0, 0]) <= 1e-15
        assert abs(F[-1, 0, 0, 0]) <= 1e-15
        assert np.min(np.abs(F[1:-1, 0, 0, 0])) > 1e-3  # the interior carries mass


# ---------------------------------------------------------------------------
# time step


def test_cfl_formula():
    g = _uniform_grid(n=10)
    c = 2.5
    assert cfl_timestep(g, 0.95, c) == pytest.approx(0.95 * g.dx / c, rel=1e-14)


def test_cfl_scales_with_sqrt_theta():
    a = _uniform_grid(theta=1.0)
    b = _uniform_grid(theta=2.0)
    r = cfl_timestep(a, 0.95, 2.0) / cfl_timestep(b, 0.95, 2.0)
    assert r == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_cfl_governed_by_hottest_cell():
    g = _uniform_grid(n=6)
    g.theta[3] = 4.0
    assert cfl_timestep(g, 0.95, 2.0) == pytest.approx(0.95 * g.dx / 4.0, rel=1e-14)


# ---------------------------------------------------------------------------
# reconstruction


def test_reconstruct_uniform_field():
    g = _uniform_grid(n=8, rho=1.3, theta=0.8)
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0)
    (t_u, t_th, t_c), _ = _interface_data(g, cfg)
    assert t_c.shape == (2, 9, 4, 4, 4)
    np.testing.assert_allclose(t_c[:, :, 0, 0, 0], 1.3, rtol=1e-14)
    np.testing.assert_array_equal(t_c[0], t_c[1])
    np.testing.assert_array_equal(t_th[0], t_th[1])
    np.testing.assert_array_equal(t_u[0], t_u[1])


def test_reconstruct_linear_ramp_exact():
    n = 10
    g = _uniform_grid(n=n)
    y = g.centers
    g.coeffs[:, 0, 0, 0] = 1.0 + 0.1 * y
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0, limiter="central")
    (_, _, (tl_c, tr_c)), _ = _interface_data(g, cfg)
    edges = g.y_lo + g.dx * np.arange(n + 1)
    # end cells see a zero-gradient ghost and flatten; interior is exact
    for i in range(2, n - 1):
        want = 1.0 + 0.1 * edges[i]
        assert tl_c[i, 0, 0, 0] == pytest.approx(want, rel=1e-14)
        assert tr_c[i, 0, 0, 0] == pytest.approx(want, rel=1e-14)


def test_reconstruct_minmod_no_new_extrema():
    n = 8
    g = _uniform_grid(n=n)
    g.coeffs[:4, 0, 0, 0] = 1.0
    g.coeffs[4:, 0, 0, 0] = 2.0
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0, limiter="minmod")
    (_, _, (tl_c, tr_c)), _ = _interface_data(g, cfg)
    for rho in (tl_c[:, 0, 0, 0], tr_c[:, 0, 0, 0]):
        assert np.all(rho >= 1.0 - 1e-14) and np.all(rho <= 2.0 + 1e-14)


# ---------------------------------------------------------------------------
# stepping


def test_step_equilibrium_fixed_point():
    g = _uniform_grid(n=12, rho=1.3, theta=0.9)
    cfg = RunConfig(
        M=3,
        kn=0.2,
        t_end=1e9,
        left=WallSpec(0.7, np.zeros(3), 0.9),
        right=WallSpec(1.0, np.zeros(3), 0.9),
    )
    c0 = g.coeffs.copy()
    for _ in range(5):
        step(g, cfg)
    assert np.max(np.abs(g.coeffs - c0)) <= 1e-12
    assert np.max(np.abs(g.u)) <= 1e-12
    np.testing.assert_allclose(g.theta, 0.9, atol=1e-12)


def test_step_rejects_mismatched_order():
    g = _uniform_grid(M=4)
    with pytest.raises(ValueError):
        step(g, _couette_config(M=3))


def test_force_only_acceleration_is_exact():
    # the collision leaves a uniform Maxwellian as it is
    g = _uniform_grid(n=6)
    cfg = RunConfig(
        M=3,
        kn=0.1,
        t_end=1e9,
        force=np.array([0.4, 0.0, 0.0]),
    )
    dt = step(g, cfg)
    np.testing.assert_allclose(g.u[:, 0], 0.4 * dt, rtol=1e-14)
    assert np.max(np.abs(g.u[:, 1:])) <= 1e-14
    assert np.max(np.abs(g.coeffs - _uniform_grid(n=6).coeffs)) <= 1e-13


def test_step_returns_cfl_dt():
    g = _uniform_grid()
    cfg = _couette_config()
    want = cfl_timestep(g, cfg.cfl, cfg.signal_speed)
    assert step(g, cfg) == pytest.approx(want, rel=1e-14)


def test_couette_mass_conservation():
    g = _uniform_grid(n=24)
    cfg = _couette_config()
    m0 = g.total_mass()
    for _ in range(200):
        step(g, cfg)
    assert abs(g.total_mass() - m0) <= 1e-12 * m0


def test_specular_walls_conserve_tangential_momentum():
    g = _uniform_grid(n=16)
    g.u[:, 0] = 0.2 * np.sin(2 * math.pi * g.centers)
    cfg = RunConfig(
        M=3,
        kn=0.1,
        t_end=1e9,
        left=WallSpec(0.0, np.zeros(3), 1.0),
        right=WallSpec(0.0, np.zeros(3), 1.0),
    )
    p0 = g.total_momentum()
    for _ in range(60):
        step(g, cfg)
    p1 = g.total_momentum()
    assert abs(p1[0] - p0[0]) <= 1e-12
    assert abs(p1[2] - p0[2]) <= 1e-12
    assert abs(g.total_mass() - 1.0) <= 1e-12


def test_force_momentum_bookkeeping():
    # per step the x-momentum grows by sum(rho) * F1 * dt * dx; transport and
    # collision leave it unchanged (specular walls exert no shear)
    g = _uniform_grid(n=16)
    cfg = RunConfig(
        M=3,
        kn=0.1,
        t_end=1e9,
        force=np.array([0.3, 0.0, 0.0]),
        left=WallSpec(0.0, np.zeros(3), 1.0),
        right=WallSpec(0.0, np.zeros(3), 1.0),
    )
    for _ in range(20):
        p0 = g.total_momentum()[0]
        dt = step(g, cfg)
        kick = np.sum(g.coeffs[:, 0, 0, 0]) * 0.3 * dt * g.dx
        assert g.total_momentum()[0] - p0 == pytest.approx(kick, abs=1e-13)


def test_positivity_guard_reports_failure():
    g = Grid1D.from_fields(
        -0.5, 0.5, np.ones(2), np.array([[0.0, -5.0, 0.0], [0.0, 5.0, 0.0]]), 1.0, 3
    )
    cfg = RunConfig(M=3, kn=0.1, t_end=1e9)
    # found in the first transport stage, before the collision
    with pytest.raises(RuntimeError, match="non-positive"):
        step(g, cfg, dt=1.0)


def test_couette_symmetry_preserved():
    g = _uniform_grid(n=20)
    cfg = _couette_config()
    for _ in range(150):
        step(g, cfg)
    rho = g.coeffs[:, 0, 0, 0]
    assert np.max(np.abs(rho - rho[::-1])) <= 1e-10
    assert np.max(np.abs(g.u[:, 0] + g.u[::-1, 0])) <= 1e-10
    assert np.max(np.abs(g.theta - g.theta[::-1])) <= 1e-10


# unequal walls, so that no mirror maps the problem onto itself
_MIRROR_WALLS = (WallSpec(0.7, np.array([-0.3, 0.0, 0.1]), 1.3),
                 WallSpec(1.0, np.array([0.5, 0.0, -0.2]), 0.9))


def _mirror_start(M, n=16):
    """A non-uniform start, with u2 != 0 and the third-order slots (2, 1, 0),
    (0, 3, 0) and (1, 2, 1) set."""
    y = -0.5 + (np.arange(n) + 0.5) / n
    u = np.stack([0.2 * np.cos(3.0 * y), 0.1 + 0.15 * np.sin(5.0 * y),
                  -0.1 * y], axis=-1)
    g = Grid1D.from_fields(-0.5, 0.5, 1.0 + 0.2 * np.sin(2.0 * y + 0.3), u,
                           1.0 + 0.15 * np.cos(4.0 * y), M)
    g.coeffs[:, 2, 1, 0] = 0.02 * np.sin(7.0 * y)
    g.coeffs[:, 0, 3, 0] = 0.03 * np.cos(2.0 * y)
    g.coeffs[:, 1, 2, 1] = 0.01 * (1.0 + y)
    return g


def _mirrored(grid, config, d):
    """The grid and config reflected by xi_d -> -xi_d: coefficients times
    (-1)^{a_d}, and u_d, the walls' u_d and force_d negated.  The wall
    normal d = 1 also reflects y, which reverses the cells and swaps the
    walls."""
    flip = np.ones(3)
    flip[d] = -1.0
    parity = np.where(np.arange(grid.M + 1) % 2, -1.0, 1.0)
    shape = [1, 1, 1, 1]
    shape[d + 1] = -1
    cells = slice(None, None, -1 if d == 1 else 1)
    walls = [WallSpec(w.chi, w.u_wall * flip, w.theta_wall)
             for w in (config.left, config.right)][cells]
    mirrored = Grid1D(grid.y_lo, grid.y_hi, (grid.u * flip)[cells],
                      grid.theta[cells],
                      (grid.coeffs * parity.reshape(shape))[cells])
    return mirrored, dataclasses.replace(config, left=walls[0], right=walls[1],
                                         force=config.force * flip)


@pytest.mark.parametrize("M, limiter", [(3, "central"), (6, "minmod"),
                                        (9, "none")])
def test_mirrored_run_is_the_mirror_of_the_run(M, limiter):
    # the slab problem is invariant under y -> -y (the wall side enters the
    # wall map as the caller's sign), xi_1 -> -xi_1 and xi_3 -> -xi_3: a run
    # of the mirrored start is the mirror of the run, to the last bit
    start = _mirror_start(M)
    left, right = _MIRROR_WALLS
    for d in (0, 1, 2):
        force = np.zeros(3) if d == 1 else np.array([0.1, 0.0, 0.05])
        cfg = RunConfig(M=M, kn=0.2, t_end=0.3, limiter=limiter, left=left,
                        right=right, force=force)
        g = copy.deepcopy(start)
        run(g, cfg)
        got, cfg_m = _mirrored(start, cfg, d)
        run(got, cfg_m)
        want = _mirrored(g, cfg, d)[0]
        assert np.abs(want.coeffs[:, 2, 1, 0]).max() > 1e-3
        np.testing.assert_array_equal(got.u, want.u)
        np.testing.assert_array_equal(got.theta, want.theta)
        np.testing.assert_array_equal(got.coeffs, want.coeffs)


def test_step_variants_stay_conservative():
    # minmod keeps the exact telescoping, including the wall-flux
    # cancellation
    g = _uniform_grid(n=16)
    cfg = _couette_config(limiter="minmod")
    for _ in range(60):
        step(g, cfg)
    assert abs(g.total_mass() - 1.0) <= 1e-12
    assert np.all(np.isfinite(g.coeffs))
    assert np.all(g.theta > 0)


def test_warm_step_peak_temporary_memory():
    # the shock preset at M = 10 on 40 cells, as in the benchmark's shock
    # workload: a warm step keeps its full-cube work arrays, the
    # renormalized stage among them, from the steps before, so its new
    # allocations are the returned state and a few transients, not one
    # cube per intermediate (measured 2.07 cubes; 3.07 with a fresh stage)
    sc = scenarios.preset("shock", M=10, cells=40)
    g = scenarios.build_grid(sc)
    cfg = scenarios.to_run_config(sc)
    for _ in range(2):
        step(g, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(g, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 3 * g.coeffs.nbytes


@pytest.mark.parametrize("scenario", ["shock", "couette"])
def test_interleaved_grids_step_as_if_alone(scenario):
    # two grids of one shape share the step's work arrays; stepping them in
    # turn must give, bit for bit, what stepping each one alone gives, and
    # no array a step returns or leaves in a grid may be a work array
    sc = scenarios.preset(scenario, M=5, cells=12)
    cfg = scenarios.to_run_config(sc)
    a, b = scenarios.build_grid(sc), scenarios.build_grid(sc)
    b.coeffs[:, 0, 0, 0] *= 1.0 + 0.2 * np.sin(np.arange(b.n))
    b.u[:, 1] += 0.1
    alone = []
    for g in (a, b):
        g = Grid1D(g.y_lo, g.y_hi, g.u, g.theta, g.coeffs)
        for _ in range(6):
            step(g, cfg)
        alone.append((g.u, g.theta, g.coeffs))
    kept = []
    for _ in range(6):
        for g in (a, b):
            step(g, cfg)
            kept.append((g.coeffs, g.coeffs.copy()))
    for g, want in zip((a, b), alone):
        np.testing.assert_array_equal(g.u, want[0])
        np.testing.assert_array_equal(g.theta, want[1])
        np.testing.assert_array_equal(g.coeffs, want[2])
    for coeffs, snapshot in kept:
        np.testing.assert_array_equal(coeffs, snapshot)


# ---------------------------------------------------------------------------
# even-only layout along a1 / a3


def _full_grid(sc):
    """The grid of ``scenarios.build_grid(sc)`` with every axis full."""
    return Grid1D.from_fields(sc.y_lo, sc.y_hi, np.full(sc.cells, sc.rho0),
                              sc.u0, sc.theta0, sc.M)


@pytest.mark.parametrize("scenario, M, reduced, overrides", [
    ("shock", 6, (0, 2), dict(cells=16, t_end=0.2)),
    ("couette", 3, (2,), dict(cells=12, t_end=0.15, steady_tol=None)),
    ("couette", 6, (2,), dict(cells=12, t_end=0.1, steady_tol=None,
                              limiter="minmod", chi=0.6)),
    ("poiseuille", 5, (2,), dict(cells=12, t_end=0.1, steady_tol=None)),
])
def test_reduced_run_matches_full_run(scenario, M, reduced, overrides):
    # the even-only layout drops only slots that stay zero, so a reduced
    # and a full run give one table up to round-off; a column odd in a
    # reduced a_d (u_d, and with d = 1 sigma12 and q1) is exactly 0.0
    sc = scenarios.preset(scenario, M=M, **overrides)
    small, full = scenarios.build_grid(sc), _full_grid(sc)
    K, h = M + 1, (M + 2) // 2
    assert small.coeffs.shape == (sc.cells,) + tuple(
        h if d in reduced else K for d in range(3))
    assert full.coeffs.shape == (sc.cells, K, K, K)
    cfg = scenarios.to_run_config(sc)
    got, want = (run(g, cfg).snapshots[-1][1] for g in (small, full))
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)
    odd = ["u%d" % (d + 1) for d in reduced]
    if 0 in reduced:
        odd += ["sigma12", "q1"]
    for col in odd:
        assert np.all(got[:, SNAPSHOT_COLUMNS.index(col)] == 0.0), col
    assert abs(small.total_mass() - full.total_mass()) <= 1e-13


@pytest.mark.parametrize("scenario, overrides, edges", [
    ("couette", dict(u_wall_right=(COUETTE_WALL_SPEED, 0.0, 0.1)), (5, 5)),
    ("couette", dict(u_wall_left=(0.0, 0.0, -0.2)), (5, 5)),
    ("poiseuille", dict(force=(0.2555, 0.0, 0.1)), (5, 5)),
    ("shock", dict(u0=(0.1, 0.5, 0.0)), (5, 3)),
    ("shock", dict(force=(0.0, 0.0, 0.3)), (3, 5)),
])
def test_symmetry_breaking_configs_keep_the_full_axis(scenario, overrides,
                                                      edges):
    # edges: the (a1, a3) lengths at M = 4; the a2 axis is always full
    sc = scenarios.preset(scenario, M=4, cells=6, **overrides)
    n1, K, n3 = scenarios.build_grid(sc).coeffs.shape[1:]
    assert (n1, n3) == edges and K == 5


@pytest.mark.parametrize("scenario, overrides, name", [
    ("couette", dict(u_wall_right=(COUETTE_WALL_SPEED, 0.0, 0.1)),
     "u_wall_right[2]"),
    ("poiseuille", dict(force=(0.2555, 0.0, 0.1)), "force[2]"),
    ("shock", dict(force=(0.2, 0.0, 0.0)), "force[0]"),
    ("shock", dict(u_wall_right=(0.0, 0.0, 0.3)), "u_wall_right[2]"),
])
def test_step_rejects_a_config_that_breaks_a_reduced_grid(scenario, overrides,
                                                          name):
    sc = scenarios.preset(scenario, M=4, cells=6)
    grid = scenarios.build_grid(sc)
    before = grid.coeffs.copy()
    cfg = scenarios.to_run_config(dataclasses.replace(sc, **overrides))
    with pytest.raises(ValueError, match=re.escape(name) + " is nonzero"):
        step(grid, cfg)
    np.testing.assert_array_equal(grid.coeffs, before)
    # the full grid runs that config
    step(_full_grid(sc), cfg)


# ---------------------------------------------------------------------------
# non-finite states fail loudly


@pytest.mark.parametrize("scenario", ["shock", "couette"])
def test_run_fails_loudly_on_nan_coefficient(scenario):
    sc = scenarios.preset(scenario, M=3, cells=20)
    g = scenarios.build_grid(sc)
    g.coeffs[5, 0, 2, 0] = np.nan
    msg = r"non-finite density \(nan\) at interface \d+ in the closure"
    with pytest.raises(RuntimeError, match=msg):
        run(g, scenarios.to_run_config(sc))


def test_cfl_timestep_rejects_nan_temperature():
    g = _uniform_grid(n=6)
    g.theta[3] = np.nan
    with pytest.raises(RuntimeError, match="cell 3 in the time-step choice"):
        cfl_timestep(g, 0.95, 2.0)


def test_reconstruction_rejects_nan_temperature():
    g = _uniform_grid(n=6)
    g.theta[4] = np.nan
    cfg = RunConfig(M=3, kn=0.1, t_end=1.0, limiter="none")
    with pytest.raises(RuntimeError, match="temperature .* cell 4 in reconstruction"):
        _interface_data(g, cfg)


def test_stage_state_names_cell_and_phase():
    g = _uniform_grid(n=6)
    c = g.coeffs.copy()
    c[2, 0, 0, 0] = np.nan
    with pytest.raises(RuntimeError, match="density .* cell 2 after transport stage 1"):
        _stage_state(g, c, "transport stage 1")


# ---------------------------------------------------------------------------
# the driver


def test_run_reaches_end_time_exactly():
    g = _uniform_grid(n=10)
    cfg = _couette_config(t_end=0.05)
    res = run(g, cfg)
    assert res.t == pytest.approx(0.05, abs=1e-13)
    assert res.message == "reached end time"
    assert res.steps == len(res.dt_history)
    # no steady tolerance, so no residual check
    assert len(res.residual_history) == 0


def test_run_detects_steady_state():
    g = _uniform_grid(n=12)
    cfg = _couette_config(M=3, t_end=None, steady_tol=5e-3, max_steps=20000)
    res = run(g, cfg)
    assert res.converged
    assert res.message == "steady state reached"
    assert res.residual_history[-1] < 5e-3
    assert np.all(res.residual_history[:-1] >= 5e-3)


@pytest.mark.parametrize("scenario", ["couette", "poiseuille"])
@pytest.mark.parametrize("M", [3, 5])
def test_steady_run_mixes_to_the_plain_march_fixed_point(scenario, M):
    # a pure steady run mixes; with t_end set the same tolerance marches
    # plainly, to the same fixed point and with the same mass
    sc = scenarios.preset(scenario, M=M, cells=8, steady_tol=1e-9)
    cfg = scenarios.to_run_config(sc)
    runs = []
    for c in (cfg, dataclasses.replace(cfg, t_end=1e9)):
        g = scenarios.build_grid(sc)
        mass0 = g.total_mass()
        res = run(g, c)
        assert res.converged and res.message == "steady state reached"
        assert abs(g.total_mass() - mass0) <= 1e-13 * mass0
        runs.append((res, res.snapshots[-1][1]))
    (mixed, table), (plain, want) = runs
    assert mixed.restarts == plain.restarts == 0
    assert 3 * mixed.steps <= plain.steps
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(table - want) <= 1e-8 * scale)


def test_steady_couette_on_40_cells_mixes_past_its_slow_modes():
    # the slow smooth modes of 40 cells need a window wider than 30: the
    # preset's tolerance took 490 steps at window 30
    sc = scenarios.preset("couette", M=3, cells=40)
    tables = []
    for tol in (sc.steady_tol, 1e-9):
        g = scenarios.build_grid(sc)
        mass0 = g.total_mass()
        res = run(g, scenarios.to_run_config(dataclasses.replace(sc, steady_tol=tol)))
        assert res.converged and res.restarts == 0
        assert abs(g.total_mass() - mass0) <= 1e-13 * mass0
        if tol == sc.steady_tol:
            assert res.steps <= 250
        tables.append(res.snapshots[-1][1])
    table, want = tables
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(table - want) <= 1e-6 * scale)


@pytest.mark.parametrize("scenario, M", [("couette", 3), ("couette", 5),
                                         ("poiseuille", 5)])
def test_step_spectrum_keeps_mass_and_a_dt_free_slow_mode(scenario, M):
    # linearized about the steady state: the walls keep mass alone, so one
    # eigenvalue sits on the unit circle and none outside it; the slowest
    # decaying mode is physical, so its rate per unit time does not move
    # with the time step
    rates = []
    for cfl in (0.95, 0.475):
        sc = scenarios.preset(scenario, M=M, cells=6, cfl=cfl, steady_tol=1e-10)
        g = scenarios.build_grid(sc)
        cfg = scenarios.to_run_config(sc)
        assert run(g, cfg).converged
        lam, _, dt = oracles.step_spectrum(g, cfg)
        mod = np.sort(np.abs(lam))[::-1]
        assert np.all(mod <= 1.0 + 1e-8)
        assert np.sum(np.abs(mod - 1.0) <= 1e-8) == 1
        rates.append(-math.log(mod[1]) / dt)
    assert rates[1] == pytest.approx(rates[0], rel=0.05)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the step's odd-even mode decays 2.7 per unit time "
                          "at CFL 0.95 and 46 at 0.475 (ROADMAP item 3)")
def test_odd_even_mode_decays_no_slower_at_the_larger_cfl():
    # linearized about the steady Couette state, the mode of largest Nyquist
    # share must not decay slower per unit time as dt grows.  8 cells is the
    # fewest on which the defect shows whole: at CFL 0.95 that mode is
    # nearly undamped, |lambda| 0.895 a step against 0.385 at 0.475, as on
    # 10 cells; on 4 and 6 cells both decay to about 0.3 a step
    rates = []
    for cfl in (0.95, 0.475):
        sc = scenarios.preset("couette", M=3, cells=8, cfl=cfl, steady_tol=1e-10)
        g = scenarios.build_grid(sc)
        cfg = scenarios.to_run_config(sc)
        if not run(g, cfg).converged:
            pytest.fail("the steady solve did not converge")
        lam, nyquist, dt = oracles.step_spectrum(g, cfg)
        i = np.argmax(nyquist)
        if nyquist[i] < 0.8:
            pytest.fail("no odd-even mode: largest Nyquist share %g" % nyquist[i])
        rates.append(-math.log(abs(lam[i])) / dt)
    assert rates[0] >= rates[1]


@pytest.mark.parametrize("column", [3, 4], ids=["theta", "rho"])
def test_state_vector_round_trip_and_rejects_a_non_positive_state(column):
    sc = scenarios.preset("couette", M=4, cells=5)
    g = scenarios.build_grid(sc)
    cfg = scenarios.to_run_config(sc)
    for _ in range(3):
        step(g, cfg)
    evolved = grade_mask(g.coeffs.shape[1:], 4)
    x = _state_vector(g)
    # per cell u, theta and the 22 grades <= 4 of a (5, 5, 3) cube
    width = 4 + 22
    assert evolved.sum() == 22 and x.shape == (5 * width,)
    rho = g.coeffs[:, 0, 0, 0].copy()
    x[4::width] *= 1.5                   # every density: still a valid state
    assert _put_state_vector(g, x)
    np.testing.assert_array_equal(_state_vector(g), x)
    np.testing.assert_array_equal(g.coeffs[:, 0, 0, 0], 1.5 * rho)
    assert np.all(g.coeffs[:, ~evolved] == 0.0)
    kept = copy.deepcopy(g)
    x[2 * width + column] = -1e-3        # the third cell's theta or rho
    assert not _put_state_vector(g, x)
    for name in ("u", "theta", "coeffs"):
        np.testing.assert_array_equal(getattr(g, name), getattr(kept, name))


def test_run_reports_budget_exhaustion():
    g = _uniform_grid(n=10)
    cfg = _couette_config(t_end=None, steady_tol=1e-14, max_steps=5)
    res = run(g, cfg)
    assert not res.converged
    assert "budget" in res.message
    assert res.steps == 5


def test_run_snapshots_and_observer():
    g = _uniform_grid(n=10)
    cfg = _couette_config(t_end=None, steady_tol=1e-14, max_steps=35)
    seen = []
    res = run(g, cfg, snapshot_interval=10, on_step=lambda t, gr: seen.append(t))
    assert len(seen) == 35
    assert len(res.snapshots) == 3 + 1
    t_last, tab = res.snapshots[-1]
    assert t_last == res.t
    assert tab.shape == (10, 11)
    np.testing.assert_allclose(tab[:, 0], g.centers)
    final = snapshot_table(g.centers, g.u, g.theta, g.coeffs)
    np.testing.assert_array_equal(final, tab)
