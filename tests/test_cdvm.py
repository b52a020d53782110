import copy
import dataclasses
import functools
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from momentflow import cdvm, scenarios
from momentflow.boundary import WallSpec
from momentflow.cdvm import (
    NEGATIVITY_WARN,
    NEWTON_TOL,
    DvField,
    DvGrid,
    DvRunConfig,
    _axis_gaussians,
    _wall_incoming,
    collide_field,
    conservative_gaussian,
    dv_cfl_timestep,
    dv_moments,
    dv_run,
    dv_snapshot_table,
    dv_step,
    transport_field,
)
from momentflow.collision import relaxation_time
from momentflow.march import BLOCK
from momentflow.moments import SNAPSHOT_COLUMNS, work_array
from momentflow.solver1d import RunConfig

import oracles
from test_fingerprint import DV_FLOOR


GRID = DvGrid(8.0, (48, 48, 48))


def _shakhov_perturbed(grid, rho, u, theta, q):
    """Gaussian plus the heat-flux correction shape carrying exactly q."""
    G = grid.maxwellian(rho, np.asarray(u, dtype=float), theta)
    c = [grid.axes[d] - u[d] for d in range(3)]
    ax = (slice(None), None, None)
    ay = (None, slice(None), None)
    az = (None, None, slice(None))
    cq = (q[0] * c[0])[ax] + (q[1] * c[1])[ay] + (q[2] * c[2])[az]
    csq = (c[0] ** 2)[ax] + (c[1] ** 2)[ay] + (c[2] ** 2)[az]
    return G * (1.0 + cq * (csq / theta - 5.0) / (5.0 * rho * theta**2))


# ---------------------------------------------------------------------------
# velocity grid


def test_grid_validation():
    for half_width in (-8.0, 0.0, np.inf):
        with pytest.raises(ValueError, match="half_width"):
            DvGrid(half_width, (16, 16, 16))
    for counts in ((16, 16, 4), (16, 16), (16, 16, 16, 16)):
        with pytest.raises(ValueError, match="three axes of at least 8 nodes"):
            DvGrid(8.0, counts)


def test_scenario_config_checks_the_grid_without_building_it(monkeypatch):
    # the config applies the grid's own check, with its messages, for
    # either solver, but builds no axes or tables
    def no_grid(*args, **kwargs):
        raise AssertionError("a config built a velocity grid")

    monkeypatch.setattr(cdvm, "DvGrid", no_grid)
    for solver in scenarios.SOLVERS:
        scenarios.preset("couette", solver=solver)
        with pytest.raises(ValueError, match="half_width"):
            scenarios.preset("couette", solver=solver, dv_half_width=0.0)
        with pytest.raises(ValueError, match="three axes of at least 8 nodes"):
            scenarios.preset("couette", solver=solver, dv_nodes=(16, 16, 4))


def test_trapezoidal_weights():
    g = DvGrid(8.0, (17, 17, 17))
    h = 1.0
    for w in g.weights:
        assert w[0] == pytest.approx(0.5 * h)
        assert w[-1] == pytest.approx(0.5 * h)
        np.testing.assert_allclose(w[1:-1], h)
        assert np.sum(w) == pytest.approx(16.0, rel=1e-14)


def test_maxwellian_is_the_product_of_the_axis_gaussians():
    # a doubly mirrored grid with odd mirrored axes: the nodal Maxwellian is
    # norm g1 (x) g2 (x) g3 of the k = 0 columns of _axis_gaussians, bit for
    # bit, batched and for one state as the wall emission calls it
    grid = DvGrid(6.0, (13, 12, 15), mirrored=(0, 2))
    rho = np.array([0.8, 1.3])
    u = np.array([[0.0, 0.3, 0.0], [0.0, -0.2, 0.0]])
    theta = np.array([0.9, 1.4])
    g1, g2, g3 = (t[..., 0] for t in _axis_gaussians(grid, u, theta)[0])
    norm = rho * (2.0 * math.pi * theta) ** -1.5
    want = ((norm[:, None] * g1)[:, :, None, None] * g2[:, None, :, None]
            * g3[:, None, None, :])
    assert want.shape == (2, 7, 12, 8)
    assert np.array_equal(grid.maxwellian(rho, u, theta), want)
    one = grid.maxwellian(float(rho[1]), tuple(u[1]), float(theta[1]))
    assert np.array_equal(one, want[1])
    # and the Gaussians are those of the stored nodes
    for g, x, d in ((g1, grid.axes[0], 0), (g2, grid.axes[1], 1),
                    (g3, grid.axes[2], 2)):
        np.testing.assert_allclose(
            g, np.exp(-(x - u[:, d, None]) ** 2 / (2.0 * theta[:, None])),
            rtol=1e-15, atol=0.0)


def test_moments_of_resting_maxwellian():
    f = GRID.maxwellian(1.0, np.zeros(3), 1.0)
    mom = dv_moments(f, GRID)
    assert abs(mom["rho"] - 1.0) <= 1e-6
    assert np.max(np.abs(mom["u"])) <= 1e-6
    assert abs(mom["theta"] - 1.0) <= 1e-6
    assert np.max(np.abs(mom["sigma"])) <= 1e-6
    assert np.max(np.abs(mom["q"])) <= 1e-6


def test_moments_of_shifted_maxwellian():
    u = np.array([0.5, -0.3, 0.2])
    f = GRID.maxwellian(1.4, u, 0.8)
    mom = dv_moments(f, GRID)
    assert abs(mom["rho"] - 1.4) <= 1e-6
    np.testing.assert_allclose(mom["u"], u, atol=1e-6)
    assert abs(mom["theta"] - 0.8) <= 1e-6


def test_moments_of_shakhov_shape():
    q = np.array([0.02, -0.015, 0.007])
    f = _shakhov_perturbed(GRID, 1.2, np.array([0.1, 0.05, -0.1]), 0.9, q)
    mom = dv_moments(f, GRID)
    # the correction carries no mass, momentum or energy, only heat flux
    assert abs(mom["rho"] - 1.2) <= 1e-6
    np.testing.assert_allclose(mom["u"], [0.1, 0.05, -0.1], atol=1e-6)
    assert abs(mom["theta"] - 0.9) <= 1e-6
    np.testing.assert_allclose(mom["q"], q, atol=1e-6)


def test_moments_batched_match_single():
    rho = np.array([1.0, 1.5])
    u = np.array([[0.2, 0.0, 0.0], [0.0, -0.1, 0.3]])
    th = np.array([1.0, 0.7])
    f = GRID.maxwellian(rho, u, th)
    mom = dv_moments(f, GRID)
    for j in range(2):
        single = dv_moments(f[j], GRID)
        assert mom["rho"][j] == single["rho"]
        # summation order differs between the batched and single einsum paths
        np.testing.assert_allclose(mom["u"][j], single["u"], atol=1e-14)
        np.testing.assert_allclose(mom["q"][j], single["q"], atol=1e-14)


# ---------------------------------------------------------------------------
# conservative projection


def _cold(f):
    """The Newton start of cells ``f`` that no collision has seen: zeros."""
    return np.zeros((len(f), 4))


def _gaussian_from(rho_g, u_g, th_g, tables):
    """Assemble nodal Gaussians from batched axis tables, shape (N, n, n, n)."""
    norm = rho_g * (2.0 * math.pi * th_g) ** -1.5
    gs = [t[..., 0] for t in tables]
    return (
        norm[:, None, None, None]
        * gs[0][:, :, None, None]
        * gs[1][:, None, :, None]
        * gs[2][:, None, None, :]
    )


def _raw_moments(grid, f):
    """Quadrature mass, momentum and T0 = <|xi|^2 f> of cells (N, n1, n2, n3)
    by full-cube sums."""
    fw = oracles.w3(grid) * f
    m = np.stack([np.einsum("jxyz,x->j", fw, grid.axes[0]),
                  np.einsum("jxyz,y->j", fw, grid.axes[1]),
                  np.einsum("jxyz,z->j", fw, grid.axes[2])], axis=-1)
    T0 = (np.einsum("jxyz,x->j", fw, grid.axes[0] ** 2)
          + np.einsum("jxyz,y->j", fw, grid.axes[1] ** 2)
          + np.einsum("jxyz,z->j", fw, grid.axes[2] ** 2))
    return fw.sum(axis=(-3, -2, -1)), m, T0


# grid and two-beam cells (0.6 M(u_a, theta_a) + 0.4 M(u_b, theta_b)), one
# per (u_a, theta_a, u_b, theta_b): decidedly non-Gaussian targets
_BEAMS = ((0.4, 0.3, 0.0), 0.7, (-0.5, -0.2, 0.1), 1.3)
NEWTON_CASES = {
    "48-nodes": (GRID, [_BEAMS]),
    "8-nodes": (DvGrid(5.0, (8, 8, 8)), [_BEAMS]),
    "unequal-counts": (DvGrid(6.0, (12, 16, 10)), [_BEAMS]),
    "several-cells": (DvGrid(6.0, (16, 16, 16)), [
        _BEAMS,
        ((0.1, -0.6, 0.2), 1.1, (0.8, 0.4, -0.3), 0.5),
        ((-1.0, 0.0, 0.5), 0.6, (-0.2, 0.9, 0.0), 1.6),
    ]),
    "drifted-hot-near-edge": (DvGrid(8.0, (24, 24, 24)), [
        ((2.5, -1.5, 0.5), 2.0, (3.5, -2.5, 1.0), 3.0),
    ]),
}


@pytest.mark.parametrize("case", sorted(NEWTON_CASES))
def test_conservative_gaussian_hits_targets(case):
    grid, beams = NEWTON_CASES[case]
    f = np.stack([0.6 * grid.maxwellian(1.0, np.array(ua), tha)
                  + 0.4 * grid.maxwellian(1.0, np.array(ub), thb)
                  for ua, tha, ub, thb in beams])
    rho_t, m_t, T0_t = _raw_moments(grid, f)
    mom = dv_moments(f, grid)
    rho_g, u_g, th_g, tables, _ = conservative_gaussian(
        grid, mom["rho"], mom["u"], mom["theta"], np.zeros((len(f), 4))
    )
    rho, m, T0 = _raw_moments(grid, _gaussian_from(rho_g, u_g, th_g, tables))
    np.testing.assert_allclose(rho, rho_t, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(m, m_t, rtol=0.0, atol=1e-12 * np.max(rho_t))
    np.testing.assert_allclose(T0, T0_t, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mean", [(0.0, 12.0, 0.0), (np.nan, 0.0, 0.0)],
                         ids=["beyond-grid", "nan"])
def test_conservative_gaussian_stall_raises(mean):
    # no Gaussian on [-8, 8]^3 has a quadrature mean of 12, and NaN never
    # passes the residual test
    with pytest.raises(RuntimeError, match="did not converge in cell 0 in collision"):
        conservative_gaussian(GRID, np.ones(1), np.array([mean]), np.ones(1),
                              np.zeros((1, 4)))


def test_conservative_gaussian_stall_names_the_cell():
    # cell 0 is reachable, cell 1 is not, from (u, theta) or from a stored
    # correction: the error names cell 1
    u = np.array([(0.1, 0.0, 0.0), (0.0, 12.0, 0.0)])
    for start in (0.0, 1e-3):
        with pytest.raises(RuntimeError, match="in cell 1 in collision"):
            conservative_gaussian(GRID, np.ones(2), u, np.ones(2),
                                  np.full((2, 4), start))


def _couette_before_collision(grid):
    """An 8-cell cdvm Couette field on ``grid`` ("full" or the preset's
    "mirrored" xi_3) after three steps, which store the correction of their
    last collision, and one more transport: what the next collision sees."""
    sc = scenarios.preset("couette", solver="cdvm", cells=8,
                          dv_nodes=(12, 16, 12))
    fld = scenarios.build_dv_field(sc) if grid == "mirrored" else _full_field(sc)
    cfg = scenarios.to_dv_config(sc)
    dt = dv_cfl_timestep(fld, cfg.cfl, cfg.limiter)
    for _ in range(3):
        dv_step(fld, dt, cfg.left, cfg.right, cfg.kn, cfg.pr, cfg.limiter)
    transport_field(fld, dt, cfg.left, cfg.right, cfg.limiter)
    return fld


# Newton starts from a field's stored correction c: none, c itself, a stale
# one (the cells' order reversed, so the sheared u1 changes sign), and c
# 1e-3 off in every component a mirrored axis does not pin to 0.0
_STARTS = {
    "cold": lambda c, free: np.zeros_like(c),
    "warm": lambda c, free: c,
    "other-cells": lambda c, free: c[::-1],
    "off-1e-3": lambda c, free: c + 1e-3 * free,
}


@pytest.mark.parametrize("start", sorted(_STARTS))
@pytest.mark.parametrize("grid", ["full", "mirrored"])
def test_conservative_gaussian_hits_targets_from_any_start(grid, start):
    # each start reaches the cell's mass, momentum and T0 to NEWTON_TOL of
    # rho sqrt(theta) and rho (3 theta + |u|^2), by full-cube sums, and the
    # cold start's parameters to round-off; u_G,3 stays 0.0 on the mirrored
    # axis, where the full-cube momentum sum would be meaningless
    fld = _couette_before_collision(grid)
    mirrored = list(fld.grid.mirrored)
    free = np.ones(4)
    free[mirrored] = 0.0
    assert np.max(np.abs(fld.correction)) > 1e-6
    mom = fld.moments()
    rho, u, theta = mom["rho"], mom["u"], mom["theta"]
    s = _STARTS[start](fld.correction, free)
    rho_g, u_g, th_g, tables, _ = conservative_gaussian(fld.grid, rho, u,
                                                        theta, s)
    rho_t, m_t, T0_t = _raw_moments(fld.grid, fld.values)
    got = _raw_moments(fld.grid, _gaussian_from(rho_g, u_g, th_g, tables))
    assert np.max(np.abs(got[0] / rho_t - 1.0)) <= 1e-14
    on = free[:3] == 1.0
    err_m = np.abs(got[1] - m_t)[:, on] / (rho * np.sqrt(theta))[:, None]
    assert np.max(err_m) <= NEWTON_TOL
    err_T0 = np.abs(got[2] - T0_t) / (rho * (3.0 * theta + np.sum(u**2, -1)))
    assert np.max(err_T0) <= NEWTON_TOL
    assert np.all(u_g[:, mirrored] == 0.0)
    cold = conservative_gaussian(fld.grid, rho, u, theta, np.zeros((fld.n, 4)))
    np.testing.assert_allclose(rho_g, cold[0], rtol=1e-12)
    np.testing.assert_allclose(u_g, cold[1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(th_g, cold[2], rtol=1e-12)


def test_warm_started_run_matches_cold_started_run(monkeypatch):
    # 25 upwind steps of the cdvm Couette preset on the benchmark's 24^3 x
    # 50 grid, with the Newton started from the stored correction, against
    # one started from (u, theta) at every step.  u3 and the correction
    # along the mirrored xi_3 stay exactly 0.0.  Either run's Gaussian is
    # only fixed to NEWTON_TOL, so the two differ by up to about twice that
    # each step, and the relaxations carry it into the tables: they agree
    # to 10 NEWTON_TOL of column scale (2.5e-13 measured, in u2 and q2; a
    # column is checked at no finer scale than the fingerprint's DV_FLOOR).
    # Here the correction (about 1e-12) drifts by less than NEWTON_TOL in
    # most steps, so the warm start evaluates the axis Gaussians at most
    # 1.3 times a step (1.28 measured), the cold one twice.  On a coarse
    # grid such as 12 x 16 x 12 the correction is 2e-3 and drifts by up to
    # 1e-4 a step, and both starts take three.
    sc = scenarios.preset("couette", solver="cdvm", cells=50,
                          dv_nodes=(24, 24, 24), limiter="none")
    cfg = scenarios.to_dv_config(sc)
    # the walls' Maxwellians come from the axis Gaussians too, built once
    # per grid and wall: a warm-up step builds them before the count
    fld = scenarios.build_dv_field(sc)
    dv_step(fld, dv_cfl_timestep(fld, cfg.cfl, cfg.limiter), cfg.left,
            cfg.right, cfg.kn, cfg.pr, cfg.limiter)
    calls = []
    monkeypatch.setattr(cdvm, "_axis_gaussians",
                        lambda *a: calls.append(1) or _axis_gaussians(*a))
    tables, per_step = {}, {}
    for start in ("warm", "cold"):
        fld = scenarios.build_dv_field(sc)
        assert fld.grid.mirrored == (2,)
        calls.clear()
        for _ in range(25):
            if start == "cold":
                fld.correction[:] = 0.0
            dv_step(fld, dv_cfl_timestep(fld, cfg.cfl, cfg.limiter), cfg.left,
                    cfg.right, cfg.kn, cfg.pr, cfg.limiter)
            assert np.all(fld.correction[:, 2] == 0.0)
        assert np.any(fld.correction != 0.0)
        per_step[start] = len(calls) / 25
        tables[start] = dv_snapshot_table(fld)
    assert per_step["warm"] <= 1.3 and per_step["cold"] >= 2.0
    warm, cold = tables["warm"], tables["cold"]
    assert np.all(warm[:, SNAPSHOT_COLUMNS.index("u3")] == 0.0)
    scale = np.maximum(np.max(np.abs(cold), axis=0), DV_FLOOR)
    assert np.all(np.abs(warm - cold) <= 10.0 * NEWTON_TOL * scale)


@pytest.mark.parametrize("counts, mirrored", [
    ((12, 16, 12), ()), ((12, 16, 12), (0, 2)), ((13, 15, 9), ()),
    ((13, 15, 9), (0, 2)), ((24, 24, 24), (2,))])
def test_axis_gaussians_match_the_per_axis_oracle(counts, mirrored):
    # the one pass over the three axes end to end against one pass per
    # axis: the same tables, and sums that differ only in the order of the
    # additions, so within 1e-15 of the sum of their terms' magnitudes; the
    # odd sums of a mirrored axis are exactly 0.0
    grid = DvGrid(6.0, counts, mirrored)
    rng = np.random.default_rng(11)
    u = rng.uniform(-0.5, 0.5, (7, 3))
    u[:, list(mirrored)] = 0.0
    theta = rng.uniform(0.6, 1.5, 7)
    tables, sums = _axis_gaussians(grid, u, theta)
    want_tables, want_sums = oracles.axis_gaussians_reference(grid, u, theta)
    for d in range(3):
        assert tables[d].shape == (7, grid.shape[d], 7)
        np.testing.assert_allclose(tables[d], want_tables[d], rtol=1e-15,
                                   atol=0.0)
    terms = np.stack([np.einsum("n,jnk->jk", w, np.abs(t))
                      for t, w in zip(want_tables, grid.weights)], axis=-2)
    assert np.all(np.abs(sums - want_sums) <= 1e-15 * terms)
    assert np.array_equal(sums == 0.0, want_sums == 0.0)
    for d in mirrored:
        assert np.all(sums[:, d, 1::2] == 0.0)


# ---------------------------------------------------------------------------
# collision step


def _mixture():
    # batched single cell: the collision path expects a leading cell axis
    return (
        0.7 * GRID.maxwellian(1.0, np.array([0.2, 0.1, 0.0]), 0.8)
        + 0.3 * GRID.maxwellian(1.0, np.array([-0.3, -0.1, 0.2]), 1.4)
    )[None]


def test_collision_conserves_discrete_invariants():
    f = _mixture()
    before = dv_moments(f, GRID)
    after = dv_moments(collide_field(f, GRID, 0.5, 2.0 / 3.0, 0.3, _cold(f)), GRID)
    assert after["rho"][0] == pytest.approx(before["rho"][0], rel=1e-12)
    np.testing.assert_allclose(after["u"], before["u"], atol=1e-12)
    assert after["theta"][0] == pytest.approx(before["theta"][0], rel=1e-12)


def test_collision_q_decay_rate():
    f = _mixture()
    kn, pr, dt = 0.5, 2.0 / 3.0, 0.25
    before = dv_moments(f, GRID)
    after = dv_moments(collide_field(f, GRID, kn, pr, dt, _cold(f)), GRID)
    tau = relaxation_time(before["rho"][0], before["theta"][0], kn)
    np.testing.assert_allclose(
        after["q"], before["q"] * math.exp(-pr * dt / tau), rtol=1e-10, atol=1e-13
    )


def test_collision_pr_one_is_bgk():
    f = _mixture()
    mom = dv_moments(f, GRID)
    rho, u, th = mom["rho"], mom["u"], mom["theta"]
    rho_g, u_g, th_g, tables, _ = conservative_gaussian(GRID, rho, u, th,
                                                        _cold(f))
    G = _gaussian_from(rho_g, u_g, th_g, tables)
    dt, kn = 0.2, 0.5
    tau = relaxation_time(rho[0], th[0], kn)
    want = G + (f - G) * math.exp(-dt / tau)
    got = collide_field(f, GRID, kn, 1.0, dt, _cold(f))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-18)


def test_collision_zero_dt_identity():
    f = _mixture()
    got = collide_field(f.copy(), GRID, 0.5, 2.0 / 3.0, 0.0, _cold(f))
    np.testing.assert_allclose(got, f, rtol=1e-13, atol=1e-16)


def test_collision_rejects_negative_mass():
    with pytest.raises(RuntimeError):
        collide_field(
            -GRID.maxwellian(1.0, np.zeros(3), 1.0)[None], GRID, 0.5, 1.0, 0.1,
            np.zeros((1, 4)))


def test_collision_names_nan_cell():
    # NaN must be caught at the guard, not surface later as a stalled
    # Newton solve
    f = np.concatenate([_mixture()] * 3)
    f[1, 20, 24, 24] = np.nan
    msg = r"non-finite density \(nan\) in cell 1 in collision"
    with pytest.raises(RuntimeError, match=msg):
        collide_field(f, GRID, 0.5, 2.0 / 3.0, 0.1, _cold(f))


def _three_cells():
    """Non-equilibrium cells with different u, theta and q: a Shakhov-shaped
    state plus a hot beam, which adds shear stress and changes q."""
    cells = [
        (1.0, [0.2, 0.1, 0.0], 0.9, [0.02, -0.015, 0.007]),
        (0.8, [-0.3, 0.25, 0.1], 1.2, [-0.03, 0.01, 0.02]),
        (1.3, [0.05, -0.2, -0.15], 0.7, [0.01, 0.025, -0.02]),
    ]
    return np.stack([
        0.8 * _shakhov_perturbed(GRID, rho, np.array(u), th, np.array(q))
        + 0.2 * GRID.maxwellian(rho, np.array(u) + [0.3, -0.2, 0.1], 1.3 * th)
        for rho, u, th, q in cells
    ])


def _invariants(f):
    """Quadrature mass, momentum and energy <|xi|^2 f> of each cell."""
    w3 = oracles.w3(GRID)
    xi = np.meshgrid(*GRID.axes, indexing="ij")
    return np.stack(
        [np.sum(w3 * f, axis=(-3, -2, -1))]
        + [np.sum(w3 * x * f, axis=(-3, -2, -1)) for x in xi]
        + [np.sum(w3 * sum(x**2 for x in xi) * f, axis=(-3, -2, -1))],
        axis=-1,
    )


@pytest.mark.parametrize("pr", [2.0 / 3.0, 1.0])
def test_kernels_match_full_cube_oracles_per_cell(pr):
    f = _three_cells()
    got, want = dv_moments(f, GRID), oracles.dv_moments_reference(f, GRID)
    # sigma and q are differences of raw moments of size rho theta ~ 1, so
    # their rounding is absolute at that scale
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=1e-14,
                                   err_msg=key)
    assert np.all(np.abs(want["q"]) > 1e-3)
    assert np.abs(want["sigma"][:, 0, 1]).min() > 1e-3

    kn, dt = 0.5, 0.3
    out = collide_field(f.copy(), GRID, kn, pr, dt, _cold(f))
    ref = oracles.collide_reference(f, GRID, kn, pr, dt)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-15 * ref.max())
    np.testing.assert_allclose(_invariants(out), _invariants(f), rtol=1e-12)


def test_long_relaxation_reaches_gaussian():
    f = _mixture()
    mom0 = dv_moments(f, GRID)
    out = collide_field(f, GRID, 0.05, 2.0 / 3.0, 50.0, _cold(f))
    mom = dv_moments(out, GRID)
    assert np.max(np.abs(mom["sigma"])) <= 1e-10
    assert np.max(np.abs(mom["q"])) <= 1e-10
    assert mom["theta"][0] == pytest.approx(mom0["theta"][0], rel=1e-12)


# ---------------------------------------------------------------------------
# spatial field and transport


def _slab(n=24, grid=None, rho=None, u=(0.0, 0.0, 0.0), theta=1.0):
    grid = grid or DvGrid(6.0, (20, 20, 20))
    rho = np.ones(n) if rho is None else rho
    return DvField.from_fields(grid, -0.5, 0.5, rho, np.array(u), theta)


def _full_field(sc):
    """The field of ``scenarios.build_dv_field(sc)`` with every axis full."""
    return DvField.from_fields(DvGrid(sc.dv_half_width, tuple(sc.dv_nodes)),
                               sc.y_lo, sc.y_hi, np.full(sc.cells, sc.rho0),
                               sc.u0, sc.theta0)


def test_field_basics():
    fld = _slab(n=10)
    assert fld.n == 10
    mom = fld.moments()
    np.testing.assert_allclose(mom["rho"], 1.0, atol=2e-5)
    with pytest.raises(ValueError):
        DvField(DvGrid(6.0, (20, 20, 20)), -0.5, 0.5, np.zeros((4, 8, 8, 8)))


def test_free_transport_of_uniform_field_is_identity():
    fld = _slab()
    v0 = fld.values.copy()
    transport_field(fld, 0.01, None, None, "none")
    np.testing.assert_array_equal(fld.values, v0)


def test_upwind_centroid_moves_at_mean_velocity():
    # each node advects at its own xi_2, so the density centroid moves at
    # exactly the discrete mean velocity; first-order upwind keeps this exact
    # cold beam kept away from the ends so no tail reaches a boundary
    grid = DvGrid(6.0, (20, 20, 20))
    n = 40
    y = -0.5 + (np.arange(n) + 0.5) / n
    rho = 1e-30 + np.exp(-(((y + 0.1) / 0.06) ** 2))
    fld = DvField.from_fields(grid, -0.5, 0.5, rho, np.array([0.0, 1.0, 0.0]), 0.25)
    w = fld.values * oracles.w3(grid)
    mass = w.sum()
    mom2 = np.einsum("jxyz,y->", w, grid.axes[1])
    cent0 = float(np.sum(fld.centers * w.sum(axis=(1, 2, 3)))) / mass
    t = 0.0
    for _ in range(8):
        dt = dv_cfl_timestep(fld, 0.9, "none")
        transport_field(fld, dt, None, None, "none")
        t += dt
    w1 = fld.values * oracles.w3(grid)
    assert w1.sum() == pytest.approx(mass, rel=1e-12)
    cent1 = float(np.sum(fld.centers * w1.sum(axis=(1, 2, 3)))) / w1.sum()
    assert cent1 - cent0 == pytest.approx(t * mom2 / mass, rel=1e-12)


def test_dv_step_rejects_a_time_step_above_the_transport_bound():
    # above dv_cfl_timestep(field, 1.0, limiter) transport could make a
    # value negative that no check would name, so the step refuses it before
    # the state changes; at the bound itself it runs
    grid = DvGrid(6.0, (20, 20, 20))
    rho = np.ones(16)
    rho[8] = 3.0
    for limiter, cfl in (("none", 1.0), ("minmod", 0.5)):
        fld = DvField.from_fields(grid, -0.5, 0.5, rho, np.zeros(3), 1.0)
        bound = dv_cfl_timestep(fld, 1.0, limiter)
        assert bound == cfl * fld.dx / 6.0
        v0 = fld.values.copy()
        with pytest.raises(ValueError, match="time step .* exceeds the "
                           "stability bound .* of %s transport" % limiter):
            dv_step(fld, np.nextafter(bound, np.inf), None, None, 0.1,
                    2.0 / 3.0, limiter)
        assert np.array_equal(fld.values, v0)
        assert not fld.correction.any()
        dv_step(fld, bound, None, None, 0.1, 2.0 / 3.0, limiter)
        assert not np.array_equal(fld.values, v0)


def _rough_field(counts, n=10, seed=3):
    """``n`` cells on a grid of ``counts`` nodes of a two-beam mixture whose
    rho, u (with u2 != 0) and theta jump from cell to cell, so minmod both
    limits and zeroes slopes."""
    grid = DvGrid(5.0, counts)
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.8, 1.4, n)
    u = rng.uniform(-0.4, 0.4, (n, 3))
    theta = rng.uniform(0.7, 1.3, n)
    f = 0.7 * grid.maxwellian(rho, u, theta) + 0.3 * grid.maxwellian(
        rho[::-1], u + [0.3, -0.6, 0.2], 1.4 * theta)
    return DvField(grid, -0.5, 0.5, f)


_TRANSPORT_ENDS = {
    "free": (None, None),
    "walls": (WallSpec(1.0, [-0.3, 0.0, 0.2], 1.3),
              WallSpec(0.5, [0.4, 0.0, 0.0], 0.8)),
    "walls-swapped": (WallSpec(0.5, [0.2, 0.0, -0.1], 0.9),
                      WallSpec(1.0, [-0.4, 0.0, 0.0], 1.2)),
}


def _check_transport_oracle(limiter, ends, n2, n=10):
    left, right = _TRANSPORT_ENDS[ends]
    fld = _rough_field((8, n2, 8), n)
    v0 = fld.values.copy()
    dt = dv_cfl_timestep(fld, 0.9, limiter)
    want = oracles.transport_reference(fld, dt, left, right, limiter)
    transport_field(fld, dt, left, right, limiter)
    scale = np.abs(want).max()
    assert np.abs(want - v0).max() > 1e-2 * scale
    np.testing.assert_allclose(fld.values, want, rtol=0, atol=1e-14 * scale)
    if n2 % 2 and ends == "free":
        assert fld.grid.axes[1][n2 // 2] == 0.0
        np.testing.assert_array_equal(fld.values[:, :, n2 // 2],
                                      v0[:, :, n2 // 2])


@pytest.mark.parametrize("n2", [12, 13])
@pytest.mark.parametrize("ends", list(_TRANSPORT_ENDS))
@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_transport_matches_flux_form_oracle(limiter, ends, n2):
    _check_transport_oracle(limiter, ends, n2)


def _blocks_of(cell_entries):
    """Cells of ``cell_entries`` entries that fill three whole blocks of
    ``BLOCK`` entries and part of a fourth, and the cells per block."""
    rows = BLOCK // cell_entries
    assert rows >= 2
    return 3 * rows + rows // 2, rows


@pytest.mark.parametrize("n2", [12, 13])
@pytest.mark.parametrize("ends", ["free", "walls"])
@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_transport_across_blocks_matches_flux_form_oracle(limiter, ends, n2):
    # whole cells are updated in blocks from the top cell down, so a block's
    # differences reach the cell below it, and its top face is the one the
    # block above found before it updated its cells
    n, rows = _blocks_of(8 * n2 * 8)
    assert n % rows
    _check_transport_oracle(limiter, ends, n2, n)


@pytest.mark.parametrize("cells", ["few", "blocks"])
@pytest.mark.parametrize("n2", [12, 13])
@pytest.mark.parametrize("ends", ["free", "walls"])
@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_transport_is_bit_identical_to_the_half_sweeps(limiter, ends, n2,
                                                       cells):
    # one walk over whole cells against one sweep per xi_2-sign half, the
    # negative half on the cell-reversed view: minmod is odd and symmetric,
    # so its faces v - s / 2 above a cell are the reversed view's v + s / 2
    # bit for bit, and so are the updates
    left, right = _TRANSPORT_ENDS[ends]
    n = 10 if cells == "few" else _blocks_of(8 * n2 * 8)[0]
    fld = _rough_field((8, n2, 8), n)
    dt = dv_cfl_timestep(fld, 0.9, limiter)
    want = oracles.transport_halves(fld, dt, left, right, limiter)
    assert not np.array_equal(want, fld.values)
    transport_field(fld, dt, left, right, limiter)
    assert np.array_equal(fld.values, want)


# a slow collision (Kn 100) at a thousandth of the CFL step moves a node by
# about 1e-8 of itself, so a planted negative value keeps its printed digits
_SLOW = dict(kn=100.0, pr=2.0 / 3.0)


@pytest.mark.parametrize("limiter", ["none", "minmod"])
@pytest.mark.parametrize("half", ["positive", "negative"])
def test_negativity_warning_from_the_last_block(half, limiter):
    # the collision updates blocks of cells from the bottom cell up, so its
    # first block holds cell 0 and its last, partial block cell n - 1.  A
    # negative entry in either end cell's inflow half, which transport at a
    # free end leaves as it is, must be reported after the collision with
    # its cell, under either limiter
    n, rows = _blocks_of(8 * 12 * 8)
    assert n % rows
    fld = _rough_field((8, 12, 8), n)
    cell, node = (0, 9) if half == "positive" else (n - 1, 2)
    assert (fld.grid.axes[1][node] > 0) == (half == "positive")
    fld.values[cell, 4, node, 4] = -1e-3
    msg = r"negative \(min -1\.000e-03 in cell %d\) after collision$" % cell
    with pytest.warns(RuntimeWarning, match=msg):
        dv_step(fld, 1e-3 * dv_cfl_timestep(fld, 0.9, limiter), None, None,
                limiter=limiter, **_SLOW)


def test_negativity_warning_from_the_untouched_middle_plane():
    # on an odd xi_2 axis transport moves the xi_2 = 0 plane by nothing, and
    # the collision's negativity check covers it too, naming its cell
    fld = _rough_field((8, 13, 8))
    assert fld.grid.axes[1][6] == 0.0
    fld.values[5, 3, 6, 3] = -1e-3
    with pytest.warns(RuntimeWarning, match=r"negative \(min -1\.000e-03 in "
                                            r"cell 5\) after collision$"):
        dv_step(fld, 1e-3 * dv_cfl_timestep(fld, 0.9, "none"), None, None,
                limiter="none", **_SLOW)


def test_shock_negativity_comes_from_the_collision():
    # the cdvm shock preset on 20 cells and 16^3 nodes makes nodes below
    # -NEGATIVITY_WARN in the collision's Shakhov tail: one warning for each
    # step whose collision leaves one, each naming the collision and a cell,
    # none naming transport
    sc = scenarios.preset("shock", solver="cdvm", cells=20,
                          dv_nodes=(16, 16, 16), t_end=1.0)
    after_collision = []
    with pytest.warns(RuntimeWarning) as record:
        dv_run(scenarios.build_dv_field(sc), scenarios.to_dv_config(sc),
               on_step=lambda t, f: after_collision.append(f.values.min()))
    messages = [str(w.message) for w in record]
    pattern = (r"distribution went negative \(min -\d\.\d{3}e-\d\d in cell "
               r"\d+\) after collision")
    assert all(re.fullmatch(pattern, m) for m in messages), messages
    assert len(messages) == sum(m < -NEGATIVITY_WARN for m in after_collision)
    assert min(after_collision) < -NEGATIVITY_WARN


_BOUND_ENDS = {
    "free": (None, None),
    "walls": (WallSpec(1.0, [-0.3, 0.0, 0.2], 1.3),
              WallSpec(0.4, [0.4, 0.0, 0.0], 0.8)),
    "walls-swapped": (WallSpec(0.4, [0.2, 0.0, -0.1], 0.9),
                      WallSpec(1.0, [-0.4, 0.0, 0.0], 1.2)),
}


@pytest.mark.parametrize("n2", [12, 13])
@pytest.mark.parametrize("ends", list(_BOUND_ENDS))
@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_transport_at_its_bound_keeps_a_positive_field_non_negative(
        limiter, ends, n2):
    # dv_step refuses a dt above dv_cfl_timestep(field, 1.0, limiter): up to
    # it, upwind and minmod transport are convex combinations of the cell
    # values and the wall inflows, so the one negativity check of a step,
    # after the collision, sees every negative value the step makes.  Rough
    # two-beam fields, free ends and walls of chi 1 and 0.4 (chi < 1 mixes
    # in the specular mirror), an even and an odd xi_2 axis
    left, right = _BOUND_ENDS[ends]
    for seed in range(4):
        fld = _rough_field((8, n2, 8), seed=seed)
        assert fld.values.min() > 0.0
        transport_field(fld, dv_cfl_timestep(fld, 1.0, limiter), left, right,
                        limiter)
        assert fld.values.min() >= 0.0, seed


def test_transport_peak_temporary_memory():
    # a 24^3 x 50 Couette field, as in the benchmark's DVM workload, on a
    # first call, so the work arrays are made.  Whole cells are updated in
    # blocks of about BLOCK entries: the differences (and with minmod the
    # faces) take a block and a cell each, minmod one block; the rest is the
    # two saved cells, the two wall inflows, one velocity cube each, and
    # the transients of their build.  Full-size difference and face arrays
    # would be 1x and 1x the state.
    sc = scenarios.preset("couette", solver="cdvm", cells=50,
                          dv_nodes=(24, 24, 24))
    fld = scenarios.build_dv_field(sc)
    cfg = scenarios.to_dv_config(sc)
    cube = fld.values[0].size
    for limiter, blocks in (("none", 2), ("minmod", 4)):
        dt = dv_cfl_timestep(fld, cfg.cfl, limiter)
        work_array.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            transport_field(fld, dt, cfg.left, cfg.right, limiter)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 8 * (blocks * BLOCK + 4 * cube), limiter


def test_collision_across_blocks_matches_full_cube_oracle():
    # blocks of cells, the last one partial, against the per-cell full-cube
    # relaxation
    n, rows = _blocks_of(12 ** 3)
    assert n % rows
    fld = _rough_field((12, 12, 12), n)
    f, grid = fld.values, fld.grid
    kn, pr, dt = 0.5, 2.0 / 3.0, 0.3
    ref = oracles.collide_reference(f, grid, kn, pr, dt)
    # the Shakhov tail of this rough field dips to -5.7e-11 in cell 6
    with pytest.warns(RuntimeWarning, match=r"in cell 6\) after collision"):
        out = collide_field(f.copy(), grid, kn, pr, dt, _cold(f))
    assert ref.min() < -NEGATIVITY_WARN
    assert np.abs(ref - f).max() > 1e-2 * ref.max()
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-15 * ref.max())


def test_first_collision_retains_no_state_sized_array():
    # G P goes through a work array of at most one block, kept across calls,
    # and so do the partial sums of the moments (4 / n3 of a block) and the
    # factor (4 / n1 of a block): at most 1.5 blocks for either field, the
    # full 24^3 x 50 one (1.14 blocks measured, 0.054x of the state) and the
    # preset's, mirrored along xi_3 (1.27 blocks, 0.12x of its half-size
    # state)
    sc = scenarios.preset("couette", solver="cdvm", cells=50,
                          dv_nodes=(24, 24, 24))
    cfg = scenarios.to_dv_config(sc)
    for fld in (_full_field(sc), scenarios.build_dv_field(sc)):
        dt = dv_cfl_timestep(fld, cfg.cfl, cfg.limiter)
        work_array.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            collide_field(fld.values, fld.grid, cfg.kn, cfg.pr, dt,
                          fld.correction)
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert grown < 8 * 1.5 * BLOCK, fld.grid.shape


def test_collision_updates_in_place_with_small_temporaries():
    # the same field: the relaxed state is written into the state array,
    # and the partial sums of the moments, the factor (4 x n2 x n3) and the
    # GEMM result are taken per block of cells into work arrays kept across
    # calls, so a warm call holds only per-cell tables, about 0.1x the state
    # (0.36x with the two partial products for all cells at once, 2.26x
    # with a fresh result cube)
    sc = scenarios.preset("couette", solver="cdvm", cells=50,
                          dv_nodes=(24, 24, 24))
    fld = scenarios.build_dv_field(sc)
    cfg = scenarios.to_dv_config(sc)
    dt = dv_cfl_timestep(fld, cfg.cfl, cfg.limiter)
    values = fld.values
    collide_field(values, fld.grid, cfg.kn, cfg.pr, dt, fld.correction)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = collide_field(values, fld.grid, cfg.kn, cfg.pr, dt,
                            fld.correction)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out is values
    assert peak < 0.2 * values.nbytes


# ---------------------------------------------------------------------------
# walls


def test_wall_equilibrium_is_stationary():
    wall_l = WallSpec(1.0, np.zeros(3), 1.0)
    wall_r = WallSpec(0.6, np.zeros(3), 1.0)
    fld = _slab(n=12)
    v0 = fld.values.copy()
    for _ in range(3):
        dt = dv_cfl_timestep(fld, 0.9, "none")
        transport_field(fld, dt, wall_l, wall_r, "none")
    assert np.max(np.abs(fld.values - v0)) <= 1e-13


def test_walls_conserve_mass():
    wall_l = WallSpec(1.0, np.array([-0.3, 0.0, 0.0]), 1.1)
    wall_r = WallSpec(0.5, np.array([0.4, 0.0, 0.0]), 0.9)
    fld = _slab(n=12)
    w3 = oracles.w3(fld.grid)
    m0 = float(np.sum(fld.values * w3)) * fld.dx
    for _ in range(25):
        dt = dv_cfl_timestep(fld, 0.9, "none")
        dv_step(fld, dt, wall_l, wall_r, 0.2, 2.0 / 3.0, "none")
    m1 = float(np.sum(fld.values * w3)) * fld.dx
    assert m1 == pytest.approx(m0, rel=1e-12)


@pytest.mark.parametrize("chi", [1.0, 0.5, 0.0])
@pytest.mark.parametrize("sgn", [-1.0, 1.0], ids=["left", "right"])
def test_wall_inflow_matches_the_full_cube_formula(chi, sgn):
    # the per-axis inflow against chi rho_w phi_w + (1 - chi) mirror built
    # on whole cubes, with rho_w from the full-cube fluxes; the outgoing
    # and the re-emitted mass flux cancel
    grid = DvGrid(6.0, (12, 15, 11))
    wall = WallSpec(chi, np.array([0.3, 0.0, -0.2]), 1.2)
    rng = np.random.default_rng(5)
    f_out = grid.maxwellian(1.1, [0.1, 0.2, 0.05], 0.9) * (
        1.0 + 0.1 * rng.random(grid.counts))
    got = _wall_incoming(grid, wall, f_out, sgn)
    speed = sgn * grid.axes[1][None, :, None]
    phi = grid.maxwellian(1.0, wall.u_wall, wall.theta_wall)
    flux_out = np.sum(oracles.w3(grid) * np.maximum(speed, 0.0) * f_out)
    rho_w = -flux_out / np.sum(oracles.w3(grid) * np.minimum(speed, 0.0) * phi)
    want = chi * rho_w * phi + (1.0 - chi) * f_out[:, ::-1, :]
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    flux_in = np.sum(oracles.w3(grid) * np.minimum(speed, 0.0) * got)
    assert abs(flux_out + flux_in) <= 1e-14 * flux_out


@pytest.mark.parametrize("mirrored", [(), (2,)], ids=["full", "mirrored"])
def test_wall_inflow_matches_the_oracle_across_walls(mirrored):
    # the inflow keeps each wall's unit Maxwellian by the values of the
    # grid, the wall and its side; against the oracle, rebuilt on every
    # call, a stale entry shows: Couette's two walls, a partly specular
    # wall, and one wall whose temperature changes between two calls; the
    # grid is given lists, which it stores as tuples
    grid = DvGrid(6.0, [12, 15, 12], list(mirrored))
    rng = np.random.default_rng(11)
    f_out = grid.maxwellian(1.1, [0.1, 0.2, 0.0], 0.9) * (
        1.0 + 0.1 * rng.random(grid.shape))
    speed = scenarios.COUETTE_WALL_SPEED
    hot = WallSpec(1.0, np.array([0.2, 0.0, 0.0]), 1.0)
    calls = [(WallSpec(1.0, np.array([-speed, 0.0, 0.0]), 1.0), -1.0),
             (WallSpec(1.0, np.array([speed, 0.0, 0.0]), 1.0), 1.0),
             (WallSpec(0.6, np.array([speed, 0.0, 0.0]), 1.0), 1.0),
             (hot, -1.0), (hot, -1.0)]
    for k, (wall, sgn) in enumerate(calls):
        if k == len(calls) - 1:
            hot.theta_wall = 1.7
        got = _wall_incoming(grid, wall, f_out, sgn)
        want = oracles.wall_incoming_reference(grid, wall, f_out, sgn)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want), k


def test_wall_inflows_of_copied_fields_retain_no_memory():
    # every benchmark solve transports a deep copy of one field; the wall
    # inflows are kept by the values of the grid and the wall, not by the
    # objects, so copies after the first retain nothing (one entry per copy
    # would retain two velocity cubes each)
    sc = scenarios.preset("couette", solver="cdvm", cells=8,
                          dv_nodes=(16, 16, 16))
    fld = scenarios.build_dv_field(sc)
    cfg = scenarios.to_dv_config(sc)
    dt = dv_cfl_timestep(fld, cfg.cfl, cfg.limiter)
    tracemalloc.start()
    try:
        transport_field(copy.deepcopy(fld), dt, cfg.left, cfg.right,
                        cfg.limiter)
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            transport_field(copy.deepcopy(fld), dt, copy.deepcopy(cfg.left),
                            copy.deepcopy(cfg.right), cfg.limiter)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert grown < 0.25 * fld.values[0].nbytes


@pytest.mark.parametrize("limiter", ["none", "minmod"])
def test_mirrored_run_is_the_mirror_of_the_run(limiter):
    # y -> -y reverses the cells and the xi_2 axis, swaps the two walls and
    # negates the snapshot columns odd in y; the moments sum the reversed
    # axis in another order, so the runs agree to round-off
    grid = DvGrid(6.0, (12, 16, 12))
    y = -0.5 + (np.arange(10) + 0.5) / 10
    u = np.stack([0.2 * np.cos(3.0 * y), 0.1 + 0.15 * np.sin(5.0 * y),
                  -0.1 * y], axis=-1)
    fld = DvField.from_fields(grid, -0.5, 0.5, 1.0 + 0.2 * np.sin(2.0 * y),
                              u, 1.0 + 0.15 * np.cos(4.0 * y))
    mirrored = DvField(grid, -0.5, 0.5, fld.values[::-1, :, ::-1, :].copy())
    walls = (WallSpec(0.7, [-0.3, 0.0, 0.1], 1.3),
             WallSpec(1.0, [0.5, 0.0, -0.2], 0.9))
    want = dv_run(fld, DvRunConfig(kn=0.2, t_end=0.1, left=walls[0],
                                   right=walls[1], limiter=limiter))
    got = dv_run(mirrored, DvRunConfig(kn=0.2, t_end=0.1, left=walls[1],
                                       right=walls[0], limiter=limiter))
    want, got = want.snapshots[-1][1], got.snapshots[-1][1]
    odd = np.array([c in ("y", "u2", "sigma12", "q2") for c in SNAPSHOT_COLUMNS])
    back = got[::-1] * np.where(odd, -1.0, 1.0)
    scale = np.abs(want).max(axis=0)
    assert np.all(scale > 1e-3)
    assert np.all(np.abs(back - want) <= 1e-13 * scale)


def test_moving_normal_wall_rejected_by_config():
    # both run configs refuse the wall before any step: the NRxx wall map
    # ignores the normal velocity, so a run would leak mass through it
    wall = WallSpec(1.0, np.array([0.0, 0.2, 0.0]), 1.0)
    for make in (DvRunConfig, functools.partial(RunConfig, M=3)):
        for side in ("left", "right"):
            with pytest.raises(ValueError) as err:
                make(kn=0.1, t_end=1.0, **{side: wall})
            assert str(err.value) == ("the %s wall moves along its normal, "
                                      "which neither solver supports" % side)


# ---------------------------------------------------------------------------
# mirrored velocity axes


@pytest.mark.parametrize("half_width, n", [
    (8.0, 24), (8.0, 13), (10.0, 12), (6.0, 16), (5.0, 8), (3.3, 17),
    (7.1, 31), (12.5, 48)])
def test_velocity_axes_are_exactly_antisymmetric(half_width, n):
    # x[i] == -x[n-1-i] bit for bit, which np.linspace does not give for
    # (8, 24), (8, 13) or (10, 12); the middle node of an odd axis is +0.0
    grid = DvGrid(half_width, (n, 8, n), mirrored=(2,))
    x = grid.axes[0]
    assert np.array_equal(x, -x[::-1])
    assert x[0] == -half_width and x[-1] == half_width
    np.testing.assert_allclose(np.diff(x), 2.0 * half_width / (n - 1),
                               rtol=1e-14)
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    # the mirrored axis stores the upper half of the full one
    np.testing.assert_array_equal(grid.axes[2], x[n // 2:])


@pytest.mark.parametrize("n", [12, 13])
def test_mirrored_axis_weights_fold_the_lower_half(n):
    grid = DvGrid(6.0, (n, n, n), mirrored=(0, 2))
    full = DvGrid(6.0, (n, n, n))
    assert grid.shape == (n - n // 2, n, n - n // 2)
    assert grid.counts == (n, n, n)
    w, wf = grid.weights[0], full.weights[0]
    np.testing.assert_array_equal(w[n % 2:], 2.0 * wf[n // 2 + n % 2:])
    if n % 2:
        assert w[0] == wf[n // 2]
    assert np.sum(w) == pytest.approx(np.sum(wf), rel=1e-15)
    # the even moment columns are the full axis's, the odd ones zero
    V, Vf = grid.moment_tables[0], full.moment_tables[0]
    np.testing.assert_allclose(V[:, ::2].sum(axis=0), Vf[:, ::2].sum(axis=0),
                               rtol=1e-14)
    assert np.all(V[:, 1::2] == 0.0)
    np.testing.assert_array_equal(grid.axes[1], full.axes[1])


def test_mirrored_grid_validation():
    with pytest.raises(ValueError, match="only velocity axes 0 and 2"):
        DvGrid(6.0, (12, 12, 12), mirrored=(1,))
    grid = DvGrid(6.0, (12, 12, 12), mirrored=(2,))
    with pytest.raises(ValueError, match="u3 must be zero along a mirrored"):
        DvField.from_fields(grid, -0.5, 0.5, np.ones(4), (0.1, 0.0, 0.2), 1.0)
    with pytest.raises(ValueError, match="do not match the velocity grid"):
        DvField(grid, -0.5, 0.5, np.ones((4, 12, 12, 12)))


def test_field_built_from_values_checks_its_slab():
    # a field built from values is held to the slab rule of from_fields,
    # on the moments of its own cells
    grid = DvGrid(6.0, (12, 12, 12), mirrored=(2,))
    values = DvField.from_fields(grid, -0.5, 0.5, np.ones(4), np.zeros(3),
                                 1.0).values
    with pytest.raises(ValueError, match="^empty domain$"):
        DvField(grid, 0.5, 0.5, values)
    values[2] = 0.0
    with pytest.raises(ValueError, match=r"^non-positive or non-finite "
                       r"density \(0\.0\) in cell 2$"):
        DvField(grid, -0.5, 0.5, values)


def test_conservative_gaussian_on_mirrored_axes_matches_full_axes():
    # cells even in xi_1 and xi_3: the Newton on the half axes keeps u_G,1 =
    # u_G,3 = 0.0 exactly and finds the full axes' parameters
    full = DvGrid(6.0, (13, 16, 12))
    half = DvGrid(6.0, (13, 16, 12), mirrored=(0, 2))
    u = np.array([(0.0, 0.3, 0.0), (0.0, -0.5, 0.0)])
    f = (0.6 * full.maxwellian(np.ones(2), u, np.array([0.8, 1.2]))
         + 0.4 * full.maxwellian(np.ones(2), -u, np.array([1.4, 0.7])))
    got, want = (conservative_gaussian(g, m["rho"], m["u"], m["theta"],
                                       np.zeros((2, 4)))
                 for g, m in ((half, dv_moments(f[:, 6:, :, 6:], half)),
                              (full, dv_moments(f, full))))
    assert np.all(got[1][:, 0::2] == 0.0)
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_allclose(a, b, rtol=1e-13, atol=1e-15)


_MIRROR_RUNS = {
    "couette-chi05-hotleft": ("couette", dict(
        chi=0.5, theta_wall_left=1.3, dv_nodes=(12, 16, 12)), (2,)),
    "couette-odd": ("couette", dict(dv_nodes=(13, 16, 13)), (2,)),
    "shock": ("shock", dict(dv_nodes=(12, 16, 12)), (0, 2)),
}


@pytest.mark.parametrize("limiter", ["none", "minmod"])
@pytest.mark.parametrize("case", sorted(_MIRROR_RUNS))
def test_mirrored_run_matches_full_axis_run(case, limiter):
    # a few steps of the preset on its mirrored axes and on full axes give
    # one table to round-off, a column checked at no finer scale than the
    # fingerprint's DV_FLOOR (u2 is a small difference of O(1) sums); the
    # columns odd in a mirrored xi_d (u_d, and with d = 1 sigma12 and q1)
    # are exactly 0.0, and both runs hold the same mass, which two walls
    # keep
    scenario, overrides, mirrored = _MIRROR_RUNS[case]
    sc = scenarios.preset(scenario, solver="cdvm", cells=12, t_end=0.05,
                          steady_tol=None, limiter=limiter, **overrides)
    half, full = scenarios.build_dv_field(sc), _full_field(sc)
    assert half.grid.mirrored == mirrored
    assert half.values.shape == (12,) + tuple(
        n - n // 2 if d in mirrored else n for d, n in enumerate(sc.dv_nodes))
    mass0 = np.sum(half.moments()["rho"])
    cfg = scenarios.to_dv_config(sc)
    got, want = (dv_run(f, cfg).snapshots[-1][1] for f in (half, full))
    scale = np.maximum(np.max(np.abs(want), axis=0), 1e-2)
    odd = ["u%d" % (d + 1) for d in mirrored]
    if 0 in mirrored:
        odd += ["sigma12", "q1"]
    for j, col in enumerate(SNAPSHOT_COLUMNS):
        if col in odd:
            assert np.all(got[:, j] == 0.0), col
            assert np.max(np.abs(want[:, j])) <= 1e-14, col
        else:
            err = np.max(np.abs(got[:, j] - want[:, j]))
            assert err <= 1e-13 * scale[j], col
    mass = np.sum(half.moments()["rho"])
    assert abs(mass - np.sum(full.moments()["rho"])) <= 1e-13 * mass
    if scenario == "couette":
        assert abs(mass - mass0) <= 1e-13 * mass0


@pytest.mark.parametrize("scenario, overrides, mirrored", [
    ("shock", {}, (0, 2)),
    ("couette", {}, (2,)),
    ("poiseuille", {}, (2,)),
    ("custom", dict(t_end=1.0), (0, 2)),
    ("couette", dict(u_wall_left=(-0.6296, 0.0, 0.1)), ()),
    ("couette", dict(u0=(0.0, 0.0, 0.2)), ()),
    ("shock", dict(u0=(0.1, 0.5, 0.0)), (2,)),
])
def test_both_builders_mirror_the_same_axes(scenario, overrides, mirrored):
    # one rule for both solvers: NRxx keeps the even orders along a_d,
    # the DVM the xi_d >= 0 half, on the same axes
    sc = scenarios.preset(scenario, M=4, cells=6, dv_nodes=(12, 13, 11),
                          **overrides)
    assert scenarios.mirrored_axes(sc) == mirrored
    edges = scenarios.build_grid(sc).coeffs.shape[1:]
    shape = scenarios.build_dv_field(sc).values.shape[1:]
    for d, n in enumerate(sc.dv_nodes):
        assert edges[d] == (3 if d in mirrored else 5)
        assert shape[d] == (n - n // 2 if d in mirrored else n)


def test_dv_step_rejects_a_wall_moving_along_a_mirrored_axis():
    # the message names the option, as the NRxx step's does, and the state
    # is left alone; the full-axis field runs that config
    sc = scenarios.preset("couette", solver="cdvm", cells=6,
                          dv_nodes=(12, 12, 12))
    fld = scenarios.build_dv_field(sc)
    before = fld.values.copy()
    cfg = scenarios.to_dv_config(dataclasses.replace(
        sc, u_wall_left=(-0.6296, 0.0, 0.1)))
    dt = dv_cfl_timestep(fld, cfg.cfl, cfg.limiter)
    msg = re.escape("u_wall_left[2] is nonzero")
    with pytest.raises(ValueError, match=msg):
        dv_step(fld, dt, cfg.left, cfg.right, cfg.kn, cfg.pr, cfg.limiter)
    np.testing.assert_array_equal(fld.values, before)
    dv_step(_full_field(sc), dt, cfg.left, cfg.right, cfg.kn, cfg.pr,
            cfg.limiter)


# ---------------------------------------------------------------------------
# driver


def test_dv_runconfig_validation():
    with pytest.raises(ValueError):
        DvRunConfig(kn=0.1)
    with pytest.raises(ValueError):
        DvRunConfig(kn=0.1, t_end=1.0, cfl=1.5)


def test_dv_cfl_minmod_is_capped():
    fld = _slab()
    vmax = float(np.max(np.abs(fld.grid.axes[1])))
    assert dv_cfl_timestep(fld, 0.95, "none") == pytest.approx(0.95 * fld.dx / vmax)
    assert dv_cfl_timestep(fld, 0.95, "minmod") == pytest.approx(0.5 * fld.dx / vmax)


def test_dv_run_snapshot_schema_and_mass():
    wall_l = WallSpec(1.0, np.array([-0.3, 0.0, 0.0]), 1.0)
    wall_r = WallSpec(1.0, np.array([0.3, 0.0, 0.0]), 1.0)
    fld = _slab(n=12)
    m0 = float(np.sum(fld.values * oracles.w3(fld.grid))) * fld.dx
    cfg = DvRunConfig(kn=0.1, t_end=0.08, left=wall_l, right=wall_r)
    res = dv_run(fld, cfg, snapshot_interval=5)
    assert res.message == "reached end time"
    assert res.t == pytest.approx(0.08, abs=1e-13)
    t_last, tab = res.snapshots[-1]
    assert tab.shape == (12, len(SNAPSHOT_COLUMNS))
    np.testing.assert_allclose(tab[:, 0], fld.centers)
    m1 = float(np.sum(fld.values * oracles.w3(fld.grid))) * fld.dx
    assert m1 == pytest.approx(m0, rel=1e-12)


def test_dv_run_steady_detection():
    fld = _slab(n=10)
    cfg = DvRunConfig(
        kn=0.1,
        steady_tol=50.0,
        left=WallSpec(1.0, np.zeros(3), 1.0),
        right=WallSpec(1.0, np.zeros(3), 1.0),
    )
    res = dv_run(fld, cfg)
    assert res.converged
    assert res.message == "steady state reached"
    assert res.steps == 10
