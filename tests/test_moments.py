import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentflow.collision import collide_coeffs
from momentflow.moments import (
    SNAPSHOT_COLUMNS,
    axis_steps,
    grade_mask,
    heat_flux,
    order_cube,
    read_slots,
    read_snapshot,
    snapshot_table,
    stress_tensor,
    write_table,
)
from momentflow.solver1d import Grid1D

import oracles
from oracles import (admissibility_violation, cube_from_dict, even_slots,
                     expansion_eval, maxwellian, mirror_even, multi_indices)


# ---------------------------------------------------------------------------
# index bookkeeping


def test_n_moments_formula():
    # the number of kept slots, |alpha| <= M + 1, in a cube of edge M + 2
    for M in range(3, 13):
        n = int(np.count_nonzero(grade_mask((M + 2,) * 3, M + 1)))
        assert n == (M + 2) * (M + 3) * (M + 4) // 6
        assert n == len(multi_indices(M + 1))


def test_multi_indices_is_graded_bijection():
    order = 7
    idx = multi_indices(order)
    assert len(set(idx)) == len(idx)
    grades = [sum(a) for a in idx]
    assert grades == sorted(grades)  # graded
    assert set(idx) == {
        (a, b, c)
        for a in range(order + 1)
        for b in range(order + 1)
        for c in range(order + 1)
        if a + b + c <= order
    }
    assert idx[:4] == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_order_cube_and_grade_mask():
    K = 6
    cube = order_cube((K,) * 3)
    assert cube[2, 3, 0] == 5
    for m in range(K):
        mask = grade_mask((K,) * 3, m)
        assert np.array_equal(mask, cube <= m)
    with pytest.raises(ValueError):
        order_cube((K,) * 3)[0, 0, 0] = 9  # shared cache must be read-only


# ---------------------------------------------------------------------------
# even-only layout along a1 / a3

LAYOUTS = [(0,), (2,), (0, 2)]


def _mirror_cells(rng, n, M, axes):
    """n random cells of order M, even along ``axes``: their frame
    velocity along those axes is zero, and the full cubes."""
    K = M + 1
    full = rng.standard_normal((n, K, K, K)) * grade_mask((K,) * 3, M)
    full = mirror_even(full, axes)
    full[:, 0, 0, 0] = rng.uniform(0.5, 2.0, n)
    u = rng.uniform(-0.5, 0.5, (n, 3))
    u[:, list(axes)] = 0.0
    return u, rng.uniform(0.6, 1.6, n), full


@pytest.mark.parametrize("K", [4, 5, 11])
def test_layout_is_read_from_the_cube_shape(K):
    h = (K + 1) // 2
    assert axis_steps((K, K, K)) == (1, 1, 1)
    assert axis_steps((h, K, K)) == (2, 1, 1)
    assert axis_steps((h, K, h)) == (2, 1, 2)
    # the a2 axis is never reduced: it sets K
    for bad in [(K, h, K), (K + 1, K, K), (h - 1, K, K), (K, K, h + 1)]:
        with pytest.raises(ValueError, match="not a coefficient layout"):
            axis_steps(bad)
    orders = order_cube((h, K, h))
    assert orders[1, 0, 0] == 2 and orders[0, 3, 1] == 5
    np.testing.assert_array_equal(
        orders, order_cube((K,) * 3)[::2, :, ::2])


@pytest.mark.parametrize("axes", LAYOUTS)
def test_slot_map_reads_absent_slots_as_zero(axes):
    # every multi-index of the cube, and some beyond it, read from the
    # reduced cube equal the full cube's value; odd orders along a reduced
    # axis read as zero, as the full cube holds them
    rng = np.random.default_rng(11)
    M = 6
    full = mirror_even(rng.standard_normal((2, M + 1, M + 1, M + 1)), axes)
    alphas = multi_indices(3 * M)
    got = read_slots(even_slots(full, axes), alphas)
    want = np.array([[c[a] if max(a) <= M else 0.0 for a in alphas]
                     for c in full])
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("axes", LAYOUTS)
def test_reduced_readers_equal_the_full_cube(axes):
    # totals, stress, heat flux and the snapshot table read the same values
    # from a reduced cube as from its full cube, bit for bit
    rng = np.random.default_rng(12)
    u, theta, full = _mirror_cells(rng, 5, 5, axes)
    gf = Grid1D(-0.5, 0.5, u, theta, full)
    gr = Grid1D(-0.5, 0.5, u, theta, even_slots(full, axes))
    assert gr.coeffs.shape != gf.coeffs.shape and gr.M == gf.M == 5
    assert gr.total_mass() == gf.total_mass()
    np.testing.assert_array_equal(gr.total_momentum(), gf.total_momentum())
    assert gr.total_energy() == gf.total_energy()
    np.testing.assert_array_equal(stress_tensor(gr.coeffs), stress_tensor(full))
    np.testing.assert_array_equal(heat_flux(gr.coeffs), heat_flux(full))
    np.testing.assert_array_equal(
        snapshot_table(gr.centers, u, theta, gr.coeffs),
        snapshot_table(gf.centers, u, theta, full))


@pytest.mark.parametrize("axes", LAYOUTS)
def test_reduced_collision_equals_the_full_even_slots(axes):
    rng = np.random.default_rng(13)
    _, _, full = _mirror_cells(rng, 4, 6, axes)
    tau = rng.uniform(0.2, 1.0, 4)
    want = collide_coeffs(full, tau, 2.0 / 3.0, 0.3)
    got = collide_coeffs(even_slots(full, axes), tau, 2.0 / 3.0, 0.3)
    np.testing.assert_array_equal(got, even_slots(want, axes))
    # the full update keeps the odd orders along a reduced axis at zero
    np.testing.assert_array_equal(want, mirror_even(want, axes))


@pytest.mark.parametrize("axes", [(), (0, 2)])
def test_snapshot_row_of_a_non_finite_cube_is_non_finite(axes):
    # a NaN in a slot no column reads still marks its cell's row
    rng = np.random.default_rng(15)
    u, theta, full = _mirror_cells(rng, 4, 5, axes)
    cubes = even_slots(full, axes)
    cubes[2, -1, 1, 0] = np.nan
    table = snapshot_table(np.arange(4.0), u, theta, cubes)
    assert np.all(np.isnan(table[2, 1:])) and table[2, 0] == 2.0
    assert np.all(np.isfinite(np.delete(table, 2, axis=0)))


def test_grid_rejects_frame_velocity_along_a_reduced_axis():
    rng = np.random.default_rng(14)
    u, theta, full = _mirror_cells(rng, 3, 4, (2,))
    u[1, 2] = 0.1
    Grid1D(-0.5, 0.5, u, theta, full)
    with pytest.raises(ValueError, match="velocity u3 must be zero along a mirrored velocity axis"):
        Grid1D(-0.5, 0.5, u, theta, even_slots(full, (2,)))
    with pytest.raises(ValueError, match="not a coefficient layout"):
        Grid1D(-0.5, 0.5, u, theta, full[:, :4, :, :4])


def test_cube_from_dict_drops_out_of_range():
    M = 3
    c = cube_from_dict(M, {(0, 0, 0): 2.0, (2, 2, 2): 5.0, (4, 0, 0): 1.5})
    assert c[0, 0, 0] == 2.0
    assert c[4, 0, 0] == 1.5  # |alpha| = 4 = M+1 kept
    assert c[2, 2, 2] == 0.0  # |alpha| = 6 > M+1 dropped


# ---------------------------------------------------------------------------
# states


def test_maxwellian_examples():
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    assert s.rho == 1.0
    assert np.count_nonzero(s.coeffs) == 1
    assert np.all(stress_tensor(s.coeffs) == 0.0)
    assert np.all(heat_flux(s.coeffs) == 0.0)
    assert admissibility_violation(s.theta, s.coeffs) is None


def test_maxwellian_rejects_bad_inputs():
    # the library builds its Maxwellian cells in Grid1D.from_fields
    with pytest.raises(ValueError):
        Grid1D.from_fields(-0.5, 0.5, np.zeros(2), np.zeros(3), 1.0, 3)
    with pytest.raises(ValueError):
        Grid1D.from_fields(-0.5, 0.5, np.ones(2), np.zeros(3), -2.0, 3)
    with pytest.raises(ValueError):
        Grid1D.from_fields(-0.5, 0.5, np.ones(2), np.zeros(3), 1.0, 2)


def test_validate_reports_first_violation():
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    s.coeffs[0, 1, 0] = 1e-3
    report = admissibility_violation(s.theta, s.coeffs)
    assert report is not None and "e_2" in report
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    s.coeffs[2, 0, 0] = 1e-4  # breaks the trace, not f_{e_i}
    assert admissibility_violation(s.theta, s.coeffs) == "sum_d f_(2 e_d) != 0"


@pytest.mark.parametrize("slot", ["rho", "theta"])
def test_validate_rejects_nan_density_and_temperature(slot):
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    theta = s.theta
    if slot == "rho":
        s.coeffs[0, 0, 0] = np.nan
    else:
        theta = np.nan
    assert admissibility_violation(theta, s.coeffs) == "%s is not positive: nan" % slot


def test_validate_passes_after_collision():
    s = oracles.random_state(4, 5)
    assert admissibility_violation(s.theta, s.coeffs) is None
    out = collide_coeffs(s.coeffs, tau=0.7, prandtl=2.0 / 3.0, dt=0.3)
    assert admissibility_violation(s.theta, out) is None


# ---------------------------------------------------------------------------
# macroscopic extraction vs quadrature


def test_stress_single_slot():
    s = maxwellian(1.0, np.zeros(3), 1.0, 3)
    s.coeffs[1, 1, 0] = 0.3
    sig = stress_tensor(s.coeffs)
    assert sig[0, 1] == 0.3 and sig[1, 0] == 0.3
    assert np.trace(sig) == 0.0


def test_heat_flux_single_slot():
    s = maxwellian(1.0, np.zeros(3), 1.0, 4)
    s.coeffs[3, 0, 0] = 0.1
    q = heat_flux(s.coeffs)
    assert q[0] == pytest.approx(0.3)
    assert q[1] == 0.0 and q[2] == 0.0


def _quad_extractors(u, theta, coeffs):
    """sigma and q of the expansion by 3-D Gauss quadrature."""

    def func(xi):
        return expansion_eval(coeffs, u, theta, xi)

    scale = math.sqrt(theta)
    m = {}
    for powers in [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1),
                   (0, 1, 1), (3, 0, 0), (1, 2, 0), (1, 0, 2), (2, 1, 0),
                   (0, 3, 0), (0, 1, 2), (2, 0, 1), (0, 2, 1), (0, 0, 3)]:
        m[powers] = oracles.raw_moment_quadrature(
            func, powers, npts=32, center=tuple(u), scale=scale
        )
    rho_theta = (m[2, 0, 0] + m[0, 2, 0] + m[0, 0, 2]) / 3.0
    sig = np.array(
        [
            [m[2, 0, 0] - rho_theta, m[1, 1, 0], m[1, 0, 1]],
            [m[1, 1, 0], m[0, 2, 0] - rho_theta, m[0, 1, 1]],
            [m[1, 0, 1], m[0, 1, 1], m[0, 0, 2] - rho_theta],
        ]
    )
    q = 0.5 * np.array(
        [
            m[3, 0, 0] + m[1, 2, 0] + m[1, 0, 2],
            m[2, 1, 0] + m[0, 3, 0] + m[0, 1, 2],
            m[2, 0, 1] + m[0, 2, 1] + m[0, 0, 3],
        ]
    )
    return sig, q


def test_extractors_match_quadrature():
    rng = np.random.default_rng(5)
    for M in (4, 6):
        u, theta, f = oracles.random_admissible(rng, M)
        coeffs = cube_from_dict(M, f)
        sig_q, q_q = _quad_extractors(u, theta, coeffs)
        sig = stress_tensor(coeffs)
        q = heat_flux(coeffs)
        scale = max(1.0, np.max(np.abs(sig_q)))
        assert np.max(np.abs(sig - sig_q)) <= 1e-8 * scale
        scale = max(1.0, np.max(np.abs(q_q)))
        assert np.max(np.abs(q - q_q)) <= 1e-8 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_stress_symmetric_traceless(seed):
    rng = np.random.default_rng(seed)
    u, theta, f = oracles.random_admissible(rng, 3)
    sig = stress_tensor(cube_from_dict(3, f))
    assert np.array_equal(sig, sig.T)
    assert abs(np.trace(sig)) <= 1e-12 * max(1.0, np.max(np.abs(sig)))


def test_extractors_batched():
    rng = np.random.default_rng(6)
    cubes, sigs, qs = [], [], []
    for _ in range(5):
        _, _, f = oracles.random_admissible(rng, 4)
        c = cube_from_dict(4, f)
        cubes.append(c)
        sigs.append(stress_tensor(c))
        qs.append(heat_flux(c))
    batch = np.stack(cubes)
    np.testing.assert_array_equal(stress_tensor(batch), np.stack(sigs))
    np.testing.assert_array_equal(heat_flux(batch), np.stack(qs))


# ---------------------------------------------------------------------------
# snapshot files


def test_snapshot_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    n = 6
    coeffs = np.stack(
        [cube_from_dict(4, oracles.random_admissible(rng, 4)[2]) for _ in range(n)]
    )
    u = rng.uniform(-0.3, 0.3, size=(n, 3))
    theta = rng.uniform(0.8, 1.2, size=n)
    centers = np.linspace(-0.45, 0.45, n)
    path = tmp_path / "snap.csv"
    table = snapshot_table(centers, u, theta, coeffs)
    write_table(path, table)
    cols = read_snapshot(path)
    assert tuple(cols) == SNAPSHOT_COLUMNS
    for i, name in enumerate(SNAPSHOT_COLUMNS):
        np.testing.assert_array_equal(cols[name], table[:, i])  # %.17g round-trips
