import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentflow.moments import grade_mask
from momentflow.projection import project_coeffs, renormalize_arrays, shift_kernel
from momentflow.solver1d import Grid1D, _stage_state

import oracles
from oracles import (State, admissibility_violation, cube_from_dict,
                     even_slots, expansion_eval, maxwellian, mirror_even)
from oracles import random_state as _random_state


def _project(s, u_new, theta_new):
    """The state s re-expanded about (u_new, theta_new)."""
    c = project_coeffs(s.coeffs, s.u, s.theta, u_new, theta_new)
    return State(u_new, theta_new, c)


# ---------------------------------------------------------------------------
# kernel


def test_shift_kernel_seeds():
    h = shift_kernel(0.0, 0.0, 5)
    np.testing.assert_array_equal(h, [1, 0, 0, 0, 0, 0])
    h = shift_kernel(0.3, 0.0, 4)
    # pure velocity shift: h_n = du^n / n!
    np.testing.assert_allclose(h, [0.3**n / math.factorial(n) for n in range(5)],
                               rtol=1e-14)


@given(
    st.floats(-0.5, 0.5, allow_nan=False),
    st.floats(-0.3, 0.3, allow_nan=False),
)
def test_shift_kernel_recursion(du, dtheta):
    h = shift_kernel(du, dtheta, 6)
    assert h[0] == 1.0
    for n in range(1, 7):
        prev2 = h[n - 2] if n >= 2 else 0.0
        assert n * h[n] == pytest.approx(du * h[n - 1] + dtheta * prev2,
                                         rel=1e-12, abs=1e-15)


def test_shift_kernel_batched():
    du = np.array([0.1, -0.2, 0.0])
    dth = np.array([0.05, 0.0, -0.1])
    h = shift_kernel(du, dth, 5)
    assert h.shape == (3, 6)
    for i in range(3):
        np.testing.assert_array_equal(h[i], shift_kernel(du[i], dth[i], 5))


# ---------------------------------------------------------------------------
# projection


def test_identity_shift_is_exact():
    s = _random_state(0)
    out = project_coeffs(s.coeffs, s.u, s.theta, s.u, s.theta)
    np.testing.assert_array_equal(out, s.coeffs)


def test_mass_slot_preserved_exactly():
    s = _random_state(1)
    u_new = s.u + [0.09, -0.04, 0.02]
    out = project_coeffs(s.coeffs, s.u, s.theta, u_new, s.theta * 1.07)
    assert out[0, 0, 0] == s.coeffs[0, 0, 0]


def test_first_moment_slots_track_frame_shift():
    # starting from an admissible state, f'_{e_d} = f_0 (u_d - u'_d)
    s = _random_state(2)
    du = np.array([0.08, -0.03, 0.05])
    out = project_coeffs(s.coeffs, s.u, s.theta, s.u + du, s.theta)
    want = -s.rho * du
    got = np.array([out[1, 0, 0], out[0, 1, 0], out[0, 0, 1]])
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)


def test_rejects_nonpositive_theta():
    # the solver's frame changes take their target temperature from a
    # renormalization; the stage guard rejects a non-positive one before any
    # state is built on it
    s = _random_state(3)
    c = s.coeffs.copy()
    c[2, 0, 0] -= 2.0 * s.theta * s.rho     # pushes the recovered theta below 0
    g = Grid1D(-0.5, 0.5, s.u[None], [s.theta], s.coeffs[None])
    with pytest.raises(RuntimeError, match="temperature .* cell 0 after renormalize"):
        _stage_state(g, c[None], "renormalize")


def test_round_trip_exact_on_stored_orders():
    # the map is graded-triangular, so there is no truncation leakage into
    # retained slots and the round trip is machine-exact
    s = _random_state(4)
    du = np.array([0.1, -0.06, 0.02])
    fwd = _project(s, s.u + du, s.theta * 1.1)
    back = _project(fwd, s.u, s.theta)
    np.testing.assert_allclose(back.coeffs, s.coeffs, rtol=5e-13, atol=1e-15)


def test_maxwellian_projection_pointwise_error_shrinks_with_M():
    rho, u, theta = 1.0, np.array([0.15, -0.1, 0.05]), 1.0
    xi = np.random.default_rng(5).uniform(-3, 3, size=(64, 3))
    ref = maxwellian(rho, u, theta, 3)

    def err_at(M):
        s = maxwellian(rho, u, theta, M)
        moved = _project(s, u + [0.25, 0.0, -0.15], theta * 1.15)
        exact = ref.evaluate(xi)
        return np.linalg.norm(moved.evaluate(xi) - exact) / np.linalg.norm(exact)

    errs = [err_at(M) for M in (3, 5, 7, 9)]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-5


def test_small_shift_pointwise_accuracy():
    # |du| <= 0.1 sqrt(theta), |dtheta| <= 0.1 theta on order-4 states.  The
    # truncation error of the exact re-expansion at this shift size sits at
    # ~1e-3..1e-2 in relative L2 (it is 1.4e-3 already for a pure Maxwellian
    # at the box corner), so the pointwise-agreement bound is phrased against
    # the distribution's peak: rms error / max|f| <= 1e-3.
    s = _random_state(6)
    rt = math.sqrt(s.theta)
    du = np.array([0.07, -0.05, 0.04]) * rt
    out = _project(s, s.u + du, s.theta * 0.93)
    xi = np.random.default_rng(7).uniform(-3.5, 3.5, size=(200, 3)) * rt + s.u
    a = s.evaluate(xi)
    b = out.evaluate(xi)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) <= 2e-2
    assert np.sqrt(np.mean((a - b) ** 2)) / np.max(np.abs(a)) <= 1e-3


def test_project_coeffs_batched_matches_single():
    states = [_random_state(seed) for seed in (10, 11, 12)]
    coeffs = np.stack([s.coeffs for s in states])
    u = np.stack([s.u for s in states])
    th = np.array([s.theta for s in states])
    u_new = u + np.array([[0.05, 0.0, -0.02]] * 3)
    th_new = th * np.array([1.05, 0.97, 1.0])
    batch = project_coeffs(coeffs, u, th, u_new, th_new)
    for i, s in enumerate(states):
        single = project_coeffs(s.coeffs, s.u, s.theta, u_new[i], th_new[i])
        np.testing.assert_allclose(batch[i], single, rtol=1e-13, atol=1e-16)


def test_project_coeffs_results_are_not_shared():
    # a result handed back without ``out`` is the caller's: a later call of
    # the same shape leaves it as it was
    s, t = _random_state(41), _random_state(42)
    first = project_coeffs(s.coeffs, s.u, s.theta, t.u, t.theta)
    want = first.copy()
    second = project_coeffs(t.coeffs, t.u, t.theta, s.u, s.theta)
    np.testing.assert_array_equal(first, want)
    assert not np.shares_memory(first, second)


def test_project_coeffs_out_and_strided_input_match_new_array():
    # ``out`` receives the same values a new array would, and so do inputs
    # strided across the batch or inside the cube
    s = _random_state(43)
    u_new, th_new = s.u + 0.1, s.theta * 1.2
    cubes = np.stack([s.coeffs, 2.0 * s.coeffs])
    want = project_coeffs(cubes, s.u, s.theta, u_new, th_new)
    spread = np.zeros((3,) + s.coeffs.shape[:-1] + (2 * s.coeffs.shape[-1],))
    spread[::2, ..., ::2] = cubes
    for view in (spread[::2, ..., ::2], np.stack([cubes[0], s.coeffs, cubes[1]])[::2]):
        out = np.full_like(cubes, np.nan)
        got = project_coeffs(view, s.u, s.theta, u_new, th_new, out=out)
        assert got is out
        np.testing.assert_array_equal(out, want)


def test_project_coeffs_broadcast_common_target():
    # one shared target frame for a batch, as used in the flux assembly
    states = [_random_state(seed) for seed in (13, 14)]
    coeffs = np.stack([s.coeffs for s in states])
    u = np.stack([s.u for s in states])
    th = np.array([s.theta for s in states])
    u_c = u.mean(axis=0)
    th_c = float(th.mean())
    out = project_coeffs(coeffs, u, th, u_c, th_c)
    for i, s in enumerate(states):
        single = project_coeffs(s.coeffs, s.u, s.theta, u_c, th_c)
        np.testing.assert_allclose(out[i], single, rtol=1e-13, atol=1e-16)


def test_top_grade_masked_out_of_band():
    # projected cubes must stay supported on |alpha| <= M+1
    s = _random_state(15)
    out = _project(s, s.u + [0.3, 0.2, -0.1], s.theta * 1.3).coeffs
    K = out.shape[-1]
    assert np.all(out[~grade_mask((K,) * 3, K - 1)] == 0.0)


@pytest.mark.parametrize("axes", [(0,), (2,), (0, 2)])
@pytest.mark.parametrize("M", [3, 6, 10])
def test_reduced_projection_equals_the_full_even_slots(axes, M):
    # a frame change that keeps the frame velocity along the reduced axes
    # at zero, batched as in the flux assembly: the reduced cube's result
    # is the full one's on the stored slots, and the full result stays even
    rng = np.random.default_rng(M)
    K = M + 1
    full = mirror_even(rng.standard_normal((2, 5, K, K, K))
                       * grade_mask((K,) * 3, M), axes)
    u, u_new = rng.uniform(-0.5, 0.5, (2, 2, 5, 3))
    u[..., list(axes)] = u_new[..., list(axes)] = 0.0
    theta, theta_new = rng.uniform(0.6, 1.6, (2, 2, 5))
    want = project_coeffs(full, u, theta, u_new, theta_new)
    np.testing.assert_array_equal(want, mirror_even(want, axes))
    got = project_coeffs(even_slots(full, axes), u, theta, u_new, theta_new)
    np.testing.assert_allclose(got, even_slots(want, axes), rtol=0.0,
                               atol=1e-14 * np.max(np.abs(want)))


@pytest.mark.parametrize("axes", [(2,), (0, 2)])
def test_reduced_renormalization_equals_the_full_even_slots(axes):
    rng = np.random.default_rng(7)
    K = 6
    full = mirror_even(0.05 * rng.standard_normal((4, K, K, K))
                       * grade_mask((K,) * 3, K - 1), axes)
    full[:, 0, 0, 0] = rng.uniform(0.5, 2.0, 4)
    u = rng.uniform(-0.5, 0.5, (4, 3))
    u[:, list(axes)] = 0.0
    theta = rng.uniform(0.6, 1.6, 4)
    u_f, th_f, c_f = renormalize_arrays(u, theta, full)
    u_r, th_r, c_r = renormalize_arrays(u, theta, even_slots(full, axes))
    np.testing.assert_array_equal(u_r, u_f)
    np.testing.assert_array_equal(th_r, th_f)
    assert np.all(u_r[:, list(axes)] == 0.0)
    np.testing.assert_allclose(c_r, even_slots(c_f, axes), rtol=0.0,
                               atol=1e-14 * np.max(np.abs(c_f)))


def test_renormalize_into_out_is_the_fresh_result():
    rng = np.random.default_rng(5)
    c = 0.05 * rng.standard_normal((3, 5, 5, 5)) * grade_mask((5,) * 3, 4)
    c[:, 0, 0, 0] = rng.uniform(0.5, 2.0, 3)
    u = rng.uniform(-0.5, 0.5, (3, 3))
    theta = rng.uniform(0.6, 1.6, 3)
    want = renormalize_arrays(u, theta, c)
    out = np.full_like(c, np.nan)
    got = renormalize_arrays(u, theta, c, out=out)
    assert got[2] is out
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_renormalize_recovers_admissibility(seed):
    rng = np.random.default_rng(seed)
    u, theta, f = oracles.random_admissible(rng, 4)
    c = cube_from_dict(4, f)
    # knock the state off its frame the way a conservative update does
    c[1, 0, 0] = 0.02 * c[0, 0, 0]
    c[0, 1, 0] = -0.015 * c[0, 0, 0]
    c[2, 0, 0] += 0.01 * c[0, 0, 0]
    u2, th2, c2 = renormalize_arrays(u, theta, c)
    assert admissibility_violation(th2, c2) is None
    # recovered frame shifts match the slot formulas
    np.testing.assert_allclose(
        u2, u + np.array([c[1, 0, 0], c[0, 1, 0], c[0, 0, 1]]) / c[0, 0, 0],
        rtol=1e-13,
    )


def test_renormalize_preserves_represented_function():
    s = _random_state(16)
    c = s.coeffs.copy()
    c[1, 0, 0] = 0.03 * c[0, 0, 0]
    u2, th2, c2 = renormalize_arrays(s.u, s.theta, c)
    xi = np.random.default_rng(17).uniform(-2.5, 2.5, size=(100, 3))
    a = expansion_eval(c, s.u, s.theta, xi)
    b = expansion_eval(c2, u2, th2, xi)
    # the 3% frame nudge loses only top-grade truncation terms, linear in
    # the shift: measured ~1e-4 relative
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 5e-4
