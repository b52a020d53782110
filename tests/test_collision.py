import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from momentflow.collision import collide_coeffs, relaxation_time
from momentflow.moments import HEAT_FLUX_SLOTS, heat_flux

from oracles import admissibility_violation, maxwellian, multi_indices, random_state


def _random_state(seed, M=5):
    return random_state(seed, M)


def _collide(coeffs, tau, prandtl, dt):
    """``collide_coeffs`` into a new array, ``tau`` as a numpy float or
    array, as the solver passes it."""
    return collide_coeffs(coeffs, np.asarray(tau, dtype=float), prandtl, dt,
                          np.empty_like(coeffs))


# ---------------------------------------------------------------------------
# tau law


def test_relaxation_time_value():
    want = 5.0 / 16.0 * math.sqrt(2.0 * math.pi) * 0.5
    assert relaxation_time(1.0, 1.0, 0.5) == pytest.approx(want, rel=1e-14)
    # prefactor (5/16) sqrt(2 pi) = 0.78333...; at Kn = 0.5 the value halves
    assert want == pytest.approx(0.78333 * 0.5, abs=5e-5)


def test_relaxation_time_scalings():
    base = relaxation_time(1.0, 1.0, 0.5)
    assert relaxation_time(2.0, 1.0, 0.5) == pytest.approx(base / 2, rel=1e-14)
    assert relaxation_time(1.0, 4.0, 0.5) == pytest.approx(base / 2, rel=1e-14)
    assert relaxation_time(1.0, 1.0, 1.0) == pytest.approx(2 * base, rel=1e-14)


# ---------------------------------------------------------------------------
# analytic collision behavior


def test_conserved_slots_untouched():
    s = _random_state(0)
    c0 = s.coeffs.copy()
    out = _collide(s.coeffs, tau=0.4, prandtl=2 / 3, dt=0.2)
    assert out[0, 0, 0] == s.rho
    for alpha in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
        assert out[alpha] == s.coeffs[alpha]
    np.testing.assert_array_equal(s.coeffs, c0)  # input left alone


def test_heat_flux_decay_rate():
    s = _random_state(1)
    tau, pr, dt = 0.6, 2 / 3, 0.23
    out = _collide(s.coeffs, tau, pr, dt)
    want = heat_flux(s.coeffs) * math.exp(-pr * dt / tau)
    np.testing.assert_allclose(heat_flux(out), want, rtol=1e-12, atol=1e-15)


def test_plain_slots_decay_at_full_rate():
    s = _random_state(2, M=6)
    tau, pr, dt = 0.5, 2 / 3, 0.31
    out = _collide(s.coeffs, tau, pr, dt)
    q_slots = set(HEAT_FLUX_SLOTS)
    decay = math.exp(-dt / tau)
    for alpha in multi_indices(s.M + 1):
        k = sum(alpha)
        got = out[alpha]
        if k <= 1:
            assert got == s.coeffs[alpha]
        elif alpha not in q_slots:
            assert got == pytest.approx(s.coeffs[alpha] * decay, rel=1e-12,
                                        abs=1e-15)


def test_pr_one_is_bgk_exactly():
    s = _random_state(3)
    tau, dt = 0.8, 0.4
    out = _collide(s.coeffs, tau, 1.0, dt)
    from momentflow.moments import order_cube

    K = s.coeffs.shape[-1]
    bgk = np.where(order_cube((K,) * 3) >= 2, s.coeffs * math.exp(-dt / tau), s.coeffs)
    np.testing.assert_array_equal(out, bgk)


def test_semigroup_composition():
    s = _random_state(4)
    tau, pr = 0.45, 2 / 3
    one = _collide(s.coeffs, tau, pr, 0.7)
    two = _collide(_collide(s.coeffs, tau, pr, 0.3), tau, pr, 0.4)
    np.testing.assert_allclose(two, one, rtol=1e-12, atol=1e-15)


def test_long_time_limit_is_maxwellian():
    s = _random_state(5)
    out = _collide(s.coeffs, tau=0.5, prandtl=2 / 3, dt=500.0)
    want = maxwellian(s.rho, s.u, s.theta, s.M).coeffs
    np.testing.assert_allclose(out, want, atol=1e-15)


def test_zero_dt_is_identity():
    s = _random_state(6)
    out = _collide(s.coeffs, tau=0.5, prandtl=2 / 3, dt=0.0)
    np.testing.assert_array_equal(out, s.coeffs)


def test_trace_invariant_preserved():
    s = _random_state(7)
    out = _collide(s.coeffs, tau=0.35, prandtl=2 / 3, dt=0.2)
    trace = out[2, 0, 0] + out[0, 2, 0] + out[0, 0, 2]
    assert abs(trace) < 1e-14


def test_against_ode_integration():
    # independent oracle: integrate the relaxation system numerically.  The
    # Shakhov target carries (1-Pr) q_i(t)/5 on each alpha = e_i + 2e_j slot
    # and zero elsewhere above order one, which closes the ODE in the nine
    # coupled slots; every other slot relaxes to zero.
    s = _random_state(8)
    tau, pr, dt = 0.52, 2 / 3, 0.37

    slots = list(HEAT_FLUX_SLOTS)
    y0 = np.array([s.coeffs[a] for a in slots])

    def rhs(_, y):
        c = s.coeffs.copy()
        for a, v in zip(slots, y):
            c[a] = v
        q = heat_flux(c)
        out = np.empty_like(y)
        for k, a in enumerate(slots):
            i = slots.index(a) // 3
            target = (1.0 - pr) * q[i] / 5.0
            out[k] = (target - y[k]) / tau
        return out

    sol = solve_ivp(rhs, (0.0, dt), y0, rtol=1e-12, atol=1e-14, method="DOP853")
    got = _collide(s.coeffs, tau, pr, dt)
    for k, a in enumerate(slots):
        assert got[a] == pytest.approx(sol.y[k, -1], rel=1e-9, abs=1e-12)
    # a non-coupled slot, for completeness
    other = (2, 2, 0)
    assert got[other] == pytest.approx(s.coeffs[other] * math.exp(-dt / tau),
                                       rel=1e-12)


def test_batched_matches_single_with_per_cell_tau():
    states = [_random_state(seed) for seed in (10, 11, 12)]
    batch = np.stack([s.coeffs for s in states])
    taus = np.array([0.3, 0.5, 0.9])
    out = _collide(batch, taus, 2 / 3, 0.2)
    for i, s in enumerate(states):
        single = _collide(s.coeffs, taus[i], 2 / 3, 0.2)
        np.testing.assert_array_equal(out[i], single)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 10_000),
    st.floats(0.1, 2.0, allow_nan=False),
    st.floats(0.05, 1.0, allow_nan=False),
    st.floats(0.0, 1.5, allow_nan=False),
)
def test_admissibility_preserved(seed, tau, pr, dt):
    s = _random_state(seed, M=4)
    out = _collide(s.coeffs, tau, pr, dt)
    assert admissibility_violation(s.theta, out) is None
