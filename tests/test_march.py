"""The marching loop and stop rule shared by the moment and DVM solvers."""

import re

import numpy as np
import pytest

from momentflow import scenarios
from momentflow.boundary import WallSpec
from momentflow.cdvm import DvField, DvGrid, dv_run
from momentflow.march import (CHECK_EVERY, RESIDUAL_FLOOR, RunOptions, march,
                              minmod)
from momentflow.solver1d import Grid1D, RunConfig, run

NAN = float("nan")
INF = float("inf")
# the configs the NRxx and the DVM solver run on; the DVM's cases keep the
# id DvRunConfig, its config's name until it ran on RunOptions itself
BOTH_CONFIGS = pytest.mark.parametrize("make", [RunConfig, RunOptions],
                                       ids=["RunConfig", "DvRunConfig"])


@pytest.mark.parametrize(
    "make",
    [lambda **kw: RunConfig(M=3, kn=0.1, **kw), lambda **kw: RunOptions(kn=0.1, **kw)],
    ids=["RunConfig", "DvRunConfig"],
)
@pytest.mark.parametrize(
    "kw",
    [
        dict(t_end=NAN),
        dict(t_end=-1.0),
        dict(t_end=0.0),
        dict(steady_tol=0.0),
        dict(steady_tol=-1e-3),
        dict(steady_tol=NAN),
        dict(t_end=1.0, steady_tol=NAN),
        dict(t_end=1.0, max_steps=0),
        dict(t_end=1.0, max_steps=None),
    ],
    ids=["t_end-nan", "t_end-negative", "t_end-zero", "steady_tol-zero",
         "steady_tol-negative", "steady_tol-nan", "steady_tol-nan-with-t_end",
         "max_steps-zero", "max_steps-none"],
)
def test_configs_reject_stop_options_that_run_no_step(make, kw):
    with pytest.raises(ValueError):
        make(**kw)


@BOTH_CONFIGS
def test_configs_name_a_none_step_budget(make):
    # a config built in code gets the message of a config file's
    # "max_steps = none", which fails in the parser
    extra = dict(M=3) if make is RunConfig else {}
    with pytest.raises(ValueError,
                       match="max_steps must be an integer, got None"):
        make(kn=0.1, t_end=1.0, max_steps=None, **extra)


@BOTH_CONFIGS
@pytest.mark.parametrize("kw, message", [
    (dict(), "set an end time and/or a steady tolerance"),
    (dict(t_end=-1.0), "t_end must be positive, got -1.0"),
    (dict(steady_tol=NAN), "steady_tol must be positive, got nan"),
    (dict(t_end=1.0, max_steps=0), "max_steps must be positive, got 0"),
    (dict(t_end=1.0, cfl=1.5), "CFL must lie in (0, 1]"),
    (dict(t_end=1.0, kn=0.0), "Knudsen number must be positive"),
    (dict(t_end=1.0, pr=NAN), "Prandtl number must lie in (0, 1]"),
], ids=["no-stop", "t_end", "steady_tol", "max_steps", "cfl", "kn", "pr"])
def test_both_configs_reject_a_shared_option_with_one_message(make, kw, message):
    # the eight shared options are declared and checked once, in RunOptions
    extra = dict(M=3) if make is RunConfig else {}
    with pytest.raises(ValueError) as err:
        make(**{"kn": 0.1, **kw, **extra})
    assert str(err.value) == message


@BOTH_CONFIGS
@pytest.mark.parametrize("kw, message", [
    (dict(t_end=1.0, max_steps=True), "max_steps must be an integer, got True"),
    (dict(t_end=1.0, max_steps=10.0), "max_steps must be an integer, got 10.0"),
    (dict(t_end=1.0, kn="0.1"), "kn must be a number, got '0.1'"),
    (dict(t_end=1.0, kn=None), "kn must be a number, got None"),
    (dict(t_end=1.0, cfl=True), "cfl must be a number, got True"),
    (dict(t_end=1.0, pr=None), "pr must be a number, got None"),
    (dict(t_end="1.0"), "t_end must be a number, got '1.0'"),
    (dict(steady_tol=False), "steady_tol must be a number, got False"),
], ids=["max_steps-bool", "max_steps-float", "kn-str", "kn-none", "cfl-bool",
        "pr-none", "t_end-str", "steady_tol-bool"])
def test_both_configs_name_a_shared_option_of_the_wrong_kind(make, kw, message):
    # checked before any comparison, so no bare TypeError and no bool
    # taken for a number
    extra = dict(M=3) if make is RunConfig else {}
    with pytest.raises(ValueError) as err:
        make(**{"kn": 0.1, **kw, **extra})
    assert str(err.value) == message


@pytest.mark.parametrize("make, limiter, message", [
    (RunConfig, "superbee",
     "limiter must be 'none', 'central' or 'minmod', got 'superbee'"),
    (RunConfig, None,
     "limiter must be 'none', 'central' or 'minmod', got None"),
    (RunOptions, "superbee", "limiter must be 'none' or 'minmod', got 'superbee'"),
    (RunOptions, "central", "limiter must be 'none' or 'minmod', got 'central'"),
], ids=["RunConfig-superbee", "RunConfig-none", "DvRunConfig-superbee",
        "RunOptions-central"])
def test_each_config_checks_the_limiter_against_its_own_choices(make, limiter,
                                                                message):
    # the limiter is declared and checked once, in RunOptions, against the
    # LIMITERS of the config's class; each solver's config names its own
    # choices and its default
    extra = dict(M=3) if make is RunConfig else {}
    assert make(kn=0.1, t_end=1.0, **extra).limiter == {
        RunConfig: "central", RunOptions: "none"}[make]
    with pytest.raises(ValueError) as err:
        make(kn=0.1, t_end=1.0, limiter=limiter, **extra)
    assert str(err.value) == message


def _in_cell_2(v):
    """The velocities of 4 cells, zero but ``v`` in cell 2."""
    u = np.zeros((4, 3))
    u[2] = v
    return u


# the callers of march.finite_vectors, each given a velocity v: a body
# force, a wall velocity, and the initial velocity of a state's cell 2 of 4
# (both solvers) or of a config's one cell
VECTOR_CALLERS = {
    "force": (lambda v: RunConfig(M=3, kn=0.1, t_end=1.0, force=v),
              "force must be a finite 3-vector"),
    "u_wall": (lambda v: WallSpec(u_wall=v),
               "wall velocity u_wall must be a finite 3-vector"),
    "Grid1D": (lambda v: Grid1D.from_fields(-0.5, 0.5, np.ones(4),
                                            _in_cell_2(v), 1.0, 3),
               "velocity u must be a finite 3-vector in cell 2"),
    "DvField": (lambda v: DvField.from_fields(DvGrid(6.0, (8, 8, 8)), -0.5, 0.5,
                                              np.ones(4), _in_cell_2(v), 1.0),
                "velocity u must be a finite 3-vector in cell 2"),
    "ScenarioConfig": (lambda v: scenarios.preset("couette", M=3, cells=8,
                                                  t_end=0.01, u0=v),
                       "velocity u must be a finite 3-vector in cell 0"),
}


@pytest.mark.parametrize("caller", VECTOR_CALLERS)
@pytest.mark.parametrize("v", [(NAN, 0.0, 0.0), (0.0, 0.0, INF),
                               (0.0, -INF, 0.0)], ids=["nan", "inf", "-inf"])
def test_one_rule_rejects_a_velocity_that_is_not_finite(caller, v):
    # march.finite_vectors is the one finite-3-vector rule; a non-finite
    # initial velocity once passed every check and failed at step 1 as a
    # density error
    build, message = VECTOR_CALLERS[caller]
    with pytest.raises(ValueError) as err:
        build(v)
    assert str(err.value) == message


@pytest.mark.parametrize("caller", ["force", "u_wall"])
@pytest.mark.parametrize("v", [(0.2, 0.0), np.zeros((2, 3))],
                         ids=["short", "batch"])
def test_one_rule_rejects_a_vector_of_the_wrong_shape(caller, v):
    build, message = VECTOR_CALLERS[caller]
    with pytest.raises(ValueError) as err:
        build(v)
    assert str(err.value) == message


# both states of march.Slab, built from fields by march.initial_fields
SLAB_STATES = {
    "Grid1D": lambda y_lo, y_hi, rho, u, theta, mirrored=(): Grid1D.from_fields(
        y_lo, y_hi, rho, u, theta, 3, mirrored),
    "DvField": lambda y_lo, y_hi, rho, u, theta, mirrored=(): DvField.from_fields(
        DvGrid(6.0, (8, 8, 8), mirrored), y_lo, y_hi, rho, u, theta),
}


@pytest.mark.parametrize("state", SLAB_STATES)
def test_both_states_have_one_slab_geometry_and_front_end(state):
    build = SLAB_STATES[state]
    st = build(-0.5, 0.5, np.full(10, 1.2), (0.1, 0.2, 0.0), 0.9)
    assert st.n == 10 and st.dx == pytest.approx(0.1)
    np.testing.assert_allclose(st.centers, -0.45 + 0.1 * np.arange(10))
    rho = np.ones(4)
    rho[2] = NAN
    for args, message in (
        ((0.5, -0.5, np.ones(4), np.zeros(3), 1.0), "empty domain"),
        ((0.0, INF, np.ones(4), np.zeros(3), 1.0), "infinite domain"),
        ((-0.5, 0.5, rho, np.zeros(3), 1.0),
         "non-positive or non-finite density (nan) in cell 2"),
        ((-0.5, 0.5, np.ones(4), np.zeros(3), [1.0, -1.0, 1.0, 1.0]),
         "non-positive or non-finite temperature (-1.0) in cell 1"),
        ((-0.5, 0.5, np.ones(4), (0.0, 0.0, 0.2), 1.0, (2,)),
         "velocity u3 must be zero along a mirrored velocity axis"),
    ):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message


@pytest.mark.parametrize("M, message", [
    (3.5, "M must be an integer, got 3.5"),
    (None, "M must be an integer, got None"),
    (True, "M must be an integer, got True"),
    ("5", "M must be an integer, got '5'"),
], ids=["float", "none", "bool", "str"])
def test_run_config_names_an_order_of_the_wrong_kind(M, message):
    with pytest.raises(ValueError) as err:
        RunConfig(M=M, kn=0.1, t_end=1.0)
    assert str(err.value) == message


@BOTH_CONFIGS
def test_configs_take_numbers_of_any_real_kind(make):
    # numpy scalars and ints for float fields are numbers; None is taken
    # where the default is None
    extra = dict(M=np.int64(3)) if make is RunConfig else {}
    cfg = make(kn=np.float64(0.1), pr=1, t_end=None, steady_tol=np.float32(1e-3),
               max_steps=np.int32(5), **extra)
    assert cfg.t_end is None and cfg.max_steps == 5


@pytest.mark.parametrize("shape", [(40, 9), (40, 3, 1000)],
                         ids=["one-block", "several-blocks"])
def test_minmod_is_the_two_term_formula(shape):
    # max(min(a, b), 0) + min(max(a, b), 0) on values of both signs, with
    # zeros and ties, into an output that aliases neither input
    rng = np.random.default_rng(7)
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape)
    a[::3] = 0.0
    b[:, ::4] = 0.0
    b[::5] = a[::5]
    want = np.maximum(np.minimum(a, b), 0.0) + np.minimum(np.maximum(a, b), 0.0)
    out = np.full_like(a, np.nan)
    assert minmod(a, b, out) is out
    np.testing.assert_array_equal(out, want)


def _small_couette(solver, **stop):
    sc = scenarios.preset(
        "couette", solver=solver, M=3, cells=8, dv_nodes=(12, 12, 12),
        dv_half_width=6.0, **stop,
    )
    if solver == "nrxx":
        return run, scenarios.build_grid(sc), scenarios.to_run_config(sc)
    return dv_run, scenarios.build_dv_field(sc), scenarios.to_dv_config(sc)


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
def test_both_solvers_share_one_stop_rule(solver):
    assert CHECK_EVERY == 10

    solve, state, cfg = _small_couette(solver, steady_tol=1e9)
    res = solve(state, cfg)
    assert (res.steps, res.converged) == (10, True)
    assert res.message == "steady state reached"
    assert len(res.residual_history) == 1

    solve, state, cfg = _small_couette(solver, steady_tol=1e-30, max_steps=25)
    res = solve(state, cfg)
    assert (res.steps, res.converged) == (25, False)
    assert "budget" in res.message
    assert len(res.residual_history) == 2
    assert np.all(res.residual_history > 0)

    solve, state, cfg = _small_couette(solver, steady_tol=None, t_end=0.1)
    seen = []
    res = solve(state, cfg, on_step=lambda t, st: seen.append((t, st)))
    assert res.t == pytest.approx(0.1, abs=1e-13)
    assert (res.converged, res.message) == (True, "reached end time")
    assert len(seen) == res.steps == len(res.dt_history)
    assert all(st is state for _, st in seen)
    np.testing.assert_allclose([t for t, _ in seen], np.cumsum(res.dt_history))
    assert len(res.residual_history) == 0
    # snapshot_interval 0 (the default) keeps only the final table
    assert len(res.snapshots) == 1 and res.snapshots[-1][0] == res.t


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
def test_budget_before_end_time_is_not_converged(solver):
    solve, state, cfg = _small_couette(solver, steady_tol=None, t_end=1e3,
                                       max_steps=3)
    res = solve(state, cfg)
    assert (res.steps, res.converged) == (3, False)
    assert res.message == "step budget exhausted before reaching end time"


@pytest.mark.parametrize("solver", ["nrxx", "cdvm"])
def test_end_time_with_steady_tol_set_is_converged(solver):
    # the preset's steady tolerance stays set and is checked, but the run
    # stops at its end time first: that is what was asked, not a failure
    solve, state, cfg = _small_couette(solver, t_end=0.5)
    assert cfg.steady_tol == 1e-6
    res = solve(state, cfg)
    assert res.t == pytest.approx(0.5, abs=1e-13)
    assert len(res.residual_history) >= 1
    assert np.all(res.residual_history > cfg.steady_tol)
    assert (res.converged, res.message) == (True, "reached end time")


# ---------------------------------------------------------------------------
# Anderson mixing of a pure steady run, on a toy affine map and no solver


class Affine:
    """The state x of the contraction x -> A x + b, marched at dt 1, with
    the get/put pair ``march`` mixes through; ``reject`` names the put
    calls (1-based) that refuse the mixed state."""

    def __init__(self, n=12, reject=()):
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        self.A = (q * np.linspace(0.3, 0.99, n)) @ q.T
        self.b = rng.standard_normal(n)
        self.fixed = np.linalg.solve(np.eye(n) - self.A, self.b)
        self.x = np.ones(n)
        self.reject, self.puts = reject, 0

    def advance(self, dt):
        self.x = self.A @ self.x + self.b

    def table(self):
        return np.column_stack([np.arange(self.x.size), self.x])

    def put(self, x):
        self.puts += 1
        if self.puts in self.reject:
            return False
        self.x = x.copy()
        return True

    def run(self, config, mix=True, on_step=None):
        vector = (lambda: self.x.copy(), self.put) if mix else None
        return march(self, config, lambda: 1.0, self.advance, self.table,
                     on_step=on_step, vector=vector)


STEADY = RunOptions(kn=1.0, steady_tol=1e-10)


def test_mixing_reaches_the_fixed_point_in_far_fewer_steps():
    plain, mixed = Affine(), Affine()
    res_plain = plain.run(STEADY, mix=False)
    res = mixed.run(STEADY)
    assert res.converged and res_plain.converged
    assert res.restarts == res_plain.restarts == 0
    np.testing.assert_allclose(mixed.x, mixed.fixed, rtol=0, atol=1e-10)
    np.testing.assert_allclose(plain.x, plain.fixed, rtol=1e-7)
    assert res.steps <= 30 and 20 * res.steps <= res_plain.steps
    # t sums the steps' dt, a pseudo-time
    assert res.t == res.steps == len(res.dt_history)


def test_a_rejected_mix_keeps_the_step_and_restarts_the_window():
    toy = Affine(reject=(5, 6))
    states = []

    def on_step(t, state):
        states.append(state.x.copy())

    res = toy.run(STEADY, on_step=on_step)
    assert res.converged and res.restarts == 2
    np.testing.assert_allclose(toy.x, toy.fixed, rtol=0, atol=1e-10)
    # the first step has no column to mix, so put call k follows step k + 1;
    # a rejected mix leaves the plain step of the state before it
    for k in (5, 6):
        np.testing.assert_array_equal(states[k],
                                      toy.A @ states[k - 1] + toy.b)


def test_a_mix_that_grows_the_residual_goes_back_to_the_plain_step():
    # put call 5 takes its mix but stores it scaled by 1e3, as a mix that
    # lands far from the fixed point; the step from it grows the residual
    # past RESIDUAL_GROWTH times the last kept one, so the state goes back
    # to the plain image of the iterate kept before it, and the window
    # restarts
    toy = Affine()
    put = toy.put
    toy.put = lambda x: put(1e3 * x if toy.puts == 4 else x)
    states = []

    def on_step(t, state):
        states.append(state.x.copy())

    res = toy.run(STEADY, on_step=on_step)
    assert res.converged and res.restarts == 1
    np.testing.assert_allclose(toy.x, toy.fixed, rtol=0, atol=1e-10)
    assert np.abs(states[5]).max() > 100.0 * np.abs(toy.fixed).max()
    np.testing.assert_array_equal(states[6], toy.A @ states[4] + toy.b)


def test_a_singular_window_restarts_instead_of_failing():
    # x -> b reaches its fixed point in one step; from the third step on the
    # newest residual difference is exactly zero, which makes the Gram
    # matrix singular, so each of those mixes restarts the window
    toy = Affine()
    toy.A = np.zeros_like(toy.A)
    res = toy.run(STEADY)
    assert (res.steps, res.converged) == (2 * CHECK_EVERY, True)
    assert res.restarts == res.steps - 2
    np.testing.assert_array_equal(toy.x, toy.b)


def test_a_run_to_an_end_time_marches_plainly():
    toy = Affine()
    states = []
    res = march(toy, RunOptions(kn=1.0, t_end=25.0, steady_tol=1e-10),
                lambda: 1.0, toy.advance, toy.table,
                on_step=lambda t, state: states.append(state.x.copy()),
                vector=(None, None))   # get and put are never called
    assert (res.steps, res.restarts, res.message) == (25, 0, "reached end time")
    x = np.ones(toy.x.size)
    for seen in states:
        x = toy.A @ x + toy.b
        np.testing.assert_array_equal(seen, x)


# ---------------------------------------------------------------------------
# Steady NRxx solves that cannot reach their tolerance


def _couette(cells, **kw):
    sc = scenarios.preset("couette", M=3, cells=cells, steady_tol=1e-10, **kw)
    return scenarios.build_grid(sc), scenarios.to_run_config(sc)


def test_a_runaway_steady_solve_fails_where_time_stops_advancing():
    # a toy state that heats without bound: its dt halves every step, so t
    # stalls near 2, dt falls below the spacing of t, and the step that
    # would not advance t raises, before the residual divides by a zero
    # interval
    dt = [1.0]

    def advance(_):
        dt[0] *= 0.5

    seen = []
    with pytest.raises(RuntimeError) as err:
        march(None, RunOptions(kn=1.0, steady_tol=1e-10), lambda: dt[0],
              advance, lambda: np.array([[0.0, 1.0 / dt[0]]]),
              on_step=lambda t, state: seen.append(t))
    m = re.fullmatch(r"step (\d+) does not advance the time: dt = (\S+) "
                     r"at t = (\S+)", str(err.value))
    assert m, str(err.value)
    assert int(m[1]) == len(seen) + 1 and float(m[3]) == seen[-1]
    assert 0.0 < float(m[2]) < 1e-16 * seen[-1]
    assert all(np.diff(seen) > 0)


def test_an_anderson_mix_does_not_heat_a_steady_couette_solve():
    # every mix of the 2-cell Couette has positive densities and
    # temperatures; unguarded, accepted mixes lifted max theta from 1.0751
    # above 10 at step 79 and to 1.23e24 at step 80, where march stopped the
    # runaway.  The safeguard drops a mix whose step grows the residual past
    # RESIDUAL_GROWTH times the last kept one, so max theta stays near the
    # walls' 1 and the solve reaches its tolerance
    grid, config = _couette(2, cfl=0.475)
    hottest = []
    res = run(grid, config, on_step=lambda t, state: hottest.append(
        float(state.theta.max())))
    assert max(hottest) < 10.0
    assert res.converged and res.restarts > 0


def test_a_tolerance_below_the_residual_floor_can_be_unreachable():
    # to steady_tol 1e-10 the 7-cell Couette runs out of steps: the largest
    # term of its residual is a column that is zero by symmetry at steady
    # state, whose round-off ripple of ~1e-17 over a check window of ~0.5
    # against RESIDUAL_FLOOR 1e-8 keeps the residual near 1e-8; 8 cells,
    # with no cell on the centre line, converge
    grid, config = _couette(7, max_steps=300)
    res = run(grid, config, snapshot_interval=CHECK_EVERY)
    assert (res.converged, res.steps) == (False, 300)
    (t_prev, prev), (t_cur, cur) = res.snapshots[-3:-1]
    prev, cur = prev[:, 1:], cur[:, 1:]
    change = np.abs(cur - prev) / (np.abs(prev) + RESIDUAL_FLOOR)
    assert res.residual_history[-1] == change.max() / (t_cur - t_prev)
    assert 1e-10 < res.residual_history[-1] < 1e-7
    assert abs(prev.flat[np.argmax(change)]) < 1e-14
    grid, config = _couette(8, max_steps=300)
    assert run(grid, config).converged
