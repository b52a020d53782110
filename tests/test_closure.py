import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from momentflow.closure import (_top_reads, add_top_flux, closure_coeffs,
                                closure_columns)
from momentflow.moments import grade_mask

import oracles
from oracles import cube_from_dict, even_slots, mirror_even, multi_indices


def _fields(seed, M=5, scale=0.05):
    """Random mean state + consistent y-gradient data, cube and dict views."""
    rng = np.random.default_rng(seed)
    u, theta, f = oracles.random_admissible(rng, M, scale=scale)
    gf = {
        alpha: scale * rng.standard_normal() for alpha in multi_indices(M + 1)
    }
    grads = {
        "ptheta": rng.standard_normal() * 0.3,
        "theta": rng.standard_normal() * 0.3,
        "u": rng.standard_normal(3) * 0.3,
        "f": gf,
    }
    mean = {"rho": f[(0, 0, 0)], "theta": theta, "u": u, "f": f}
    return mean, grads


def _evolved(M, d):
    """The solver's (M+1)-edge cube of a {multi-index: value} mapping: the
    grades <= M, zero beyond."""
    return cube_from_dict(M, d)[:M + 1, :M + 1, :M + 1] * grade_mask((M + 1,) * 3, M)


def _tops(M):
    """The top-grade multi-indices, in the order of the prediction."""
    return [tuple(alpha) for alpha in _top_reads((M + 1,) * 3)[0]]


def _grad_block(gu, gth, gpt, gcube):
    """The y-derivative of the ``closure_columns`` block from du (..., 3),
    dtheta, d(rho theta) and the gradient cube (..., K1, K, K3), whose
    reads fill the block's last T columns."""
    block = closure_columns(np.asarray(gu, dtype=float),
                            np.asarray(gth, dtype=float), gcube)
    block[..., 4] = gpt
    return block


def _cube_args(M, mean, grads, tau):
    """closure_coeffs arguments: the mean cube as both traces of a pair (so
    their mean is the cube itself), the derivative block of the gradient
    data, and theta and tau as numpy floats, as the solver passes them."""
    c = _evolved(M, mean["f"])
    return dict(
        traces=np.stack([c, c]),
        mean_theta=np.float64(mean["theta"]),
        grad=_grad_block(grads["u"], grads["theta"], grads["ptheta"],
                         _evolved(M, grads["f"])),
        tau=np.float64(tau),
    )


def test_matches_term_by_term_reference():
    # independent dict-based evaluation of the same prediction formula
    for seed in range(6):
        M = 4 + seed % 3
        mean, grads = _fields(seed, M)
        tau = 0.37
        got = closure_coeffs(**_cube_args(M, mean, grads, tau))
        ref = {alpha: v for alpha, v in
               oracles.closure_reference(M, mean, grads, tau).items()
               if alpha[1] >= 1}
        scale = max(1.0, max(abs(v) for v in ref.values()))
        # one entry per top-grade index with alpha2 >= 1, the slots the
        # a2-flux reads, and no other
        assert got.shape == (len(ref),) == ((M + 1) * (M + 2) // 2,)
        assert sorted(_tops(M)) == sorted(ref)
        for alpha, value in zip(_tops(M), got):
            assert value == pytest.approx(ref[alpha], rel=1e-13,
                                          abs=1e-13 * scale)


def test_zero_gradients_give_zero():
    mean, grads = _fields(1, M=5)
    grads = {"ptheta": 0.0, "theta": 0.0, "u": np.zeros(3), "f": {}}
    out = closure_coeffs(**_cube_args(5, mean, grads, 0.5))
    assert np.all(out == 0.0)


def test_local_maxwellian_fields_give_zero():
    # spatially varying rho, u, theta but equilibrium in every local frame:
    # the coefficient field has only the density slot, so every f-term of
    # order >= 1 vanishes and the prediction is identically zero
    M = 5
    mean = {"rho": 1.3, "theta": 0.9, "u": np.array([0.1, -0.2, 0.0]),
            "f": {(0, 0, 0): 1.3}}
    grads = {"ptheta": 0.7, "theta": -0.4, "u": np.array([0.3, 0.8, -0.1]),
             "f": {(0, 0, 0): 0.25}}
    out = closure_coeffs(**_cube_args(M, mean, grads, 0.8))
    assert np.all(out == 0.0)


def test_tau_zero_gives_zero():
    mean, grads = _fields(2, M=5)
    out = closure_coeffs(**_cube_args(5, mean, grads, 0.0))
    assert np.all(out == 0.0)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 3.0, allow_nan=False))
def test_linearity_in_tau(seed, factor):
    mean, grads = _fields(seed, M=4)
    base = closure_coeffs(**_cube_args(4, mean, grads, 0.5))
    scaled = closure_coeffs(**_cube_args(4, mean, grads, 0.5 * factor))
    np.testing.assert_allclose(scaled, base * factor, rtol=1e-12, atol=1e-16)


def test_xz_symmetric_fields_keep_parity():
    # data even in alpha_1 and alpha_3 with u = (0, u2, 0): the prediction
    # must stay supported on even alpha_1, alpha_3
    M = 6
    rng = np.random.default_rng(3)
    f = {(0, 0, 0): 1.0}
    gf = {}
    for alpha in multi_indices(M + 1):
        if sum(alpha) < 2:
            continue
        if alpha[0] % 2 == 0 and alpha[2] % 2 == 0:
            f[alpha] = 0.05 * rng.standard_normal()
            gf[alpha] = 0.05 * rng.standard_normal()
    trace = f.get((2, 0, 0), 0.0) + f.get((0, 2, 0), 0.0) + f.get((0, 0, 2), 0.0)
    f[(0, 0, 2)] = f.get((0, 0, 2), 0.0) - trace
    mean = {"rho": 1.0, "theta": 1.1, "u": np.zeros(3), "f": f}
    grads = {"ptheta": 0.4, "theta": 0.2, "u": np.array([0.0, 0.6, 0.0]), "f": gf}
    out = closure_coeffs(**_cube_args(M, mean, grads, 0.45))
    for alpha, value in zip(_tops(M), out):
        if alpha[0] % 2 or alpha[2] % 2:
            assert value == 0.0


def test_batched_matches_single():
    singles, means, cubes, blocks = [], [], [], []
    taus = np.array([0.2, 0.5, 0.8, 1.1])
    for i, seed in enumerate((10, 11, 12, 13)):
        mean, grads = _fields(seed, M=5)
        args = _cube_args(5, mean, grads, taus[i])
        singles.append(closure_coeffs(**args))
        cubes.append(args["traces"])
        blocks.append(args["grad"])
        means.append(mean["theta"])
    out = closure_coeffs(np.stack(cubes, axis=1), np.array(means),
                         np.stack(blocks), taus)
    np.testing.assert_allclose(out, np.stack(singles), rtol=1e-14, atol=1e-18)


def test_closure_writes_only_top_grade():
    # every evolved slot of the inputs is filled and every slot beyond grade
    # M is NaN: the result is a new (N, T) block, one finite nonzero value
    # per top-grade index with alpha2 >= 1, and the inputs are left alone
    M = 4
    K = M + 1
    rng = np.random.default_rng(4)
    beyond = ~grade_mask((K,) * 3, M)
    pair = rng.standard_normal((2, 3, K, K, K))
    pair[:, :, 0, 0, 0] = 1.0 + rng.uniform(size=(2, 3))
    pair[:, :, beyond] = np.nan
    grad = rng.standard_normal((3, K, K, K))
    grad[:, beyond] = np.nan
    reads = _grad_block(rng.standard_normal((3, 3)), np.full(3, 0.2),
                        np.full(3, -0.1), grad)
    pair0, reads0 = pair.copy(), reads.copy()
    out = closure_coeffs(pair, np.full(3, 0.9), reads, np.full(3, 0.3))
    assert out.shape == (3, (M + 1) * (M + 2) // 2)
    assert np.all(np.isfinite(out)) and np.all(out != 0.0)
    np.testing.assert_array_equal(pair, pair0)
    np.testing.assert_array_equal(reads, reads0)


@pytest.mark.parametrize("M", [3, 4, 10])
def test_gather_matches_per_shift_reads_bit_for_bit(M):
    # one gather of every shifted read of both traces, averaged on the
    # gathered block, and the gradient reads of ``closure_columns``, against
    # a zero-filled read per shift of the mean cube and of the gradient
    # cube, on cubes with every slot filled, so each out-of-range read must
    # come back as zero; the reference holds the top grade in (M+2)-edge
    # cubes, whose leading (M+1)^3 block is the solver's cube
    K = M + 1
    rng = np.random.default_rng(M)
    pair = rng.standard_normal((2, 6, K + 1, K + 1, K + 1))
    pair[:, :, 0, 0, 0] = 1.0 + rng.uniform(size=(2, 6))
    grad = rng.standard_normal((6, K + 1, K + 1, K + 1))
    gu, gth, gpt, tau = (rng.standard_normal((6, 3)), rng.standard_normal(6),
                         rng.standard_normal(6), rng.uniform(size=6))
    theta = 1.0 + rng.uniform(size=6)
    got = closure_coeffs(pair[..., :K, :K, :K], theta,
                         _grad_block(gu, gth, gpt, grad[..., :K, :K, :K]), tau)
    want = oracles.closure_per_shift_reference(0.5 * (pair[0] + pair[1]), theta,
                                               grad, gu, gth, gpt, tau)
    a1, a2, a3 = _top_reads((K,) * 3)[0].T
    assert got.tobytes() == np.ascontiguousarray(want[:, a1, a2, a3]).tobytes()


def test_batched_prediction_equals_each_slice():
    # the solver closes all interfaces in one call: each row of the batched
    # prediction is, bit for bit, the prediction of that interface alone
    M = 4
    K = M + 1
    rng = np.random.default_rng(5)
    pair = rng.standard_normal((2, 3, K, K, K)) * grade_mask((K,) * 3, M)
    pair[:, :, 0, 0, 0] = 1.0 + rng.uniform(size=(2, 3))
    args = (1.0 + rng.uniform(size=3),
            _grad_block(rng.standard_normal((3, 3)), rng.standard_normal(3),
                        rng.standard_normal(3),
                        rng.standard_normal((3, K, K, K))),
            rng.uniform(size=3))
    block = closure_coeffs(pair, *args)
    assert block.shape == (3, (M + 1) * (M + 2) // 2)
    for i in range(3):
        single = closure_coeffs(pair[:, i], *(a[i] for a in args))
        np.testing.assert_array_equal(block[i], single)


@pytest.mark.parametrize("axes", [(0,), (2,), (0, 2)])
@pytest.mark.parametrize("M", [3, 6, 10])
def test_reduced_prediction_is_the_full_one_on_its_tops(axes, M):
    # on mirror-symmetric traces with no velocity gradient along the
    # reduced axes the full prediction vanishes at every top slot with an
    # odd order along them; the reduced layout predicts the others alone,
    # with the same values, and reads and adds through its own slots
    K = M + 1
    rng = np.random.default_rng(M)
    pair = mirror_even(rng.standard_normal((2, 4, K, K, K))
                       * grade_mask((K,) * 3, M), axes)
    pair[:, :, 0, 0, 0] = 1.0 + rng.uniform(size=(2, 4))
    grad = mirror_even(rng.standard_normal((4, K, K, K)), axes)
    gu = rng.standard_normal((4, 3))
    gu[:, list(axes)] = 0.0
    gth, gpt, tau = (rng.standard_normal(4), rng.standard_normal(4),
                     rng.uniform(size=4))
    theta = 1.0 + rng.uniform(size=4)
    want = closure_coeffs(pair, theta, _grad_block(gu, gth, gpt, grad), tau)
    tops = [tuple(a) for a in _top_reads((K,) * 3)[0]]
    small = even_slots(pair, axes)
    got = closure_coeffs(small, theta,
                         _grad_block(gu, gth, gpt, even_slots(grad, axes)), tau)
    kept = [tops.index(tuple(a)) for a in _top_reads(small.shape[-3:])[0]]
    odd = [i for i, a in enumerate(tops)
           if any(a[d] % 2 for d in axes)]
    assert sorted(kept + odd) == list(range(len(tops)))
    assert np.all(want[:, odd] == 0.0)
    np.testing.assert_array_equal(got, want[:, kept])
    flux = add_top_flux(np.zeros(pair.shape[1:]), want)
    small_flux = add_top_flux(np.zeros(small.shape[1:]), got)
    np.testing.assert_array_equal(small_flux, even_slots(flux, axes))
