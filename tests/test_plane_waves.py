"""Plane waves: the linearized NRxx model against kinetic theory.

The NRxx system of order M, linearized about (rho, u, theta) = (1, 0, 1)
from the solver's own flux, closure and collision kernels
(``oracles.linear_nrxx``), has for each wavenumber k a least-damped sound
mode and a least-damped shear mode.  The truth is the root of the
linearized Shakhov dispersion relation (``oracles.shakhov_root``), started
from the M = 11 eigenvalue.  There is no mesh, no wall and no time step, so
the error is the model's alone, at every M and both parities.  tau = 1 and
Pr = 2/3 (``oracles.PLANE_WAVE_PR``) throughout, so k stands for k tau.
"""

import math

import numpy as np
import pytest
from scipy.special import wofz

import oracles

ORDERS = range(3, 12)

# round-off floor of the relative eigenvalue error: the shear error at
# k = 0.1 and M = 11 read 1.6e-14 with the collision generator taken as a
# matrix log and 1.8e-14 with it taken by a complex step
FLOOR = 1e-13

# bounds on the relative error of the least-damped mode for the regularized
# closure (tau_c = tau), M = 3 .. 11: twice the values of ROADMAP's plane-wave
# table, rounded up, and no lower than FLOOR
BOUNDS = {
    ("sound", 0.1): (5e-4, 2e-5, 1e-6, 7e-8, 5e-9, 4e-10, 3e-11, 3e-12, 3e-13),
    ("sound", 0.3): (3e-2, 8e-3, 3e-3, 8e-4, 3e-4, 2e-4, 5e-5, 2e-5, 9e-6),
    ("shear", 0.1): (4e-5, 2e-6, 2e-7, 8e-9, 6e-10, 5e-11, 4e-12, 4e-13, 1e-13),
    ("shear", 0.3): (2e-2, 5e-3, 2e-3, 5e-4, 2e-4, 7e-5, 3e-5, 2e-5, 5e-6),
}


def _truth(family, k):
    return oracles.shakhov_root(family, k,
                                oracles.least_damped(11, family, k, 1.0))


def _errors(family, k, tau_c):
    truth = _truth(family, k)
    return np.array([abs(oracles.least_damped(M, family, k, tau_c) - truth)
                     / abs(truth) for M in ORDERS])


def test_the_plasma_integral_is_the_faddeeva_function():
    # I_0(zeta) = i sqrt(pi / 2) w(zeta / sqrt 2), here in mpmath against
    # scipy's double-precision w, near the zeta of the sound roots at k = 0.1
    # and 0.3 and at one of order 1
    for zeta in (-1.3 + 9.9j, -1.3 + 3.0j, 0.4 + 0.8j):
        got = complex(oracles.plasma_integrals(zeta, 0)[0])
        want = 1j * math.sqrt(math.pi / 2) * wofz(zeta / math.sqrt(2))
        assert abs(got - want) <= 1e-14 * abs(want)


def test_the_kinetic_roots_are_navier_stokes_at_small_k():
    k = 0.1
    sound, shear = _truth("sound", k), _truth("shear", k)
    # adiabatic sound speed sqrt(5/3); the O(k^2) Burnett part moves it 0.14 %
    assert sound.imag / k == pytest.approx(math.sqrt(5.0 / 3.0), rel=3e-3)
    # shear damping nu k^2 with the kinematic viscosity nu = tau p / rho = tau;
    # the kinetic root is 1.2 % slower
    assert abs(shear.imag) <= 1e-12 * abs(shear)
    assert -shear.real == pytest.approx(k * k, rel=2e-2)


@pytest.mark.parametrize("family, k", sorted(BOUNDS))
def test_the_model_error_falls_with_m_at_both_parities(family, k):
    err = _errors(family, k, 1.0)
    for M, e, bound in zip(ORDERS, err, BOUNDS[family, k]):
        assert e < bound, "M = %d: relative error %.3e" % (M, e)
    # strictly with each order, odd and even alike, until the round-off floor
    for M, (e, e_next) in zip(ORDERS, zip(err, err[1:])):
        assert e_next < e or e < FLOOR, "M = %d -> %d: %.3e -> %.3e" % (
            M, M + 1, e, e_next)


@pytest.mark.parametrize("family, k", sorted(BOUNDS))
def test_the_regularized_closure_beats_grad_at_every_m(family, k):
    nrxx, grad = _errors(family, k, 1.0), _errors(family, k, 0.0)
    assert np.all(nrxx < grad), np.column_stack([list(ORDERS), nrxx, grad])
