"""Independent oracles used by the test suite.

Everything here is deliberately written without reusing the library's own
recursions: symbolic polynomials via sympy, integrals in closed form or by
tensor-product Gauss rules, and plain dict-of-multi-index arithmetic for the
moment algebra.  Slow and simple on purpose.
"""

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import sympy
from numpy.polynomial import hermite_e


# ---------------------------------------------------------------------------
# Hermite polynomials (probabilists' convention), symbolic / exact


@lru_cache(maxsize=None)
def he_symbolic(n):
    """He_n as a sympy polynomial in x, from the Rodrigues formula."""
    x = sympy.Symbol("x")
    if n < 0:
        return sympy.Integer(0)
    expr = (-1) ** n * sympy.exp(x**2 / 2) * sympy.diff(sympy.exp(-(x**2) / 2), x, n)
    return sympy.expand(expr)


def he_exact(n, x_rational):
    """Evaluate He_n at a rational point in exact arithmetic."""
    if n < 0:
        return Fraction(0)
    coeffs = sympy.Poly(he_symbolic(n), sympy.Symbol("x")).all_coeffs()
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x_rational + Fraction(int(c))
    return acc


def he_quad_value(n, x):
    """He_n(x) in floats via the symbolic polynomial (n small)."""
    return float(he_symbolic(n).subs(sympy.Symbol("x"), sympy.Float(x, 30)))


# ---------------------------------------------------------------------------
# Pointwise evaluation of the weighted Hermite basis and of a series, on
# numpy's own Hermite_e evaluators (not the library's recursion)


def _basis_tables(theta, v, K):
    """(P, K) table of (2 pi)^{-1/2} theta^{-(n+1)/2} He_n(v_p) e^{-v_p^2/2}."""
    scale = (2 * math.pi) ** -0.5 * theta ** (-(np.arange(K) + 1) / 2.0)
    return hermite_e.hermevander(v, K - 1) * scale * np.exp(-(v**2) / 2)[:, None]


def basis_eval(alpha, theta, v):
    """Weighted basis prod_d B(alpha_d, v_d) at v, a 3-vector or (P, 3);
    zero if a component of alpha is negative."""
    v = np.asarray(v, dtype=float)
    pts = np.atleast_2d(v)
    out = np.zeros(len(pts)) if min(alpha) < 0 else np.prod(
        [_basis_tables(theta, pts[:, d], a + 1)[:, a] for d, a in enumerate(alpha)],
        axis=0)
    return out if v.ndim > 1 else float(out[0])


def expansion_eval(coeffs, u, theta, xi):
    """Value at xi (a 3-vector or (P, 3)) of the series with the (K, K, K)
    coefficient cube ``coeffs`` about the frame (u, theta)."""
    xi = np.asarray(xi, dtype=float)
    v = (np.atleast_2d(xi) - np.asarray(u, dtype=float)) / math.sqrt(theta)
    K = coeffs.shape[-1]
    t1, t2, t3 = (_basis_tables(theta, v[:, d], K).T for d in range(3))
    vals = np.einsum("abc,ap,bp,cp->p", coeffs, t1, t2, t3)
    return vals if xi.ndim > 1 else float(vals[0])


# ---------------------------------------------------------------------------
# Half-range and shifted-Gaussian integrals


def _half_line(poly, ratio=Fraction(1)):
    """int_0^inf p(r t) e^{-t^2/2} dt for a sympy polynomial p in x with
    integer coefficients whose powers share one parity, and r = sqrt(ratio)
    with ``ratio`` a Fraction.

    Term by term int_0^inf t^k e^{-t^2/2} dt = (k-1)!!, times sqrt(pi/2)
    for even k, and r^k = ratio^(k//2) r^(k%2); so the sum is an exact
    rational times sqrt(pi/2) (even powers) or r (odd powers), rounded once.
    """
    terms = sympy.Poly(poly, sympy.Symbol("x")).terms()
    parities = {k % 2 for (k,), _ in terms}
    assert len(parities) == 1, "powers of mixed parity"
    acc = sum(Fraction(int(c)) * ratio ** (k // 2) * math.prod(range(k - 1, 0, -2))
              for (k,), c in terms)
    return float(acc) * (math.sqrt(ratio) if parities.pop() else math.sqrt(math.pi / 2))


def s_quadrature(m, n):
    """S(m,n) = (2 pi)^{-1/2} / m! * int_0^inf He_m(x) He_n(x) e^{-x^2/2} dx,
    in closed form (``_half_line``)."""
    val = _half_line(sympy.expand(he_symbolic(m) * he_symbolic(n)))
    return val / (math.sqrt(2 * math.pi) * math.factorial(m))


def j_quadrature(s, theta, theta_wall, x, half=False):
    """Defining integral of the shifted-Gaussian Hermite moments.

    J_s(x)     = theta^{(s+1)/2}/s! * int_R  N(sqrt(theta) y - x; theta_wall) He_s(y) dy
    tildeJ_s(x): same integrand over (-inf, 0], taken at x = 0 only (a wall
    does not move along its normal), in closed form (``_half_line``).
    """
    pref = theta ** ((s + 1) / 2) / math.factorial(s)
    if half:
        if x != 0.0:
            raise ValueError("the half-line integral is taken at x = 0 only")
        # y = -r t with r^2 = theta_wall / theta: the weight becomes
        # exp(-t^2/2) on t >= 0, and He_s(-r t) = (-1)^s He_s(r t)
        ratio = Fraction(theta_wall) / Fraction(theta)
        val = (-1) ** s * math.sqrt(ratio) * _half_line(he_symbolic(s), ratio)
        return pref * val / math.sqrt(2 * math.pi * theta_wall)

    # substitute t = (sqrt(theta) y - x)/sqrt(theta_wall): the weight
    # becomes exp(-t^2/2) and the rest is a degree-s polynomial, so a
    # Gauss rule on the probabilists' weight integrates it exactly
    poly = sympy.lambdify(sympy.Symbol("x"), he_symbolic(s), "numpy")
    nodes, weights = hermite_e.hermegauss(32)
    vals = np.asarray(
        poly((x + math.sqrt(theta_wall) * nodes) / math.sqrt(theta)),
        dtype=float,
    )
    return pref * float(np.sum(weights * vals)) / math.sqrt(2 * math.pi * theta)


# ---------------------------------------------------------------------------
# Tensor quadrature over velocity space
#
# Moments of a Hermite-series distribution are integrals of
# f(xi(v)) * polynomial(v) with xi = sqrt(theta) v + u; Gauss-Hermite nodes in
# each v axis integrate these exactly once the degree is covered.


def _gh_rule(npts):
    nodes, weights = hermite_e.hermegauss(npts)
    return nodes, weights


def hermite_coeff_quadrature(func, alpha, u, theta, npts=48):
    """g_alpha = C_{theta,alpha} int g H_alpha e^{|v|^2/2} dv via Gauss rules.

    ``func`` maps an (N,3) array of xi points to values.  The weighted
    integrand reduces to g(xi(v)) times a product of scaled He polynomials.
    """
    nodes, weights = _gh_rule(npts)
    v = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    w = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :]).reshape(-1)
    xi = math.sqrt(theta) * v + np.asarray(u)[None, :]
    vals = func(xi)
    poly = np.ones_like(vals)
    for d, ad in enumerate(alpha):
        pd = sympy.lambdify(sympy.Symbol("x"), he_symbolic(ad), "numpy")
        poly = poly * np.asarray(pd(v[:, d]), dtype=float) / (
            math.sqrt(2 * math.pi) * theta ** ((ad + 1) / 2)
        )
    # the e^{-|v|^2/2} of the basis cancels the e^{+|v|^2/2} weight; the Gauss
    # rule supplies its own e^{-v^2/2} per axis, which is the Maxwell factor of
    # func expressed in v -- so divide it out of func's values first.
    gauss = np.exp(np.sum(v**2, axis=1) / 2)
    integrand = vals * gauss * poly
    ca = (2 * math.pi) ** 1.5 * theta ** (sum(alpha) + 3) / math.prod(
        math.factorial(a) for a in alpha
    )
    return ca * float(np.sum(w * integrand))


def raw_moment_quadrature(func, powers, npts=48, center=(0.0, 0.0, 0.0), scale=1.0):
    """int (xi1-c1)^p1 (xi2-c2)^p2 (xi3-c3)^p3 f(xi) dxi on a Gauss-Hermite grid.

    The distribution is sampled at xi = scale * v + center with Gauss nodes v;
    dividing out the e^{-v^2/2} weight makes the rule exact for
    polynomial x Gaussian integrands whose Gaussian matches ``scale``.
    """
    nodes, weights = _gh_rule(npts)
    v = np.stack(np.meshgrid(nodes, nodes, nodes, indexing="ij"), axis=-1).reshape(-1, 3)
    w = (weights[:, None, None] * weights[None, :, None] * weights[None, None, :]).reshape(-1)
    xi = scale * v + np.asarray(center)[None, :]
    vals = func(xi) * np.exp(np.sum(v**2, axis=1) / 2) * scale**3
    mono = np.ones(len(v))
    for d, p in enumerate(powers):
        mono = mono * (xi[:, d] - center[d]) ** p
    return float(np.sum(w * vals * mono))


def halfspace_coeff_quadrature(func, alpha, u, theta, npts_full=48, npts_half=120):
    """Hermite coefficient of the v2>=0 cut-off of func, by mixed quadrature.

    Axes 1 and 3 use Gauss-Hermite; the half axis uses Gauss-Legendre mapped
    to [0, L] against the explicit e^{-v^2/2} weight.
    """
    nodes, weights = _gh_rule(npts_full)
    L = 12.0
    gl_x, gl_w = np.polynomial.legendre.leggauss(npts_half)
    h_nodes = 0.5 * L * (gl_x + 1.0)
    h_weights = 0.5 * L * gl_w * np.exp(-(h_nodes**2) / 2)

    # separable product of 1-D rules; weight of axis 2 already includes the
    # Gaussian, the full axes carry it implicitly in the Gauss rule
    v = np.stack(
        np.meshgrid(nodes, h_nodes, nodes, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    w = (
        weights[:, None, None] * h_weights[None, :, None] * weights[None, None, :]
    ).reshape(-1)
    xi = math.sqrt(theta) * v + np.asarray(u)[None, :]
    vals = func(xi)
    # divide out the Gaussian the full-axis rules imply, but not axis 2's
    gauss12 = np.exp((v[:, 0] ** 2 + v[:, 2] ** 2) / 2)
    poly = np.ones(len(v))
    for d, ad in enumerate(alpha):
        pd = sympy.lambdify(sympy.Symbol("x"), he_symbolic(ad), "numpy")
        poly = poly * np.asarray(pd(v[:, d]), dtype=float) / (
            math.sqrt(2 * math.pi) * theta ** ((ad + 1) / 2)
        )
    gauss2 = np.exp(v[:, 1] ** 2 / 2)  # basis e^{-v^2/2} cancelled by weight
    integrand = vals * gauss12 * gauss2 * poly
    ca = (2 * math.pi) ** 1.5 * theta ** (sum(alpha) + 3) / math.prod(
        math.factorial(a) for a in alpha
    )
    return ca * float(np.sum(w * integrand))


# ---------------------------------------------------------------------------
# Dict-based moment algebra (dual implementation for closure tests)


def closure_reference(M, mean, grads, tau):
    """Term-by-term evaluation of the top-order prediction formula.

    ``mean``:  dict with 'rho', 'theta', 'u' (3,), 'f' (multi-index dict)
    ``grads``: dict with 'ptheta' (d(rho*theta)/dy), 'theta', 'u' (3,),
               'f' (multi-index dict of d/dy)
    Only y-derivatives exist; the velocity space stays three dimensional.
    Returns a dict over |alpha| = M+1.
    """

    def get(table, idx):
        if min(idx) < 0:
            return 0.0
        return table.get(idx, 0.0)

    rho = mean["rho"]
    theta = mean["theta"]
    f = mean["f"]
    gf = grads["f"]
    out = {}
    for a1 in range(M + 2):
        for a2 in range(M + 2 - a1):
            a3 = M + 1 - a1 - a2
            alpha = (a1, a2, a3)
            ey = (0, 1, 0)

            def sub(idx, delta):
                return tuple(i - d for i, d in zip(idx, delta))

            term = grads["ptheta"] / rho * get(f, sub(alpha, ey))
            div_u = grads["u"][1]  # only du2/dy survives in the velocity divergence
            s2 = sum(get(f, sub(alpha, tuple(2 * int(d == e) for e in range(3)))) for d in range(3))
            term += theta / 3.0 * div_u * s2
            term -= theta * get(gf, sub(alpha, ey))
            for d in range(3):
                ed = tuple(int(e == d) for e in range(3))
                term -= grads["u"][d] * theta * get(f, sub(sub(alpha, ed), ey))
                two_ed = tuple(2 * c for c in ed)
                term -= 0.5 * grads["theta"] * (
                    theta * get(f, sub(sub(alpha, two_ed), ey))
                    + (alpha[1] + 1) * get(f, tuple(a - t + e for a, t, e in zip(alpha, two_ed, ey)))
                )
            out[alpha] = tau * term
    return out


# ---------------------------------------------------------------------------
# Discrete-velocity kernels by full-cube quadrature
#
# Every quadrature below is one einsum over the weighted velocity cube: the
# direct form of the sums that the cdvm kernels factor per velocity axis.
# The transport reference is the flux form over all interfaces at once.


def w3(grid):
    """The trapezoidal weight cube w1 w2 w3 of a ``cdvm.DvGrid``."""
    x, y, z = grid.weights
    return x[:, None, None] * y[None, :, None] * z[None, None, :]


def dv_moments_reference(values, grid):
    """rho, u, theta, sigma, q of nodal data (..., n1, n2, n3), one einsum
    over the weighted cube per raw moment."""
    x1, x2, x3 = grid.axes
    fw = values * w3(grid)
    rho = fw.sum(axis=(-3, -2, -1))
    m = np.stack(
        [
            np.einsum("...xyz,x->...", fw, x1),
            np.einsum("...xyz,y->...", fw, x2),
            np.einsum("...xyz,z->...", fw, x3),
        ],
        axis=-1,
    )
    P = np.empty(rho.shape + (3, 3))
    P[..., 0, 0] = np.einsum("...xyz,x->...", fw, x1**2)
    P[..., 1, 1] = np.einsum("...xyz,y->...", fw, x2**2)
    P[..., 2, 2] = np.einsum("...xyz,z->...", fw, x3**2)
    P[..., 0, 1] = P[..., 1, 0] = np.einsum("...xyz,x,y->...", fw, x1, x2)
    P[..., 0, 2] = P[..., 2, 0] = np.einsum("...xyz,x,z->...", fw, x1, x3)
    P[..., 1, 2] = P[..., 2, 1] = np.einsum("...xyz,y,z->...", fw, x2, x3)
    Q = np.stack(
        [
            np.einsum("...xyz,x->...", fw, x1**3)
            + np.einsum("...xyz,x,y->...", fw, x1, x2**2)
            + np.einsum("...xyz,x,z->...", fw, x1, x3**2),
            np.einsum("...xyz,y->...", fw, x2**3)
            + np.einsum("...xyz,x,y->...", fw, x1**2, x2)
            + np.einsum("...xyz,y,z->...", fw, x2, x3**2),
            np.einsum("...xyz,z->...", fw, x3**3)
            + np.einsum("...xyz,x,z->...", fw, x1**2, x3)
            + np.einsum("...xyz,y,z->...", fw, x2**2, x3),
        ],
        axis=-1,
    )
    u = m / rho[..., None]
    T0 = P[..., 0, 0] + P[..., 1, 1] + P[..., 2, 2]
    usq = np.sum(u**2, axis=-1)
    theta = (T0 - rho * usq) / (3.0 * rho)
    Theta = P - rho[..., None, None] * u[..., :, None] * u[..., None, :]
    sigma = Theta - (rho * theta)[..., None, None] * np.eye(3)
    q = 0.5 * (
        Q
        - 2.0 * np.einsum("...j,...ij->...i", u, P)
        + usq[..., None] * m
        - u * (T0 - rho * usq)[..., None]
    )
    return {"rho": rho, "u": u, "theta": theta, "sigma": sigma, "q": q}


def axis_gaussians_reference(grid, u, theta):
    """``cdvm._axis_gaussians`` one velocity axis at a time: per axis d the
    table g c^k, k = 0..6, of g = exp(-c^2 / 2 theta) at c = xi_d - u_d
    by running products, and its weighted sums, stacked to (..., 3, 7)."""
    tables, sums = [], []
    for d in range(3):
        c = grid.axes[d] - u[..., d, None]
        gc = np.empty(c.shape + (7,))
        gc[..., 0] = np.exp(-c**2 / (2.0 * theta[..., None]))
        for k in range(1, 7):
            np.multiply(gc[..., k - 1], c, out=gc[..., k])
        tables.append(gc)
        sums.append(np.einsum("n,...nk->...k", grid.weights[d], gc)
                    * grid.parity[d])
    return tables, np.stack(sums, axis=-2)


def collide_reference(values, grid, kn, pr, dt):
    """Shakhov relaxation G + B e_pr + (f - G - B) e_full of cells (N, n1,
    n2, n3), with G and B = G b - G (lam . psi) built as full cubes and the
    projection's Gram matrix and right-hand side summed over the cube.

    The Newton-corrected Gaussian parameters come from the library's
    ``conservative_gaussian``, which ``test_conservative_gaussian_hits_targets``
    checks on its own.
    """
    from momentflow.cdvm import conservative_gaussian
    from momentflow.collision import relaxation_time

    mom = dv_moments_reference(values, grid)
    rho, u, theta, q = mom["rho"], mom["u"], mom["theta"], mom["q"]
    rho_g, u_g, th_g, tables, _ = conservative_gaussian(
        grid, rho, u, theta, np.zeros(rho.shape + (4,)))
    gs = [t[..., 0] for t in tables]
    cube = (slice(None), None, None, None)
    G = (rho_g * (2.0 * math.pi * th_g) ** -1.5)[cube] * (
        gs[0][:, :, None, None] * gs[1][:, None, :, None] * gs[2][:, None, None, :]
    )
    c1 = (grid.axes[0][None] - u_g[:, 0, None])[:, :, None, None]
    c2 = (grid.axes[1][None] - u_g[:, 1, None])[:, None, :, None]
    c3 = (grid.axes[2][None] - u_g[:, 2, None])[:, None, None, :]
    csq = c1**2 + c2**2 + c3**2
    cq = q[:, 0][cube] * c1 + q[:, 1][cube] * c2 + q[:, 2][cube] * c3
    B = G * cq * (csq / th_g[cube] - 5.0) / (5.0 * rho * theta**2)[cube]

    psi = np.stack([np.broadcast_to(p, G.shape) for p in (1.0, c1, c2, c3, csq)],
                   axis=1)
    w = w3(grid)
    gram = np.einsum("jaxyz,jbxyz,jxyz->jab", psi, psi, G * w)
    rhs = np.einsum("jaxyz,jxyz->ja", psi, B * w)
    lam = np.linalg.solve(gram, rhs[..., None])[..., 0]
    B = B - G * np.einsum("ja,jaxyz->jxyz", lam, psi)

    tau = relaxation_time(rho, theta, kn)
    e_full = np.exp(-dt / tau)[cube]
    e_pr = np.exp(-pr * dt / tau)[cube]
    return G + B * e_pr + (values - G - B) * e_full


def wall_incoming_reference(grid, wall, f_out, sgn):
    """Re-emitted nodal distribution at a wall with outward normal sgn*e2,
    built afresh on every call: chi rho_w phi_w + (1 - chi) specular mirror,
    with phi_w = norm g1 g2 g3 the wall's unit Maxwellian and rho_w
    balancing the discrete mass flux, both half-fluxes factored per axis."""
    w1, w2, w3 = grid.weights
    speed = sgn * grid.axes[1]                # outward-normal speed
    g1, g2, g3 = (np.exp(-((x - wall.u_wall[d]) ** 2) / (2.0 * wall.theta_wall))
                  for d, x in enumerate(grid.axes))
    norm = (2.0 * math.pi * wall.theta_wall) ** -1.5
    flux_out = w1 @ (f_out @ w3) @ (w2 * np.maximum(speed, 0.0))
    flux_in = norm * (w1 @ g1) * (w2 * np.minimum(speed, 0.0) @ g2) * (w3 @ g3)
    rho_w = -flux_out / flux_in if wall.chi > 0.0 else 0.0
    phi = ((wall.chi * rho_w * norm * g1)[:, None] * g2)[:, :, None] * g3
    if wall.chi < 1.0:
        phi += (1.0 - wall.chi) * f_out[:, ::-1, :]
    return phi


def transport_reference(field, dt, left, right, limiter="none"):
    """Upwind (optionally minmod) transport of a field in flux form; returns
    the new values and leaves the field alone.

    The state is padded with a ghost copy of each end cell, every interface
    i gets the traces tl[i] (cell i-1 side) and tr[i], and the flux cube
    xi2^+ tl + xi2^- tr over all N + 1 interfaces is differenced.  Wall
    interfaces take the re-emission of ``wall_incoming_reference``.
    """
    vals = field.values
    grid = field.grid
    n = field.n
    xi2 = grid.axes[1][None, :, None]
    pos = np.maximum(xi2, 0.0)
    neg = np.minimum(xi2, 0.0)

    ext = np.concatenate([vals[:1], vals, vals[-1:]], axis=0)
    if limiter == "minmod":
        fwd = ext[2:] - ext[1:-1]
        bwd = ext[1:-1] - ext[:-2]
        slope = np.where(
            fwd * bwd > 0.0, np.sign(fwd) * np.minimum(np.abs(fwd), np.abs(bwd)), 0.0
        )
        tl = np.concatenate([ext[:1], ext[1:-1] + 0.5 * slope], axis=0)
        tr = np.concatenate([ext[1:-1] - 0.5 * slope, ext[-1:]], axis=0)
    else:
        tl = ext[:-1]
        tr = ext[1:]
    flux = pos * tl + neg * tr

    if left is not None:
        f_out = tr[0] if limiter == "minmod" else vals[0]
        f_in = wall_incoming_reference(grid, left, f_out, -1.0)
        flux[0] = pos * f_in + neg * f_out
    if right is not None:
        f_out = tl[n] if limiter == "minmod" else vals[-1]
        f_in = wall_incoming_reference(grid, right, f_out, 1.0)
        flux[n] = pos * f_out + neg * f_in

    return vals + (dt / field.dx) * (flux[:-1] - flux[1:])


def _half_faces(v, i, j, above, out, scratch):
    """The minmod faces t[k] = v[k] + minmod(v[k] - v[k-1], v[k+1] - v[k])
    / 2 of cells i <= k < j along axis 0 of ``v``, into ``out[:j - i]``; an
    end cell keeps t = v.  Cells below j are read from ``v``, cell j (if
    there is one) from ``above``; ``scratch`` takes the differences."""
    from momentflow.march import minmod

    n = len(v)
    t = out[:j - i]
    s0, s1 = max(i, 1), min(j, n - 1)
    if s1 > s0:
        e = scratch[:s1 - s0 + 1]
        np.subtract(v[s0:s1], v[s0 - 1:s1 - 1], out=e[:-1])
        np.subtract(v[s1] if j == n else above, v[s1 - 1], out=e[-1])
        slope = minmod(e[:-1], e[1:], t[s0 - i:s1 - i])
        slope *= 0.5
        slope += v[s0:s1]
    if i == 0:
        t[0] = v[0]
    if j == n:
        t[-1] = v[-1]
    return t


def _half_upwind(v, nu, ghost, limiter):
    """v -= nu (face[i+1] - face[i]) in place along axis 0, with the faces
    taken upwind from the low end: face[0] = ghost, face[i+1] = v[i] +
    slope[i] / 2.  Walked in blocks of about ``BLOCK`` entries of the view
    from its high end down, the cell above a block read from a saved copy."""
    from momentflow.cdvm import BLOCK

    n = len(v)
    rows = max(1, BLOCK // v[0].size)
    d = np.empty((rows + 2,) + v.shape[1:])
    faces = np.empty(d.shape)
    above = np.empty(v.shape[1:])
    for b in range(n, 0, -rows):
        a = max(b - rows, 0)
        lo = max(a - 1, 0)
        t = (v[lo:b] if limiter == "none"
             else _half_faces(v, lo, b, above, faces, d))
        db = d[:b - a]
        np.subtract(t[1:], t[:-1], out=db[lo + 1 - a:])
        if a == 0:
            np.subtract(t[0], ghost, out=db[0])
        db *= nu
        if limiter == "minmod" and a > 0:
            np.copyto(above, v[a])
        v[a:b] -= db


def transport_halves(field, dt, left, right, limiter):
    """Transport as two sweeps, one per xi_2-sign half: the positive half
    upwind from the low end, the negative half on the cell-reversed view
    with the faces reflected, each walked in blocks of cells of that half;
    the xi_2 = 0 plane of an odd axis is not touched.  Returns the new
    values and leaves the field alone.  Wall inflows are
    the library's ``_wall_incoming``, so the two walks see the same ghosts
    bit for bit."""
    from momentflow.cdvm import _wall_incoming

    vals = field.values.copy()
    grid = field.grid
    half = grid.counts[1] // 2
    lo = vals[0] if left is None else _wall_incoming(grid, left, vals[0], -1.0)
    hi = vals[-1] if right is None else _wall_incoming(grid, right, vals[-1], 1.0)
    nu = (dt / field.dx) * grid.axes[1][:, None]
    _half_upwind(vals[:, :, -half:], nu[-half:], lo[:, -half:], limiter)
    _half_upwind(vals[::-1, :, :half], -nu[:half], hi[:, :half], limiter)
    return vals


# ---------------------------------------------------------------------------
# Slot-wise flux and the HLL flux, two-flux form


def flux_reference(coeffs, u2, theta):
    """Per-slot flux theta f_{a-e2} + u2 f_a + (a2+1) f_{a+e2} of batched
    cubes, one shifted slice at a time, with the top grade zeroed (its flux
    would need grade-(M+2) data)."""
    K = coeffs.shape[-1]
    th = np.asarray(theta, dtype=float)[..., None, None, None]
    uu = np.asarray(u2, dtype=float)[..., None, None, None]
    F = uu * coeffs
    F[..., 1:, :] += th * coeffs[..., :-1, :]
    F[..., :-1, :] += np.arange(1, K)[:, None] * coeffs[..., 1:, :]
    r = np.arange(K)
    F[..., r[:, None, None] + r[None, :, None] + r[None, None, :] > K - 2] = 0.0
    return F


def hll_reference(a, b, u2, theta, lam_l, lam_r):
    """HLL flux of interface states a | b (batched over interfaces) about
    (u2, theta), in the textbook three-branch form: the left flux, the right
    flux, or (lr F(a) - ll F(b) + ll lr (b - a)) / (lr - ll) with the jump
    taken on the evolved grades only."""
    fa = flux_reference(a, u2, theta)
    fb = flux_reference(b, u2, theta)
    K = a.shape[-1]
    r = np.arange(K)
    evolved = r[:, None, None] + r[None, :, None] + r[None, None, :] <= K - 2
    jump = (b - a) * evolved
    ll = np.asarray(lam_l)[..., None, None, None]
    lr = np.asarray(lam_r)[..., None, None, None]
    mid = (lr * fa - ll * fb + ll * lr * jump) / (lr - ll)
    return np.where(ll >= 0, fa, np.where(lr <= 0, fb, mid))


# ---------------------------------------------------------------------------
# The wall map in its full-cube form


def j_full(nmax, theta, theta_wall, x):
    """Full-line moment sequence J_0..J_nmax of the shifted wall Gaussian:
    J_s = [(theta_wall - theta) J_{s-2} + x J_{s-1}] / s,  J_0 = 1."""
    J = np.zeros(nmax + 1)
    J[0] = 1.0
    if nmax >= 1:
        J[1] = x
    for s in range(2, nmax + 1):
        J[s] = ((theta_wall - theta) * J[s - 2] + x * J[s - 1]) / s
    return J


def j_hat(nmax, theta, theta_wall):
    """Half-line (incoming side) sequence at zero relative velocity:
    J^_s = (theta_wall - theta) J^_{s-2} / s - H^_s,  J^_0 = 1/2, with
    H^_1 = sqrt(theta_wall / 2 pi), H^_s = -(s-2) / (s (s-1)) theta H^_{s-2}."""
    J = np.zeros(nmax + 1)
    H = np.zeros(nmax + 1)
    J[0] = 0.5
    if nmax >= 1:
        H[1] = math.sqrt(theta_wall / (2.0 * math.pi))
        J[1] = -H[1]
    for s in range(2, nmax + 1):
        H[s] = -(s - 2) / (s * (s - 1)) * theta * H[s - 2]
        J[s] = (theta_wall - theta) * J[s - 2] / s - H[s]
    return J


def wall_density(coeffs, theta, theta_wall):
    """Density of the diffusely re-emitted Maxwellian balancing the mass flux.

    sqrt(2 pi / theta_wall) * sum_k S(1, 2k) theta^{1/2 - k} f_{2k e2};
    assumes the frame already rides at the wall's normal velocity.
    """
    from momentflow.boundary import s_table

    coeffs = np.asarray(coeffs, dtype=float)
    K = coeffs.shape[-1]
    S = s_table(K - 1)
    b = np.arange(0, K, 2)
    terms = S[1, b] * np.asarray(theta, dtype=float)[..., None] ** ((1 - b) / 2.0)
    return math.sqrt(2.0 * math.pi / theta_wall) * np.sum(
        terms * coeffs[..., 0, b, 0], axis=-1
    )


def wall_parts(u, theta, coeffs, wall):
    """The two cubes a right wall's odd-a2 slots are built from, cut to
    |alpha| <= K - 1: the reflected part B f, with B[a, b] = S(a, b)
    theta^{(a-b)/2} on even b (zero on odd b) the cut-off matrix on axis 2,
    and the unit-density incoming-half wall Maxwellian J_{a1} J^_{a2}
    J_{a3} about (u1, u_wall2, u3).  B reads only even-a2 slots, on which
    the left wall's sign vector is 1, so both parts serve either side.  S
    comes from ``boundary.s_table``, which the tests check against
    quadrature.
    """
    from momentflow.boundary import s_table

    K = coeffs.shape[-1]
    a = np.arange(K)
    B = s_table(K - 1) * theta ** ((a[:, None] - a[None, :]) / 2.0)
    B = B * (a[None, :] % 2 == 0)
    unit = np.einsum(
        "i,j,k->ijk",
        j_full(K - 1, theta, wall.theta_wall, wall.u_wall[0] - u[0]),
        j_hat(K - 1, theta, wall.theta_wall),
        j_full(K - 1, theta, wall.theta_wall, wall.u_wall[2] - u[2]),
    )
    reflected = np.einsum("ab,ibk->iak", B, coeffs)
    cut = a[:, None, None] + a[None, :, None] + a[None, None, :] > K - 1
    reflected[cut] = unit[cut] = 0.0
    return reflected, unit


def apply_wall_bc(u, theta, coeffs, wall, sign):
    """The solver's wall state ``(u_b, theta, f_b)``, of which
    ``boundary.ghost_state`` is the reflection 2 f_b - f about 2 u_b - u:
    the even-a2 slots of ``coeffs`` kept verbatim and the odd ones from
    ``boundary._odd_slab``, about u_b = (u1, u2_wall, u3).  ``sign`` is +1
    at a right wall and -1 at a left one.  Keeping the even slots is what
    preserves the zero first-moment and zero-trace constraints for any
    admissible input.
    """
    from momentflow.boundary import _odd_slab

    fb = np.array(coeffs, dtype=float)
    fb[:, 1::2, :] = _odd_slab(u, theta, coeffs, wall, sign)
    u_b = np.array(u, dtype=float)
    u_b[1] = wall.u_wall[1]
    return u_b, theta, fb


def wall_bc_reference(u, theta, coeffs, wall, sign):
    """The wall state ``(u_b, theta, f_b)`` as the full-cube map.

    A right wall (``sign`` +1) keeps the even-a2 slots and sets each odd-a2
    slot to 2 chi / (2 - chi) (rho_wall p + B f), with B f and the
    unit-density half-Maxwellian p from ``wall_parts`` and rho_wall from
    ``wall_density``.  A left wall (``sign`` -1) is s * map(s * f) with the
    sign vector s = (-1)^{a2}.
    """
    K = coeffs.shape[-1]
    a = np.arange(K)
    s = np.where(a % 2 == 1, sign, 1.0)[:, None]
    f = s * coeffs
    u_b = np.array([u[0], wall.u_wall[1], u[2]])
    reflected, unit = wall_parts(u_b, theta, coeffs, wall)
    rho_wall = wall_density(coeffs, theta, wall.theta_wall)
    pref = 2.0 * wall.chi / (2.0 - wall.chi)
    fb = np.where((a % 2 == 1)[None, :, None],
                  pref * (rho_wall * unit + reflected), f)
    fb[a[:, None, None] + a[None, :, None] + a[None, None, :] > K - 1] = 0.0
    return u_b, theta, s * fb


# ---------------------------------------------------------------------------
# Top-grade closure, one zero-filled read per index shift


# The closure's 11 index shifts s, in the kernel's order, and its weights on
# the reads f_{alpha - s}, one column per shift, over the rows (theta du1,
# theta du2, theta du3, theta dtheta, d(rho theta) / rho) of the formula of
# ``closure_reference``: 1/3 theta du2 on each f_{alpha - 2 e_d}, less
# theta du_d on f_{alpha - e_d - e2} (so -2/3 at s = 2 e2), -theta dtheta / 2
# on f_{alpha - 2 e_d - e2} and d(rho theta) / rho on f_{alpha - e2}.  The
# last three shifts, alpha - 2 e_d + e2, carry -(alpha2 + 1) dtheta / 2 on
# their own.
CLOSURE_SHIFTS = ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (0, 1, 1),
                  (2, 1, 0), (0, 3, 0), (0, 1, 2), (2, -1, 0), (0, 1, 0),
                  (0, -1, 2))
CLOSURE_WEIGHTS = np.zeros((5, 11))
CLOSURE_WEIGHTS[1, :3] = 1.0 / 3.0
CLOSURE_WEIGHTS[1, 1] = -2.0 / 3.0
CLOSURE_WEIGHTS[0, 3] = CLOSURE_WEIGHTS[2, 4] = -1.0
CLOSURE_WEIGHTS[3, 5:8] = -0.5
CLOSURE_WEIGHTS[4, 9] = 1.0


def closure_per_shift_reference(mean_coeffs, mean_theta, grad_coeffs, grad_u,
                                grad_theta, grad_ptheta, tau):
    """The closure prediction with each shifted read alpha - s gathered on
    its own into a zero-filled array, in the same arithmetic order as
    ``closure.closure_coeffs``, so the two agree bit for bit."""
    c = np.asarray(mean_coeffs, dtype=float)
    g = np.asarray(grad_coeffs, dtype=float)
    K = c.shape[-1]
    r = np.arange(K)
    tops = np.argwhere(r[:, None, None] + r[None, :, None] + r[None, None, :]
                       == K - 1)
    batch = c.shape[:-3]

    def rd(arr, shift):
        src = tops - np.asarray(shift)
        ok = np.all((src >= 0) & (src <= K - 1), axis=1)
        out = np.zeros(batch + (len(tops),))
        out[..., np.flatnonzero(ok)] = arr[..., src[ok, 0], src[ok, 1],
                                           src[ok, 2]]
        return out

    reads = np.stack([rd(c, s) for s in CLOSURE_SHIFTS], axis=-2)
    theta = np.asarray(mean_theta, dtype=float)[..., None]
    gth = np.asarray(grad_theta, dtype=float)[..., None]
    rho = c[..., 0, 0, 0]
    scaled = np.concatenate([np.asarray(grad_u, dtype=float), gth], axis=-1)
    scaled = np.concatenate([scaled * theta, (grad_ptheta / rho)[..., None]],
                            axis=-1)
    acc = np.einsum("...s,...st->...t", scaled @ CLOSURE_WEIGHTS, reads)
    acc -= (0.5 * gth) * (tops[:, 1] + 1.0) * reads[..., 8:, :].sum(axis=-2)
    acc -= theta * rd(g, (0, 1, 0))
    acc *= np.asarray(tau, dtype=float)[..., None]
    out = np.zeros(batch + (K, K, K))
    out[..., tops[:, 0], tops[:, 1], tops[:, 2]] = acc
    return out


# ---------------------------------------------------------------------------
# Moment states: a frame (u, theta) and a (K, K, K) coefficient cube about
# it, K = M + 2, with grades |alpha| <= M + 1 kept


class State(NamedTuple):
    """A state of one cell, each entry as the kernels take it: u (3,),
    theta a numpy float and the cube."""

    u: np.ndarray
    theta: np.float64
    coeffs: np.ndarray

    @property
    def rho(self):
        return float(self.coeffs[0, 0, 0])

    @property
    def M(self):
        return self.coeffs.shape[-1] - 2

    def evaluate(self, xi):
        return expansion_eval(self.coeffs, self.u, self.theta, xi)


@lru_cache(maxsize=None)
def multi_indices(order):
    """All alpha with |alpha| <= order, graded, descending lexicographic
    within a grade."""
    return tuple((a1, a2, k - a1 - a2) for k in range(order + 1)
                 for a1 in range(k, -1, -1) for a2 in range(k - a1, -1, -1))


def cube_from_dict(M, d):
    """(K, K, K) cube from a {multi-index: value} mapping; entries with
    |alpha| > M + 1 are dropped."""
    c = np.zeros((M + 2,) * 3)
    for alpha, val in d.items():
        if sum(alpha) <= M + 1:
            c[alpha] = val
    return c


def maxwellian(rho, u, theta, M):
    """Equilibrium state: only the zeroth coefficient is nonzero."""
    c = np.zeros((M + 2,) * 3)
    c[0, 0, 0] = rho
    return State(np.asarray(u, dtype=float), np.float64(theta), c)


def mirror(state):
    """The reflection v2 -> -v2: u2 and every odd-a2 coefficient flip sign."""
    sign = (-1.0) ** np.arange(state.coeffs.shape[-1])[:, None]
    return State(state.u * [1.0, -1.0, 1.0], state.theta, state.coeffs * sign)


def admissibility_violation(theta, coeffs):
    """None if the state is admissible, else its first violated invariant:
    rho > 0 and theta > 0 (NaN fails), f_{e_d} = 0 and sum_d f_{2 e_d} = 0
    within 1e-12 max(rho, 1)."""
    rho = float(coeffs[0, 0, 0])
    if not (rho > 0):
        return "rho is not positive: %r" % rho
    if not (theta > 0):
        return "theta is not positive: %r" % float(theta)
    tol = 1e-12 * max(rho, 1.0)
    for d, alpha in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)]):
        if abs(coeffs[alpha]) > tol:
            return f"f_(e_{d+1}) != 0"
    if abs(coeffs[2, 0, 0] + coeffs[0, 2, 0] + coeffs[0, 0, 2]) > tol:
        return "sum_d f_(2 e_d) != 0"
    return None


def two_beam(M, beams=((0.7, (0.3, 0.7, 0.0), 0.8),
                       (0.4, (-0.2, -0.6, 0.1), 1.5))):
    """Order-M projection of a mixture of Maxwellian beams (rho, u, theta)
    about the mixture's own mean velocity and temperature, hence
    admissible.  A beam's coefficients about (u, theta) are
    rho prod_d J_{alpha_d}(u_beam_d - u_d) of ``j_full`` with the beam's
    temperature in place of the wall's."""
    rho = sum(r for r, _, _ in beams)
    u = sum(r * np.asarray(v, dtype=float) for r, v, _ in beams) / rho
    theta = sum(r * (3.0 * t + np.sum((np.asarray(v) - u) ** 2))
                for r, v, t in beams) / (3.0 * rho)
    K = M + 2
    c = sum(r * np.einsum("i,j,k->ijk", *(j_full(K - 1, theta, t, v[d] - u[d])
                                          for d in range(3)))
            for r, v, t in beams)
    a = np.arange(K)
    c[a[:, None, None] + a[None, :, None] + a[None, None, :] > K - 1] = 0.0
    return State(u, theta, c)


def random_state(seed, M=4):
    """A random admissible ``State`` of order M (see ``random_admissible``)."""
    u, theta, f = random_admissible(np.random.default_rng(seed), M)
    return State(u, theta, cube_from_dict(M, f))


# ---------------------------------------------------------------------------
# Random admissible states


def random_admissible(rng, M, scale=0.05):
    """Draw (u, theta, coeff-dict) satisfying the low-order constraints."""
    u = rng.uniform(-0.5, 0.5, size=3)
    theta = np.float64(rng.uniform(0.6, 1.6))
    rho = rng.uniform(0.5, 2.0)
    f = {(0, 0, 0): rho}
    for a1 in range(M + 2):
        for a2 in range(M + 2 - a1):
            for a3 in range(M + 2 - a1 - a2):
                k = a1 + a2 + a3
                if k < 2 or k > M + 1:
                    continue
                f[(a1, a2, a3)] = rho * scale * rng.standard_normal() / math.factorial(k)
    trace = f[(2, 0, 0)] + f[(0, 2, 0)] + f[(0, 0, 2)]
    f[(0, 0, 2)] -= trace
    return u, theta, f


# ---------------------------------------------------------------------------
# Mirror-symmetric cubes and the even-only layout along a1 / a3


def _axis_slices(axes, chosen):
    idx = [slice(None)] * 3
    for d in axes:
        idx[d] = chosen
    return (Ellipsis,) + tuple(idx)


def mirror_even(coeffs, axes=(0, 2)):
    """Copy of full cubes (..., K, K, K) with every odd order along the cube
    axes ``axes`` (0 for a1, 2 for a3) zeroed: the part of the distribution
    even under xi_d -> -xi_d."""
    c = np.array(coeffs, dtype=float)
    for d in axes:
        c[_axis_slices((d,), slice(1, None, 2))] = 0.0
    return c


def even_slots(coeffs, axes=(0, 2)):
    """The slots of full cubes that the even-only layout along ``axes``
    stores, as contiguous cubes of that layout."""
    return np.ascontiguousarray(coeffs[_axis_slices(axes, slice(None, None, 2))])


# ---------------------------------------------------------------------------
# Linear spectrum of one NRxx step


def step_spectrum(grid, config):
    """Eigenvalues of the Jacobian of one ``solver1d.step`` about ``grid``
    at the fixed dt of its CFL time step and each eigenvector's Nyquist
    share; returns ``(eigenvalues, nyquist, dt)``.

    The unknowns are every cell's coefficients of grades <= M in one global
    frame (u = 0, theta = 1).  The frame change is graded-triangular and
    exact on the kept grades, so these coordinates hold the whole state:
    ``renormalize_arrays`` maps them back to each cell's own frame, free of
    the gauge slots that a cell's own (u, theta, coeffs) carry.  Columns
    are central differences of step 1e-6.  The Nyquist share of a mode is
    the fraction of its energy sum |v|^2 in the odd-even cell profile
    (-1)^j of each unknown, 1 for a pure odd-even mode.
    """
    from momentflow.moments import grade_mask
    from momentflow.projection import project_coeffs, renormalize_arrays
    from momentflow.solver1d import Grid1D, cfl_timestep, step

    n, cube = grid.n, grid.coeffs.shape[1:]
    evolved = grade_mask(cube, config.M)
    dt = cfl_timestep(grid, config.cfl, config.signal_speed)

    def global_vector(g):
        c = project_coeffs(g.coeffs, g.u, g.theta, np.zeros(3), 1.0)
        return c[:, evolved].ravel()

    def step_map(z):
        c = np.zeros((n,) + cube)
        c[:, evolved] = z.reshape(n, -1)
        u, theta, c = renormalize_arrays(np.zeros((n, 3)), np.ones(n), c)
        g = Grid1D(grid.y_lo, grid.y_hi, u, theta, c)
        step(g, config, dt)
        return global_vector(g)

    z = global_vector(grid)
    jac = np.empty((z.size, z.size))
    for j in range(z.size):
        e = np.zeros_like(z)
        e[j] = 1e-6
        jac[:, j] = (step_map(z + e) - step_map(z - e)) / 2e-6
    lam, vec = np.linalg.eig(jac)
    vec = vec.reshape(n, -1, vec.shape[-1])
    odd_even = np.einsum("j,jkm->km", (-1.0) ** np.arange(n), vec)
    nyquist = (np.sum(np.abs(odd_even) ** 2, axis=0)
               / (n * np.sum(np.abs(vec) ** 2, axis=(0, 1))))
    return lam, nyquist, dt


# ---------------------------------------------------------------------------
# Plane waves: the NRxx system linearized about (rho, u, theta) = (1, 0, 1)
# against the linearized Shakhov dispersion relation
#
# Both sides look for modes e^{i k y + lam t}, with tau = 1 (so k stands for
# k tau) and Pr = PLANE_WAVE_PR.  The families are the slots (a1 odd or
# even, a3 even) that the linear system keeps apart: "sound" (a1 and a3
# even: density, u2, temperature and q2) and "shear" (a1 odd: u1 and q1).

PLANE_WAVE_PR = Fraction(2, 3)


@lru_cache(maxsize=None)
def linear_nrxx(M, family):
    """The NRxx system of order M linearized about (rho, u, theta) =
    (1, 0, 1), on the grades <= M of ``family`` in a full (M + 1)^3 cube in
    that fixed frame, read off the solver's own kernels: returns read-only
    ``(A, P, C)`` of the plane-wave operator L(k) = -i k A + k^2 tau_c P + C
    (``plane_wave_operator``).

    * A, the a2-flux of the evolved grades: ``solver1d._flux_cube`` at
      (u2, theta) = (0, 1) applied to each unit cube.
    * P, the top grade's flux per unit i k tau_c: ``closure_coeffs``
      probed at equilibrium traces with each unit gradient of its
      ``closure_columns`` block (about equilibrium only the reads
      f_{alpha - e2} enter, which is asserted), the columns of each unit
      cube, and ``add_top_flux``.
    * C, the generator of ``collide_coeffs``: the derivative of its map in
      dt at dt = 0, by a complex step (the map is analytic in dt), which
      is exact to round-off.  In the fixed frame a temperature change sits
      in the grade-2 trace, which the collision relaxes towards, so C acts
      on the trace-free part of f_{2 e_d} alone.
    """
    from momentflow.closure import add_top_flux, closure_coeffs, closure_columns
    from momentflow.collision import collide_coeffs
    from momentflow.moments import grade_mask
    from momentflow.solver1d import _flux_cube

    cube = (M + 1,) * 3
    slots = np.flatnonzero(grade_mask(cube, M))
    alpha = np.array(np.unravel_index(slots, cube)).T
    keep = (alpha[:, 2] % 2 == 0) & (alpha[:, 0] % 2 == (family == "shear"))
    slots, alpha = slots[keep], alpha[keep]
    n = slots.size
    units = np.zeros((n, np.prod(cube)))
    units[np.arange(n), slots] = 1.0
    units = units.reshape((n,) + cube)

    def on_family(cubes):
        return cubes.reshape(len(cubes), -1)[:, slots].T

    flux = _flux_cube(np.zeros(()), np.ones(()), np.ones(()), np.zeros(()),
                      M + 1)
    A = on_family(np.matmul(flux, units))

    columns = closure_columns(np.zeros((n, 3)), np.ones(n), units)
    width = columns.shape[1]
    equilibrium = np.zeros((2, width) + cube)
    equilibrium[:, :, 0, 0, 0] = 1.0
    per_gradient = closure_coeffs(equilibrium, np.ones(width), np.eye(width),
                                  np.ones(width))
    assert not per_gradient[:5].any()
    top_flux = on_family(add_top_flux(np.zeros((width - 5,) + cube),
                                      np.eye(width - 5)))
    P = top_flux @ per_gradient.T @ columns.T

    h = 1e-20
    step = collide_coeffs(units.astype(complex), np.ones(n),
                          float(PLANE_WAVE_PR), 1j * h,
                          out=np.empty(units.shape, complex))
    trace = (alpha.sum(axis=1) == 2) & (alpha.max(axis=1) == 2)
    C = on_family(step).imag / h @ (np.eye(n) - np.outer(trace, trace) / 3.0)
    for m in (A, P, C):
        m.setflags(write=False)
    return A, P, C


def plane_wave_operator(M, family, k, tau_c):
    """L(k) of ``linear_nrxx``: d f / dt = L(k) f for f e^{i k y}.  The top
    grade is -tau_c d/dy f_{alpha - e2}, so tau_c = tau = 1 is the
    regularized closure and tau_c = 0 Grad's."""
    A, P, C = linear_nrxx(M, family)
    return -1j * k * A + k * k * tau_c * P + C


def least_damped(M, family, k, tau_c):
    """The eigenvalue of ``plane_wave_operator`` with the largest real part:
    of the sound family among those of frequency Im lam > k / 2 (which
    leaves out the real heat mode), of the shear family among all."""
    lam = np.linalg.eigvals(plane_wave_operator(M, family, k, tau_c))
    if family == "sound":
        lam = lam[lam.imag > 0.5 * k]
    return complex(lam[np.argmax(lam.real)])


def _normal_moment(n):
    """int x^n N(x; 0, 1) dx: (n - 1)!! for even n, 0 for odd n."""
    return 0 if n % 2 else math.prod(range(n - 1, 0, -2))


@lru_cache(maxsize=None)
def _shakhov_table(family):
    """Rows r, columns c, then the coefficients of x2^n, n <= 8, of
    <phi_r psi_c>_{x1, x3}, exact Fractions: phi_r the moments of the
    family (rho, u2, theta, q2 or u1, q1) as functionals of the
    perturbation h of a unit Maxwellian, psi_c what a unit change of each
    puts into the linearized Shakhov target, averaged over the standard
    normal x1 and x3."""
    x1, x2, x3 = sympy.symbols("x1 x2 x3")
    c2 = x1**2 + x2**2 + x3**2
    a = (1 - sympy.Rational(PLANE_WAVE_PR.numerator,
                            PLANE_WAVE_PR.denominator)) / 5
    if family == "sound":
        phis = (1, x2, (c2 - 3) / 3, x2 * (c2 - 5) / 2)
        psis = (1, x2, (c2 - 3) / 2, a * x2 * (c2 - 5))
    else:
        phis = (x1, x1 * (c2 - 5) / 2)
        psis = (x1, a * x1 * (c2 - 5))
    table = []
    for phi in phis:
        row = []
        for psi in psis:
            coeffs = [Fraction(0)] * 9
            for (i1, i2, i3), c in sympy.Poly(sympy.expand(phi * psi),
                                              x1, x2, x3).terms():
                coeffs[i2] += (Fraction(int(c.p), int(c.q))
                               * _normal_moment(i1) * _normal_moment(i3))
            row.append(coeffs)
        table.append(row)
    return table


def plasma_integrals(zeta, nmax):
    """I_n(zeta) = int x^n N(x; 0, 1) / (x - zeta) dx for n <= nmax and
    Im zeta > 0, in mpmath: I_0 = i sqrt(pi / 2) w(zeta / sqrt 2) with w the
    Faddeeva function (``scipy.special.wofz``), here e^{-z^2} erfc(-i z),
    then I_{n+1} = (n - 1)!! [n even] + zeta I_n.  At small k, |zeta| is
    large and the recursion cancels about log10 |zeta| digits a step, which
    the caller's working precision must cover."""
    import mpmath

    z = zeta / mpmath.sqrt(2)
    out = [1j * mpmath.sqrt(mpmath.pi / 2) * mpmath.exp(-z * z)
           * mpmath.erfc(-1j * z)]
    for n in range(nmax):
        out.append(_normal_moment(n) + zeta * out[-1])
    return out


def shakhov_dispersion(lam, k, family):
    """det(I - M(lam, k)) of the linearized Shakhov model about a unit
    Maxwellian, zero at a plane-wave mode e^{i k y + lam t}.

    The perturbation h solves (1 + lam + i k x2) h = S, S the linearized
    Shakhov target of the family's moments, so each moment is
    <phi_r S / (1 + lam + i k x2)> = sum_c M_rc (moment c).  With
    zeta = i (1 + lam) / k, <x2^n / (...)> = I_n(zeta) / (i k)
    (``plasma_integrals``).  A 4 x 4 determinant for sound and heat, 2 x 2
    for shear (the kinetic theory of sound of L. Sirovich and J. K.
    Thurber, J. Acoust. Soc. Am. 37 (1965))."""
    import mpmath

    I = plasma_integrals(1j * (1 + lam) / k, 8)
    table = _shakhov_table(family)
    m = mpmath.matrix(len(table))
    for r, row in enumerate(table):
        for c, coeffs in enumerate(row):
            s = mpmath.fsum(mpmath.mpf(q.numerator) / q.denominator * I[n]
                            for n, q in enumerate(coeffs) if q)
            m[r, c] = (r == c) - s / (1j * k)
    return mpmath.det(m)


@lru_cache(maxsize=None)
def shakhov_root(family, k, start):
    """The root lam of ``shakhov_dispersion`` nearest ``start`` (complex),
    by mpmath's secant iteration at 40 digits, as a complex."""
    import mpmath

    with mpmath.workdps(40):
        return complex(mpmath.findroot(
            lambda lam: shakhov_dispersion(lam, k, family), mpmath.mpc(start)))
