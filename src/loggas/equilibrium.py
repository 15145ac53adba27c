"""Equilibrium measure of a log-gas in an external polynomial field.

Solves the two endpoint equations for the support [a, b], then exposes
the density factor G, the equilibrium density, the rate function eta
and its derivative, the edge constant gamma and the effective potential
L.

For polynomial V all of it is exact finite algebra on one array.  With
x = c + r y mapping [-1, 1] onto [a, b], let w_k be the Chebyshev
coefficients of V'(c + r y).  The endpoint equations are polynomial in
(c, r) through w_0 and w_1, and so is their Jacobian; the density factor
is r G(c + r y) = sum_k w_k U_{k-1}(y), a polynomial of degree deg V - 2;
the density pushed to the angle y = cos(theta) has a finite cosine
expansion, on which the log kernel of the effective potential acts in
closed form; and past b, with y = cosh(theta), the rate function is a
finite sum of sinh(m Theta) / m (see eta).  No quadrature is left.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

from .errors import NumericalError, Record, SolverError
from .potential import _real_only, _require_field

# Below m Theta = SINHC_CUT, sinh(z)/z - 1 is summed from its Taylor
# series, 1/(2k+1)! z^2k for k = 1..12 (listed from k = 12 for Horner's
# rule; the first term left out is below 1e-19 of the sum); past it the
# difference loses at most a factor 2.3 to cancellation
SINHC_CUT = 2.0
SINHC_TAYLOR = tuple(1.0 / math.factorial(2 * k + 1) for k in range(12, 0, -1))
# solve_mrs: bound required of both endpoint residuals, and Newton step cap
RESIDUAL_TOL = 1e-12
MAX_NEWTON_ITER = 100


class EquilibriumData(Record):
    """Solved equilibrium problem: support endpoints and derived constants.

    gamma is the edge scaling constant; ell the Lagrange multiplier of
    the variational problem (the constant value of the effective
    potential on the support); g_coeffs the Chebyshev coefficients of
    the density factor G in y = (x - c)/r, with c = (a + b)/2 and
    r = (b - a)/2; residuals the endpoint-equation residuals at (a, b);
    coeffs the coefficients of the field V it was solved for.  The
    functions below that take (eq, V) raise ValueError when V.coeffs
    differs from coeffs.
    """

    a: float
    b: float
    gamma: float
    ell: float
    g_coeffs: tuple
    residuals: tuple
    coeffs: tuple


def _compose(p, c, r):
    """Power coefficients in y of the polynomial p at x = c + r y (Horner)."""
    acc = p[-1:]
    for coef in p[-2::-1]:
        acc = np.convolve(acc, (c, r))
        acc[0] += coef
    return acc


def _cheb_derivative(V, order, c, r):
    """Chebyshev coefficients in y of the order-th derivative of V at c + r y."""
    return cheb.poly2cheb(_compose(npoly.polyder(V.coeffs, order), c, r))


def _endpoint_system(V, c, r):
    """Endpoint residuals on the support [c - r, c + r] and their exact
    Jacobian in (c, r).

    With t = c + r cos(theta) the arcsine weight is flat, and the
    equations int V'(t)/sqrt((b-t)(t-a)) dt = 0 and
    int t V'(t)/sqrt((b-t)(t-a)) dt = 2 pi read pi w_0 = 0 and
    pi (c w_0 + r w_1 / 2) = 2 pi.  With p and q the Chebyshev
    coefficients of V''(c + r y) and y V''(c + r y),
    dw_0 = p_0 dc + q_0 dr and dw_1 = 2 q_0 dc + q_1 dr.
    """
    # zero-padded, so that a field of degree below 2 ends in a singular Jacobian
    w = np.pad(_cheb_derivative(V, 1, c, r), (0, 2))
    p = np.pad(_cheb_derivative(V, 2, c, r), (0, 2))
    q0, q1 = 0.5 * p[1], p[0] + 0.5 * p[2]      # y T_k = (T_{k-1} + T_{k+1}) / 2
    F = np.pi * np.array([w[0], c * w[0] + 0.5 * r * w[1] - 2.0])
    J = np.pi * np.array([[p[0], q0],
                          [w[0] + c * p[0] + r * q0, c * q0 + 0.5 * (w[1] + r * q1)]])
    return F, J


def solve_mrs(V):
    """Solve the endpoint equations for the support [a, b] of the
    equilibrium measure of V, and check that V is one-cut regular.

    Damped Newton iteration on the centre c and half-width r of the
    support, with the residuals and their Jacobian in exact Chebyshev
    form (see _endpoint_system).  On success also computes the
    Chebyshev coefficients of G, the edge constant gamma and the
    Lagrange constant ell, and checks exactly that G > 0 on [a, b] and
    that the effective potential L > ell off it; convex fields pass.

    Parameters
    ----------
    V : Potential
        Of even degree >= 2, with a positive leading coefficient.

    Returns
    -------
    EquilibriumData

    Raises
    ------
    SolverError
        If V does not grow at infinity (checked first), or if the
        residuals are not below RESIDUAL_TOL after MAX_NEWTON_ITER steps.
    NumericalError
        If G is not positive on [a, b]: the one-cut density is then not
        a measure, as for the double well x^4 - 4x^2.  If
        L - ell < -1e-12 (1 + |ell|) at a real root of G off [a, b]: the
        equilibrium measure then also charges a second well.
    """
    if V.degree < 2 or V.degree % 2 or V.leading_coefficient <= 0:
        raise SolverError(f"field {V.coeffs!r} does not grow at infinity: it needs an "
                          f"even degree >= 2 and a positive leading coefficient")
    c, r = 0.0, 2.0 * V.scale()
    F, J = _endpoint_system(V, c, r)

    def failure(message, it):
        return SolverError(message, iterations=it, last_iterate=(c - r, c + r),
                           residuals=tuple(F))

    for it in range(MAX_NEWTON_ITER + 1):
        if np.max(np.abs(F)) < RESIDUAL_TOL:
            break
        if it == MAX_NEWTON_ITER:
            raise failure(f"no convergence after {MAX_NEWTON_ITER} iterations", it)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise failure("singular Jacobian in endpoint solve", it) from None
        lam = 1.0
        norm0 = np.max(np.abs(F))
        while True:
            c_new, r_new = c + lam * step[0], r + lam * step[1]
            if r_new > 1e-12 * (1.0 + abs(c) + r):
                F_new, J_new = _endpoint_system(V, c_new, r_new)
                if np.max(np.abs(F_new)) <= (1.0 - 0.25 * lam) * norm0 or lam < 1e-4:
                    break
            lam *= 0.5
            if lam < 1e-12:
                raise failure("line search failed in endpoint solve", it)
        c, r, F, J = c_new, r_new, F_new, J_new

    a, b = float(c - r), float(c + r)
    # r G(c + r y) = sum_k w_k U_{k-1}(y) = d/dy sum_k (w_k / k) T_k(y)
    w = _cheb_derivative(V, 1, c, r)
    g = cheb.chebder(np.append(0.0, w[1:] / np.arange(1, w.size))) / r
    # G is positive on [a, b] iff it is positive at both ends and at its
    # real critical points inside; real parts of complex roots of G' only
    # add sample points
    y = np.clip(np.append(cheb.chebroots(cheb.chebder(g)).real, (-1.0, 1.0)), -1.0, 1.0)
    if not (cheb.chebval(y, g) > 0.0).all():
        raise NumericalError(
            f"density factor G is not positive on the support [{a!r}, {b!r}]: "
            f"the field is not one-cut")
    gamma = (0.5 * math.sqrt(b - a) * cheb.chebval(1.0, g)) ** (2.0 / 3.0)
    # Lagrange constant: value of the effective potential at the support
    # midpoint, the point least affected by edge behavior
    mid = 0.5 * (a + b)
    ell = float(V.eval(mid, 0) - 2.0 * _log_moment(V, a, b, np.array([mid]))[0])
    # L > ell off [a, b]: there (L - ell)' = +-sqrt(|(x-a)(x-b)|) G(x) and
    # L - ell = 0 at a and b, so its minima are real roots of G
    y = _real_only(cheb.chebroots(g))
    x = c + r * y[np.abs(y) > 1.0]
    dip = V.eval(x, 0) - 2.0 * _log_moment(V, a, b, x) - ell
    if (dip < -1e-12 * (1.0 + abs(ell))).any():
        i = int(np.argmin(dip))
        raise NumericalError(
            f"effective potential L - ell = {float(dip[i])!r} at x = {float(x[i])!r}, "
            f"off the support [{a!r}, {b!r}]: the field is not one-cut")
    return EquilibriumData(
        a=a, b=b, gamma=float(gamma), ell=ell,
        g_coeffs=tuple(float(v) for v in g), residuals=(float(F[0]), float(F[1])),
        coeffs=V.coeffs,
    )


def _points(core, record, x):
    """core(record, flat float array) evaluated at scalar or array x,
    shaped like x; a scalar x gives a float."""
    x_arr = np.asarray(x, dtype=float)
    out = core(record, x_arr.reshape(-1)).reshape(x_arr.shape)
    return float(out) if out.ndim == 0 else out


def _g(eq, x):
    c, r = 0.5 * (eq.a + eq.b), 0.5 * (eq.b - eq.a)
    return cheb.chebval((x - c) / r, eq.g_coeffs)


def g_factor(eq, V, x):
    """G(x), the polynomial factor of the equilibrium density.

    Positive on the support (solve_mrs checks it); G(b)**(2/3)
    essentially sets gamma.  Accepts scalar or array x.  G is read from
    eq.g_coeffs; V only has to be the field eq was solved for.
    """
    _require_field(V, eq.coeffs, "equilibrium data solved")
    return _points(_g, eq, x)


def _density(eq, x):
    out = np.zeros_like(x)
    inside = (x >= eq.a) & (x <= eq.b)
    xi = x[inside]
    out[inside] = np.sqrt((eq.b - xi) * (xi - eq.a)) * _g(eq, xi) / (2.0 * np.pi)
    return out


def density(eq, V, x):
    """Equilibrium density at x: sqrt((b-x)(x-a)) G(x) / (2 pi) on the
    support, zero outside.  Accepts scalar or array x."""
    _require_field(V, eq.coeffs, "equilibrium data solved")
    return _points(_density, eq, x)


def _eta(eq, x):
    """eta on a 1-d float array x, read as max(x, b); see eta."""
    r = 0.5 * (eq.b - eq.a)
    # sinh^2(theta) G(c + r cosh(theta)) = sum_m h_m cosh(m theta), as
    # sinh^2 = (T_2 - 1)/2 and T_k = cosh(k .) in cosh(theta)
    h = cheb.chebmul(eq.g_coeffs, (-0.5, 0.0, 0.5))
    with np.errstate(over="ignore", invalid="ignore"):
        delta = np.maximum(x - eq.b, 0.0) / r
        sinh_theta = np.sqrt(delta * (2.0 + delta))
        theta = np.log1p(delta + sinh_theta)
        m = np.arange(1, h.size)
        z = np.outer(m, theta)
        w = np.minimum(z, SINHC_CUT) ** 2
        zb = np.maximum(z, SINHC_CUT)
        # e^{m Theta} as a power of e^Theta = 1 + delta + sinh(Theta): its
        # error grows like m, not like m Theta as exp(z) would
        em = (1.0 + delta + sinh_theta)[None, :] ** m[:, None]
        taylor = 0.0
        for coef in SINHC_TAYLOR:
            taylor = taylor * w + coef
        sinhc_m1 = np.where(z < SINHC_CUT, w * taylor, 0.5 * (em - 1.0 / em) / zb - 1.0)
        # row by row, so that a point's value does not depend on the
        # other points evaluated with it
        total = h[1] * sinhc_m1[0]
        for hm, row in zip(h[2:], sinhc_m1[1:]):
            total = total + hm * row
        out = r * r * theta * total
    # past b, an overflow leaves nan from inf/inf or inf - inf where eta is +inf
    return np.where(np.isnan(out) & (x > eq.b), np.inf, out)


def eta(eq, V, x):
    """Rate function eta(x) = int_b^x sqrt((u-b)(u-a)) G(u) du, for a
    scalar or an array x >= b.

    Closed form, with c and r the support's centre and half-width.  On
    u = c + r cosh(theta), sqrt((u-b)(u-a)) du = r^2 sinh^2(theta) dtheta
    and G(u) = sum_k g_k cosh(k theta), g = eq.g_coeffs.  As
    sinh^2 cosh(k .) = (cosh((k+2) .) + cosh(|k-2| .)) / 4 - cosh(k .) / 2,
    the integrand is sum_m h_m cosh(m theta), m = 0..deg G + 2, and
    sum_m h_m = 0 (it vanishes at theta = 0), so the terms linear in
    Theta cancel exactly:

        eta(c + r cosh(Theta)) = r^2 Theta sum_{m>=1} h_m (sinh(m Theta)/(m Theta) - 1).

    Theta = log1p(delta + sqrt(delta (2 + delta))), delta = (x - b)/r,
    keeps its relative accuracy as x -> b, and below m Theta = SINHC_CUT
    the bracket is its Taylor series, so eta keeps full relative accuracy
    where it vanishes like (x - b)^{3/2}; past the cut, sinh(m Theta)
    comes from (e^Theta)^m.  Against a 40-digit quadrature, for x - b in
    [1e-13, 1e6] on four fields of degree 2 to 6, the relative error is
    at most 1.2e-15.  The cost is O(deg G) per point for every x, and
    all points are one array evaluation.  Where e^{m Theta} overflows
    the value is +inf, without a warning; only a nan x gives nan.

    x below b by more than 1e-12 (1 + |b|) raises ValueError; closer
    points count as b, where eta is 0.
    """
    _require_field(V, eq.coeffs, "equilibrium data solved")
    x_arr = np.asarray(x, dtype=float)
    low = x_arr < eq.b - 1e-12 * (1.0 + abs(eq.b))
    if low.any():
        raise ValueError(f"eta needs x >= b = {eq.b!r}, got {float(x_arr[low][0])!r}")
    return _points(_eta, eq, x_arr)


def _eta_prime(eq, x):
    """eta' on a 1-d float array x; see eta_prime."""
    with np.errstate(over="ignore", invalid="ignore"):
        root = np.sqrt((x - eq.b) * (x - eq.a))
        big = np.isinf(root)
        root[big] = np.sqrt(x[big] - eq.b) * np.sqrt(x[big] - eq.a)
        out = root * _g(eq, x)
    return np.where(np.isnan(out) & (x > eq.b), np.inf, out)


def eta_prime(eq, V, x):
    """Derivative of the rate function, sqrt((x-b)(x-a)) G(x), for a
    scalar or an array x > b; any x <= b raises ValueError.  Where the
    product (x-b)(x-a) overflows (from about x = 1.3e154) its root is
    sqrt(x-b) sqrt(x-a), so the value is finite wherever the true value
    is; where that is past the double range, x = inf included, the value
    is +inf, without a warning; only a nan x gives nan."""
    _require_field(V, eq.coeffs, "equilibrium data solved")
    x_arr = np.asarray(x, dtype=float)
    low = x_arr <= eq.b
    if low.any():
        raise ValueError(f"eta_prime needs x > b = {eq.b!r}, got {float(x_arr[low][0])!r}")
    return _points(_eta_prime, eq, x_arr)


def _log_kernel_coeffs(V, a, b):
    """Cosine coefficients of the density pushed to the angle variable.

    With y = c + r cos(theta), the measure becomes g(theta) d(theta) on
    [0, pi] with g = r^2 sin^2(theta) G(y) / (2 pi).  As
    r sin(theta) G(y) = sum_k w_k sin(k theta), with w the Chebyshev
    coefficients of V'(c + r cos(theta)), and
    sin(theta) sin(k theta) = (cos((k-1) theta) - cos((k+1) theta)) / 2,
    the coefficient of cos(m theta) is r (w_{m+1} - w_{m-1}) / (4 pi),
    where w_0 does not enter.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    w = _cheb_derivative(V, 1, c, r)[1:]
    am = np.zeros(w.size + 2)
    am[:-2] = w
    am[2:] -= w
    return (r / (4.0 * np.pi)) * am, c, r


def _log_moment(V, a, b, x):
    """int log|x - y| dmu(y) for 1-d array x, via the closed-form action
    of the log kernel on cosines.

    Inside the support the kernel maps cos(m theta) to -pi T_m(p)/m and
    the constant to -pi log 2; outside, to -pi sign(p)^m e^{-m xi}/m and
    pi (xi - log 2), with p the affine image of x and xi = arccosh|p|.
    A point's value does not depend on the other points evaluated with it.
    """
    am, c, r = _log_kernel_coeffs(V, a, b)
    m = np.arange(1, am.size)
    coeff = am[1:] / m

    def sums(terms):
        # coeff @ terms a column at a time, each as its own contiguous
        # matrix: BLAS rounds a product over several columns unlike the
        # product over one, which would tie a point's value to the others
        return np.array([(coeff @ np.ascontiguousarray(terms[:, j:j + 1]))[0]
                         for j in range(terms.shape[1])])

    x = np.asarray(x, dtype=float)
    p = (x - c) / r
    out = np.empty_like(p)
    inside = np.abs(p) <= 1.0
    if inside.any():
        ang = np.arccos(np.clip(p[inside], -1.0, 1.0))
        out[inside] = am[0] * np.pi * math.log(r / 2.0) - np.pi * sums(
            np.cos(np.outer(m, ang)))
    if (~inside).any():
        q = p[~inside]
        xi = np.arccosh(np.abs(q))
        sign = np.where(q < 0, -1.0, 1.0)
        decay = np.exp(-np.outer(m, xi)) * sign[None, :] ** m[:, None]
        out[~inside] = am[0] * np.pi * (math.log(r / 2.0) + xi) - np.pi * sums(decay)
    return out


def effective_potential(eq, V, x):
    """L(x) = V(x) - 2 int log|x-y| dmu(y).

    Constant (= ell) on the support, and L(x) - ell reproduces eta(x)
    beyond the right edge.  Accepts scalar or array x.
    """
    _require_field(V, eq.coeffs, "equilibrium data solved")
    return _points(lambda eq, x: V.eval(x, 0) - 2.0 * _log_moment(V, eq.a, eq.b, x), eq, x)
