"""Equilibrium measure of a log-gas in an external polynomial field.

Solves the two endpoint equations for the support [a, b], then exposes
the density factor G, the equilibrium density, the rate function eta
and its derivative, the edge constant gamma, the effective potential L,
and the discretized energy functional.

All quadrature against the arcsine-type weight 1/sqrt((b-t)(t-a)) uses
first-kind Gauss-Chebyshev nodes, which integrate polynomial data of
the relevant degrees exactly.  The log kernel of the effective
potential is integrated in closed form against a Chebyshev cosine
expansion of the density, which is exact for polynomial fields; the
expansion comes from a DCT-II in its FFT form, so numpy is the only
numerical dependency.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SolverError
from .quadrature import composite_gl

MRS_QUADRATURE_ORDER = 256
DENSITY_DISCRETIZATION = 512
ETA_NODES_PER_UNIT = 64


@dataclass(frozen=True)
class EquilibriumData:
    """Solved equilibrium problem: support endpoints and derived constants.

    gamma is the edge scaling constant; ell the Lagrange multiplier of
    the variational problem (the constant value of the effective
    potential on the support); residuals the endpoint-equation residuals
    at (a, b).
    """

    a: float
    b: float
    gamma: float
    ell: float
    quadrature_order: int
    residuals: tuple


@dataclass(frozen=True)
class DiscreteMeasure:
    """Probability measure supported on finitely many points."""

    nodes: tuple
    weights: tuple

    def __post_init__(self):
        nodes = tuple(float(v) for v in self.nodes)
        weights = tuple(float(v) for v in self.weights)
        if len(nodes) != len(weights) or not nodes:
            raise ValueError("nodes and weights must be non-empty and equal length")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if any(y >= z for y, z in zip(nodes, nodes[1:])):
            raise ValueError("nodes must be strictly increasing")
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def _chebyshev_angles(n):
    k = np.arange(1, n + 1)
    return (2 * k - 1) * np.pi / (2 * n)


def _mrs_residuals(V, a, b, n):
    # endpoint equations, pushed to [0, pi] where the arcsine weight is flat:
    #   int V'(t)/sqrt((b-t)(t-a)) dt = 0
    #   int t V'(t)/sqrt((b-t)(t-a)) dt = 2 pi
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    t = c + r * np.cos(_chebyshev_angles(n))
    vp = V.eval(t, 1)
    h = np.pi / n
    return np.array([h * np.sum(vp), h * np.sum(t * vp) - 2.0 * np.pi])


def solve_mrs(V, tol=1e-12, max_iter=100, quadrature_order=MRS_QUADRATURE_ORDER):
    """Solve the endpoint equations for the support [a, b] of the
    equilibrium measure of V.

    Damped Newton iteration with a central finite-difference Jacobian;
    the residuals are evaluated by Gauss-Chebyshev quadrature which is
    exact for polynomial V'.  On success also computes the edge constant
    gamma and the Lagrange constant ell.

    Parameters
    ----------
    V : Potential
        Must pass validate_ga.
    tol : float
        Bound required of both residuals at the solution.
    max_iter : int
        Newton iteration cap.

    Returns
    -------
    EquilibriumData

    Raises
    ------
    SolverError
        If the residuals are not below tol after max_iter steps.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma = V.scale()
    a, b = -2.0 * sigma, 2.0 * sigma
    n = int(quadrature_order)
    F = _mrs_residuals(V, a, b, n)
    converged = False
    for it in range(max_iter):
        if np.max(np.abs(F)) < tol:
            converged = True
            break
        h = 1e-7 * (1.0 + abs(b - a))
        J = np.empty((2, 2))
        J[:, 0] = (_mrs_residuals(V, a + h, b, n) - _mrs_residuals(V, a - h, b, n)) / (2 * h)
        J[:, 1] = (_mrs_residuals(V, a, b + h, n) - _mrs_residuals(V, a, b - h, n)) / (2 * h)
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise SolverError(
                "singular Jacobian in endpoint solve",
                iterations=it, last_iterate=(a, b), residuals=tuple(F),
            ) from None
        lam = 1.0
        norm0 = np.max(np.abs(F))
        while True:
            a_new, b_new = a + lam * step[0], b + lam * step[1]
            if b_new - a_new > 1e-12 * (1.0 + abs(a) + abs(b)):
                F_new = _mrs_residuals(V, a_new, b_new, n)
                if np.max(np.abs(F_new)) <= (1.0 - 0.25 * lam) * norm0 or lam < 1e-4:
                    break
            lam *= 0.5
            if lam < 1e-12:
                raise SolverError(
                    "line search failed in endpoint solve",
                    iterations=it, last_iterate=(a, b), residuals=tuple(F),
                )
        a, b, F = a_new, b_new, F_new
    if not converged and np.max(np.abs(F)) >= tol:
        raise SolverError(
            f"no convergence after {max_iter} iterations",
            iterations=max_iter, last_iterate=(a, b), residuals=tuple(F),
        )

    g_edge = float(_g_values(V, a, b, n, np.array([b]))[0])
    gamma = (0.5 * math.sqrt(b - a) * g_edge) ** (2.0 / 3.0)
    # Lagrange constant: value of the effective potential at the support
    # midpoint, the point least affected by edge behavior
    mid = 0.5 * (a + b)
    ell = float(V.eval(mid, 0) - 2.0 * _log_moment(V, a, b, DENSITY_DISCRETIZATION, np.array([mid]))[0])
    return EquilibriumData(
        a=float(a), b=float(b), gamma=float(gamma), ell=ell,
        quadrature_order=n, residuals=(float(F[0]), float(F[1])),
    )


def _g_values(V, a, b, n, x):
    """Density factor G at points x (1-d array), by Gauss-Chebyshev
    quadrature of the difference quotient of V'."""
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    t = c + r * np.cos(_chebyshev_angles(n))
    vp_t = V.eval(t, 1)
    x = np.asarray(x, dtype=float)
    vp_x = V.eval(x, 1)
    dx = x[:, None] - t[None, :]
    # removable singularity of the quotient: second-order accurate patch
    near = np.abs(dx) < 1e-6 * (1.0 + np.abs(x))[:, None]
    quot = (vp_x[:, None] - vp_t[None, :]) / np.where(near, 1.0, dx)
    if near.any():
        mid = 0.5 * (x[:, None] + t[None, :])
        quot = np.where(near, V.eval(mid, 2), quot)
    return quot.sum(axis=1) / n


def g_factor(eq, V, x):
    """G(x), the polynomial factor of the equilibrium density.

    Positive for admissible V; G(b)**(2/3) essentially sets gamma.
    Accepts scalar or array x.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = _g_values(V, eq.a, eq.b, eq.quadrature_order, x_arr)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def density(eq, V, x):
    """Equilibrium density at x: sqrt((b-x)(x-a)) G(x) / (2 pi) on the
    support, zero outside."""
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x_arr)
    inside = (x_arr >= eq.a) & (x_arr <= eq.b)
    if inside.any():
        xi = x_arr[inside]
        g = _g_values(V, eq.a, eq.b, eq.quadrature_order, xi)
        out[inside] = np.sqrt((eq.b - xi) * (xi - eq.a)) * g / (2.0 * np.pi)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def eta(eq, V, x):
    """Rate function at x >= b: integral of sqrt((u-b)(u-a)) G(u) from b to x.

    The substitution u = b + v*v removes the square-root edge factor, so
    composite Gauss-Legendre panels converge at machine accuracy.
    """
    a, b = eq.a, eq.b
    if x < b - 1e-12 * (1.0 + abs(b)):
        raise ValueError(f"eta needs x >= b = {b!r}, got {x!r}")
    vmax = math.sqrt(max(x - b, 0.0))
    if vmax == 0.0:
        return 0.0
    edges = np.append(np.arange(0.0, vmax, 1.0), vmax)
    nodes, weights = composite_gl(edges, ETA_NODES_PER_UNIT)
    f = 2.0 * nodes**2 * np.sqrt(nodes**2 + (b - a)) * _g_values(
        V, a, b, eq.quadrature_order, b + nodes**2)
    return float(np.dot(weights, f))


def eta_prime(eq, V, x):
    """Derivative of the rate function: sqrt((x-b)(x-a)) G(x), x > b."""
    if x <= eq.b:
        raise ValueError(f"eta_prime needs x > b = {eq.b!r}, got {x!r}")
    g = float(_g_values(V, eq.a, eq.b, eq.quadrature_order, np.array([x]))[0])
    return math.sqrt((x - eq.b) * (x - eq.a)) * g


def _dct2(g):
    """Unnormalized DCT-II, 2 sum_j g_j cos(pi k (2j + 1) / (2n)) for
    k < n, in Makhoul's reorder-and-FFT form (IEEE TASSP 28, 1980): the
    FFT of the even samples followed by the reversed odd ones, turned
    by exp(-i pi k / (2n))."""
    n = g.size
    v = np.fft.fft(np.concatenate((g[::2], g[1::2][::-1])))
    return 2.0 * (np.exp(-0.5j * np.pi * np.arange(n) / n) * v).real


@lru_cache(maxsize=16)
def _log_kernel_coeffs(V, a, b, n):
    """Cosine coefficients of the density pushed to the angle variable.

    With y = c + r cos(theta), the measure becomes g(theta) d(theta) on
    [0, pi] with g = r^2 sin^2(theta) G(y) / (2 pi), a trigonometric
    polynomial for polynomial V, so its midpoint-grid DCT-II, taken by
    FFT in _dct2, is exact.
    """
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    theta = _chebyshev_angles(n)
    y = c + r * np.cos(theta)
    g = (r * r / (2.0 * np.pi)) * np.sin(theta) ** 2 * _g_values(V, a, b, MRS_QUADRATURE_ORDER, y)
    am = _dct2(g) / n
    am[0] *= 0.5
    am.flags.writeable = False
    return am, c, r


def _log_moment(V, a, b, n, x):
    """int log|x - y| dmu(y) for 1-d array x, via the closed-form action
    of the log kernel on cosines.

    Inside the support the kernel maps cos(m theta) to -pi T_m(p)/m and
    the constant to -pi log 2; outside, to -pi sign(p)^m e^{-m xi}/m and
    pi (xi - log 2), with p the affine image of x and xi = arccosh|p|.
    """
    am, c, r = _log_kernel_coeffs(V, a, b, n)
    m = np.arange(1, am.size)
    coeff = am[1:] / m
    x = np.asarray(x, dtype=float)
    p = (x - c) / r
    out = np.empty_like(p)
    inside = np.abs(p) <= 1.0
    if inside.any():
        ang = np.arccos(np.clip(p[inside], -1.0, 1.0))
        out[inside] = am[0] * np.pi * math.log(r / 2.0) - np.pi * (
            coeff @ np.cos(np.outer(m, ang)))
    if (~inside).any():
        q = p[~inside]
        xi = np.arccosh(np.abs(q))
        sign = np.where(q < 0, -1.0, 1.0)
        decay = np.exp(-np.outer(m, xi)) * sign[None, :] ** m[:, None]
        out[~inside] = am[0] * np.pi * (math.log(r / 2.0) + xi) - np.pi * (coeff @ decay)
    return out


def effective_potential(eq, V, x):
    """L(x) = V(x) - 2 int log|x-y| dmu(y).

    Constant (= ell) on the support, and L(x) - ell reproduces eta(x)
    beyond the right edge.  Accepts scalar or array x.
    """
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    out = V.eval(x_arr, 0) - 2.0 * _log_moment(V, eq.a, eq.b, DENSITY_DISCRETIZATION, x_arr)
    return float(out[0]) if np.isscalar(x) or np.ndim(x) == 0 else out


def equilibrium_measure(eq, V, n=DENSITY_DISCRETIZATION):
    """Discretization of the equilibrium measure on n Gauss-Chebyshev nodes.

    Weights are the plain-quadrature weights times the density, so they
    sum to 1 up to roundoff for polynomial fields.
    """
    c, r = 0.5 * (eq.a + eq.b), 0.5 * (eq.b - eq.a)
    theta = _chebyshev_angles(n)
    y = c + r * np.cos(theta)
    w = (np.pi / n) * r * np.sin(theta) * density(eq, V, y)
    order = np.argsort(y)
    y, w = y[order], w[order]
    w = w / math.fsum(w)  # guard the unit-mass invariant against roundoff
    return DiscreteMeasure(nodes=tuple(y), weights=tuple(w))


def energy(V, mu):
    """Discretized energy of mu in the field V: the double sum of
    log 1/|x_i - x_j| over distinct pairs, plus the mean of V.

    The diagonal is excluded, matching the convention that sidesteps
    log 0 for atomic measures.
    """
    x = np.asarray(mu.nodes, dtype=float)
    w = np.asarray(mu.weights, dtype=float)
    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)  # excluded from the sum anyway
    logs = np.log(diff)
    np.fill_diagonal(logs, 0.0)
    interaction = -float(w @ logs @ w)
    return interaction + float(np.dot(w, V.eval(x, 0)))
