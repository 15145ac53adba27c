"""Closed-form upper-tail approximations.

Houses the leading-order tail approximation F(t) for the largest
particle, the edge rescaling t(s), the correction-series coefficients
d_j of the rescaled exponent, and the growth thresholds alpha_k that
delimit how many corrections the leading order needs.

Probabilities below 1e-300 exist only in log space here; the
linear-space evaluator returns None for them.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

# eta and eta_prime are not called here, but perfbench/child.py wraps
# loggas.tails.eta and loggas.tails.eta_prime when it traces a run
from .equilibrium import (_compose, _eta, _eta_prime, _points, _require_field,  # noqa: F401
                          eta, eta_prime)
from .errors import UNDERFLOW_LIMIT, NumericalError

LOG_UNDERFLOW = math.log(UNDERFLOW_LIMIT)
K_MAX_SUPPORTED = 6      # highest correction order regime_classify selects
TW_CUTOFF = 8.0
MODERATE_MARGIN = 0.5


@dataclass(frozen=True)
class TailModel:
    """Tail approximation family for one (potential, N) pair.

    cramer holds (d_1, ..., d_{k_max}); together with the exact rate
    function it gives both the plain approximation F(t) and its
    rescaled truncations.
    """

    eq: object
    potential: object
    N: int
    cramer: tuple
    k_max: int


def build_tail_model(eq, V, N, k=K_MAX_SUPPORTED):
    """Assemble a TailModel, computing k correction coefficients."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = cramer_coefficients(eq, V, k)
    return TailModel(eq=eq, potential=V, N=int(N), cramer=tuple(d), k_max=k)


def alpha_threshold(k):
    """Growth exponent delimiting the k-th correction regime: 2/3 - 2/(2k+5).

    Strictly increasing in k with limit 2/3; alpha_threshold(0) = 4/15
    bounds the window where the limiting edge law needs no correction.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return 2.0 / 3.0 - 2.0 / (2 * k + 5)


def cramer_coefficients(eq, V, k):
    """Correction coefficients d_1..d_k of the rescaled tail exponent.

    The rate function near the right edge is eta(b + v) =
    sum_m c_m v^{m+3/2} with c_m = h_m/(m+3/2), where h_m are the Taylor
    coefficients of h(v) = sqrt(b - a + v) G(b + v).  Both factors have
    exact expansions: the binomial series of the square root, and the
    polynomial G re-expanded about b from its Chebyshev coefficients
    eq.g_coeffs.  d_j rescales c_j by gamma^{-(j+3/2)}.

    The zeroth coefficient must reproduce the universal 4/3 prefactor;
    a violation means eq is inconsistent and raises NumericalError; an
    eq solved for another field than V raises ValueError.
    """
    _require_field(eq, V)
    if k < 0:
        raise ValueError("k must be non-negative")
    if k > K_MAX_SUPPORTED:
        raise ValueError(
            f"k = {k} unsupported: the regime classification uses correction "
            f"orders up to {K_MAX_SUPPORTED}")
    a, b = eq.a, eq.b
    r = 0.5 * (b - a)
    # G(b + v) = G(c + r y) at y = 1 + v/r
    g = _compose(cheb.cheb2poly(eq.g_coeffs), 1.0, 1.0 / r)
    m = np.arange(k + 1)
    binom = np.cumprod(np.append(1.0, (1.5 - m[1:]) / m[1:]))     # binom(1/2, m)
    root = math.sqrt(b - a) * binom / (b - a) ** m                # sqrt(b - a + v)
    h = npoly.polymul(root, g)[:k + 1]
    c = h / (m + 1.5)
    c0_scaled = c[0] * eq.gamma ** (-1.5)
    if abs(c0_scaled - 4.0 / 3.0) > 1e-8:
        raise NumericalError(
            f"edge-coefficient gate failed: c0*gamma^(-3/2) = {float(c0_scaled)!r}, "
            f"expected 4/3 (gamma = {eq.gamma!r}, b = {b!r})")
    d = c[1:] * eq.gamma ** -(m[1:] + 1.5)
    return [float(v) for v in d]


def _edge_error(eq, t):
    return ValueError(f"tail approximation needs t > b = {eq.b!r}, got {t!r}")


def _log_f(model, t, eta_t, eta_prime_t):
    """log F at t from eta(t) and eta'(t), without forming exp(-N eta)."""
    eq, N = model.eq, model.N
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return (math.log((eq.b - eq.a) / (8.0 * math.pi)) - N * eta_t
                - np.log(N * (t - eq.b) * (t - eq.a) * eta_prime_t))


def log_f_approx(model, t):
    """log F(t) for a scalar or an array t > b, assembled without forming
    exp(-N eta); eta and eta' are one closed-form array evaluation each.
    Any t <= b raises ValueError."""
    eq = model.eq
    t_arr = np.asarray(t, dtype=float)
    low = t_arr <= eq.b
    if low.any():
        raise _edge_error(eq, float(t_arr[low][0]))
    return _points(lambda eq, t: _log_f(model, t, _eta(eq, t), _eta_prime(eq, t)), eq, t_arr)


def tail_terms(model, ts):
    """log F, eta and eta' at every threshold of ts, as a list in the
    order of ts.  An entry is the (log_f, eta, eta_prime) tuple of
    floats, or the error of that threshold, so one failing threshold
    does not stop the others: ValueError for t <= b, NumericalError
    when one of the three is not finite (a t too large for a double
    result, or not a number).  eta and eta' are evaluated once, over
    the array of every threshold past b.
    """
    eq = model.eq
    ts = np.asarray(ts, dtype=float)
    t = ts[~(ts <= eq.b)]
    eta_t, eta_prime_t = _eta(eq, t), _eta_prime(eq, t)
    values = zip(_log_f(model, t, eta_t, eta_prime_t).tolist(), eta_t.tolist(),
                 eta_prime_t.tolist())
    out = []
    for ti in ts.tolist():
        if ti <= eq.b:
            out.append(_edge_error(eq, ti))
            continue
        v = next(values)
        out.append(v if all(map(math.isfinite, v)) else NumericalError(
            "tail approximation not finite at t = %r: log_F = %r, eta = %r, "
            "eta_prime = %r" % ((ti,) + v)))
    return out


def f_approx(model, t):
    """Leading-order tail approximation F(t), t > b.

    Returns None when the value sits below the linear-space floor of
    1e-300; use log_f_approx there.
    """
    lf = log_f_approx(model, t)
    if lf < LOG_UNDERFLOW:
        return None
    return math.exp(lf)


def rescale(model, s):
    """Edge coordinate map t(s) = b + s/(gamma N^{2/3}), s >= 0."""
    if s < 0:
        raise ValueError(f"rescale needs s >= 0, got {s!r}")
    return model.eq.b + s / (model.eq.gamma * model.N ** (2.0 / 3.0))


def eta_tilde(model, s, k):
    """Truncated rescaled exponent: (4/3)s^{3/2} plus the first k
    corrections d_j s^{j+3/2} N^{-2j/3}."""
    if s < 0:
        raise ValueError(f"eta_tilde needs s >= 0, got {s!r}")
    if not 0 <= k <= model.k_max:
        raise ValueError(f"k must be in [0, {model.k_max}], got {k!r}")
    total = (4.0 / 3.0) * s ** 1.5
    for j in range(1, k + 1):
        total += model.cramer[j - 1] * s ** (j + 1.5) * model.N ** (-2.0 * j / 3.0)
    return total


def moderate_leading(model, s, k):
    """Rescaled-regime prediction exp(-eta_tilde(s, k)) / (16 pi s^{3/2})."""
    if s <= 0:
        raise ValueError(f"moderate_leading needs s > 0, got {s!r}")
    return math.exp(-eta_tilde(model, s, k)) / (16.0 * math.pi * s ** 1.5)


def tw_tail_asymptotic(s):
    """Right-tail asymptotic of the limiting edge law:
    exp(-(4/3)s^{3/2}) / (16 pi s^{3/2}), s > 0."""
    if s <= 0:
        raise ValueError(f"tw_tail_asymptotic needs s > 0, got {s!r}")
    return math.exp(-(4.0 / 3.0) * s ** 1.5) / (16.0 * math.pi * s ** 1.5)


@dataclass(frozen=True)
class Regime:
    """Classifier outcome: kind is one of 'tracy-widom', 'moderate',
    'large'; k the minimal correction order (None in the large regime)."""

    kind: str
    k: object

    def label(self):
        if self.kind == "moderate":
            return f"moderate({self.k})"
        return self.kind


def regime_classify(s, N):
    """Classify the rescaled threshold s at matrix size N.

    Fixed desk-scale margins: s <= 8 counts as the limiting-law regime;
    otherwise the least k <= 6 with s <= 0.5 N^{alpha_k} selects the
    moderate regime with k corrections; past all thresholds s is of
    edge order N^{2/3} and classifies as large.
    """
    if s < 0:
        raise ValueError(f"s must be non-negative, got {s!r}")
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if s <= TW_CUTOFF:
        return Regime(kind="tracy-widom", k=0)
    for k in range(K_MAX_SUPPORTED + 1):
        if s <= MODERATE_MARGIN * N ** alpha_threshold(k):
            return Regime(kind="moderate", k=k)
    return Regime(kind="large", k=None)
