"""Closed-form upper-tail approximations.

Houses the leading-order tail approximation F(t) for the largest
particle, the edge rescaling t(s), the correction-series coefficients
d_j of the rescaled exponent, the growth thresholds alpha_k that
delimit how many corrections the leading order needs, and the regime
labels of the `tail` table (regime_labels), which they define.

Probabilities below 1e-300 exist only in log space here; the
linear-space evaluator returns None for them.
"""

import math

import numpy as np
from numpy.polynomial import chebyshev as cheb
from numpy.polynomial import polynomial as npoly

# eta and eta_prime are not called here, but perfbench/child.py wraps
# loggas.tails.eta and loggas.tails.eta_prime when it traces a run
from .equilibrium import _compose, _eta, _eta_prime, _points, eta, eta_prime  # noqa: F401
from .errors import UNDERFLOW_LIMIT, NumericalError, Record
from .potential import _require_field

LOG_UNDERFLOW = math.log(UNDERFLOW_LIMIT)
K_MAX_SUPPORTED = 6      # highest correction order regime_labels names
TW_CUTOFF = 8.0
MODERATE_MARGIN = 0.5


class TailModel(Record):
    """Tail approximation family for one (potential, N) pair.

    cramer holds (d_1, ..., d_k); together with the exact rate function
    it gives both the plain approximation F(t) and its rescaled
    truncations up to order k.
    """

    eq: object
    N: int
    cramer: tuple


def build_tail_model(eq, V, N, k=K_MAX_SUPPORTED):
    """Assemble a TailModel, computing k correction coefficients."""
    if N < 1:
        raise ValueError("N must be a positive integer")
    d = cramer_coefficients(eq, V, k)
    return TailModel(eq=eq, N=int(N), cramer=tuple(d))


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
    _require_field(V, eq.coeffs, "equilibrium data solved")
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


def log_f_approx(model, t):
    """log F(t) for a scalar or an array t, shaped like t: tail_terms on
    the flattened t.  Raises the error tail_terms reports at the first
    failing threshold in C order: ValueError for a t <= b, NumericalError
    where the tail table prints an error row for a t past b."""
    return _points(_log_f, model, t)


def _log_f(model, t):
    """log F on a 1-d float array t; see log_f_approx."""
    log_f, _, _, errors = tail_terms(model, t)
    if errors:
        raise errors[min(errors)]
    return np.array(log_f)


def tail_terms(model, ts):
    """log F, eta and eta' at every threshold of ts, and the errors of
    the thresholds where they fail.

    Returns (log_f, eta, eta_prime, errors): three lists of floats in
    the order of ts, and a dict from the index in ts of each failed
    threshold to its error, so one failing threshold does not stop the
    others: ValueError for t <= b, NumericalError when one of the three
    is not finite (a t too large for a double result, or not a number).
    The lists hold nan at the failed indices.  eta and eta' are
    evaluated once, over the array of every threshold past b, and log F
    is assembled from them without forming exp(-N eta).
    """
    eq, N = model.eq, model.N
    ts = np.asarray(ts, dtype=float)
    past = ~(ts <= eq.b)
    t = ts[past]
    eta_t, eta_prime_t = _eta(eq, t), _eta_prime(eq, t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        log_f_t = (math.log((eq.b - eq.a) / (8.0 * math.pi)) - N * eta_t
                   - np.log(N * (t - eq.b) * (t - eq.a) * eta_prime_t))
    terms = np.full((3, ts.size), np.nan)
    terms[:, past] = log_f_t, eta_t, eta_prime_t
    log_f, eta_ts, eta_prime_ts = terms.tolist()
    errors = {}
    for i in np.flatnonzero(~(past & np.isfinite(terms).all(axis=0))).tolist():
        ti = float(ts[i])
        if not past[i]:
            errors[i] = ValueError(f"tail approximation needs t > b = {eq.b!r}, got {ti!r}")
        else:
            errors[i] = NumericalError(
                "tail approximation not finite at t = %r: log_F = %r, eta = %r, "
                "eta_prime = %r" % (ti, log_f[i], eta_ts[i], eta_prime_ts[i]))
    return log_f, eta_ts, eta_prime_ts, errors


def f_approx(model, t):
    """Leading-order tail approximation F(t), t > b, a scalar.

    Returns None when the value sits below the linear-space floor of
    1e-300; use log_f_approx there.  Raises where log_f_approx raises.
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
    if not 0 <= k <= len(model.cramer):
        raise ValueError(f"k must be in [0, {len(model.cramer)}], got {k!r}")
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


def _regime_bounds(N):
    """Ascending upper bounds on s at matrix size N, one for each label
    of _LABELS but the last: TW_CUTOFF, then max(TW_CUTOFF,
    MODERATE_MARGIN N^{alpha_k}) for k = 0..6."""
    return [TW_CUTOFF] + [max(TW_CUTOFF, MODERATE_MARGIN * N ** alpha_threshold(k))
                          for k in range(K_MAX_SUPPORTED + 1)]


_LABELS = ("tracy-widom", "moderate(0)", "moderate(1)", "moderate(2)", "moderate(3)",
           "moderate(4)", "moderate(5)", "moderate(6)", "large")


def regime_labels(s, N):
    """Regime labels of the rescaled thresholds s, an array, at matrix
    size N, as a list.

    Fixed desk-scale margins: s <= 8 is 'tracy-widom', the limiting-law
    regime; otherwise the least k <= 6 with s <= 0.5 N^{alpha_k} gives
    'moderate(k)', the moderate regime with k corrections; past every
    bound s is of edge order N^{2/3} and reads 'large'.  A negative s
    reads 'tracy-widom'; the CLI never prints that label, as such a row
    is a tail error.
    """
    index = np.searchsorted(_regime_bounds(N), s).tolist()
    return list(map(_LABELS.__getitem__, index))
