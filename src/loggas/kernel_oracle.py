"""Exact finite-N oracle: orthonormal polynomials, projection kernel,
and gap probabilities.

Everything here is computed from the weight exp(-N V) alone, with no
input from the equilibrium or tail modules, so it can serve as an
independent ground truth for their asymptotic formulas.

The recurrence coefficients come from a discretized Stieltjes
orthonormalization on the window N(V - Vmin) <= 750, outside of which
the weight is below e^-750 (about 1e-326) times its peak.  All
polynomial values are carried in weighted form
phi_j = p_j exp(-N V / 2), which stays of moderate size where the raw
p_j would overflow.

Per threshold t, one recurrence evaluates every phi_j on all the tail
nodes and gives the row masses d_j, the diagonal of the tail Gram
matrix G.  The leading rows whose masses sum to at most DEFLATION_TOL
of the trace are dropped before the eigenvalues are taken: that moves
the survival probability by at most the dropped mass (see
gap_probability), and past the edge it leaves a block far smaller
than N.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import UNDERFLOW_LIMIT, NumericalError
from .quadrature import brentq, composite_gl, gl_rule

WINDOW_LOG_CUTOFF = 750.0          # N(V - Vmin) beyond which exp(-NV) < 1e-325
PANEL_WEIGHT_CUTOFF = 250.0 * math.log(10.0)
PANEL_RELATIVE_CUTOFF = 1e-3
BASE_PANEL_NODES = 32
MAX_PANELS = 20000
DEFLATION_TOL = 1e-30              # tail-mass share of the rows gap_probability drops
SERIES_SIZE_LIMIT = 5              # series term k costs C(24, k) determinants
SERIES_LOG_CUTOFF = 80.0


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Recurrence data of the polynomials orthonormal for exp(-N V).

    beta[0] holds the weight normalizer (the integral of exp(-N V));
    beta[1:] the squared off-diagonal recurrence coefficients.  v_min is
    the minimum of V, used by underflow gauges.
    """

    N: int
    alpha: np.ndarray
    beta: np.ndarray
    support_window: tuple
    v_min: float


@dataclass(frozen=True, eq=False)
class GapResult:
    """Exact survival probability of the rightmost particle past t.

    survival is None when the value sits below 1e-300; log_survival is
    always finite whenever any eigenvalue of the tail Gram matrix is
    positive.  det_value is the gap probability det(I - G).  eigenvalues
    has length N in ascending order: those of the kept block of G (see
    gap_probability), preceded by 0.0 for each dropped row.  trace is
    the trace of the whole of G.
    """

    t: float
    log_survival: float
    survival: object
    det_value: float
    eigenvalues: np.ndarray
    trace: float


def _potential_minimum(V):
    """Location and value of the minimum of an admissible polynomial V."""
    dcoef = npoly.polyder(np.asarray(V.coeffs, dtype=float))
    roots = npoly.polyroots(dcoef) if dcoef.size > 1 or dcoef[0] != 0 else np.array([])
    real = roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real if roots.size else np.array([])
    if real.size:
        vals = V.eval(real, 0)
        i = int(np.argmin(vals))
        return float(real[i]), float(vals[i])
    # no stationary point found: fall back to a coarse grid
    span = 10.0 * (1.0 + 2.0 * V.scale())
    xs = np.linspace(-span, span, 4001)
    vals = V.eval(xs, 0)
    i = int(np.argmin(vals))
    return float(xs[i]), float(vals[i])


def _support_window(V, N):
    """Interval outside of which N(V - Vmin) exceeds the underflow cutoff."""
    x_min, v_min = _potential_minimum(V)
    target = WINDOW_LOG_CUTOFF / N

    def f(x):
        return V.eval(x, 0) - v_min - target

    edges = []
    for direction in (-1.0, 1.0):
        d = max(1.0, V.scale())
        for _ in range(200):
            if f(x_min + direction * d) > 0.0:
                break
            d *= 2.0
        else:
            raise NumericalError("potential does not reach the window cutoff")
        edges.append(brentq(f, x_min, x_min + direction * d) if direction > 0
                     else brentq(f, x_min + direction * d, x_min))
    return (edges[0], edges[1]), v_min


def build_basis(V, N, quad_points=None):
    """Recurrence coefficients of the first N orthonormal polynomials
    for the weight exp(-N V), by discretized Stieltjes orthonormalization.

    Parameters
    ----------
    V : Potential
    N : int
        Weight scale and kernel rank.
    quad_points : int, optional
        Total quadrature nodes; defaults to max(4000, 40 N) and may not
        be set below 40 N.

    Raises
    ------
    NumericalError
        If orthonormalization loses positivity (quadrature failure), or
        the weight underflows everywhere on the window.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    if quad_points is None:
        quad_points = max(4000, 40 * N)
    elif quad_points < 40 * N:
        raise ValueError(f"quad_points must be at least 40 N = {40 * N}")
    (lo, hi), v_min = _support_window(V, N)
    n_panels = max(1, math.ceil(quad_points / BASE_PANEL_NODES))
    x, w = composite_gl(np.linspace(lo, hi, n_panels + 1), BASE_PANEL_NODES)
    weight = w * np.exp(-N * V.eval(x, 0))
    beta0 = float(np.sum(weight))
    if not beta0 > 0.0:
        raise NumericalError("weight exp(-N V) underflows on the whole window")

    alpha = np.zeros(N)
    beta = np.zeros(N)
    beta[0] = beta0
    # run the recurrence on weighted values; the quadrature weight w and
    # the orthogonality weight stay factored apart
    phi_prev = np.zeros_like(x)
    phi = np.exp(-0.5 * N * V.eval(x, 0)) / math.sqrt(beta0)
    for j in range(N):
        alpha[j] = float(np.sum(w * x * phi * phi))
        if j == N - 1:
            break
        psi = (x - alpha[j]) * phi - (math.sqrt(beta[j]) if j > 0 else 0.0) * phi_prev
        b_next = float(np.sum(w * psi * psi))
        if not b_next > 0.0:
            raise NumericalError(
                f"orthonormalization lost positivity at beta[{j + 1}] = {b_next!r}")
        beta[j + 1] = b_next
        phi_prev = phi
        phi = psi / math.sqrt(b_next)
    alpha.flags.writeable = False
    beta.flags.writeable = False
    return OrthoBasis(N=N, alpha=alpha, beta=beta,
                      support_window=(float(lo), float(hi)), v_min=float(v_min))


def _phi_matrix(basis, V, x, j_max=None):
    """Weighted polynomial values phi_0..phi_{j_max} at the points x,
    as a (j_max+1, len(x)) array.

    Each value depends on its own point only, through element-wise IEEE
    operations, so evaluating at a concatenation of point sets gives
    the concatenation of the results bit for bit."""
    if j_max is None:
        j_max = basis.N - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alpha, sqrt_beta = basis.alpha, np.sqrt(basis.beta)
    out = np.empty((j_max + 1, x.size))
    out[0] = np.exp(-0.5 * basis.N * V.eval(x, 0)) / sqrt_beta[0]
    term = np.empty_like(x)
    for j in range(j_max):
        row = out[j + 1]
        np.subtract(x, alpha[j], out=row)
        row *= out[j]
        if j:
            np.multiply(out[j - 1], sqrt_beta[j], out=term)
            row -= term
        row /= sqrt_beta[j + 1]
    return out


def phi(basis, V, j, x):
    """Weighted orthonormal function phi_j(x) = p_j(x) exp(-N V(x)/2)."""
    if not 0 <= j < basis.N:
        raise ValueError(f"j must be in [0, {basis.N - 1}], got {j!r}")
    vals = _phi_matrix(basis, V, x, j_max=j)[j]
    return float(vals[0]) if np.ndim(x) == 0 else vals


def kernel_diag(basis, V, x):
    """Diagonal of the rank-N projection kernel: sum of phi_j(x)^2."""
    vals = np.sum(_phi_matrix(basis, V, x) ** 2, axis=0)
    return float(vals[0]) if np.ndim(x) == 0 else vals


def _bulk_estimate(basis):
    """Interval bounding the oscillatory region, from Gershgorin disks
    of the Jacobi matrix (recurrence coefficients only)."""
    alpha = basis.alpha
    if basis.N == 1:
        return float(alpha[0]) - 1.0, float(alpha[0]) + 1.0
    srb = np.sqrt(basis.beta[1:])
    reach = 2.0 * float(np.max(srb))
    return float(np.min(alpha)) - reach, float(np.max(alpha)) + reach


def _tail_grid(basis, V, t):
    """Quadrature nodes x and weights w for integrals over (t, infinity),
    phi_0..phi_{N-1} at x as an (N, len(x)) array, and the row masses
    d_j = sum_i w_i phi_j(x_i)^2, the diagonal of the tail Gram matrix.

    Fixed-width panels run rightward from t.  Panels touching the bulk
    carry extra nodes so the fastest oscillation of phi_{N-1} (about N
    half-waves across the bulk) stays resolved; a panel ends the grid
    once its row masses sum to a relatively negligible part of the
    total and the weight at its start has fallen below the underflow
    gauge.  The weight only stays small to the right of the minimum of
    V, so phi is evaluated in one call on every panel up to the first
    such start past the first panel, and the grid grows one panel at a
    time only if the stopping rule has not fired by then.  The panels
    and the stopping rule are those of a plain panel-by-panel march,
    and phi is element-wise in x, so the result does not depend on
    where the single call ends.
    """
    lo, hi = basis.support_window
    N = basis.N
    start = max(t, lo) if np.isfinite(t) else lo
    if start >= hi:
        return np.empty(0), np.empty(0), np.empty((N, 0)), np.zeros(N)
    blo, bhi = _bulk_estimate(basis)
    span = max(bhi - blo, 1e-2 * (hi - lo))
    width = 0.25 * span
    extra = math.ceil(4.0 * N * width / span)

    def panel(p):
        p0 = start + p * width
        p1 = p0 + width
        in_bulk = (p0 < bhi + 0.5 * width) and (p1 > blo - 0.5 * width)
        xg, wg = gl_rule(BASE_PANEL_NODES + (extra if in_bulk else 0))
        return 0.5 * (p0 + p1) + 0.5 * width * xg, 0.5 * width * wg

    # one phi call covers panels 0..last, where last is the first panel
    # past 0 whose start has a small weight with V increasing; for an
    # admissible V the first start at or past hi qualifies
    n_pre = max(1, math.ceil((hi - start) / width))
    starts = start + width * np.arange(1, n_pre)
    small = N * (V.eval(starts, 0) - basis.v_min) > PANEL_WEIGHT_CUTOFF
    settled = np.flatnonzero(small & (V.eval(starts, 1) > 0.0))
    last = 1 + int(settled[0]) if settled.size else n_pre
    xs, ws = zip(*(panel(p) for p in range(last + 1)))
    ends = np.cumsum([xm.size for xm in xs])
    x, w = np.concatenate(xs), np.concatenate(ws)
    Phi = _phi_matrix(basis, V, x)
    d = np.zeros(N)
    total = 0.0
    for p in range(MAX_PANELS):
        if p > last:
            xm, wm = panel(p)
            x, w = np.concatenate((x, xm)), np.concatenate((w, wm))
            Phi = np.concatenate((Phi, _phi_matrix(basis, V, xm)), axis=1)
            ends = np.append(ends, x.size)
        begin, end = (ends[p - 1] if p else 0), ends[p]
        mass = np.square(Phi[:, begin:end]) @ w[begin:end]
        contrib = float(np.sum(mass))
        d += mass
        total += contrib
        weight_small = N * (V.eval(start + p * width, 0) - basis.v_min) > PANEL_WEIGHT_CUTOFF
        if weight_small and (total == 0.0 or contrib < PANEL_RELATIVE_CUTOFF * total):
            return x[:end], w[:end], Phi[:, :end], d
    raise NumericalError("tail quadrature did not terminate")


def tail_trace(basis, V, t):
    """Integral of the kernel diagonal over (t, infinity): the trace of
    the tail Gram matrix as the sum of the tail grid's row masses, in
    O(N m) for m tail nodes; the same float as gap_probability's trace."""
    return float(np.sum(_tail_grid(basis, V, t)[3]))


def gram(basis, V, t):
    """Tail Gram matrix G_{jk} = int_t^inf phi_j phi_k dx, symmetric by
    construction; all zeros when the tail grid is empty."""
    _, w, Phi, _ = _tail_grid(basis, V, t)
    G = (Phi * w) @ Phi.T
    return 0.5 * (G + G.T)


def gap_probability(basis, V, t):
    """Exact survival probability P(rightmost particle > t).

    The gap probability is det(I - G) for the tail Gram matrix G; going
    through the eigenvalues keeps log-space accuracy for survival values
    far below the linear floating-point range.

    Only the rows that carry tail mass enter the eigenproblem.  With
    d_j the diagonal of G and T = sum_j d_j its trace, the longest
    prefix of rows 0..j0-1 whose mass eps = d_0 + ... + d_{j0-1} is at
    most DEFLATION_TOL * T is dropped, and the eigenvalues are those of
    the kept block G22 = A A^T, A = Phi[j0:] sqrt(w), of size
    k = N - j0.  For the PSD G with G <= I, det(I - G) =
    det(I - G22) det(I - S), where I - S is the Schur complement of
    I - G22 in I - G, tr S <= eps / (1 - lambda_max(G22)) and
    det(I - G22) <= 1 - lambda_max(G22), so
    0 <= survival(G) - survival(G22) <= eps.  As survival(G) >=
    (1 - e^-1) min(T, 1), that is a relative error of at most
    2 DEFLATION_TOL max(T, 1).  The j0 dropped eigenvalues are reported
    as 0.0.  An empty or all-underflow tail grid (T = 0) takes no
    eigenvalues at all.

    Raises NumericalError if the kept block has eigenvalues outside
    [0, 1] beyond a 1e-10 tolerance band, if the trace is not finite,
    or if the result violates the first-order bracketing
    trace - trace^2/2 <= survival <= trace (trace < 1).
    """
    _, w, Phi, d = _tail_grid(basis, V, t)
    trace = float(np.sum(d))
    if not math.isfinite(trace):
        raise NumericalError(f"tail Gram trace {trace!r} at t = {t!r}")
    lam = np.zeros(basis.N)
    log_det = 0.0
    if trace > 0.0:
        j0 = int(np.searchsorted(np.cumsum(d), DEFLATION_TOL * trace, side="right"))
        A = Phi[j0:] * np.sqrt(w)
        kept = np.linalg.eigvalsh(A @ A.T)
        if kept[0] < -1e-10 or kept[-1] > 1.0 + 1e-10:
            raise NumericalError(
                f"tail Gram eigenvalues outside [0, 1]: range "
                f"[{kept[0]!r}, {kept[-1]!r}] at t = {t!r}")
        lam[j0:] = np.clip(kept, 0.0, 1.0)
        with np.errstate(divide="ignore"):
            log_det = float(np.sum(np.log1p(-lam[j0:])))
    det_value = math.exp(log_det) if log_det > -745.0 else 0.0
    if log_det == -np.inf:
        survival, log_survival = 1.0, 0.0
    else:
        sur = -math.expm1(log_det)
        if sur >= UNDERFLOW_LIMIT:
            survival, log_survival = sur, math.log(sur)
        elif log_det < 0.0:
            # -expm1(u) = -u to better than |u|/2 relative here
            survival, log_survival = None, math.log(-log_det)
        else:
            # no eigenvalue mass at all: the true survival is positive
            # but beyond both linear and log double-precision range
            survival, log_survival = None, -np.inf
    if survival is not None and trace < 1.0:
        slack = 1e-12
        if not (trace - 0.5 * trace * trace - slack <= survival <= trace + slack):
            raise NumericalError(
                f"survival {survival!r} violates first-order bracketing "
                f"against trace {trace!r} at t = {t!r}")
    lam.flags.writeable = False
    return GapResult(t=float(t), log_survival=log_survival, survival=survival,
                     det_value=det_value, eigenvalues=lam, trace=trace)


def _series_kernel(basis, V, t):
    """sqrt(w_i) K(x_i, x_j) sqrt(w_j) for one 24-point Gauss-Legendre
    rule over a box from t whose far edge puts the weight 80 e-foldings
    down."""
    N = basis.N

    def excess(x):
        return N * (V.eval(x, 0) - V.eval(t, 0)) - SERIES_LOG_CUTOFF

    d = max(1.0, V.scale())
    for _ in range(60):
        if excess(t + d) > 0.0:
            break
        d *= 2.0
    else:
        raise NumericalError("could not bracket the series integration box")
    hi = brentq(excess, t, t + d)

    xg, wg = gl_rule(24)
    xm = 0.5 * (t + hi) + 0.5 * (hi - t) * xg
    wm = 0.5 * (hi - t) * wg
    Phi = _phi_matrix(basis, V, xm)
    sw = np.sqrt(wm)
    return sw[:, None] * (Phi.T @ Phi) * sw[None, :]


def brute_force_survival(basis, V, t, k_max=None):
    """Survival probability by the inclusion-exclusion series: the k-th
    term is (-1)^{k+1}/k! times the k-fold integral of the k x k kernel
    determinant over (t, infinity)^k, on the rule of _series_kernel.

    Determinants with a repeated node vanish and the rest are symmetric,
    so term k sums the C(24, k) node subsets in place of the 24**k
    ordered tuples over k!: a desk-scale check only (N at most 5).
    """
    N = basis.N
    if N > SERIES_SIZE_LIMIT:
        raise ValueError(f"brute-force series restricted to N <= {SERIES_SIZE_LIMIT}")
    if k_max is None:
        k_max = N
    if not 1 <= k_max <= N:
        raise ValueError(f"k_max must be in [1, {N}], got {k_max!r}")
    M = _series_kernel(basis, V, t)
    total = 0.0
    for k in range(1, k_max + 1):
        idx = np.array(list(itertools.combinations(range(len(M)), k)))
        sub = M[idx[:, :, None], idx[:, None, :]]
        total += (-1.0) ** (k + 1) * float(np.linalg.det(sub).sum())
    return total


def hadamard_check(A, slack=1e-12):
    """True iff det A <= product of the diagonal (plus slack), for
    symmetric positive-definite A.  Non-PD input raises ValueError."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("hadamard_check needs a square matrix")
    scale = max(1.0, float(np.max(np.abs(A))))
    if np.max(np.abs(A - A.T)) > 1e-10 * scale:
        raise ValueError("hadamard_check needs a symmetric matrix")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ValueError("hadamard_check needs a positive-definite matrix") from None
    det = float(np.linalg.det(A))
    return bool(det <= float(np.prod(np.diag(A))) + slack)
