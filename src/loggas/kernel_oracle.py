"""Exact finite-N oracle: orthonormal polynomials, projection kernel,
and gap probabilities.

Everything here is computed from the weight exp(-N V) alone, with no
input from the equilibrium or tail modules, so it can serve as an
independent ground truth for their asymptotic formulas.

The recurrence coefficients come from a discretized Stieltjes
orthonormalization on the window N(V - Vmin) <= 1400, where
phi_0 = exp(-N (V - Vmin) / 2) / sqrt(beta_0) stays a normal double.
V is a polynomial, so the window edges are exact: the outermost real
roots of N(V - Vmin) - 1400, as eigenvalues of its companion matrix.
Vmin (from the real roots of V') and the far edge of the series box
come from the same root finder, _real_roots.
build_basis checks that the kernel diagonal at both window edges is
negligible, which holds up to about N = 550 for x^2/2 and N = 800 for
x^4, and certifies its rule by the Freud equations (_freud_residual).
All polynomial values are carried in weighted form
phi_j = p_j exp(-N (V - Vmin) / 2), which stays of moderate size where
the raw p_j would overflow.

The survival probability past t is the Fredholm determinant of the
projection kernel K on (t, infinity) at the nodes of a tail grid
(Bornemann, Math. Comp. 79, 2010).  By Christoffel-Darboux,

    K(x, y) = (psi(x) phi_{N-1}(y) - phi_{N-1}(x) psi(y)) / (x - y),
    K(x, x) = sum_{j<N} phi_j(x)^2,

for psi = sqrt(beta_N) phi_N = (x - alpha_{N-1}) phi_{N-1} - sqrt(beta_{N-1})
phi_{N-2}: three functions per node, not N, from one recurrence
(_cd_values) that holds at every x, in O(N m) time on m nodes.  Below the
Gershgorin edge of the Jacobi matrix the tail grid is the certified basis
rule cut at t; past it (or past the window edge, where the cut rule ends)
it is an edge grid settled panel by panel, and the thresholds there run in
blocks of EDGE_BLOCK, over their grids as one (T, m) array, in O(N T m)
time and O(T m) memory.  No kernel matrix is formed: a pivoted Cholesky
pass forms one kernel column per pivot (_pivoted_factors), r <= N columns
per threshold, until the Schur complement's trace is at most
DEFLATION_TOL of the trace (see gap_probability), in O(r^2 m) time, and
one stacked eigvalsh call per r takes the eigenvalues of the r x r
matrices L^T L (see gap_probabilities).  gram alone takes the dense phi_j,
for the N x N tail Gram matrix.

brute_force_survival checks the determinant for N <= SERIES_SIZE_LIMIT
by the series on a two-panel 24-node box rule, from tr(M^i) by Newton's
identities: N - 1 small matrix products, no eigenvalue routine.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import UNDERFLOW_LIMIT, NumericalError

WINDOW_LOG_CUTOFF = 1400.0         # N(V - Vmin) at the window edges, where phi_0 is about e^-700
WINDOW_EDGE_TOL = 1e-30            # kernel share the window may cut off
BASIS_NODES_PER_N = 8              # first basis rule; refined by BASIS_REFINE until certified
BASIS_MIN_NODES = 256
BASIS_REFINE = 1.5
BASIS_MAX_RULES = 12
FREUD_TOL = 32.0                   # Freud residual accepted, in eps S (see _freud_residual)
BASE_PANEL_NODES = 32
EDGE_PANELS = 3                    # panels of an edge grid before its a-posteriori check
EDGE_GROWTH = 2.0                  # width ratio of consecutive edge panels
EDGE_CAP_EFOLDS = 64.0             # weight e-folds the first edge panel may span
EDGE_SHARE_TOL = 1e-17             # tail-mass share the last edge panel may carry
MAX_EDGE_PANELS = 12
EDGE_BLOCK = 32                    # edge thresholds per array pass; bounds its working memory
DEFLATION_TOL = 1e-30              # tail-mass share gap_probability leaves out of its eigenproblem
TRACE_FLOOR = float(np.finfo(float).tiny)  # below it the kernel mass sums lose precision
SERIES_SIZE_LIMIT = 16             # |det - series| <= 1e-10 is checked for every N up to here
SERIES_LOG_CUTOFF = 80.0


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Recurrence data of the polynomials orthonormal for exp(-N V).

    beta[0] holds the weight normalizer, the integral of exp(-N (V -
    v_min)); beta[1:] the squared off-diagonal recurrence coefficients,
    certified by freud_residual on the _basis_rule of panels panels over
    support_window.  v_min is the minimum of V.  Shifting V by a constant
    changes neither v_min - V nor any of these.
    """

    N: int
    alpha: np.ndarray
    beta: np.ndarray
    support_window: tuple
    v_min: float
    freud_residual: float
    panels: int


@dataclass(frozen=True, eq=False)
class GapResult:
    """Exact survival probability of the rightmost particle past t.

    log_survival is always finite; survival is None when the value sits
    below 1e-300.  det_value is the gap probability det(I - M) for the
    tail kernel matrix M (see gap_probability), to absolute accuracy
    only once it is far below 1, as 1 - lambda cancels for lambda near
    1: at GUE N = 20 the N x N tail Gram matrix gives 2.44e-88 at t = 0,
    where an eigenvalue of the pivoted factor rounds to 1 and gives 0.0,
    and the two differ by 0.3% at t = 0.5; survival rounds to 1 there.
    eigenvalues has length N in ascending order: those of L^T L for the
    r-column pivoted Cholesky factor L of M, r <= N, preceded by 0.0 for
    the rest, as the kernel has rank N at most.  trace is the trace of
    the whole of M, the kernel mass past t.
    """

    t: float
    log_survival: float
    survival: object
    det_value: float
    eigenvalues: np.ndarray
    trace: float


@lru_cache(maxsize=32)
def gl_rule(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def composite_gl(edges, n):
    """n-point Gauss-Legendre rule on every panel [edges[i], edges[i+1]],
    flattened panel by panel."""
    xg, wg = gl_rule(n)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def _real_roots(coeffs):
    """Sorted real roots of the polynomial with coefficients coeffs
    (lowest degree first): the companion-matrix eigenvalues whose
    imaginary part is below 1e-9 (1 + |real part|)."""
    coeffs = np.asarray(coeffs, dtype=float)
    roots = npoly.polyroots(coeffs) if coeffs.size > 1 else np.array([])
    return np.sort(roots[np.abs(roots.imag) < 1e-9 * (1.0 + np.abs(roots.real))].real)


def _potential_minimum(V):
    """Minimum value of an admissible polynomial V."""
    real = _real_roots(npoly.polyder(np.asarray(V.coeffs, dtype=float)))
    if not real.size:
        raise ValueError(f"V' has no real root: {V.coeffs!r} has no minimum")
    return float(np.min(V.eval(real, 0)))


def _excess(V, v_min, x):
    """V(x) - v_min, with v_min taken off the constant term before the
    polynomial is evaluated, so a constant in V cancels exactly."""
    c = np.array(V.coeffs, dtype=float)
    c[0] -= v_min
    return npoly.polyval(x, c)


def _level_roots(V, base, level):
    """Outermost crossings (lo, hi) of V - base = level: the smallest and
    largest real root of the polynomial, base and then level taken off
    its constant term as in _excess.  Raises NumericalError unless V
    crosses the level on two sides (never for a base or level that is
    not finite)."""
    c = np.array(V.coeffs, dtype=float)
    c[0] -= base
    c[0] -= level
    roots = _real_roots(c) if np.isfinite(c).all() else np.array([])
    if roots.size < 2:
        raise NumericalError(
            f"V - {float(base)!r} crosses {level!r} at {roots.tolist()!r}, not on two sides")
    return float(roots[0]), float(roots[-1])


def _support_window(V, N):
    """Window outside of which N(V - Vmin) exceeds WINDOW_LOG_CUTOFF: the
    outermost roots of the polynomial N(V - Vmin) - WINDOW_LOG_CUTOFF,
    and Vmin."""
    v_min = _potential_minimum(V)
    return _level_roots(V, v_min, WINDOW_LOG_CUTOFF / N), v_min


def _basis_rule(lo, hi, panels, t=-math.inf):
    """BASE_PANEL_NODES-point Gauss-Legendre rule on panels equal panels over
    [lo, hi], cut at t: the panels that end past t are kept, and the one
    that holds t starts at t.  Below lo it is the whole rule, bit for bit."""
    ends = np.linspace(lo, hi, panels + 1)[1:]
    return composite_gl(np.concatenate(([max(t, lo)], ends[ends > t])), BASE_PANEL_NODES)


def _stieltjes(V, N, rows, lo, hi, v_min, n_nodes):
    """alpha and beta of rows polynomials by discretized Stieltjes
    orthonormalization on the basis rule of ceil(n_nodes /
    BASE_PANEL_NODES) panels over [lo, hi], and the kernel diagonal
    sum_{j<N} phi_j^2 at lo and hi.

    The recurrence runs on u_j = sqrt(w) phi_j for the quadrature
    weights w, so every discrete inner product is a dot product.  lo
    and hi ride along as two more points of weight 1, the last two,
    which the dot products leave out."""
    x, w = _basis_rule(lo, hi, math.ceil(n_nodes / BASE_PANEL_NODES))
    x, w = np.append(x, (lo, hi)), np.append(w, (1.0, 1.0))
    u = np.sqrt(w) * np.exp(-0.5 * N * _excess(V, v_min, x))
    beta0 = float(u[:-2] @ u[:-2])
    if not beta0 > 0.0:
        raise NumericalError("weight exp(-N (V - Vmin)) underflows on the whole window")

    alpha = np.zeros(rows)
    beta = np.zeros(rows)
    beta[0] = beta0
    edges = np.empty((rows, 2))
    u /= math.sqrt(beta0)
    u_prev = np.zeros_like(x)
    xu = np.empty_like(x)
    for j in range(rows):
        edges[j] = u[-2:]
        np.multiply(x, u, out=xu)
        alpha[j] = float(xu[:-2] @ u[:-2])
        if j == rows - 1:
            break
        # psi = (x - alpha_j) u_j - sqrt(beta_j) u_{j-1}, built in u_prev
        u_prev *= -math.sqrt(beta[j])
        u_prev += xu
        u_prev -= alpha[j] * u
        b_next = float(u_prev[:-2] @ u_prev[:-2])
        if not b_next > 0.0:
            raise NumericalError(
                f"orthonormalization lost positivity at beta[{j + 1}] = {b_next!r}")
        beta[j + 1] = b_next
        u_prev /= math.sqrt(b_next)
        u, u_prev = u_prev, u
    return alpha, beta, np.sum(np.square(edges[:N]), axis=0)


def _freud_residual(V, N, alpha, beta):
    """Residual of the Freud equations in the first N rows, and its tolerance.

    Integrating (p_n p_m exp(-N V))' over the line gives V'(J)_{nn} = 0 and
    sqrt(beta_n) V'(J)_{n,n-1} = n/N for the Jacobi matrix J.  The residual
    is the largest of |V'(J)_{nn}| and |sqrt(beta_n) V'(J)_{n,n-1} - n/N| /
    ||J||, n < N.  V'(J) has bandwidth w = deg V - 1, so N + floor(w/2) rows
    make these entries exact; Horner's rule on its diagonals costs
    O(rows deg^2).  ||J|| is the largest Gershgorin row sum, and at least
    beta_0/sqrt(12), below which the weight's standard deviation
    sqrt(beta_1) cannot lie (its density is at most 1/beta_0).  Entries of
    J rounded to a few eps ||J|| move V'(J) = sum_k k v_k J^{k-1} by eps S,
    S = sum_k k |v_k| ||J||^{k-1}, times a constant: at most 10.1 on rules
    resolved to roundoff (five fields, N = 1 to 800).  The tolerance
    FREUD_TOL eps S is 3 times that; the tilted well (0, -0.3, -4, 0, 1) at
    N = 200 on 2400 nodes, coefficients off by 1e-13, shows 90 eps S.
    """
    dv = npoly.polyder(np.asarray(V.coeffs, dtype=float))
    rows, w = alpha.size, dv.size - 1
    # row k of a (s, P) holds J_{jj} (J_{j-1,j}, P_{ij}) at j = i + k - w - 1, zero off J
    a, s = np.lib.stride_tricks.sliding_window_view(np.pad(
        [alpha, np.sqrt(np.append(0.0, beta[1:]))], ((0, 0), (w + 1, w + 1))), rows, axis=1)
    P = np.zeros((2 * w + 3, rows))
    for coef in dv[::-1]:
        P[1:-1] = P[:-2] * s[1:-1] + P[1:-1] * a[1:-1] + P[2:] * s[2:]
        P[w + 1] += coef
    norm = max(float(np.max(np.abs(alpha) + s[w + 1] + s[w + 2])), beta[0] / math.sqrt(12.0))
    off = s[w + 1, :N] * P[w, :N] - np.arange(N) / N
    residual = max(float(np.max(np.abs(P[w + 1, :N]))), float(np.max(np.abs(off))) / norm)
    return residual, FREUD_TOL * float(np.finfo(float).eps * npoly.polyval(norm, np.abs(dv)))


def build_basis(V, N):
    """Recurrence coefficients of the first N orthonormal polynomials
    for the weight exp(-N V), by discretized Stieltjes orthonormalization
    on the window N(V - Vmin) <= WINDOW_LOG_CUTOFF.

    The first rule has max(BASIS_MIN_NODES, BASIS_NODES_PER_N N) nodes
    and N + floor((deg V - 1)/2) rows, and the window-edge check runs on
    it, from the kernel diagonal at the edges that its own recurrence
    carries (_stieltjes).  Rules grow by BASIS_REFINE until
    _freud_residual certifies one, whose first N rows are kept, with the
    residual and the rule's panel count.

    Raises
    ------
    ValueError
        If N is not positive, or V' has no real root.
    NumericalError
        If V does not reach the window cutoff on both sides of its
        minimum (an odd degree), orthonormalization loses positivity,
        the weight underflows everywhere on the window, the window cuts
        off kernel mass (the kernel diagonal at a window edge times the
        window width exceeds WINDOW_EDGE_TOL N, from about N = 600 for
        x^2/2 and N = 900 for x^4), or no rule is certified in
        BASIS_MAX_RULES rules.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    (lo, hi), v_min = _support_window(V, N)
    n_nodes = max(BASIS_MIN_NODES, BASIS_NODES_PER_N * N)
    for rule in range(BASIS_MAX_RULES):
        alpha, beta, edge = _stieltjes(V, N, N + (V.degree - 1) // 2, lo, hi, v_min, n_nodes)
        alpha.flags.writeable = beta.flags.writeable = False
        residual, tol = _freud_residual(V, N, alpha, beta)
        basis = OrthoBasis(N=N, alpha=alpha[:N], beta=beta[:N], freud_residual=residual,
                           support_window=(float(lo), float(hi)), v_min=float(v_min),
                           panels=math.ceil(n_nodes / BASE_PANEL_NODES))
        if rule == 0 and not np.all(edge * (hi - lo) <= WINDOW_EDGE_TOL * N):
            raise NumericalError(
                f"window [{lo!r}, {hi!r}] cuts off kernel mass at N = {N}: edge kernel "
                f"share {float(np.max(edge)) * (hi - lo) / N!r} exceeds {WINDOW_EDGE_TOL!r}")
        if residual <= tol:
            return basis
        n_nodes = math.ceil(BASIS_REFINE * n_nodes)
    raise NumericalError(f"basis quadrature not certified: Freud residual {residual!r} "
                         f"exceeds {tol!r} on the last of {BASIS_MAX_RULES} rules")


def _phi_matrix(basis, V, x):
    """phi_0..phi_{N-1} at the points x as one (N, len(x)) array, by the
    three-term recurrence."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    alpha, sqrt_beta = basis.alpha, np.sqrt(basis.beta)
    out = np.empty((basis.N, x.size))
    np.divide(np.exp(-0.5 * basis.N * _excess(V, basis.v_min, x)), sqrt_beta[0], out=out[0])
    term = np.empty_like(x)
    for j in range(1, basis.N):
        row = out[j]
        np.subtract(x, alpha[j - 1], out=row)
        row *= out[j - 1]
        if j > 1:
            np.multiply(out[j - 2], sqrt_beta[j - 1], out=term)
            row -= term
        row /= sqrt_beta[j]
    return out


def _renormalisation_period(basis, x):
    """Steps between two renormalisations in _cd_values at the points x,
    few enough that the running sum of squares, which a renormalisation
    leaves in [1/2, 2), stays a finite double.  The pair is not monotone
    in the bulk, but the sum is: by Cauchy-Schwarz on the recurrence one
    step multiplies it by at most G = 1 + (top^2 + max beta_j) / min
    beta_j, 0 < j < N, top = max|x| + max|alpha|, so R log2 G <= 1021
    suffices, with a binade to spare for rounding, and the pair stays
    below the sum's square root.  1 where G is not a finite double."""
    beta = basis.beta[1:]
    low, high = float(np.min(beta, initial=1.0)), float(np.max(beta, initial=0.0))
    top = float(np.max(np.abs(x), initial=0.0)) + float(np.max(np.abs(basis.alpha)))
    growth = 1.0 + (top * top + high) / low
    if not math.isfinite(growth):
        return 1
    return max(1, int(1021.0 / math.log2(growth)))


def _cd_values(basis, V, x, w):
    """Christoffel-Darboux data of the kernel at points x, with quadrature
    weights w of the same shape: the (3,) + x.shape array of u = sqrt(w)
    phi_{N-1}, v = sqrt(w) psi and d = w sum_{j<N} phi_j^2, in terms of
    which

        sqrt(w_i) K(x_i, y_j) sqrt(w_j) = (v_i u_j - u_i v_j) / (x_i - y_j),
        w K(x, x) = d.

    The three-term recurrence phi_{j+1} = ((x - alpha_j) phi_j -
    sqrt(beta_j) phi_{j-1}) / sqrt(beta_{j+1}) runs on the pair (phi_{j-1},
    phi_j) from (0, phi_0) and adds phi_j^2 to a running sum; psi takes one
    step more, without the division.  It holds at every x and divides by
    no value of the recurrence.  The pair and the sum share one integer
    exponent, and phi_0 starts as a mantissa in [1/2, 1): every
    _renormalisation_period steps and at the end, np.frexp of the sum gives
    2^(2k), and np.ldexp scales the sum by 2^(-2k) and the pair by 2^(-k).
    That changes no rounding of a normal double, so every value is the one
    a renormalisation at every step gives, bit for bit, and where phi_0 is
    a normal double the one _phi_matrix gives, unless a value there is
    subnormal (a term far below the sum).  Past the window, where e^c, c =
    -N (V - Vmin) / 2, is not a normal double, phi_0 is e^(c - k log 2)
    2^k, so those nodes still work; where the weight underflows entirely
    (x beyond about 1e150 for x^2/2) every value is 0.  The results are
    element-wise in x: a block of point sets gives the results of each
    set alone.
    """
    alpha, sqrt_beta = basis.alpha, np.sqrt(basis.beta)
    period = _renormalisation_period(basis, x)
    with np.errstate(over="ignore"):
        c = -0.5 * basis.N * _excess(V, basis.v_min, x)
    k = np.where(np.exp(c) >= TRACE_FLOOR, 0.0, np.maximum(np.rint(c / math.log(2.0)), -2.0 ** 20))
    cur, exponent = np.frexp(np.exp(c - k * math.log(2.0)) / sqrt_beta[0])
    exponent += k.astype(np.intc)
    prev, total, tmp = np.zeros_like(x), np.square(cur), np.empty_like(x)
    for j in range(basis.N):
        if j % period == 0 or j == basis.N - 1:
            e = np.frexp(total)[1] >> 1
            exponent += e
            prev, cur, total = np.ldexp(prev, -e), np.ldexp(cur, -e), np.ldexp(total, -2 * e)
        if j == basis.N - 1:
            break
        np.subtract(x, alpha[j], out=tmp)
        tmp *= cur
        prev *= sqrt_beta[j]
        np.subtract(tmp, prev, out=prev)
        prev /= sqrt_beta[j + 1]
        prev, cur = cur, prev
        np.multiply(cur, cur, out=tmp)
        total += tmp
    psi, sw = (x - alpha[-1]) * cur - prev * sqrt_beta[-1], np.sqrt(w)
    return np.stack((sw * np.ldexp(cur, exponent), sw * np.ldexp(psi, exponent),
                     w * np.ldexp(total, 2 * exponent)))


def _cd_kernel(x, cd, y=None, cy=None):
    """sqrt(w_i) K(x_i, y_j) sqrt(w_j) between the nodes x and y, along
    the last axis (leading axes stack independent node sets), from their
    _cd_values cd and cy: (v_i u_j - u_i v_j) / (x_i - y_j), and d_i where
    y_j is x_i.  y defaults to x, which gives an exactly symmetric matrix;
    the nodes of a grid are distinct."""
    if y is None:
        y, cy = x, cd
    u, v, d = cd
    M = v[..., :, None] * cy[0][..., None, :]
    M -= u[..., :, None] * cy[1][..., None, :]
    with np.errstate(invalid="ignore"):  # 0/0 where y_j is x_i, overwritten
        M /= x[..., :, None] - y[..., None, :]
    np.copyto(M, d[..., :, None], where=x[..., :, None] == y[..., None, :])
    return M


def _bulk_estimate(basis):
    """Interval bounding the oscillatory region: the union of the
    Gershgorin disks alpha_j +- (sqrt(beta_j) + sqrt(beta_{j+1})) of the
    N x N Jacobi matrix, sqrt(beta_0) and sqrt(beta_N) taken as 0."""
    alpha = basis.alpha
    s = np.pad(np.sqrt(basis.beta[1:]), 1)
    reach = s[:-1] + s[1:]
    return float(np.min(alpha - reach)), float(np.max(alpha + reach))


def _threshold(t):
    """t as a float; raises ValueError unless it is a number below +inf."""
    t = float(t)
    if math.isnan(t) or t == math.inf:
        raise ValueError(f"threshold must be a number below +inf, got {t!r}")
    return t


def _trace_error(t, trace):
    """The NumericalError of a threshold past which the kernel mass is not
    a finite normal double."""
    return NumericalError(f"threshold {t!r}: the kernel mass past it, {trace!r}, is not "
                          f"a finite normal double")


def _edge_widths(basis, V, t, bulk):
    """First-panel widths of the edge grids at the thresholds t (an
    array), given the bulk estimate: the edge scale, the Jacobi span times
    N^{-2/3}, capped by EDGE_CAP_EFOLDS decay lengths 1/(N V'(t)) of the
    weight where V'(t) > 0.  Where V'(t) overflows (t beyond about 1e150)
    the width is 0."""
    lo, hi = basis.support_window
    blo, bhi = bulk
    N = basis.N
    width = max(bhi - blo, 1e-2 * (hi - lo)) * N ** (-2.0 / 3.0)
    with np.errstate(over="ignore", divide="ignore"):
        slope = V.eval(t, 1)
        cap = EDGE_CAP_EFOLDS / (N * slope)
    return np.where(slope > 0.0, np.minimum(width, cap), width)


def _edge_panels(t, width, panels):
    """Nodes and weights of the given panels of the edge grids at the
    thresholds t (an array) with first-panel widths width, as (len(t),
    len(panels) BASE_PANEL_NODES) arrays, panel after panel: panel p is
    the BASE_PANEL_NODES-point Gauss-Legendre rule on the interval of
    width width EDGE_GROWTH^p where panel p - 1 ends (panel 0 at t)."""
    xg, wg = gl_rule(BASE_PANEL_NODES)
    growth = np.array([EDGE_GROWTH ** p for p in panels])
    start = t[:, None] + width[:, None] * (growth - 1.0) / (EDGE_GROWTH - 1.0)
    h = (0.5 * width[:, None] * growth)[:, :, None]
    return ((start[:, :, None] + h * (1.0 + xg)).reshape(t.size, -1),
            (h * wg).reshape(t.size, -1))


def _panel_sums(cd):
    """Sums of the kernel diagonal d over each panel of the rows of the
    _cd_values cd of edge panels, as a (rows, panels) array."""
    return np.sum(cd[2].reshape(cd.shape[1], -1, BASE_PANEL_NODES), axis=2)


def _settle(basis, V, t, width):
    """The edge grids at the thresholds t (an array, all past _edge_start)
    with first-panel widths width, settled.

    A grid starts with EDGE_PANELS panels and gets one more panel until
    its last panel carries at most EDGE_SHARE_TOL of its trace, the sum of
    its panel sums taken in panel order.  One _cd_values call runs over
    the first panels of all the grids, a (len(t), m) array, and one per
    added panel over the grids that have not settled, on that panel's
    nodes only.  Returns the groups (rows, x, w, cd, trace) of the
    settled grids with equal panel counts, rows indexing t, and a dict
    {row: NumericalError} for the grids that have not settled at
    MAX_EDGE_PANELS panels or whose trace is not a finite normal double.
    """
    rows = np.arange(t.size)
    x, w = _edge_panels(t, width, range(EDGE_PANELS))
    cd = _cd_values(basis, V, x, w)
    sums = _panel_sums(cd)
    last, trace = sums[:, -1], np.cumsum(sums, axis=1)[:, -1]
    groups, errors = [], {}
    for p in range(EDGE_PANELS, MAX_EDGE_PANELS + 1):
        done = last <= EDGE_SHARE_TOL * trace
        ok = done & np.isfinite(trace) & (trace >= TRACE_FLOOR)
        for i in np.flatnonzero(done & ~ok):
            errors[int(rows[i])] = _trace_error(float(t[rows[i]]), float(trace[i]))
        if ok.any():
            groups.append((rows[ok], x[ok], w[ok], cd[:, ok], trace[ok]))
        rows, x, w, cd, trace = rows[~done], x[~done], w[~done], cd[:, ~done], trace[~done]
        if not rows.size or p == MAX_EDGE_PANELS:
            break
        xp, wp = _edge_panels(t[rows], width[rows], [p])
        cdp = _cd_values(basis, V, xp, wp)
        last = _panel_sums(cdp)[:, 0]
        trace = trace + last
        x, w, cd = np.hstack((x, xp)), np.hstack((w, wp)), np.concatenate((cd, cdp), axis=2)
    for row in rows:
        errors[int(row)] = NumericalError("tail quadrature did not terminate")
    return groups, errors


def _edge_start(basis):
    """Where the edge grids take over from the cut basis rule: the
    Gershgorin edge (_bulk_estimate), or the window edge hi where that
    comes first, as the cut rule ends at hi."""
    return min(_bulk_estimate(basis)[1], basis.support_window[1])


def _tail_grid(basis, V, t):
    """Nodes, weights, _cd_values and trace of the tail grid at one
    threshold t: past _edge_start the settled edge grid (_settle on a
    block of one), below it the basis rule build_basis certified, cut at
    t (_basis_rule).

    From a threshold in the bulk the cut rule resolves every phi_j phi_k
    on its panels, so also on the part of a panel past t.  It ends at the
    window edge hi, where build_basis certified the kernel negligible, and
    it is final.  Raises NumericalError if the trace is not a finite normal
    double, or if the edge grid does not settle.
    """
    lo, hi = basis.support_window
    if t >= _edge_start(basis):
        ta = np.array([t])
        groups, errors = _settle(basis, V, ta, _edge_widths(basis, V, ta, _bulk_estimate(basis)))
        if errors:
            raise errors[0]
        ((_, x, w, cd, trace),) = groups
        return x[0], w[0], cd[:, 0], float(trace[0])
    x, w = _basis_rule(lo, hi, basis.panels, t)
    cd = _cd_values(basis, V, x, w)
    trace = float(np.sum(cd[2]))
    if not (math.isfinite(trace) and trace >= TRACE_FLOOR):
        raise _trace_error(t, trace)
    return x, w, cd, trace


def _gram_matrix(Phi, w):
    """The N x N tail Gram matrix (Phi w) Phi^T, symmetrized."""
    G = (Phi * w) @ Phi.T
    return 0.5 * (G + G.T)


def tail_trace(basis, V, t):
    """Integral of the kernel diagonal over (t, infinity), on the tail
    grid: the same float as gap_probability's trace, and it raises where
    that trace check raises.  The tail kernel matrix is never formed."""
    return _tail_grid(basis, V, _threshold(t))[3]


def gram(basis, V, t):
    """Tail Gram matrix G_{jk} = int_t^inf phi_j phi_k dx, symmetric by
    construction, from the dense phi_j on the nodes of gap_probability's
    tail grid (_tail_grid).  Raises NumericalError for a threshold past
    the window, where phi_0 is not a normal double, or past which the
    kernel mass is not a finite normal double."""
    t, (lo, hi) = _threshold(t), basis.support_window
    if t > hi:
        raise NumericalError(f"threshold {t!r} lies past the oracle window [{lo!r}, {hi!r}], "
                             f"where phi_0 is no longer a normal double")
    x, w = _tail_grid(basis, V, t)[:2]
    return _gram_matrix(_phi_matrix(basis, V, x), w)


def _survival(basis, ts, eigenvalues, traces):
    """GapResult, or the NumericalError it fails with, at every threshold
    of ts, from the ascending eigenvalues lambda, at most N, of L^T L for
    its pivoted Cholesky factor L and the trace T of its tail kernel
    matrix, in the trace-anchored form log det(I - M) = -T + sum
    (log1p(-lambda) + lambda) (see gap_probability).
    The log determinants are summed as one array; -T + (a sum of terms
    <= 0) is below 0, so every log survival is finite."""
    N = basis.N
    lam = np.zeros((len(eigenvalues), N))
    for row, block in zip(lam, eigenvalues):
        row[N - block.size:] = block
    np.clip(lam, 0.0, 1.0, out=lam)
    with np.errstate(divide="ignore"):
        g = np.log1p(-lam) + lam
    log_dets = (np.sum(g, axis=1) - np.array(traces)).tolist()
    lam.flags.writeable = False
    out = []
    for t, block, row, log_det, trace in zip(ts, eigenvalues, lam, log_dets, traces):
        low, high = float(block[0]), float(block[-1])
        try:
            if not (low >= -1e-10 and high <= 1.0 + 1e-10):
                raise NumericalError(
                    f"tail kernel eigenvalues outside [0, 1]: range "
                    f"[{low!r}, {high!r}] at t = {t!r}")
            det_value = math.exp(log_det) if log_det > -745.0 else 0.0
            sur = -math.expm1(log_det)
            if sur >= UNDERFLOW_LIMIT:
                survival, log_survival = sur, math.log(sur)
            else:
                # -expm1(u) = -u to better than |u|/2 relative here
                survival, log_survival = None, math.log(-log_det)
            if survival is not None and trace < 1.0:
                slack = 1e-12
                if not (trace - 0.5 * trace * trace - slack <= survival <= trace + slack):
                    raise NumericalError(
                        f"survival {survival!r} violates first-order bracketing "
                        f"against trace {trace!r} at t = {t!r}")
            out.append(GapResult(t=t, log_survival=log_survival, survival=survival,
                                 det_value=det_value, eigenvalues=row, trace=trace))
        except NumericalError as exc:
            out.append(exc)
    return out


def _pivoted_factors(x, cd, trace, rank):
    """Pivoted Cholesky factors of the tail kernel matrices M of a block
    of tail grids with equal node counts, from their nodes x, _cd_values
    cd and traces (as _settle groups them), for a kernel of rank rank.

    One array pass over the rows still active: step k takes the node p
    of largest residual diagonal r, forms column p of M only
    (_cd_kernel), and sets l = (M e_p - L L^T e_p) / sqrt(r_p), then r -=
    l^2 and r_p = 0.  A row stops once its Schur-complement trace sum(r)
    is at most DEFLATION_TOL of its trace, or at min(rank, m) columns.
    Yields (rows, L, residual) once per step at which rows stop: their
    indices into the block, their factors as a (len(rows), k, m) array,
    column j of each in L[:, j], and their Schur-complement traces.
    Every step is element-wise in the nodes or per row.  L doubles its
    column count when full, up to min(rank, m), so its memory follows the
    largest r.  r is carried by subtraction, to rounding, so a row whose
    true Schur complement is below the rounding of M stops where sum(r)
    reads as rounding noise, possibly negative (see gap_probability).
    """
    r = cd[2].copy()
    rows, width = np.arange(trace.size), min(rank, x.shape[1])
    L = np.empty((trace.size, 1, x.shape[1]))
    for k in range(width + 1):
        residual = np.sum(r, axis=1)
        stop = (residual <= DEFLATION_TOL * trace) | (k == width)
        if stop.any():
            yield rows[stop], L[stop, :k], residual[stop]
            keep = ~stop
            rows, x, cd, r, trace = rows[keep], x[keep], cd[:, keep], r[keep], trace[keep]
            L = L[keep]
            if not rows.size:
                return
        if k == L.shape[1]:
            L = np.concatenate((L, np.empty_like(L[:, :width - k])), axis=1)
        i, p = np.arange(rows.size), np.argmax(r, axis=1)
        L[:, k] = (_cd_kernel(x, cd, x[i, p, None], cd[:, i, p, None])[..., 0]
                   - np.matmul(L[i, :k, p][:, None, :], L[:, :k])[:, 0])
        L[:, k] /= np.sqrt(r[i, p])[:, None]
        r -= np.square(L[:, k])
        r[i, p] = 0.0


def gap_probabilities(basis, V, ts):
    """gap_probability at every threshold of ts, as a list in the order
    of ts.  An entry is the GapResult, or the ValueError or
    NumericalError that threshold raised, so one failing threshold does
    not stop the others.

    Every threshold takes one path: the Christoffel-Darboux recurrence on
    its tail grid, O(N m) on m nodes, then the pivoted Cholesky factor of
    its kernel matrix, O(r m) kernel entries and O(r^2 m) updates for its
    r <= N columns (2 to 9 on the benchmark grids, 6 to 18 just below the
    edge, N on the whole line), and the eigenvalues of L^T L, O(r^3), in
    one stacked eigvalsh call per r.  A threshold in the bulk takes its cut
    basis rule alone.  Those past _edge_start go in blocks of EDGE_BLOCK:
    one recurrence over the first panels of the block's edge grids as one
    (T, m) array, O(N T m) time and O(T m) memory whatever N, one more per
    added panel on the grids that have not settled, and one factor pass
    per group of equal panel count.  Every step is element-wise in the
    nodes, or per matrix, or per row, so each result is the one
    gap_probability gives, bit for bit.
    """
    ts = np.array([float(t) for t in ts])
    out, edge, start = [None] * ts.size, [], _edge_start(basis)

    def factor(rows, x, cd, trace):
        for sel, L, _ in _pivoted_factors(x, cd, trace, basis.N):
            lam = np.linalg.eigvalsh(L @ L.swapaxes(1, 2))
            for i, item in zip(rows[sel], _survival(basis, ts[rows[sel]].tolist(), lam,
                                                    trace[sel].tolist())):
                out[i] = item

    for i, t in enumerate(ts.tolist()):
        try:
            if _threshold(t) >= start:
                edge.append(i)
                continue
            x, _, cd, trace = _tail_grid(basis, V, t)
        except (ValueError, NumericalError) as exc:
            out[i] = exc
            continue
        factor(np.array([i]), x[None], cd[:, None], np.array([trace]))
    bulk = _bulk_estimate(basis)
    for first in range(0, len(edge), EDGE_BLOCK):
        block = np.array(edge[first:first + EDGE_BLOCK])
        groups, errors = _settle(basis, V, ts[block], _edge_widths(basis, V, ts[block], bulk))
        for row, exc in errors.items():
            out[block[row]] = exc
        for rows, x, _, cd, trace in groups:
            factor(block[rows], x, cd, trace)
    return out


def gap_probability(basis, V, t):
    """Exact survival probability P(rightmost particle > t).

    The gap probability is det(I - K) for the projection kernel K on
    (t, infinity), on the tail grid's nodes x_i and weights w_i: the m x m
    matrix M = sqrt(w_i) K(x_i, x_j) sqrt(w_j) in Christoffel-Darboux
    form, which is never formed.  The eigenvalues keep log-space accuracy
    far below the linear floating-point range.  The cost is O(N m) for
    the recurrence and O(r^2 m) for the factor (see gap_probabilities).

    With T the trace of M, only a part of M that leaves out at most eps
    = DEFLATION_TOL * T of its trace enters the eigenproblem, which
    moves the survival by at most eps: 0 <= survival(M) - survival <=
    eps.  As survival(M) >= (1 - e^-1) min(T, 1), that is a relative
    error of at most 2 DEFLATION_TOL max(T, 1).  A pivoted Cholesky
    factor L, m x r
    (_pivoted_factors), leaves the Schur complement E = M - L L^T, PSD,
    with eps = tr E at most DEFLATION_TOL * T, or r = N, the rank of K,
    where E = 0.  With lambda the eigenvalues of L^T L, which sum to T -
    eps, and g(mu) = log1p(-mu) + mu, the trace-anchored form

        log det(I - M) = -T + sum g(mu)  ~  -T + sum g(lambda)
                                         = log det(I - L L^T) - eps

    takes T from the grid and only the second-order terms g from the
    factor.  The bound: L L^T <= M, so lambda_i <= mu_i (Weyl) with
    sum (mu_i - lambda_i) = eps, and g is decreasing on [0, 1) with |g'|
    = mu / (1 - mu), so the computed log determinant is at least the
    true one and exceeds it by at most eps mu_max / (1 - mu_max).  In
    full: for A = L L^T, det(I - M) = det(I - A) det(I - F) with F = (I -
    A)^{-1/2} E (I - A)^{-1/2} PSD, eps <= tr F <= eps / (1 -
    lambda_max), and e^-eps >= e^-tr F >= det(I - F) >= 1 - tr F, so
    det(I - A) e^-eps - det(I - M) lies in [0, (1 - lambda_max) tr F]
    and 0 <= survival(M) - survival <= eps.  Rounding in lambda, delta,
    moves g by lambda delta / (1 - lambda) where the plain sum of
    log1p(-lambda) moves by delta, which matters where T is small and
    survival ~ T.  The residual diagonal is carried by subtraction, so
    tr E is known to rounding: on the benchmark grids the factor stops
    where the computed trace reaches the rounding level and L L^T matches
    M to 5.5e-13 T, the rounding of the Christoffel-Darboux divided
    differences; the survival is within 2.2e-16 max(1, |log survival|)
    of that of the dense matrix on the nodes within the window.

    Raises NumericalError if the trace is not a finite normal double (no
    representable kernel mass past t), if the tail grid does not
    terminate, if L^T L has eigenvalues outside [0, 1]
    beyond 1e-10, or if the result violates the first-order bracketing
    trace - trace^2/2 <= survival <= trace (trace < 1).
    """
    result = gap_probabilities(basis, V, [t])[0]
    if not isinstance(result, GapResult):
        raise result
    return result


def _series_kernel(basis, V, t):
    """sqrt(w_i) K(x_i, x_j) sqrt(w_j) for 24-point Gauss-Legendre rules
    on the two halves of the box [t, hi], where hi is the largest root of
    N(V - V(t)) = SERIES_LOG_CUTOFF: the weight is 80 e-foldings down
    from its value at t."""
    hi = _level_roots(V, V.eval(t, 0), SERIES_LOG_CUTOFF / basis.N)[1]
    xm, wm = composite_gl(np.linspace(t, hi, 3), 24)
    Phi = _phi_matrix(basis, V, xm)
    sw = np.sqrt(wm)
    return sw[:, None] * (Phi.T @ Phi) * sw[None, :]


def brute_force_survival(basis, V, t, k_max=None):
    """Survival probability by the inclusion-exclusion series on the rule
    of _series_kernel, summed to term k_max (default N).

    Term k is (-1)^{k+1}/k! times the k-fold integral of the k x k kernel
    determinant: on the rule's matrix M, the sum e_k of its k x k
    principal minors (Plemelj-Smithies; Bornemann, Math. Comp. 79, 2010).
    Newton's identities give e_k = (1/k) sum_{i<=k} (-1)^{i-1} e_{k-i}
    tr(M^i) from k_max - 1 products of 48 x 48 matrices; no eigenvalue or
    determinant routine enters.  N is capped at SERIES_SIZE_LIMIT, up to
    which |det - series| <= 1e-10 is checked for every N (measured at
    most 3.4e-12 from t = b - 2 to b + 2 on four fields; 9.1e-11 up to
    N = 24).
    """
    N = basis.N
    if N > SERIES_SIZE_LIMIT:
        raise ValueError(f"brute-force series restricted to N <= {SERIES_SIZE_LIMIT}")
    if k_max is None:
        k_max = N
    if not 1 <= k_max <= N:
        raise ValueError(f"k_max must be in [1, {N}], got {k_max!r}")
    M = _series_kernel(basis, V, t)
    p, e = [], [1.0]  # p[i] = tr(M^{i+1}), e[k] = e_k
    for k in range(1, k_max + 1):
        P = M if k == 1 else P @ M
        p.append(float(np.trace(P)))
        e.append(sum((-1.0) ** i * e[k - 1 - i] * p[i] for i in range(k)) / k)
    return sum((-1.0) ** (k + 1) * e[k] for k in range(1, k_max + 1))


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
