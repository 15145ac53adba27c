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
x^4.  All polynomial values are carried in weighted form
phi_j = p_j exp(-N (V - Vmin) / 2), which stays of moderate size where
the raw p_j would overflow.

Per threshold t, the tail grid's nodes are placed beside those of
neighbouring thresholds, and one streamed recurrence per chunk of
thresholds runs over them in blocks of rows, on sqrt(w) phi_j for the
quadrature weights w.  It records each threshold's row masses d_j, the
diagonal of the tail Gram matrix G, panel by panel, and frees the
leading blocks whose rows every threshold of the chunk will drop.  The
leading rows whose masses sum to at most DEFLATION_TOL / 2 of the
trace are dropped, then the nodes of least mass on the rows left, up
to the same share, before the eigenvalues are taken: that moves the
survival probability by at most the dropped mass (see
gap_probability), and past the edge it leaves a block far smaller than
N.  Past the Gershgorin edge of the Jacobi matrix |phi_{j+1}| >=
|phi_j| (x - alpha_j >= 2 max sqrt(beta)), so the row masses grow with
j there and a pass keeps about the kept rows plus one block alive.
"""

import itertools
import math
from collections import deque, namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import UNDERFLOW_LIMIT, NumericalError

WINDOW_LOG_CUTOFF = 1400.0         # N(V - Vmin) at the window edges, where phi_0 is about e^-700
WINDOW_EDGE_TOL = 1e-30            # kernel share the window may cut off
BASIS_NODES_PER_N = 8              # first basis rule; refined by BASIS_REFINE until two agree
BASIS_MIN_NODES = 256
BASIS_REFINE = 1.5
BASIS_TOL = 1e-13
BASIS_MAX_RULES = 12
PANEL_WEIGHT_CUTOFF = 250.0 * math.log(10.0)
PANEL_RELATIVE_CUTOFF = 1e-3
BASE_PANEL_NODES = 32
MAX_PANELS = 20000
EDGE_PANELS = 3                    # panels of an edge grid before its a-posteriori check
EDGE_GROWTH = 2.0                  # width ratio of consecutive edge panels
EDGE_CAP_EFOLDS = 64.0             # weight e-folds the first edge panel may span
EDGE_SHARE_TOL = 1e-17             # tail-mass share the last edge panel may carry
MAX_EDGE_PANELS = 12
ROW_BLOCK = 8                      # rows of one block of the streamed recurrence
PHI_CHUNK_ENTRIES = 3 << 13        # psi values (192 kB) in one row block of a streamed pass
DEFLATION_TOL = 1e-30              # tail-mass share of the rows and nodes gap_probability drops
TRACE_FLOOR = float(np.finfo(float).tiny)  # below it the phi_j^2 sums lose precision
SERIES_SIZE_LIMIT = 5              # series term k costs C(24, k) determinants
SERIES_LOG_CUTOFF = 80.0


@dataclass(frozen=True, eq=False)
class OrthoBasis:
    """Recurrence data of the polynomials orthonormal for exp(-N V).

    beta[0] holds the weight normalizer, the integral of
    exp(-N (V - v_min)); beta[1:] the squared off-diagonal recurrence
    coefficients.  v_min is the minimum of V.  Shifting V by a constant
    changes neither v_min - V nor any of these.
    """

    N: int
    alpha: np.ndarray
    beta: np.ndarray
    support_window: tuple
    v_min: float


@dataclass(frozen=True, eq=False)
class GapResult:
    """Exact survival probability of the rightmost particle past t.

    log_survival is always finite; survival is None when the value sits
    below 1e-300.  det_value is the gap probability det(I - G) for the
    tail Gram matrix G.  eigenvalues has length N in ascending order:
    those gap_probability computes, preceded by 0.0 for every other row.
    They are the eigenvalues of the kept block of G, the k kept rows on
    the m kept nodes, taken from its m x m dual (the node-deflated
    A^T A) when m < k.  trace is the trace of the whole of G.
    """

    t: float
    log_survival: float
    survival: object
    det_value: float
    eigenvalues: np.ndarray
    trace: float


# Tail grid for (t, infinity): the nodes x and weights w of its first
# panels, their ends (cumulative node counts), the rule panel(p) for
# panels past those, stop(p, contrib, total), true once the grid may end
# after panel p, and the panel count at which it gives up.
_TailGrid = namedtuple("_TailGrid", "x w ends panel stop max_panels")


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


def _stieltjes(V, N, lo, hi, v_min, n_nodes):
    """alpha and beta by discretized Stieltjes orthonormalization on
    panels of BASE_PANEL_NODES Gauss-Legendre nodes over [lo, hi].

    The recurrence runs on u_j = sqrt(w) phi_j for the quadrature
    weights w, so every discrete inner product is a dot product."""
    n_panels = max(1, math.ceil(n_nodes / BASE_PANEL_NODES))
    x, w = composite_gl(np.linspace(lo, hi, n_panels + 1), BASE_PANEL_NODES)
    u = np.sqrt(w) * np.exp(-0.5 * N * _excess(V, v_min, x))
    beta0 = float(u @ u)
    if not beta0 > 0.0:
        raise NumericalError("weight exp(-N (V - Vmin)) underflows on the whole window")

    alpha = np.zeros(N)
    beta = np.zeros(N)
    beta[0] = beta0
    u /= math.sqrt(beta0)
    u_prev = np.zeros_like(x)
    xu = np.empty_like(x)
    for j in range(N):
        np.multiply(x, u, out=xu)
        alpha[j] = float(xu @ u)
        if j == N - 1:
            break
        # psi = (x - alpha_j) u_j - sqrt(beta_j) u_{j-1}, built in u_prev
        u_prev *= -math.sqrt(beta[j])
        u_prev += xu
        u_prev -= alpha[j] * u
        b_next = float(u_prev @ u_prev)
        if not b_next > 0.0:
            raise NumericalError(
                f"orthonormalization lost positivity at beta[{j + 1}] = {b_next!r}")
        beta[j + 1] = b_next
        u_prev /= math.sqrt(b_next)
        u, u_prev = u_prev, u
    return alpha, beta


def _rules_agree(coarse, fine):
    """True when two Stieltjes results agree to BASIS_TOL: beta[0]
    relative, alpha and beta[1:] against the scale of beta."""
    (a1, b1), (a2, b2) = coarse, fine
    scale = float(np.max(b2[1:], initial=0.0))
    return (abs(b1[0] - b2[0]) <= BASIS_TOL * b2[0]
            and float(np.max(np.abs(a1 - a2))) <= BASIS_TOL * max(math.sqrt(scale), 1.0)
            and float(np.max(np.abs(b1[1:] - b2[1:]), initial=0.0)) <= BASIS_TOL * scale)


def build_basis(V, N):
    """Recurrence coefficients of the first N orthonormal polynomials
    for the weight exp(-N V), by discretized Stieltjes orthonormalization
    on the window N(V - Vmin) <= WINDOW_LOG_CUTOFF.

    The node count starts at max(BASIS_MIN_NODES, BASIS_NODES_PER_N N)
    and grows by BASIS_REFINE until two consecutive rules agree to
    BASIS_TOL; the finer rule's coefficients are kept.

    Raises
    ------
    ValueError
        If N is not positive, or V' has no real root.
    NumericalError
        If V does not reach the window cutoff on both sides of its
        minimum (an odd degree), orthonormalization loses positivity,
        the weight underflows everywhere on the window, the node count
        does not converge in BASIS_MAX_RULES rules, or the window cuts off kernel mass: the
        kernel diagonal at a window edge times the window width exceeds
        WINDOW_EDGE_TOL N.  The last happens from about N = 600 for
        x^2/2 and N = 900 for x^4.
    """
    N = int(N)
    if N < 1:
        raise ValueError("N must be a positive integer")
    (lo, hi), v_min = _support_window(V, N)
    n_nodes = max(BASIS_MIN_NODES, BASIS_NODES_PER_N * N)
    coeffs = _stieltjes(V, N, lo, hi, v_min, n_nodes)
    for _ in range(BASIS_MAX_RULES - 1):
        n_nodes = math.ceil(BASIS_REFINE * n_nodes)
        coarse, coeffs = coeffs, _stieltjes(V, N, lo, hi, v_min, n_nodes)
        if _rules_agree(coarse, coeffs):
            break
    else:
        raise NumericalError(f"basis quadrature did not converge at {n_nodes} nodes")
    alpha, beta = coeffs
    alpha.flags.writeable = False
    beta.flags.writeable = False
    basis = OrthoBasis(N=N, alpha=alpha, beta=beta,
                       support_window=(float(lo), float(hi)), v_min=float(v_min))
    edge = kernel_diag(basis, V, np.array([lo, hi])) * (hi - lo)
    if not (edge <= WINDOW_EDGE_TOL * N).all():
        raise NumericalError(
            f"window [{lo!r}, {hi!r}] cuts off kernel mass at N = {N}: edge "
            f"kernel share {float(np.max(edge)) / N!r} exceeds {WINDOW_EDGE_TOL!r}")
    return basis


def _phi_blocks(basis, V, x, rows, block, scale=None):
    """Weighted polynomial values phi_0..phi_{rows-1} at the points x,
    times scale when it is given, by the three-term recurrence: a
    generator of successive (block, len(x)) arrays of rows, the last
    one shorter when block does not divide rows.

    Each value depends on its own point only, through element-wise IEEE
    operations, so evaluating at a concatenation of point sets gives
    the concatenation of the results bit for bit."""
    alpha, sqrt_beta = basis.alpha, np.sqrt(basis.beta)
    term = np.empty_like(x)
    prev = cur = None
    for first in range(0, rows, block):
        out = np.empty((min(block, rows - first), x.size))
        for j, row in enumerate(out, first):
            if j == 0:
                np.divide(np.exp(-0.5 * basis.N * _excess(V, basis.v_min, x)), sqrt_beta[0],
                          out=row)
                if scale is not None:
                    row *= scale
            else:
                np.subtract(x, alpha[j - 1], out=row)
                row *= cur
                if j > 1:
                    np.multiply(prev, sqrt_beta[j - 1], out=term)
                    row -= term
                row /= sqrt_beta[j]
            prev, cur = cur, row
        yield out


def _phi_matrix(basis, V, x, j_max=None):
    """phi_0..phi_{j_max} at the points x as one (j_max+1, len(x))
    array."""
    if j_max is None:
        j_max = basis.N - 1
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return next(_phi_blocks(basis, V, x, j_max + 1, j_max + 1))


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
    """The tail grid for (t, infinity) as a _TailGrid.

    Past the Gershgorin bulk edge the phi_j do not oscillate, and the
    grid is EDGE_PANELS Gauss-Legendre panels of BASE_PANEL_NODES
    nodes whose widths grow by EDGE_GROWTH.  The first width is the
    edge scale, the Jacobi span times N^{-2/3}, capped by
    EDGE_CAP_EFOLDS decay lengths 1/(N V'(t)) of the weight.  The grid
    is checked a posteriori: its last panel must carry at most
    EDGE_SHARE_TOL of the tail mass, and further panels are added until
    it does.

    From a threshold in the bulk, fixed-width panels run rightward.
    Panels touching the bulk carry extra nodes so the fastest
    oscillation of phi_{N-1} (about N half-waves across the bulk) stays
    resolved; a panel ends the grid once its row masses sum to a
    relatively negligible part of the total and its start lies right
    of the minimum of V with the weight below the underflow gauge.  The
    first panels run up to the first such start past the first panel.
    """
    t = float(t)
    if math.isnan(t) or t == math.inf:
        raise ValueError(f"threshold must be a number below +inf, got {t!r}")
    lo, hi = basis.support_window
    if t > hi:
        raise NumericalError(
            f"threshold {t!r} lies past the oracle window [{lo!r}, {hi!r}], where "
            f"phi_0 is no longer a normal double")
    N = basis.N
    blo, bhi = _bulk_estimate(basis)
    span = max(bhi - blo, 1e-2 * (hi - lo))
    if t >= bhi:
        xg, wg = gl_rule(BASE_PANEL_NODES)
        slope = float(V.eval(t, 1))
        width = span * N ** (-2.0 / 3.0)
        if slope > 0.0:
            width = min(width, EDGE_CAP_EFOLDS / (N * slope))

        def panel(p):
            p0 = t + width * (EDGE_GROWTH ** p - 1.0) / (EDGE_GROWTH - 1.0)
            h = 0.5 * width * EDGE_GROWTH ** p
            return p0 + h * (1.0 + xg), h * wg

        def stop(p, contrib, total):
            return p >= EDGE_PANELS - 1 and contrib <= EDGE_SHARE_TOL * total

        first, max_panels = EDGE_PANELS, MAX_EDGE_PANELS
    else:
        start = max(t, lo)
        width = 0.25 * span
        extra = math.ceil(4.0 * N * width / span)

        def panel(p):
            p0 = start + p * width
            p1 = p0 + width
            in_bulk = (p0 < bhi + 0.5 * width) and (p1 > blo - 0.5 * width)
            xb, wb = gl_rule(BASE_PANEL_NODES + (extra if in_bulk else 0))
            return 0.5 * (p0 + p1) + 0.5 * width * xb, 0.5 * width * wb

        def stop(p, contrib, total):
            p0 = start + p * width
            settled = (N * _excess(V, basis.v_min, p0) > PANEL_WEIGHT_CUTOFF
                       and V.eval(p0, 1) > 0.0)
            return settled and (total == 0.0 or contrib < PANEL_RELATIVE_CUTOFF * total)

        # the first panels run to the first start past panel 0 with a
        # small weight and V increasing; for an admissible V the first
        # start at or past hi qualifies
        n_pre = max(1, math.ceil((hi - start) / width))
        starts = start + width * np.arange(1, n_pre)
        small = N * _excess(V, basis.v_min, starts) > PANEL_WEIGHT_CUTOFF
        settled = np.flatnonzero(small & (V.eval(starts, 1) > 0.0))
        first = 2 + int(settled[0]) if settled.size else n_pre + 1
        max_panels = MAX_PANELS
    xs, ws = zip(*(panel(p) for p in range(first)))
    return _TailGrid(x=np.concatenate(xs), w=np.concatenate(ws),
                     ends=tuple(np.cumsum([xm.size for xm in xs]).tolist()),
                     panel=panel, stop=stop, max_panels=max_panels)


def _pass(basis, V, grids):
    """One streamed recurrence over the nodes of grids, laid side by
    side; grids holds (x, w, ends) per tail grid, with ends its
    cumulative panel node counts.

    The recurrence runs on psi_j = sqrt(w) phi_j, in blocks of ROW_BLOCK
    rows.  After each block it records the row masses of every panel,
    the sums of psi_j^2 over the panel's nodes, and frees the oldest
    kept block once, for every grid, the rows up to its end carry at
    most half of DEFLATION_TOL of the grid's first-panel mass so far: a
    lower bound on the trace of any leading run of the grid's panels,
    so the row cut of gap_probability drops those rows wherever the
    grid ends.  Returns the row masses, N x (all panels), and the list
    of blocks with the freed ones set to None."""
    x = np.concatenate([g[0] for g in grids])
    sw = np.sqrt(np.concatenate([g[1] for g in grids]))
    starts, owners, col = [], [], 0
    for gx, _, ends in grids:
        owners.append(len(starts))
        starts.extend(col + e for e in (0,) + ends[:-1])
        col += gx.size
    masses = np.empty((basis.N, len(starts)))
    square = np.empty((ROW_BLOCK, x.size))
    blocks, prefix, low = [], [], 0
    rows_mass = np.zeros(len(grids))
    bound = np.zeros(len(grids))
    share = 0.5 * DEFLATION_TOL * (1.0 - 1e-9)   # margin for the order of summation
    for blk in _phi_blocks(basis, V, x, basis.N, ROW_BLOCK, sw):
        rows = masses[len(blocks) * ROW_BLOCK:][:len(blk)]
        np.add.reduceat(np.square(blk, out=square[:len(blk)]), starts, axis=1, out=rows)
        panels = rows.sum(axis=0)
        rows_mass = rows_mass + np.add.reduceat(panels, owners)
        bound += panels[owners]
        blocks.append(blk)
        prefix.append(rows_mass)
        while low < len(blocks) - 1 and (prefix[low] <= share * bound).all():
            blocks[low] = None
            low += 1
    return masses, blocks


def _tails(basis, V, ts):
    """Settled tail grids of the thresholds ts, by streamed passes over
    chunks of consecutive grids with at most PHI_CHUNK_ENTRIES //
    ROW_BLOCK nodes (or a single grid).

    A generator of (i, item) for the i-th threshold, in no fixed order:
    item is the ValueError or NumericalError that threshold raised, or
    (x, w, d, Psi): the nodes and weights of its grid up to the first
    panel at which the stopping rule fires, the row masses
    d_j = sum_i w_i phi_j(x_i)^2 there, and the last rows of
    sqrt(w) phi_j at those nodes, at least the rows gap_probability
    keeps.  A grid whose rule has not fired at its last panel gets one
    panel more and goes through a later pass."""
    pending = deque(enumerate(ts))   # (i, t), or (i, grid, x, w, ends) once built
    budget = PHI_CHUNK_ENTRIES // ROW_BLOCK
    while pending:
        chunk, size = [], 0
        while pending:
            if len(pending[0]) == 2:
                i, t = pending[0]
                try:
                    grid = _tail_grid(basis, V, t)
                except (ValueError, NumericalError) as exc:
                    pending.popleft()
                    yield i, exc
                    continue
                pending[0] = (i, grid, grid.x, grid.w, grid.ends)
            if chunk and size + pending[0][2].size > budget:
                break
            chunk.append(pending.popleft())
            size += chunk[-1][2].size
        if not chunk:
            break
        masses, blocks = _pass(basis, V, [item[2:] for item in chunk])
        col = panel = 0
        for i, grid, x, w, ends in chunk:
            R = masses[:, panel:panel + len(ends)]
            total = 0.0
            for p, contrib in enumerate(R.sum(axis=0).tolist()):
                total += contrib
                if grid.stop(p, contrib, total):
                    end = ends[p]
                    Psi = np.concatenate([b[:, col:col + end] for b in blocks if b is not None])
                    yield i, (x[:end], w[:end], R[:, :p + 1].sum(axis=1), Psi)
                    break
            else:
                if len(ends) == grid.max_panels:
                    yield i, NumericalError("tail quadrature did not terminate")
                else:
                    xm, wm = grid.panel(len(ends))
                    pending.append((i, grid, np.concatenate((x, xm)), np.concatenate((w, wm)),
                                    ends + (ends[-1] + xm.size,)))
            col += x.size
            panel += len(ends)
        del masses, blocks, R   # before the next pass allocates its own


def _tail(basis, V, t):
    """Nodes, weights, phi values and row masses of the settled tail grid
    of one threshold."""
    ((_, item),) = _tails(basis, V, [t])
    if isinstance(item, Exception):
        raise item
    x, w, d, _ = item
    return x, w, _phi_matrix(basis, V, x), d


def tail_trace(basis, V, t):
    """Integral of the kernel diagonal over (t, infinity): the trace of
    the tail Gram matrix as the sum of the tail grid's row masses, in
    O(N m) for m tail nodes; the same float as gap_probability's trace."""
    return float(np.sum(_tail(basis, V, t)[3]))


def gram(basis, V, t):
    """Tail Gram matrix G_{jk} = int_t^inf phi_j phi_k dx, symmetric by
    construction."""
    _, w, Phi, _ = _tail(basis, V, t)
    G = (Phi * w) @ Phi.T
    return 0.5 * (G + G.T)


def _gap(basis, t, w, Phi, d):
    """GapResult from a settled tail grid (see gap_probability): its
    weights w, the row masses d, and phi_j at its nodes in the last
    len(Phi) rows, at least the rows the cut keeps (w = 1.0 when Phi
    carries the factor sqrt(w) already)."""
    trace = float(np.sum(d))
    if not (math.isfinite(trace) and trace >= TRACE_FLOOR):
        raise NumericalError(
            f"tail Gram trace {trace!r} at t = {t!r}: the kernel mass past the "
            f"threshold is not a finite normal double")
    cut = 0.5 * DEFLATION_TOL * trace
    j0 = int(np.searchsorted(np.cumsum(d), cut, side="right"))
    assert j0 >= basis.N - len(Phi), "the row cut keeps rows that were not passed"
    A = Phi[j0 - basis.N + len(Phi):] * np.sqrt(w)
    mass = np.einsum("ij,ij->j", A, A)
    order = np.argsort(mass, kind="stable")
    n0 = int(np.searchsorted(np.cumsum(mass[order]), cut, side="right"))
    if n0:
        A = A[:, np.sort(order[n0:])]
    k, m = A.shape
    kept = np.linalg.eigvalsh(A @ A.T if k <= m else A.T @ A)
    if kept[0] < -1e-10 or kept[-1] > 1.0 + 1e-10:
        raise NumericalError(
            f"tail Gram eigenvalues outside [0, 1]: range "
            f"[{float(kept[0])!r}, {float(kept[-1])!r}] at t = {t!r}")
    lam = np.zeros(basis.N)
    lam[basis.N - kept.size:] = np.clip(kept, 0.0, 1.0)
    with np.errstate(divide="ignore"):
        log_det = float(np.sum(np.log1p(-lam)))
    det_value = math.exp(log_det) if log_det > -745.0 else 0.0
    if log_det == -np.inf:
        survival, log_survival = 1.0, 0.0
    elif log_det < 0.0:
        sur = -math.expm1(log_det)
        if sur >= UNDERFLOW_LIMIT:
            survival, log_survival = sur, math.log(sur)
        else:
            # -expm1(u) = -u to better than |u|/2 relative here
            survival, log_survival = None, math.log(-log_det)
    else:
        raise NumericalError(
            f"tail Gram eigenvalues all round to 0 at t = {t!r} (trace {trace!r})")
    if survival is not None and trace < 1.0:
        slack = 1e-12
        if not (trace - 0.5 * trace * trace - slack <= survival <= trace + slack):
            raise NumericalError(
                f"survival {survival!r} violates first-order bracketing "
                f"against trace {trace!r} at t = {t!r}")
    lam.flags.writeable = False
    return GapResult(t=t, log_survival=log_survival, survival=survival,
                     det_value=det_value, eigenvalues=lam, trace=trace)


def gap_probabilities(basis, V, ts):
    """gap_probability at every threshold of ts, as a list in the order
    of ts.  An entry is the GapResult, or the ValueError or
    NumericalError that threshold raised, so one failing threshold does
    not stop the others.

    The first panels of consecutive thresholds' tail grids are placed
    side by side, up to PHI_CHUNK_ENTRIES // ROW_BLOCK nodes L per chunk
    (or a single grid), and one streamed recurrence per chunk runs over
    all of them in blocks of ROW_BLOCK rows.  A chunk holds the row
    masses of every panel (N x panels) and the blocks from the first
    row some threshold keeps: O(k L + N panels) memory for the largest
    kept row count k, which does not grow with len(ts).  A grid whose
    stopping rule has not fired at its last panel gets one panel more
    and goes through a later pass.  Each threshold takes its own
    columns; phi is element-wise in x and every product is formed from
    fresh arrays, so its result is the one gap_probability gives, bit
    for bit.  Per threshold the cost is O(N m) in the recurrence for m
    tail nodes, O(k m min(k, m)) for the Gram block and
    O(min(k, m)^3) for its eigenvalues.
    """
    out = [None] * len(ts)
    for i, item in _tails(basis, V, ts):
        if not isinstance(item, Exception):
            try:
                item = _gap(basis, float(ts[i]), 1.0, item[3], item[2])
            except NumericalError as exc:
                item = exc
        out[i] = item
    return out


def gap_probability(basis, V, t):
    """Exact survival probability P(rightmost particle > t).

    The gap probability is det(I - G) for the tail Gram matrix G; going
    through the eigenvalues keeps log-space accuracy for survival values
    far below the linear floating-point range.

    Only the rows and nodes that carry tail mass enter the eigenproblem.
    With d_j the diagonal of G and T = sum_j d_j its trace, the longest
    prefix of rows 0..j0-1 whose mass eps_rows = d_0 + ... + d_{j0-1} is
    at most DEFLATION_TOL * T / 2 is dropped, leaving G22 = A A^T,
    A = Phi[j0:] sqrt(w), k = N - j0 rows.  Then the nodes go, in
    ascending order of their mass on those rows (the diagonal of the
    dual A^T A), while the dropped mass eps_nodes stays at most
    DEFLATION_TOL * T / 2, leaving A' with m columns.  The eigenvalues
    are those of A' A'^T, or of the m x m A'^T A' when m < k (the same
    nonzero eigenvalues).  For a PSD M with M <= I and a principal
    block M22, det(I - M) = det(I - M22) det(I - S), where I - S is the
    Schur complement of I - M22 in I - M, tr S <= eps / (1 -
    lambda_max(M22)) for the dropped diagonal mass eps, and
    det(I - M22) <= 1 - lambda_max(M22), so 0 <= survival(M) -
    survival(M22) <= eps.  Applied to G and G22, then to A^T A and
    A'^T A', 0 <= survival(G) - survival(kept) <= eps_rows + eps_nodes
    <= DEFLATION_TOL * T.  As survival(G) >= (1 - e^-1) min(T, 1), that
    is a relative error of at most 2 DEFLATION_TOL max(T, 1).
    Eigenvalues not computed are reported as 0.0.

    Raises NumericalError if t lies past the window (phi_0 is not a
    normal double there), if the trace is not a finite normal double
    (no representable kernel mass past t), if the kept block has
    eigenvalues outside [0, 1] beyond a 1e-10 tolerance band, or if the
    result violates the first-order bracketing
    trace - trace^2/2 <= survival <= trace (trace < 1).
    """
    result = gap_probabilities(basis, V, [t])[0]
    if not isinstance(result, GapResult):
        raise result
    return result


def _series_kernel(basis, V, t):
    """sqrt(w_i) K(x_i, x_j) sqrt(w_j) for one 24-point Gauss-Legendre
    rule over the box [t, hi], where hi is the largest root of
    N(V - V(t)) = SERIES_LOG_CUTOFF: the weight is 80 e-foldings down
    from its value at t."""
    hi = _level_roots(V, V.eval(t, 0), SERIES_LOG_CUTOFF / basis.N)[1]
    xg, wg = gl_rule(24)
    xm = 0.5 * (t + hi) + 0.5 * (hi - t) * xg
    wm = 0.5 * (hi - t) * wg
    Phi = _phi_matrix(basis, V, xm)
    sw = np.sqrt(wm)
    return sw[:, None] * (Phi.T @ Phi) * sw[None, :]


@lru_cache(maxsize=None)
def _subsets(n, k):
    """Read-only C(n, k) x k array of the k-subsets of range(n), in
    itertools.combinations order."""
    idx = np.fromiter(itertools.combinations(range(n), k), (np.intp, k), math.comb(n, k))
    idx.flags.writeable = False
    return idx


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
        idx = _subsets(len(M), k)
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
