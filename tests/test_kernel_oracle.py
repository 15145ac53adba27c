"""Finite-N reference: recurrence data, kernel mass, gap determinants,
series cross-checks, determinant bound."""

import itertools
import math
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from loggas import (Potential, brute_force_survival, build_basis, gap_probability,
                    gram, hadamard_check, solve_mrs, tail_trace)
from loggas import kernel_oracle
from loggas.kernel_oracle import (BASE_PANEL_NODES, DEFLATION_TOL, SERIES_SIZE_LIMIT,
                                  TRACE_FLOOR, WINDOW_LOG_CUTOFF, GapResult, _cd_kernel,
                                  _cd_values, _gram_matrix, _level_roots, _phi_matrix,
                                  _pivoted_factors, _series_kernel, _support_window, _survival,
                                  _tail_grid, composite_gl, gap_probabilities, gl_rule)
from loggas.errors import NumericalError

NEG_INF = float("-inf")
ASYMMETRIC = (0.0, 0.5, 0.5, 0.2, 0.25)
TILTED = Potential((0.0, -0.3, -4.0, 0.0, 1.0))
FIELDS = pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                            ASYMMETRIC], ids=["gue", "quartic", "asymmetric"])


def kernel_diag(basis, V, x):
    """Diagonal of the rank-N projection kernel, sum_j phi_j(x)^2, from
    the dense recurrence."""
    return np.sum(_phi_matrix(basis, V, x) ** 2, axis=0)


def edge_point(eq, N, s):
    """t = b + s / (gamma N^{2/3})."""
    return eq.b + s / (eq.gamma * N ** (2.0 / 3.0))


def thresholds(eq, N):
    """Whole line, left edge, support midpoint, just inside the right
    edge, and four edge-scaled points b + s/(gamma N^{2/3}) past it."""
    return ([NEG_INF, eq.a, 0.5 * (eq.a + eq.b), eq.b - 0.1]
            + [edge_point(eq, N, s) for s in (0.5, 2.0, 8.0, 32.0)])


def reference_panels(basis, V, t):
    """The tail grid's panels from their definitions (_edge_widths and
    _edge_panels, _basis_rule), as a generator of (nodes, weights), and
    its stopping rule stop(p, contrib, total): a posteriori past the
    edge; in the bulk, at the last panel of the basis rule cut at t."""
    N = basis.N
    lo, hi = basis.support_window
    blo, bhi = kernel_oracle._bulk_estimate(basis)
    xg, wg = gl_rule(BASE_PANEL_NODES)
    if t >= kernel_oracle._edge_start(basis):
        width = max(bhi - blo, 1e-2 * (hi - lo)) * N ** (-2.0 / 3.0)
        if V.eval(t, 1) > 0.0:
            width = min(width, kernel_oracle.EDGE_CAP_EFOLDS / (N * float(V.eval(t, 1))))
        growth = kernel_oracle.EDGE_GROWTH

        def panel(p):
            p0 = t + width * (growth ** p - 1.0) / (growth - 1.0)
            h = 0.5 * width * growth ** p
            return p0 + h * (1.0 + xg), h * wg

        panels = (panel(p) for p in range(kernel_oracle.MAX_EDGE_PANELS))

        def stop(p, contrib, total):
            return (p >= kernel_oracle.EDGE_PANELS - 1
                    and contrib <= kernel_oracle.EDGE_SHARE_TOL * total)
    else:
        # the basis rule's panels [a, b] with b > t, the one holding t from t
        edges = np.linspace(lo, hi, basis.panels + 1)
        cut = [(max(t, a), b) for a, b in zip(edges[:-1], edges[1:]) if b > t]
        panels = ((0.5 * (a + b) + 0.5 * (b - a) * xg, 0.5 * (b - a) * wg) for a, b in cut)

        def stop(p, contrib, total):
            return p == len(cut) - 1
    return panels, stop


def reference_march(basis, V, t):
    """Reference tail grid: panels marched one at a time, each with its
    own phi call, under the stopping rules _settle and _tail_grid
    document."""
    panels, stop = reference_panels(basis, V, t)
    total = 0.0
    xs, ws, phis = [], [], []
    for p, (xm, wm) in enumerate(panels):
        Phi = _phi_matrix(basis, V, xm)
        contrib = float(np.sum(wm * np.sum(Phi * Phi, axis=0)))
        xs.append(xm)
        ws.append(wm)
        phis.append(Phi)
        total += contrib
        if stop(p, contrib, total):
            return np.concatenate(xs), np.concatenate(ws), np.concatenate(phis, axis=1)
    raise AssertionError("reference march did not terminate")


# The first panels of a tail grid: whether t is past the Gershgorin edge,
# the nodes x and weights w, and the rule panel(p) for the panels an edge
# grid adds (None for a bulk grid).
TailGrid = namedtuple("TailGrid", "t edge x w panel")


def tail_grid(basis, V, t):
    """The tail grid of one threshold: the certified rule cut at t in the
    bulk, the first edge panels past the edge."""
    bulk = kernel_oracle._bulk_estimate(basis)
    if t < kernel_oracle._edge_start(basis):
        lo, hi = basis.support_window
        x, w = kernel_oracle._basis_rule(lo, hi, basis.panels, t)
        return TailGrid(t, False, x, w, None)
    ta = np.array([float(t)])
    width = kernel_oracle._edge_widths(basis, V, ta, bulk)

    def panel(p):
        xm, wm = kernel_oracle._edge_panels(ta, width, [p])
        return xm[0], wm[0]

    x, w = kernel_oracle._edge_panels(ta, width, range(kernel_oracle.EDGE_PANELS))
    return TailGrid(t, True, x[0], w[0], panel)


def dense(basis, V, t):
    """Nodes, weights, dense phi_j and trace of the tail grid at t."""
    x, w, _, trace = _tail_grid(basis, V, t)
    return x, w, _phi_matrix(basis, V, x), trace


def settled(basis, V, t):
    """Nodes, weights, whole tail kernel matrix and trace of the settled
    tail grid gap_probability takes: past the edge the Christoffel-Darboux
    matrix, in the bulk the dense N x N Gram matrix as a reference."""
    if t >= kernel_oracle._edge_start(basis):
        x, w, cd, trace = _tail_grid(basis, V, t)
        return x, w, _cd_kernel(x, cd), trace
    x, w, Phi, trace = dense(basis, V, t)
    return x, w, _gram_matrix(Phi, w), trace


def refined_log_survival(basis, V, t):
    """log survival on the tail grid with every panel split in two and
    twice the nodes per half: from the dense Gram matrix within the
    window, from the Christoffel-Darboux kernel past it."""
    x = settled(basis, V, t)[0]
    grid = tail_grid(basis, V, t)
    n_panels = x.size // BASE_PANEL_NODES
    assert n_panels * BASE_PANEL_NODES == x.size
    xg, wg = gl_rule(2 * BASE_PANEL_NODES)
    xs, ws = [], []
    for p in range(n_panels):
        xm, wm = grid.panel(p)
        half = 0.5 * float(np.sum(wm))
        p0 = float(np.mean(xm)) - half
        for q0 in (p0, p0 + half):
            xs.append(q0 + 0.5 * half * (1.0 + xg))
            ws.append(0.5 * half * wg)
    xr, wr = np.concatenate(xs), np.concatenate(ws)
    if t > basis.support_window[1]:
        M = _cd_kernel(xr, _cd_values(basis, V, xr, wr))
    else:
        Phi = _phi_matrix(basis, V, xr)
        M = (Phi * wr) @ Phi.T
    trace = float(np.trace(M))
    if not trace >= TRACE_FLOOR:
        raise NumericalError(f"refined trace {trace!r}")
    # the kernel has rank N: its largest N eigenvalues enter
    (result,) = _survival(basis, [float(t)], [np.linalg.eigvalsh(M)[-basis.N:]], [trace])
    if isinstance(result, NumericalError):
        raise result
    return result.log_survival


def counting_passes(monkeypatch):
    """Record the node count of every Christoffel-Darboux pass."""
    passes = []
    cd_values = kernel_oracle._cd_values

    def counting(basis, V, x, w):
        passes.append(x.size)
        return cd_values(basis, V, x, w)

    monkeypatch.setattr(kernel_oracle, "_cd_values", counting)
    return passes


def counting_rules(monkeypatch):
    """Record the (rows, nodes) of every Stieltjes rule."""
    calls = []
    stieltjes = kernel_oracle._stieltjes

    def counting(V, N, rows, lo, hi, v_min, n_nodes):
        calls.append((rows, n_nodes))
        return stieltjes(V, N, rows, lo, hi, v_min, n_nodes)

    monkeypatch.setattr(kernel_oracle, "_stieltjes", counting)
    return calls


def full_survival(G):
    """Survival and log-survival from every eigenvalue of G, by the rule
    gap_probability applies to its kept block."""
    lam = np.clip(np.linalg.eigvalsh(G), 0.0, 1.0)
    with np.errstate(divide="ignore"):
        log_det = float(np.sum(np.log1p(-lam)))
    sur = -math.expm1(log_det)
    if sur >= 1e-300:
        return sur, math.log(sur)
    return 0.0, (math.log(-log_det) if log_det < 0.0 else NEG_INF)


class TestBasis:
    def test_input_validation(self, gue, monkeypatch):
        with pytest.raises(ValueError):
            build_basis(gue, 0)
        # V' without a real root has no minimum to centre the window on
        with pytest.raises(ValueError):
            build_basis(Potential((0.0, 1.0)), 5)
        # a node rule that is never certified
        monkeypatch.setattr(kernel_oracle, "FREUD_TOL", 0.0)
        with pytest.raises(NumericalError, match="not certified"):
            build_basis(gue, 10)

    def test_node_rule_by_certificate(self, gue, quartic, monkeypatch):
        # rules of 8 N (at least 256) nodes over N + floor((deg V - 1)/2)
        # rows, each 1.5 times the last, until the Freud residual is
        # within its tolerance; the first N rows of that rule are kept
        # and agree with a finer rule to 1e-13
        calls = counting_rules(monkeypatch)
        for V, N in ((gue, 4), (gue, 50), (gue, 400), (quartic, 200), (TILTED, 200)):
            calls.clear()
            b = build_basis(V, N)
            rows = N + (V.degree - 1) // 2
            assert {r for r, _ in calls} == {rows}
            counts = [n for _, n in calls]
            assert counts[0] == max(256, 8 * N)
            assert counts[1:] == [math.ceil(1.5 * n) for n in counts[:-1]]
            lo, hi = b.support_window
            rules = [kernel_oracle._stieltjes(V, N, rows, lo, hi, b.v_min, n)[:2]
                     for n in counts + [math.ceil(1.5 * counts[-1])]]
            certified = [res <= tol for res, tol in
                         (kernel_oracle._freud_residual(V, N, *r) for r in rules[:-1])]
            assert certified == [False] * (len(counts) - 1) + [True], (N, counts)
            assert np.array_equal(b.alpha, rules[-2][0][:N])
            assert np.array_equal(b.beta, rules[-2][1][:N])
            assert b.freud_residual == kernel_oracle._freud_residual(V, N, *rules[-2])[0]
            fine_alpha, fine_beta = rules[-1][0][:N], rules[-1][1][:N]
            scale = float(np.max(fine_beta[1:], initial=0.0))
            assert abs(b.beta[0] - fine_beta[0]) <= 1e-13 * fine_beta[0]
            assert np.abs(b.alpha - fine_alpha).max() <= 1e-13 * max(math.sqrt(scale), 1.0)
            assert np.abs(b.beta[1:] - fine_beta[1:]).max(initial=0.0) <= 1e-13 * scale
        # measured: N = 400 needs one rule, N = 200 on the tilted well three
        assert len(counts) == 3

    def test_under_resolved_rule_is_refined(self, gue, monkeypatch):
        # a first rule of 64 nodes fails the certificate at N = 50 and is
        # refined to the basis of the default rule; with one rule allowed
        # it raises
        ref = build_basis(gue, 50)
        monkeypatch.setattr(kernel_oracle, "BASIS_MIN_NODES", 64)
        monkeypatch.setattr(kernel_oracle, "BASIS_NODES_PER_N", 1)
        calls = counting_rules(monkeypatch)
        b = build_basis(gue, 50)
        assert calls[0][1] == 64 and len(calls) > 1
        assert b.freud_residual <= kernel_oracle._freud_residual(gue, 50, b.alpha, b.beta)[1]
        assert np.abs(b.alpha - ref.alpha).max() <= 1e-13
        assert np.abs(b.beta - ref.beta).max() <= 1e-13 * ref.beta[0]
        monkeypatch.setattr(kernel_oracle, "BASIS_MAX_RULES", 1)
        with pytest.raises(NumericalError, match="last of 1 rules"):
            build_basis(gue, 50)

    @pytest.mark.parametrize("N", [1, 2, 12, 50, 400])
    def test_gue_freud_residual_closed_form(self, gue, N):
        # for V = x^2/2, V'(J) = J: the residual is the distance to the
        # closed form alpha_n = 0, beta_n = n/N, the second part over the
        # Jacobi matrix's infinity norm (one row at N = 1, where the
        # tolerance rests on the floor beta_0 / sqrt(12) of that norm)
        b = build_basis(gue, N)
        s = np.sqrt(b.beta[1:])
        J = np.diag(b.alpha) + np.diag(s, 1) + np.diag(s, -1)
        norm = np.abs(J).sum(axis=1).max()
        expected = max(np.abs(b.alpha).max(),
                       np.abs(b.beta[1:] - np.arange(1, N) / N).max(initial=0.0) / norm)
        assert b.freud_residual == pytest.approx(expected, rel=1e-12)
        assert b.freud_residual < 1e-14

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.0, 0.0, 1.0), ASYMMETRIC, TILTED.coeffs,
                                        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1)],
                             ids=["quartic", "asymmetric", "tilted", "sextic"])
    def test_freud_residual_is_dense_and_exact(self, coeffs):
        # on an under-resolved rule, the banded residual over
        # N + floor((deg V - 1)/2) rows is that of the dense V'(J) over
        # three rows more: the extra rows make the first N exact
        V, N = Potential(coeffs), 40
        (lo, hi), v_min = _support_window(V, N)
        rows = N + (V.degree - 1) // 2
        alpha, beta, _ = kernel_oracle._stieltjes(V, N, rows + 3, lo, hi, v_min, 2 * N)
        residual, tol = kernel_oracle._freud_residual(V, N, alpha[:rows], beta[:rows])
        s = np.sqrt(beta[1:])
        J = np.diag(alpha) + np.diag(s, 1) + np.diag(s, -1)
        dv = np.polynomial.polynomial.polyder(V.coeffs)
        P = sum(c * np.linalg.matrix_power(J, k) for k, c in enumerate(dv))
        norm = np.abs(J[:rows, :rows]).sum(axis=1).max()
        off = s[:N - 1] * np.diag(P, -1)[:N - 1] - np.arange(1, N) / N
        expected = max(np.abs(np.diag(P)[:N]).max(), np.abs(off).max() / norm)
        assert residual > 1e3 * tol
        assert residual == pytest.approx(expected, rel=1e-9)

    def test_tolerance_between_floor_and_quadrature_error(self):
        # the tilted well at N = 200 on 2400 nodes: residual 1.5e-12,
        # coefficients off by 1e-13, refused; at N = 400 the certified
        # rule sits at the roundoff floor, 1.1e-13
        for N, nodes, accepted in ((200, 2400, False), (400, 4800, True)):
            (lo, hi), v_min = _support_window(TILTED, N)
            rule = kernel_oracle._stieltjes(TILTED, N, N + 1, lo, hi, v_min, nodes)[:2]
            residual, tol = kernel_oracle._freud_residual(TILTED, N, *rule)
            assert (residual <= tol) == accepted, (N, residual, tol)
            assert 1e-13 <= residual <= 2e-12
        assert build_basis(TILTED, 400).freud_residual == pytest.approx(residual, rel=1e-15)

    def test_window_fails_fast(self, gue, quartic, monkeypatch):
        # past the valid range the window check runs on the first rule
        calls = counting_rules(monkeypatch)
        for V, N in ((gue, 800), (gue, 900), (quartic, 1000)):
            calls.clear()
            with pytest.raises(NumericalError, match="cuts off kernel mass"):
                build_basis(V, N)
            assert len(calls) == 1, (N, calls)

    @pytest.mark.parametrize("N", [50, 200, 400, 500])
    def test_gue_recurrence_closed_form(self, gue, N):
        b = build_basis(gue, N)
        assert float(np.abs(b.alpha).max()) < 1e-13
        assert float(np.abs(b.beta[1:] - np.arange(1, N) / N).max()) < 1e-13

    def test_window_cuts_off_kernel_mass(self, gue, quartic):
        # with phi_0 from exp(-N (V - Vmin) / 2), the window stops
        # holding the kernel from about N = 600 for x^2/2 and 900 for x^4
        build_basis(gue, 500)
        build_basis(quartic, 800)
        for V, N in ((gue, 600), (gue, 800), (quartic, 1000)):
            with pytest.raises(NumericalError, match="cuts off kernel mass"):
                build_basis(V, N)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        ASYMMETRIC, TILTED.coeffs],
                             ids=["gue", "quartic", "asymmetric", "tilted"])
    def test_window_edge_check_rides_the_rule(self, coeffs, monkeypatch):
        # the kernel diagonal at the window edges comes from the first
        # rule's own recurrence, within 1e-13 of kernel_diag on that
        # rule's coefficients; build_basis runs no other recurrence
        V = Potential(coeffs)
        for N in (1, 50, 400, 550):
            (lo, hi), v_min = _support_window(V, N)
            rows = N + (V.degree - 1) // 2
            alpha, beta, edge = kernel_oracle._stieltjes(V, N, rows, lo, hi, v_min,
                                                         max(256, 8 * N))
            rule = kernel_oracle.OrthoBasis(N=N, alpha=alpha[:N], beta=beta[:N],
                                            support_window=(lo, hi), v_min=v_min,
                                            freud_residual=0.0, panels=0)
            ref = kernel_diag(rule, V, np.array([lo, hi]))
            assert edge == pytest.approx(ref, rel=1e-13, abs=0.0), (N, edge, ref)
            with monkeypatch.context() as patch:
                patch.setattr(kernel_oracle, "_phi_matrix", None)
                build_basis(V, N)

    def test_constant_shift(self, gue):
        # exp(-N V) and exp(-N (V + 100)) give the same kernel
        shifted = Potential((100.0, 0.0, 0.5))
        eq = solve_mrs(gue)
        for N in (12, 50, 200):
            b, c = build_basis(gue, N), build_basis(shifted, N)
            assert c.v_min == 100.0
            assert float(np.abs(b.alpha - c.alpha).max()) <= 1e-14
            assert float(np.abs(b.beta[1:] - c.beta[1:]).max()) <= 1e-14
            assert c.beta[0] == pytest.approx(b.beta[0], rel=1e-14)
            for t in (NEG_INF, 0.3, edge_point(eq, N, 0.5), edge_point(eq, N, 16.0)):
                r, s = gap_probability(b, gue, t), gap_probability(c, shifted, t)
                assert s.log_survival == pytest.approx(r.log_survival, rel=1e-14, abs=1e-14)

    def test_weight_normalizer(self, gue, quartic):
        # beta[0] stores the total weight integral
        b = build_basis(gue, 12)
        assert b.beta[0] == pytest.approx(math.sqrt(2.0 * math.pi / 12.0),
                                          rel=1e-12)
        bq = build_basis(quartic, 8)
        assert bq.beta[0] == pytest.approx(math.gamma(0.25) / (2.0 * 8.0**0.25),
                                           rel=1e-12)

    def test_quadratic_recurrence_closed_form(self, gue):
        b = build_basis(gue, 16)
        assert float(np.abs(b.alpha).max()) < 1e-12
        j = np.arange(1, 16)
        assert float(np.abs(b.beta[1:] - j / 16.0).max()) < 1e-12

    def test_even_field_has_no_diagonal_terms(self, quartic):
        b = build_basis(quartic, 10)
        assert float(np.abs(b.alpha).max()) < 1e-12

    def test_support_window(self, gue):
        # N x^2 / 2 reaches the cutoff 1400 at x = sqrt(2800 / N)
        b = build_basis(gue, 20)
        lo, hi = b.support_window
        assert hi == pytest.approx(math.sqrt(2800.0 / 20.0), rel=1e-9)
        assert lo == pytest.approx(-hi, rel=1e-9)
        assert b.v_min == pytest.approx(0.0, abs=1e-12)

    def test_deterministic(self, gue):
        b1, b2 = build_basis(gue, 9), build_basis(gue, 9)
        assert np.array_equal(b1.alpha, b2.alpha)
        assert np.array_equal(b1.beta, b2.beta)

    def test_arrays_read_only(self, gue):
        b = build_basis(gue, 6)
        with pytest.raises(ValueError):
            b.alpha[0] = 1.0


class TestProjector:
    def test_orthonormal(self, gue, quartic):
        for V, N in ((gue, 12), (quartic, 8)):
            b = build_basis(V, N)
            G = gram(b, V, NEG_INF)
            assert float(np.abs(G - np.eye(N)).max()) < 1e-12

    def test_total_mass(self, gue):
        b = build_basis(gue, 14)
        assert tail_trace(b, gue, NEG_INF) == pytest.approx(14.0, rel=1e-12)

    def test_trace_decreasing_in_t(self, gue):
        b = build_basis(gue, 10)
        vals = [tail_trace(b, gue, t) for t in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(x > y > 0.0 for x, y in zip(vals, vals[1:]))

    def test_tail_trace_is_gram_trace(self, gue, quartic):
        for V, N in ((gue, 12), (quartic, 9)):
            b = build_basis(V, N)
            for t in (NEG_INF, -0.5, 1.1, 2.3):
                assert tail_trace(b, V, t) == gap_probability(b, V, t).trace
            # no kernel mass in the normal double range past t = 40: both
            # raise rather than return 0 and -inf
            for f in (tail_trace, gap_probability):
                with pytest.raises(NumericalError, match="normal double"):
                    f(b, V, 40.0)
            # phi_0 underflows past the window, so the dense Gram matrix
            # is refused there
            with pytest.raises(NumericalError, match="past the oracle window"):
                gram(b, V, 40.0)

    def test_tail_trace_forms_no_matrix(self, gue, quartic, monkeypatch):
        # tail_trace stops at the settled trace: in the bulk and past the
        # edge it returns gap_probability's trace with the matrix-forming
        # steps and the dense phi_j made to raise
        cases = [(V, build_basis(V, N), t) for V, N, edge in ((gue, 400, 2.1), (quartic, 50, 1.2))
                 for t in (NEG_INF, 0.5, edge)]
        traces = [gap_probability(b, V, t).trace for V, b, t in cases]

        def refuse(*args):
            raise AssertionError("tail matrix formed")

        monkeypatch.setattr(kernel_oracle, "_gram_matrix", refuse)
        monkeypatch.setattr(kernel_oracle, "_cd_kernel", refuse)
        monkeypatch.setattr(kernel_oracle, "_phi_matrix", refuse)
        assert [tail_trace(b, V, t) for V, b, t in cases] == traces
        for t in (0.5, 2.1):
            with pytest.raises(AssertionError, match="tail matrix formed"):
                gap_probability(cases[0][1], gue, t)

    def test_one_path_takes_no_dense_phi(self, monkeypatch):
        # every threshold, in the bulk and past the window (1.979) below
        # the Gershgorin edge (2.403), takes the Christoffel-Darboux
        # recurrence and the pivoted factor: with the dense phi_j and the
        # Gram matrix made to raise, the results are the same, bit for
        # bit, and no threshold hands eigvalsh more than N rows
        b = build_basis(TILTED, 400)
        ts = [0.0, 1.5, 1.8, 1.98, 1.985]
        expected = gap_probabilities(b, TILTED, ts)
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def refuse(*args):
            raise AssertionError("dense path taken")

        def counting(A):
            sizes.append(A.shape[-1])
            return eigvalsh(A)

        for name in ("_gram_matrix", "_phi_matrix"):
            monkeypatch.setattr(kernel_oracle, name, refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for r, e in zip(gap_probabilities(b, TILTED, ts), expected):
            assert isinstance(r, GapResult), r
            assert r.log_survival == e.log_survival and r.trace == e.trace
            assert np.array_equal(r.eigenvalues, e.eigenvalues)
        assert sizes and max(sizes) <= 400, sizes

    def test_gram_reuses_grid_phi(self, gue, quartic):
        # gram is on gap_probability's settled nodes, in the bulk and past
        # the edge; evaluating phi once on them gives the same matrix bit
        # for bit
        for V, N, t in ((gue, 30, NEG_INF), (gue, 30, 1.7), (gue, 30, 2.1),
                        (quartic, 17, 0.9)):
            b = build_basis(V, N)
            x, w, _, _ = settled(b, V, t)
            Phi = _phi_matrix(b, V, x)
            G = (Phi * w) @ Phi.T
            assert np.array_equal(gram(b, V, t), 0.5 * (G + G.T))


class TestDeflation:
    @FIELDS
    @pytest.mark.parametrize("N", [3, 12, 50, 200])
    def test_dropped_rows_cost_at_most_their_mass(self, coeffs, N):
        # 0 <= survival(M) - survival <= eps, the trace left out of the
        # eigenproblem: the Schur-complement trace of the pivoted Cholesky
        # factor, at most DEFLATION_TOL of the trace and known to rounding
        # (so taken as at least 0), or 0 where the factor has min(N, m)
        # columns; M is the Christoffel-Darboux matrix past the edge and
        # the dense Gram matrix in the bulk; past the edge the result is
        # that of the dense Gram matrix
        V = Potential(coeffs)
        eq = solve_mrs(V)
        b = build_basis(V, N)
        for t in thresholds(eq, N):
            try:
                _, _, M, T = settled(b, V, t)
            except NumericalError:
                # s = 32 at N = 3 and 12 on the quartic fields: no
                # normal-range mass past t
                assert N in (3, 12) and coeffs != (0.0, 0.0, 0.5)
                with pytest.raises(NumericalError):
                    gap_probability(b, V, t)
                continue
            eps = 0.0
            x, _, cd, _ = _tail_grid(b, V, t)
            ((_, L, residual),) = _pivoted_factors(x[None], cd[:, None], np.array([T]), N)
            if L.shape[1] < min(N, x.size):
                assert residual[0] <= DEFLATION_TOL * T, t
                eps = max(float(residual[0]), 0.0)
            r = gap_probability(b, V, t)
            sur = 0.0 if r.survival is None else r.survival
            sur_full, _ = full_survival(M)
            assert -1e-15 <= sur_full - sur <= eps + 1e-15, (t, sur_full, sur, eps)
            if t > eq.b:
                _, log_full = full_survival(gram(b, V, t))
                assert r.log_survival == pytest.approx(log_full, rel=1e-13), t

    def test_eigenproblem_sized_by_tail_rows(self, gue, quartic, monkeypatch):
        # every threshold past the edge on the benchmark's s grid hands
        # eigvalsh one r x r matrix L^T L of its pivoted Cholesky factor,
        # r <= min(N, m) and r <= 12 (measured 2-9), and gives the
        # survival of the full dense Gram matrix; the factor stops at a
        # Schur-complement trace of at most DEFLATION_TOL of the trace and
        # reproduces the whole kernel matrix to 1e-12 of the trace; the
        # batch of all 32 stacks the matrices of equal r, one call per r.
        # A threshold in the bulk hands eigvalsh the r x r matrix L^T L of
        # its own factor, one call each, r = N on the whole line, and gives
        # the survival and the eigenvalues of the dense N x N Gram matrix
        sizes, stacks = [], []
        eigvalsh = np.linalg.eigvalsh

        def counting(A):
            sizes.append(A.shape[-2:])
            stacks.append(A.shape[:-2])
            return eigvalsh(A)

        for V, N, bulk_ts in ((gue, 200, (NEG_INF, 0.0, 1.7432)),
                              (quartic, 400, (NEG_INF, 0.0, 1.0045))):
            eq = solve_mrs(V)
            b = build_basis(V, N)
            bulk_ranks = []
            for t in bulk_ts:
                monkeypatch.setattr(np.linalg, "eigvalsh", counting)
                sizes.clear()
                r = gap_probability(b, V, t)
                monkeypatch.undo()
                ((rank, rank2),) = sizes
                assert rank == rank2 and rank <= N and (rank == N) == (t == NEG_INF), (t, sizes)
                bulk_ranks.append(rank)
                G = gram(b, V, t)
                assert np.abs(r.eigenvalues - np.clip(np.linalg.eigvalsh(G), 0.0, 1.0)).max() <= 1e-13
                _, log_full = full_survival(G)
                assert r.log_survival == pytest.approx(log_full, rel=1e-13, abs=1e-300), t
            ranks = []
            for s in np.geomspace(0.5, 32.0, 32):
                t = edge_point(eq, N, s)
                monkeypatch.setattr(np.linalg, "eigvalsh", counting)
                sizes.clear()
                r = gap_probability(b, V, t)
                monkeypatch.undo()
                x, _, cd, T = _tail_grid(b, V, t)
                assert x.size == 3 * BASE_PANEL_NODES
                ((rank, rank2),) = sizes
                assert rank == rank2 and rank <= min(N, x.size) and rank <= 12, (t, sizes)
                ((_, L, residual),) = _pivoted_factors(x[None], cd[:, None], np.array([T]), N)
                assert L.shape == (1, rank, x.size) and residual[0] <= DEFLATION_TOL * T, t
                assert np.abs(_cd_kernel(x, cd) - L[0].T @ L[0]).max() <= 1e-12 * T, t
                ranks.append(rank)
                assert r.eigenvalues.shape == (N,)
                assert (r.eigenvalues[:N - rank] == 0.0).all()
                _, log_full = full_survival(gram(b, V, t))
                assert r.log_survival == pytest.approx(log_full, rel=1e-13), t
            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            sizes.clear()
            stacks.clear()
            gap_probabilities(b, V, [*bulk_ts, *(edge_point(eq, N, s)
                                                 for s in np.geomspace(0.5, 32.0, 32))])
            monkeypatch.undo()
            assert sorted(zip(sizes, stacks)) == sorted(
                [((k, k), (1,)) for k in bulk_ranks]
                + [((k, k), (ranks.count(k),)) for k in set(ranks)]), (sizes, stacks)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_factor_stops_at_the_kernel_rank(self, gue, quartic, monkeypatch, N):
        # K has rank N, so no factor takes more than N columns, however
        # much rounding is left in the residual diagonal
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(A):
            sizes.extend(A.shape[-2:])
            return eigvalsh(A)

        for V in (gue, quartic):
            eq = solve_mrs(V)
            ts = [edge_point(eq, N, s) for s in np.geomspace(0.5, 32.0, 32)]
            monkeypatch.setattr(np.linalg, "eigvalsh", counting)
            results = gap_probabilities(build_basis(V, N), V, ts)
            monkeypatch.undo()
            assert sum(isinstance(r, GapResult) for r in results) >= 24
        assert sizes and max(sizes) <= N, sizes

    def test_matches_dense_reference(self, gue, quartic):
        # on the benchmark's grids, wherever the settled grid lies inside
        # the window, log_survival is within 3e-14 max(1, |log S|) of the
        # survival from every eigenvalue of the dense m x m matrix
        # sqrt(w) Phi^T Phi sqrt(w) (measured: 2.2e-16 at worst)
        checked = 0
        for V in (gue, quartic):
            eq = solve_mrs(V)
            for N in (50, 100, 200, 300, 400):
                b = build_basis(V, N)
                ts = [edge_point(eq, N, s) for s in np.geomspace(0.5, 32.0, 32)]
                for t, r in zip(ts, gap_probabilities(b, V, ts)):
                    x, w = _tail_grid(b, V, t)[:2]
                    if x[-1] > b.support_window[1]:
                        continue
                    Phi = _phi_matrix(b, V, x)
                    sw = np.sqrt(w)
                    _, ref = full_survival(sw[:, None] * (Phi.T @ Phi) * sw[None, :])
                    assert abs(r.log_survival - ref) <= 3e-14 * max(1.0, abs(ref)), (N, t)
                    checked += 1
        assert checked >= 200, checked

    def test_one_phi_recurrence_per_threshold(self, gue, quartic, monkeypatch):
        # gap_probability runs one Christoffel-Darboux pass over an edge
        # grid's first panels, one more per panel it adds, and no other
        # recurrence; a grid in the bulk takes one pass over its nodes
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return _phi_matrix(*args, **kwargs)

        for V in (gue, quartic):
            eq = solve_mrs(V)
            for N in (12, 50, 200):
                b = build_basis(V, N)
                passes = counting_passes(monkeypatch)
                monkeypatch.setattr(kernel_oracle, "_phi_matrix", counting)
                for t in thresholds(eq, N):
                    grid = tail_grid(b, V, t)
                    calls.clear()
                    passes.clear()
                    try:
                        gap_probability(b, V, t)
                    except NumericalError:
                        assert N == 12 and V is quartic  # s = 32: no normal-range mass
                    first = kernel_oracle.EDGE_PANELS
                    added = [grid.panel(p)[0].size for p in range(first, first + len(passes) - 1)]
                    assert passes == [grid.x.size] + added and calls == [], (N, t, passes, calls)
                monkeypatch.undo()

    def test_one_phi_recurrence_per_chunk(self, gue, quartic, monkeypatch):
        # one Christoffel-Darboux pass runs over the first panels of the
        # edge grids of each block of EDGE_BLOCK thresholds, as one array,
        # after one pass per bulk threshold, in the order of ts
        block = kernel_oracle.EDGE_BLOCK
        for V in (gue, quartic):
            eq = solve_mrs(V)
            for N in (12, 50, 200):
                b = build_basis(V, N)
                for ts in (thresholds(eq, N) * 6, thresholds(eq, N) * 20):
                    grids = [tail_grid(b, V, t) for t in ts]
                    edge = [g.x.size for g in grids if g.edge]
                    passes = counting_passes(monkeypatch)
                    gap_probabilities(b, V, ts)
                    monkeypatch.undo()
                    assert passes == ([g.x.size for g in grids if not g.edge]
                                      + [sum(edge[i:i + block]) for i in range(0, len(edge), block)])
                    assert len(edge) >= 24

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1), ASYMMETRIC],
                             ids=["gue", "quartic", "sextic", "asymmetric"])
    @pytest.mark.parametrize("N", [3, 12, 50, 200, 400])
    def test_phi_grows_past_the_gershgorin_edge(self, coeffs, N):
        # past the edge x - alpha_j >= sqrt(beta_j) + sqrt(beta_{j+1}), so
        # by induction phi_{j+1}(x) >= phi_j(x) > 0: no phi_j has a zero
        # there, and the edge grids see a kernel without oscillation
        V = Potential(coeffs)
        b = build_basis(V, N)
        edge = kernel_oracle._bulk_estimate(b)[1]
        x = np.linspace(edge, b.support_window[1], 257)
        Phi = _phi_matrix(b, V, x)
        assert (Phi > 0.0).all(), (N, np.argwhere(Phi <= 0.0)[:3])
        assert (Phi[1:] >= Phi[:-1]).all(), (N, np.argwhere(Phi[1:] < Phi[:-1])[:3])

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1), ASYMMETRIC],
                             ids=["gue", "quartic", "sextic", "asymmetric"])
    @pytest.mark.parametrize("N", [3, 12, 50, 200, 400])
    def test_cd_kernel_matches_dense(self, coeffs, N):
        # on the first panels of edge grids inside the window, the
        # Christoffel-Darboux kernel is sqrt(w) Phi^T Phi sqrt(w) to 1e-12
        # of its norm, and its diagonal is w kernel_diag to 2e-13 of the
        # largest entry (divided differences of the pair between close
        # nodes limit the first)
        V = Potential(coeffs)
        eq = solve_mrs(V)
        b = build_basis(V, N)
        checked = 0
        for s in (0.5, 4.0, 16.0, 32.0):
            grid = tail_grid(b, V, edge_point(eq, N, s))
            assert grid.edge
            if grid.t > b.support_window[1]:
                continue
            x, w = grid.x, grid.w
            M = _cd_kernel(x, _cd_values(b, V, x, w))
            assert np.array_equal(M, M.T)
            Phi = _phi_matrix(b, V, x)
            sw = np.sqrt(w)
            dense = sw[:, None] * (Phi.T @ Phi) * sw[None, :]
            scale = np.abs(dense).max()
            if not scale >= TRACE_FLOOR:
                continue
            assert np.linalg.norm((M - dense) / scale) <= 1e-12 * np.linalg.norm(dense / scale), s
            diag = w * kernel_diag(b, V, x)
            assert np.abs(np.diag(M) - diag).max() <= 2e-13 * diag.max(), s
            checked += 1
        assert checked >= 2

    def test_memory_flat_in_thresholds(self, gue, gue_eq):
        # the benchmark's 32 thresholds need no more working memory at
        # N = 400 than at N = 50, beyond the N-sized results: the
        # Christoffel-Darboux pass carries a few vectors over the nodes,
        # whatever N
        working = []
        for N in (50, 400):
            b = build_basis(gue, N)
            ts = [edge_point(gue_eq, N, s) for s in np.geomspace(0.5, 32.0, 32)]
            gap_probabilities(b, gue, ts)
            tracemalloc.start()
            results = gap_probabilities(b, gue, ts)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert all(isinstance(r, GapResult) for r in results)
            working.append(peak - held)
        assert working[1] <= working[0] + 8 * 400 * len(ts), working

    def test_memory_flat_in_threshold_count(self, gue, gue_eq):
        # at N = 400, 6 x 32 thresholds need no more working memory than
        # 32 thresholds plus their results: the thresholds past the edge go
        # through the pass in blocks of EDGE_BLOCK
        b = build_basis(gue, 400)
        ts = [edge_point(gue_eq, 400, s) for s in np.geomspace(0.5, 32.0, 32)]
        working, held = [], []
        for batch in (ts, ts * 6):
            gap_probabilities(b, gue, batch)
            tracemalloc.start()
            results = gap_probabilities(b, gue, batch)
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert all(isinstance(r, GapResult) for r in results)
            working.append(peak - kept)
            held.append(kept)
        assert working[1] <= working[0] + held[0], (working, held)

    def test_batch_equals_single(self, gue, gue_eq, quartic, quartic_eq):
        # a ts with bulk and edge thresholds, and a failing one
        for V, eq, N in ((gue, gue_eq, 200), (quartic, quartic_eq, 120)):
            b = build_basis(V, N)
            ts = ([NEG_INF, eq.b - 0.3] + [edge_point(eq, N, s) for s in np.geomspace(0.5, 32.0, 24)]
                  + [eq.b + 10.0])
            batch = gap_probabilities(b, V, ts)
            assert len(batch) == len(ts)
            for t, r in zip(ts, batch):
                if t == eq.b + 10.0:
                    assert isinstance(r, NumericalError)
                    with pytest.raises(NumericalError):
                        gap_probability(b, V, t)
                    continue
                assert isinstance(r, GapResult)
                single = gap_probability(b, V, t)
                for name in ("t", "log_survival", "survival", "det_value", "trace"):
                    assert getattr(r, name) == getattr(single, name), (t, name)
                assert np.array_equal(r.eigenvalues, single.eigenvalues), t

    @FIELDS
    def test_grid_matches_panel_march(self, coeffs):
        # the tail grid, in the bulk or settled panel by panel past the
        # edge, has the nodes and weights of a march that calls phi panel
        # by panel, bit for bit, the dense phi values on them are the
        # march's, bit for bit, and the trace is the march's
        V = Potential(coeffs)
        eq = solve_mrs(V)
        cut = 0
        for N in (12, 30, 60):
            b = build_basis(V, N)
            for t in thresholds(eq, N):
                grid = tail_grid(b, V, t)
                try:
                    x, w, Phi, T = dense(b, V, t)
                except NumericalError as exc:
                    # s = 32 at N = 12 on the quartic fields
                    assert "normal double" in str(exc) and N == 12, (N, t)
                    continue
                ref_x, ref_w, ref_Phi = reference_march(b, V, t)
                assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w), (N, t)
                assert np.array_equal(Phi, ref_Phi), (N, t)
                assert T == pytest.approx(float(np.sum(ref_w * np.sum(ref_Phi ** 2, axis=0))),
                                          rel=1e-14)
                if grid.edge:
                    assert np.array_equal(settled(b, V, t)[0], x), (N, t)
                cut += not grid.edge and x[0] > b.support_window[0]
        assert cut > 0

    def test_march_past_the_batch(self, gue, monkeypatch):
        # an edge grid whose stopping rule has not fired at the last of
        # its first panels grows by one panel per pass over that panel's
        # nodes (t = 2.5); a bulk grid is final, one pass over its panels
        # (t = 1.5, with the dense Gram matrix as the reference)
        b = build_basis(gue, 12)
        monkeypatch.setattr(kernel_oracle, "EDGE_SHARE_TOL", 1e-300)
        for t in (1.5, 2.5):
            grid = tail_grid(b, gue, t)
            ref_x, ref_w, ref_Phi = reference_march(b, gue, t)
            with monkeypatch.context() as patch:
                calls = counting_passes(patch)
                x, w, M, _ = settled(b, gue, t)
            first = kernel_oracle.EDGE_PANELS
            grown = [grid.panel(p)[0].size for p in range(first, first + len(calls) - 1)]
            assert calls == [grid.x.size] + grown and (len(calls) > 1) == grid.edge
            assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
            if grid.edge:
                assert np.array_equal(M, _cd_kernel(x, _cd_values(b, gue, x, w)))
            else:
                G = (ref_Phi * ref_w) @ ref_Phi.T
                assert np.array_equal(M, 0.5 * (G + G.T))

    def test_edge_grid_raises_when_it_does_not_settle(self, gue, monkeypatch):
        b = build_basis(gue, 12)
        monkeypatch.setattr(kernel_oracle, "EDGE_SHARE_TOL", -1.0)
        with pytest.raises(NumericalError, match="did not terminate"):
            gap_probability(b, gue, 2.5)

    def test_non_finite_trace_raises(self, gue, monkeypatch):
        # an infinite kernel mass stops the edge grid and fails the trace
        # check; a NaN one never fires the stopping rule
        b = build_basis(gue, 6)
        cd_values = kernel_oracle._cd_values
        for bad, message in ((np.inf, "normal double"), (np.nan, "did not terminate")):
            monkeypatch.setattr(kernel_oracle, "_cd_values",
                                lambda *args: cd_values(*args) * [[[1.0]], [[1.0]], [[bad]]])
            with pytest.raises(NumericalError, match=message):
                gap_probability(b, gue, 2.5)
            monkeypatch.undo()


def renormalised_at_every_step(basis, V, x, w):
    """_cd_values with the pair and the sum renormalised before every step."""
    alpha, sqrt_beta = basis.alpha, np.sqrt(basis.beta)
    with np.errstate(over="ignore"):
        c = -0.5 * basis.N * kernel_oracle._excess(V, basis.v_min, x)
    k = np.where(np.exp(c) >= TRACE_FLOOR, 0.0, np.maximum(np.rint(c / math.log(2.0)), -2.0 ** 20))
    cur, exponent = np.frexp(np.exp(c - k * math.log(2.0)) / sqrt_beta[0])
    prev, total, exponent = np.zeros_like(x), cur * cur, exponent + k.astype(np.intc)
    for j in range(basis.N):
        e = np.frexp(total)[1] >> 1
        exponent += e
        prev, cur, total = np.ldexp(prev, -e), np.ldexp(cur, -e), np.ldexp(total, -2 * e)
        if j < basis.N - 1:
            prev, cur = cur, ((x - alpha[j]) * cur - prev * sqrt_beta[j]) / sqrt_beta[j + 1]
            total = total + cur * cur
    psi = (x - alpha[-1]) * cur - prev * sqrt_beta[-1]
    sw = np.sqrt(w)
    return np.stack((sw * np.ldexp(cur, exponent), sw * np.ldexp(psi, exponent),
                     w * np.ldexp(total, 2 * exponent)))


class TestRatioRecurrence:
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1), ASYMMETRIC,
                                        TILTED.coeffs, (0.0, 0.0, 5e11)],
                             ids=["gue", "quartic", "sextic", "asymmetric", "tilted",
                                  "small_beta"])
    @pytest.mark.parametrize("N", [1, 3, 12, 50, 200, 400])
    def test_renormalisation_is_exact(self, coeffs, N):
        # the pair recurrence renormalised every _renormalisation_period
        # steps gives the values of a renormalisation at every step, bit
        # for bit: on the whole basis rule (bulk nodes, where the pair
        # oscillates, and where u and d are those of _phi_matrix, bit for
        # bit, but for terms far below the sum), and on edge grids from the
        # Gershgorin edge past the window to t = 1e150 (period 1 there,
        # where the weight underflows and every value is 0); the period is
        # the largest R with R log2 G <= 1021 (88 at the GUE N = 400
        # Gershgorin edge)
        V = Potential(coeffs)
        b = build_basis(V, N)
        bulk = kernel_oracle._bulk_estimate(b)
        lo, hi = b.support_window
        ts = bulk[1] + np.concatenate(([0.0], np.geomspace(1e-6, 1e150, 16)))
        x, w = kernel_oracle._edge_panels(ts, kernel_oracle._edge_widths(b, V, ts, bulk),
                                          range(kernel_oracle.EDGE_PANELS))
        assert (x[:, 0] > hi).any()
        xb, wb = kernel_oracle._basis_rule(lo, hi, b.panels)
        cd, Phi = _cd_values(b, V, xb, wb), _phi_matrix(b, V, xb)
        dense = wb * np.sum(Phi * Phi, axis=0)
        same = dense >= 1e-200
        assert np.array_equal(cd[0][same], np.sqrt(wb[same]) * Phi[-1][same])
        assert np.array_equal(cd[2][same], dense[same])
        periods = set()
        for xt, wt in [(xb, wb), *zip(x, w)]:
            periods.add(kernel_oracle._renormalisation_period(b, xt))
            assert _cd_values(b, V, xt, wt).tobytes() == \
                renormalised_at_every_step(b, V, xt, wt).tobytes(), xt[0]
        # and as one block, with the period of its largest node
        assert _cd_values(b, V, x, w).tobytes() == renormalised_at_every_step(b, V, x, w).tobytes()
        beta = b.beta[1:]
        for xt in (xb, x[0]):
            top = np.abs(xt).max() + np.abs(b.alpha).max()
            growth = 1.0 + (top ** 2 + beta.max(initial=0.0)) / beta.min(initial=1.0)
            assert kernel_oracle._renormalisation_period(b, xt) == max(1, int(1021 / math.log2(growth)))
        assert min(periods) == 1
        if N > 1 and coeffs != (0.0, 0.0, 5e11):
            assert max(periods) >= 32, periods
        if coeffs == (0.0, 0.0, 0.5) and N == 400:
            assert kernel_oracle._renormalisation_period(b, x[0]) == 88


class TestEdgeGrid:
    @FIELDS
    @pytest.mark.parametrize("N", [3, 12, 50, 200, 400])
    def test_matches_refined_rule(self, coeffs, N):
        # twice the panels and twice the nodes move log_survival by at
        # most 1e-12 relative
        V = Potential(coeffs)
        eq = solve_mrs(V)
        b = build_basis(V, N)
        for s in (0.5, 4.0, 16.0, 32.0):
            t = edge_point(eq, N, s)
            assert t >= kernel_oracle._bulk_estimate(b)[1]
            try:
                ref = refined_log_survival(b, V, t)
            except NumericalError:
                # s = 32 at N <= 12 on quartic fields: no normal-range mass
                # past t
                assert N <= 12 and s == 32.0 and coeffs != (0.0, 0.0, 0.5)
                with pytest.raises(NumericalError):
                    gap_probability(b, V, t)
                continue
            r = gap_probability(b, V, t)
            assert r.log_survival == pytest.approx(ref, rel=1e-12, abs=1e-300), (N, s)
            assert settled(b, V, t)[0].size == 3 * BASE_PANEL_NODES


class TestBulkGrid:
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1), ASYMMETRIC,
                                        TILTED.coeffs],
                             ids=["gue", "quartic", "sextic", "asymmetric", "tilted"])
    @pytest.mark.parametrize("N", [1, 12, 50, 200])
    def test_whole_line_is_the_certified_rule(self, coeffs, N, monkeypatch):
        # at t <= lo the bulk grid is the rule build_basis certified, node
        # for node, and the tail Gram matrix is the identity to 1e-13; at
        # N = 1 no bulk grid has more nodes than that rule
        V, rules = Potential(coeffs), []

        def recording(edges, n):
            rules.append(composite_gl(edges, n))
            return rules[-1]

        with monkeypatch.context() as patch:
            patch.setattr(kernel_oracle, "composite_gl", recording)
            b = build_basis(V, N)
        x, w = rules[-1]
        assert x.size == b.panels * BASE_PANEL_NODES
        lo, hi = b.support_window
        for t in (NEG_INF, lo - 1.0, lo):
            grid = tail_grid(b, V, t)
            assert not grid.edge
            assert np.array_equal(grid.x, x) and np.array_equal(grid.w, w), t
        assert np.abs(gram(b, V, NEG_INF) - np.eye(N)).max() <= 1e-13
        if N == 1:
            edge = kernel_oracle._bulk_estimate(b)[1]
            for t in np.linspace(lo, min(hi, edge), 24, endpoint=False):
                assert 0 < tail_grid(b, V, t).x.size <= x.size, t

    def test_tilted_well_sweep(self):
        # 24 bulk thresholds of the tilted well at N = 50, from -inf to
        # the row-sum edge: every row is a result, within 1e-11 of a
        # 256-panel dense Gram matrix (relative in log survival, or in
        # survival where that is near 1)
        b = build_basis(TILTED, 50)
        lo, hi = b.support_window
        edge = kernel_oracle._bulk_estimate(b)[1]
        ts = [NEG_INF] + list(np.linspace(lo, min(hi, edge), 23, endpoint=False))
        for t, r in zip(ts, gap_probabilities(b, TILTED, ts)):
            assert isinstance(r, GapResult), (t, r)
            x, w = composite_gl(np.linspace(max(t, lo), hi, 257), BASE_PANEL_NODES)
            Phi = _phi_matrix(b, TILTED, x)
            _, ref = full_survival((Phi * w) @ Phi.T)
            assert abs(r.log_survival - ref) <= 1e-11 * max(abs(ref), 1.0), t


class TestRule:
    def test_cached_rule_read_only(self):
        x, w = gl_rule(7)
        assert gl_rule(7)[0] is x
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_one_rule_per_node_count(self, gue, monkeypatch):
        # a compare-style sweep: several N, several thresholds each
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counting(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
        gl_rule.cache_clear()
        for N in (8, 20, 36):
            b = build_basis(gue, N)
            for t in (1.5, 2.0, 2.5, 3.0, 3.5):
                gap_probability(b, gue, t)
        gl_rule.cache_clear()
        assert calls
        assert len(calls) == len(set(calls))


class TestWindow:
    def test_gue_and_quartic_edges(self, gue, quartic):
        # N x^2 / 2 and N x^4 reach the cutoff 1400 at sqrt(2800 / N)
        # and (1400 / N)^(1/4)
        for N in range(5, 1001):
            for V, edge in ((gue, math.sqrt(2800.0 / N)), (quartic, (1400.0 / N) ** 0.25)):
                (lo, hi), _ = _support_window(V, N)
                assert abs(hi - edge) <= 1e-14 * edge, (V.coeffs, N)
                assert abs(lo + edge) <= 1e-14 * edge, (V.coeffs, N)

    @pytest.mark.parametrize("N", [350, 400])
    def test_tilted_double_well_takes_both_wells(self, N):
        # the lower well is on the right; the window must still reach
        # past the left one, where about 149 of 350 particles sit
        V = Potential((0.0, -0.3, -4.0, 0.0, 1.0))
        basis = build_basis(V, N)
        lo, hi = basis.support_window
        assert (lo, hi) == _level_roots(V, basis.v_min, WINDOW_LOG_CUTOFF / N)
        if N == 350:
            assert lo == pytest.approx(-1.9314, abs=1e-4)
            assert hi == pytest.approx(2.0109, abs=1e-4)
        x, w = composite_gl(np.linspace(lo, hi, 201), BASE_PANEL_NODES)
        mass = w * kernel_diag(basis, V, x)
        assert float(np.sum(mass)) == pytest.approx(N, rel=1e-10)
        assert float(np.sum(mass[x < 0.0])) > 100.0

    def test_level_not_crossed_on_two_sides(self, gue):
        # x^3 reaches the cutoff on the right only
        with pytest.raises(NumericalError, match="not on two sides"):
            build_basis(Potential((0.0, 0.0, 0.0, 1.0)), 10)
        # no box starts at -inf
        with pytest.raises(NumericalError, match="not on two sides"):
            brute_force_survival(build_basis(gue, 3), gue, NEG_INF)


class TestGap:
    def test_tail_probability_falls(self, gue):
        b = build_basis(gue, 10)
        surv = [gap_probability(b, gue, t).survival for t in (1.6, 2.0, 2.4, 3.0)]
        assert all(0.0 < s < 1.0 for s in surv)
        assert all(x > y for x, y in zip(surv, surv[1:]))

    def test_union_bound_bracketing(self, gue):
        b = build_basis(gue, 12)
        for t in (2.1, 2.6):
            r = gap_probability(b, gue, t)
            assert r.survival <= r.trace + 1e-12
            assert r.survival >= r.trace - 0.5 * r.trace**2 - 1e-12

    def test_matches_series_expansion(self, gue):
        for N in (2, 3):
            b = build_basis(gue, N)
            for t in (2.2, 2.6):
                direct = gap_probability(b, gue, t).survival
                series = brute_force_survival(b, gue, t)
                assert direct == pytest.approx(series, abs=1e-10)

    def test_first_series_term_is_trace(self, gue):
        b = build_basis(gue, 3)
        assert brute_force_survival(b, gue, 2.2, k_max=1) == pytest.approx(
            tail_trace(b, gue, 2.2), rel=1e-10)

    def test_subsets_match_ordered_tuples(self, gue, quartic):
        # reference: every ordered k-tuple of rule nodes, over k!
        for V, N, t in ((gue, 2, 2.2), (gue, 3, 2.6), (quartic, 3, 1.3)):
            b = build_basis(V, N)
            M = _series_kernel(b, V, t)
            ordered = 0.0
            for k in range(1, N + 1):
                idx = np.array(list(itertools.product(range(len(M)), repeat=k)))
                dets = np.linalg.det(M[idx[:, :, None], idx[:, None, :]])
                ordered += (-1.0) ** (k + 1) / math.factorial(k) * float(dets.sum())
            assert brute_force_survival(b, V, t) == pytest.approx(ordered, abs=1e-14)

    def test_power_traces_match_subset_determinants(self, gue, quartic):
        # the benchmark's det-vs-series pairs (t = b + 0.5) and quartic
        # t = b + 1: Newton's identities on tr(M^i) give the sum of the
        # k x k principal minors of M = A^T A, for A = Phi sqrt(w) on the
        # box rule; by Cauchy-Binet that is the sum of the k x k
        # principal minors of the N x N matrix A A^T, built here subset
        # by subset
        b_quartic = (4.0 / 3.0) ** 0.25
        cases = [(V, N, b + 0.5) for V, b in ((gue, 2.0), (quartic, b_quartic))
                 for N in (2, 3, 4, 5)] + [(quartic, 5, b_quartic + 1.0)]
        for V, N, t in cases:
            basis = build_basis(V, N)
            hi = _level_roots(V, V.eval(t, 0), kernel_oracle.SERIES_LOG_CUTOFF / N)[1]
            x, w = composite_gl(np.linspace(t, hi, 3), 24)
            A = _phi_matrix(basis, V, x) * np.sqrt(w)
            M = _series_kernel(basis, V, t)
            assert np.abs(A.T @ A - M).max() <= 1e-15 * np.abs(M).max()
            G = A @ A.T
            total = 0.0
            for k in range(1, N + 1):
                idx = np.array(list(itertools.combinations(range(N), k)))
                sub = G[idx[:, :, None], idx[:, None, :]]
                total += (-1.0) ** (k + 1) * float(np.linalg.det(sub).sum())
            assert brute_force_survival(basis, V, t) == pytest.approx(total, rel=1e-14), (N, t)

    def test_series_calls_no_eigen_or_determinant_routine(self, quartic, monkeypatch):
        # the kernel matrix is taken as given: its box edge is a root of
        # V, a companion-matrix eigenvalue the kernel plays no part in
        basis = build_basis(quartic, 5)
        expected = brute_force_survival(basis, quartic, 1.5)
        M = _series_kernel(basis, quartic, 1.5)
        monkeypatch.setattr(kernel_oracle, "_series_kernel", lambda *args: M)

        def refuse(*args, **kwargs):
            raise AssertionError("the series must not call an eigenvalue or determinant routine")

        for name in ("eigvalsh", "eigvals", "eigh", "eig", "det", "slogdet"):
            monkeypatch.setattr(np.linalg, name, refuse)
        assert brute_force_survival(basis, quartic, 1.5) == expected

    def test_series_at_the_size_cap(self):
        # |det - series| <= 1e-10 at every N up to the cap, on four fields
        # from deep in the bulk to past the edge; rows with no
        # normal-range kernel mass or survival (quartic and sextic at
        # b + 2, large N) are skipped
        checked = 0
        for coeffs in ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0), ASYMMETRIC,
                       (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1)):
            V = Potential(coeffs)
            b = solve_mrs(V).b
            for N in range(2, SERIES_SIZE_LIMIT + 1):
                basis = build_basis(V, N)
                for dt in (-2.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0):
                    try:
                        r = gap_probability(basis, V, b + dt)
                    except NumericalError as exc:
                        assert dt == 2.0 and "normal double" in str(exc)
                        continue
                    if r.survival is None:
                        assert dt == 2.0
                        continue
                    series = brute_force_survival(basis, V, b + dt)
                    assert abs(r.survival - series) <= 1e-10, (coeffs, N, dt)
                    checked += 1
        assert checked >= 26 * (SERIES_SIZE_LIMIT - 1)

    def test_series_size_cap(self, gue):
        b = build_basis(gue, SERIES_SIZE_LIMIT + 1)
        with pytest.raises(ValueError):
            brute_force_survival(b, gue, 2.5)
        b3 = build_basis(gue, 3)
        with pytest.raises(ValueError):
            brute_force_survival(b3, gue, 2.5, k_max=0)

    def test_tilted_well_threshold_between_the_edges(self):
        # t = 2.45 lies past the Gershgorin row sums (2.397), inside the
        # window (2.707) and below the looser bound max(alpha) + 2 max
        # sqrt(beta) = 4.19, which would route it to a bulk grid too
        # coarse for it (1.2e-5 relative off): the Christoffel-Darboux
        # path gives the survival of a 128-panel dense Gram matrix
        basis = build_basis(TILTED, 50)
        t, hi = 2.45, basis.support_window[1]
        assert tail_grid(basis, TILTED, t).edge
        x, w = composite_gl(np.linspace(t, hi, 129), BASE_PANEL_NODES)
        Phi = _phi_matrix(basis, TILTED, x)
        lam = np.clip(np.linalg.eigvalsh((Phi * w) @ Phi.T), 0.0, 1.0)
        ref = math.log(-math.expm1(float(np.sum(np.log1p(-lam)))))
        assert gap_probability(basis, TILTED, t).log_survival == pytest.approx(ref, rel=1e-13)

    def test_tilted_well_past_the_window(self):
        # past the window edge hi and below the Gershgorin edge, the edge
        # grid takes the threshold: at N = 400 (hi = 1.979, edge 2.403)
        # t = 1.98 and 1.985 are results within 1e-12 of a grid with twice
        # the panels and nodes; at t = 2.2 and 2.3 the kernel mass is about
        # e^-1100 to e^-3214 at N = 200 and 400, so those raise for the
        # kernel mass, not for the window
        basis = build_basis(TILTED, 400)
        hi, edge = basis.support_window[1], kernel_oracle._bulk_estimate(basis)[1]
        for t in (1.98, 1.985):
            assert hi < t < edge
            r = gap_probability(basis, TILTED, t)
            assert r.log_survival == pytest.approx(refined_log_survival(basis, TILTED, t),
                                                   rel=1e-12)
        for N in (200, 400):
            basis = build_basis(TILTED, N)
            for t, r in zip((2.2, 2.3), gap_probabilities(basis, TILTED, [2.2, 2.3])):
                assert basis.support_window[1] < t < kernel_oracle._bulk_estimate(basis)[1]
                assert isinstance(r, NumericalError) and "kernel mass" in str(r), (N, t, r)

    def test_log_space_far_tail(self, gue):
        # survival around e^-176: linear value still representable
        b = build_basis(gue, 20)
        r = gap_probability(b, gue, 5.0)
        assert r.survival is not None
        assert r.log_survival == pytest.approx(math.log(r.survival), rel=1e-12)
        assert r.log_survival < -170.0

    def test_underflow_marker(self, gue):
        # survival near e^-699: below the linear floor, finite in log
        # space, and within 1e-12 of the refined rule
        b = build_basis(gue, 85)
        r = gap_probability(b, gue, 4.95)
        assert r.survival is None
        assert -708.0 < r.log_survival < math.log(1e-300)
        assert r.log_survival == pytest.approx(refined_log_survival(b, gue, 4.95), rel=1e-12)
        assert r.det_value == 1.0

    def test_no_silent_minus_infinity(self, gue):
        # t = 12 lies past the N = 50 window; past t = 5 at N = 90 the
        # kernel mass is below the normal double range: errors, not -inf
        for N, t in ((50, 12.0), (90, 5.0)):
            b = build_basis(gue, N)
            with pytest.raises(NumericalError, match="normal double"):
                gap_probability(b, gue, t)

    def test_threshold_past_the_window(self, gue):
        # at N = 500 the window ends at sqrt(2800/500) = 2.366; past it
        # phi_0 is subnormal, but the Christoffel-Darboux kernel, in log
        # form, still gives the survival (about e^-182.5 at t = 2.4),
        # within 1e-12 of a grid with twice the panels and nodes
        b = build_basis(gue, 500)
        hi = b.support_window[1]
        assert hi == pytest.approx(math.sqrt(2800.0 / 500.0), rel=1e-9)
        assert gap_probability(b, gue, hi).log_survival < -100.0
        for t, expected in ((2.4, -182.54006053165756), (2.6, -333.01035839272936)):
            r = gap_probability(b, gue, t)
            assert r.log_survival == pytest.approx(expected, rel=1e-13)
            assert r.log_survival == pytest.approx(refined_log_survival(b, gue, t), rel=1e-12)

    def test_threshold_far_below_support(self, gue):
        b = build_basis(gue, 6)
        r = gap_probability(b, gue, -10.0)
        assert r.survival == pytest.approx(1.0, abs=1e-10)
        assert r.trace == pytest.approx(6.0, rel=1e-10)

    def test_eigenvalue_error_prints_plain_floats(self, gue):
        # weights scaled by 10 push the top eigenvalue past 1
        b = build_basis(gue, 10)
        _, _, G, trace = settled(b, gue, 0.0)
        (error,) = _survival(b, [0.0], [np.linalg.eigvalsh(10.0 * G)], [10.0 * trace])
        assert isinstance(error, NumericalError) and "outside" in str(error)
        assert "np." not in str(error)

    def test_eigenvalues_sorted_in_unit_interval(self, gue):
        b = build_basis(gue, 9)
        r = gap_probability(b, gue, 1.8)
        lam = r.eigenvalues
        assert lam.shape == (9,)
        assert (np.diff(lam) >= 0.0).all()
        assert lam[0] >= 0.0 and lam[-1] <= 1.0


class TestTracyWidom:
    @pytest.mark.parametrize("coeffs, tol", [((0.0, 0.0, 0.5), 1e-6),
                                             ((0.0, 0.0, 0.0, 0.0, 1.0), 1e-4)],
                             ids=["gue", "quartic"])
    def test_moments_extrapolate_to_tracy_widom(self, coeffs, tol):
        # F_N(s) = 1 - survival at t = b + s / (gamma N^{2/3}), on 120
        # Gauss-Legendre nodes over s in [-9, 7], 64 of them in the bulk:
        # mean = 7 - int F and var = 49 - int 2 s F - mean^2, fitted as
        # quadratics in N^{-2/3} through N = 100, 200, 400, 550, extrapolate
        # to the Tracy-Widom (beta = 2) mean and variance (measured: GUE
        # -1.4e-7 and +1.1e-7, quartic -8.9e-6 and +3.1e-5)
        V = Potential(coeffs)
        eq = solve_mrs(V)
        xg, wg = gl_rule(120)
        s, ws = 8.0 * xg - 1.0, 8.0 * wg
        h, means, variances = [], [], []
        for N in (100, 200, 400, 550):
            results = gap_probabilities(build_basis(V, N), V, eq.b + s / (eq.gamma * N ** (2.0 / 3.0)))
            assert all(isinstance(r, GapResult) for r in results), N
            F = np.array([1.0 - (0.0 if r.survival is None else r.survival) for r in results])
            mean = 7.0 - float(ws @ F)
            h.append(N ** (-2.0 / 3.0))
            means.append(mean)
            variances.append(49.0 - float(ws @ (2.0 * s * F)) - mean * mean)
        mean, var = (float(np.polyfit(h, m, 2)[-1]) for m in (means, variances))
        assert abs(mean - -1.7710868074) <= tol, mean
        assert abs(var - 0.8131947928) <= tol, var


class TestHadamard:
    def test_random_positive_definite(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            X = rng.normal(size=(n, n + 4))
            assert hadamard_check(X @ X.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hadamard_check(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            hadamard_check(np.array([[1.0, 0.5], [0.2, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            hadamard_check(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_diagonal_is_tight(self):
        assert hadamard_check(np.diag([2.0, 3.0, 4.0]))

    def test_kernel_gram_input(self, gue):
        # tail Grams over a left threshold are the intended inputs
        b = build_basis(gue, 6)
        G = gram(b, gue, -3.0)
        assert hadamard_check(G)
