"""Finite-N reference: recurrence data, kernel mass, gap determinants,
series cross-checks, determinant bound."""

import itertools
import math

import numpy as np
import pytest

from loggas import (Potential, brute_force_survival, build_basis, gap_probability,
                    gram, hadamard_check, kernel_diag, phi, solve_mrs, tail_trace)
from loggas import kernel_oracle, quadrature
from loggas.kernel_oracle import (BASE_PANEL_NODES, DEFLATION_TOL, _phi_matrix,
                                  _series_kernel, _support_window, _tail_grid)
from loggas.errors import NumericalError
from loggas.quadrature import brentq, gl_rule

NEG_INF = float("-inf")
ASYMMETRIC = (0.0, 0.5, 0.5, 0.2, 0.25)


def thresholds(eq, N):
    """Whole line, left edge, support midpoint, just inside the right
    edge, and four edge-scaled points b + s/(gamma N^{2/3}) past it."""
    return ([NEG_INF, eq.a, 0.5 * (eq.a + eq.b), eq.b - 0.1]
            + [eq.b + s / (eq.gamma * N ** (2.0 / 3.0)) for s in (0.5, 2.0, 8.0, 32.0)])


def panel_march(basis, V, t):
    """Reference tail grid: panels marched one at a time, each with its
    own phi call, under the same stopping rule as _tail_grid."""
    lo, hi = basis.support_window
    N = basis.N
    start = max(t, lo) if np.isfinite(t) else lo
    if start >= hi:
        return np.empty(0), np.empty(0), np.empty((N, 0))
    blo, bhi = kernel_oracle._bulk_estimate(basis)
    span = max(bhi - blo, 1e-2 * (hi - lo))
    width = 0.25 * span
    extra = math.ceil(4.0 * N * width / span)
    total = 0.0
    xs, ws, phis = [], [], []
    for p in range(kernel_oracle.MAX_PANELS):
        p0 = start + p * width
        p1 = p0 + width
        in_bulk = (p0 < bhi + 0.5 * width) and (p1 > blo - 0.5 * width)
        xg, wg = gl_rule(BASE_PANEL_NODES + (extra if in_bulk else 0))
        xm = 0.5 * (p0 + p1) + 0.5 * width * xg
        wm = 0.5 * width * wg
        Phi = _phi_matrix(basis, V, xm)
        contrib = float(np.sum(wm * np.sum(Phi * Phi, axis=0)))
        xs.append(xm)
        ws.append(wm)
        phis.append(Phi)
        total += contrib
        weight_small = N * (V.eval(p0, 0) - basis.v_min) > kernel_oracle.PANEL_WEIGHT_CUTOFF
        if weight_small and (total == 0.0
                             or contrib < kernel_oracle.PANEL_RELATIVE_CUTOFF * total):
            return np.concatenate(xs), np.concatenate(ws), np.concatenate(phis, axis=1)
    raise AssertionError("reference march did not terminate")


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
    def test_input_validation(self, gue):
        with pytest.raises(ValueError):
            build_basis(gue, 0)
        with pytest.raises(ValueError):
            build_basis(gue, 10, quad_points=200)  # below the 40 N floor

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
        b = build_basis(gue, 20)
        lo, hi = b.support_window
        assert hi == pytest.approx(math.sqrt(1500.0 / 20.0), rel=1e-9)
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

    def test_diag_sums_squares(self, gue):
        b = build_basis(gue, 8)
        x = np.linspace(-2.5, 2.5, 11)
        total = sum(phi(b, gue, j, x) ** 2 for j in range(8))
        assert float(np.abs(kernel_diag(b, gue, x) - total).max()) < 1e-12

    def test_phi_index_bounds(self, gue):
        b = build_basis(gue, 5)
        with pytest.raises(ValueError):
            phi(b, gue, 5, 0.0)
        with pytest.raises(ValueError):
            phi(b, gue, -1, 0.0)

    def test_phi_scalar(self, gue):
        b = build_basis(gue, 5)
        v = phi(b, gue, 2, 0.3)
        assert isinstance(v, float)
        assert v == pytest.approx(phi(b, gue, 2, np.array([0.3]))[0], rel=1e-15)

    def test_trace_decreasing_in_t(self, gue):
        b = build_basis(gue, 10)
        vals = [tail_trace(b, gue, t) for t in (1.0, 1.5, 2.0, 2.5, 3.0)]
        assert all(x > y > 0.0 for x, y in zip(vals, vals[1:]))

    def test_tail_trace_is_gram_trace(self, gue, quartic):
        for V, N in ((gue, 12), (quartic, 9)):
            b = build_basis(V, N)
            for t in (NEG_INF, -0.5, 1.1, 2.3, 40.0):
                assert tail_trace(b, V, t) == gap_probability(b, V, t).trace

    def test_gram_reuses_grid_phi(self, gue, quartic):
        # gram takes phi from the tail grid's panels; evaluating phi once
        # on all the grid's nodes gives the same matrix bit for bit
        for V, N, t in ((gue, 30, NEG_INF), (gue, 30, 1.7), (quartic, 17, 0.9)):
            b = build_basis(V, N)
            x, w, _, _ = _tail_grid(b, V, t)
            Phi = _phi_matrix(b, V, x)
            G = (Phi * w) @ Phi.T
            assert np.array_equal(gram(b, V, t), 0.5 * (G + G.T))


class TestDeflation:
    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        ASYMMETRIC], ids=["gue", "quartic", "asymmetric"])
    @pytest.mark.parametrize("N", [3, 12, 50, 200])
    def test_dropped_rows_cost_at_most_their_mass(self, coeffs, N):
        # 0 <= survival(G) - survival(G22) <= eps, eps the dropped mass
        V = Potential(coeffs)
        eq = solve_mrs(V)
        b = build_basis(V, N)
        for t in thresholds(eq, N):
            G = gram(b, V, t)
            d = np.diag(G)
            T = float(np.sum(d))
            j0 = int(np.searchsorted(np.cumsum(d), DEFLATION_TOL * T, side="right"))
            eps = float(np.sum(d[:j0]))
            sur_full, log_full = full_survival(G)
            r = gap_probability(b, V, t)
            sur = 0.0 if r.survival is None else r.survival
            assert -1e-15 <= sur_full - sur <= eps + 1e-15, (t, sur_full, sur, eps)
            if t > eq.b:
                if math.isfinite(log_full):
                    assert r.log_survival == pytest.approx(log_full, rel=1e-13), t
                else:
                    assert r.log_survival == log_full

    def test_eigenproblem_sized_by_tail_rows(self, gue, gue_eq, monkeypatch):
        # every threshold past the edge on the benchmark's s grid hands
        # eigvalsh fewer than N/2 rows; an empty tail grid hands it none
        N = 200
        b = build_basis(gue, N)
        ts = [gue_eq.b + s / (gue_eq.gamma * N ** (2.0 / 3.0))
              for s in np.geomspace(0.5, 32.0, 32)]
        for t in ts:
            gap_probability(b, gue, t)  # fills the Gauss-Legendre rule cache
        sizes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(A):
            sizes.append(A.shape)
            return eigvalsh(A)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        empty = 0
        for t in ts:
            sizes.clear()
            r = gap_probability(b, gue, t)
            if t >= b.support_window[1]:
                empty += 1
                assert sizes == []
                assert r.trace == 0.0 and r.log_survival == NEG_INF
                continue
            assert len(sizes) == 1
            k = sizes[0][0]
            assert sizes[0] == (k, k) and k < N // 2, (t, k)
            assert r.eigenvalues.shape == (N,)
            assert (r.eigenvalues[:N - k] == 0.0).all()
        assert 0 < empty < len(ts)

    def test_one_phi_recurrence_per_threshold(self, gue, quartic, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return _phi_matrix(*args, **kwargs)

        monkeypatch.setattr(kernel_oracle, "_phi_matrix", counting)
        for V in (gue, quartic):
            eq = solve_mrs(V)
            for N in (12, 50, 200):
                b = build_basis(V, N)
                for t in thresholds(eq, N):
                    calls.clear()
                    gap_probability(b, V, t)
                    empty = max(t, b.support_window[0]) >= b.support_window[1]
                    assert len(calls) == (0 if empty else 1), (N, t, calls)

    @pytest.mark.parametrize("coeffs", [(0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.0, 1.0),
                                        ASYMMETRIC], ids=["gue", "quartic", "asymmetric"])
    def test_grid_matches_panel_march(self, coeffs):
        # one phi call over the panels gives the grid and the phi values
        # of a march that calls phi panel by panel, bit for bit
        V = Potential(coeffs)
        eq = solve_mrs(V)
        multi_panel = 0
        for N in (12, 30, 60):
            b = build_basis(V, N)
            for t in thresholds(eq, N):
                x, w, Phi, d = _tail_grid(b, V, t)
                ref_x, ref_w, ref_Phi = panel_march(b, V, t)
                assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w), (N, t)
                assert np.array_equal(Phi, ref_Phi), (N, t)
                assert np.allclose(d, np.square(Phi) @ w, rtol=1e-14, atol=0.0)
                multi_panel += x.size > BASE_PANEL_NODES + N
        assert multi_panel > 0

    def test_march_past_the_batch(self, gue, monkeypatch):
        # a stopping rule that does not fire at the batch's last panel
        # grows the grid one panel and one phi call at a time
        b = build_basis(gue, 12)
        x0, _, _, _ = _tail_grid(b, gue, 2.5)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[2].size)
            return _phi_matrix(*args, **kwargs)

        monkeypatch.setattr(kernel_oracle, "_phi_matrix", counting)
        monkeypatch.setattr(kernel_oracle, "PANEL_RELATIVE_CUTOFF", 1e-300)
        x, w, Phi, d = _tail_grid(b, gue, 2.5)
        assert len(calls) > 1 and calls[0] == x0.size
        assert x.size == sum(calls)
        ref_x, ref_w, ref_Phi = panel_march(b, gue, 2.5)
        assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
        assert np.array_equal(Phi, ref_Phi)
        assert np.allclose(d, np.square(Phi) @ w, rtol=1e-14, atol=0.0)

    def test_non_finite_trace_raises(self, gue, monkeypatch):
        b = build_basis(gue, 6)
        grid = _tail_grid(b, gue, 1.0)
        monkeypatch.setattr(kernel_oracle, "_tail_grid",
                            lambda *args: grid[:3] + (np.full(6, np.nan),))
        with pytest.raises(NumericalError):
            gap_probability(b, gue, 1.0)


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


def polynomial_brackets():
    """Seeded random polynomials with sign-changing brackets."""
    rng = np.random.default_rng(20160314)
    out = []
    while len(out) < 200:
        c = rng.standard_normal(rng.integers(2, 8))
        a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
        fa, fb = np.polynomial.polynomial.polyval([a, b], c)
        if fa * fb < 0.0:
            out.append((tuple(c), float(a), float(b)))
    return out


class TestBrentq:
    def test_sqrt_two(self):
        root = brentq(lambda x: x * x - 2.0, 0.0, 2.0)
        assert abs(root - math.sqrt(2.0)) < 2e-12

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError):
            brentq(lambda x: x * x - 2.0, 2.0, 3.0)

    def test_no_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError):
            brentq(lambda x: x * x - 2.0, 0.0, 2.0)

    @pytest.mark.parametrize("N", [10, 50, 200])
    def test_gue_window_edges(self, gue, N):
        # N x^2 / 2 reaches the cutoff 750 at x = sqrt(1500 / N)
        (lo, hi), _ = _support_window(gue, N)
        edge = math.sqrt(1500.0 / N)
        assert abs(hi - edge) < 2e-12
        assert abs(lo + edge) < 2e-12

    def test_matches_scipy_bit_for_bit(self):
        optimize = pytest.importorskip("scipy.optimize")
        for c, a, b in polynomial_brackets():
            def f(x, c=c):
                return np.polynomial.polynomial.polyval(x, c)
            assert brentq(f, a, b) == optimize.brentq(f, a, b), (c, a, b)


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

    def test_series_size_cap(self, gue):
        b = build_basis(gue, 6)
        with pytest.raises(ValueError):
            brute_force_survival(b, gue, 2.5)
        b3 = build_basis(gue, 3)
        with pytest.raises(ValueError):
            brute_force_survival(b3, gue, 2.5, k_max=0)

    def test_log_space_far_tail(self, gue):
        # survival around e^-176: linear value still representable
        b = build_basis(gue, 20)
        r = gap_probability(b, gue, 5.0)
        assert r.survival is not None
        assert r.log_survival == pytest.approx(math.log(r.survival), rel=1e-12)
        assert r.log_survival < -170.0

    def test_underflow_marker(self, gue):
        # all the representable weight sits left of the threshold: the
        # probability is positive but below the smallest double
        b = build_basis(gue, 90)
        r = gap_probability(b, gue, 5.0)
        assert r.survival is None
        assert r.log_survival == NEG_INF
        assert r.det_value == 1.0
        assert r.trace == 0.0

    def test_threshold_far_below_support(self, gue):
        b = build_basis(gue, 6)
        r = gap_probability(b, gue, -10.0)
        assert r.survival == pytest.approx(1.0, abs=1e-10)
        assert r.trace == pytest.approx(6.0, rel=1e-10)

    def test_eigenvalues_sorted_in_unit_interval(self, gue):
        b = build_basis(gue, 9)
        r = gap_probability(b, gue, 1.8)
        lam = r.eigenvalues
        assert lam.shape == (9,)
        assert (np.diff(lam) >= 0.0).all()
        assert lam[0] >= 0.0 and lam[-1] <= 1.0


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
