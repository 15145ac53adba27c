"""Acceptance gate: one test per numbered criterion.

Each test prints a single `criterion NN PASS/FAIL: ...` line on the real
terminal (capture suspended) so every run shows the scoreboard, then
asserts the same condition.
"""

import math
import time

import numpy as np
import pytest

from loggas import (brute_force_survival, build_basis, build_tail_model,
                    cramer_coefficients, effective_potential, eta, f_approx,
                    gap_probability, gram, hadamard_check, log_f_approx,
                    rescale, solve_mrs)


@pytest.fixture
def report(capfd):
    def _report(num, ok, detail):
        line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line
    return _report


@pytest.fixture(scope="module")
def edge_sweep(gue, gue_eq):
    """Shared oracle sweep at t = b + 0.5 over N in {10, 20, 40, 80}."""
    t = gue_eq.b + 0.5
    rows = []
    start = time.perf_counter()
    for N in (10, 20, 40, 80):
        basis = build_basis(gue, N)
        result = gap_probability(basis, gue, t)
        model = build_tail_model(gue_eq, gue, N)
        rows.append((N, result.survival, result.trace, f_approx(model, t)))
    elapsed = time.perf_counter() - start
    return t, rows, elapsed


def test_criterion_01_support_endpoints(report, gue, quartic):
    t0 = time.perf_counter()
    eq_g = solve_mrs(gue)
    time_g = time.perf_counter() - t0
    t0 = time.perf_counter()
    eq_q = solve_mrs(quartic)
    time_q = time.perf_counter() - t0
    err_a = abs(eq_g.a + 2.0)
    err_b = abs(eq_g.b - 2.0)
    err_q = abs(eq_q.b - (4.0 / 3.0) ** 0.25)
    ok = (err_a <= 1e-10 and err_b <= 1e-10 and err_q <= 1e-8
          and time_g < 1.0 and time_q < 1.0)
    report(1, ok, f"|a+2|={err_a:.1e} |b-2|={err_b:.1e} "
                   f"quartic |b-(4/3)^0.25|={err_q:.1e} "
                   f"times {time_g:.2f}s/{time_q:.2f}s")


def test_criterion_02_edge_constant(report, gue_eq):
    err = abs(gue_eq.gamma - 1.0)
    report(2, err <= 1e-10, f"|gamma-1|={err:.1e}")


def test_criterion_03_rate_closed_form(report, gue_eq, gue):
    def closed(x):
        r = math.sqrt(x * x - 4.0)
        return 0.5 * x * r - 2.0 * math.log(0.5 * (x + r))

    e3 = abs(eta(gue_eq, gue, 3.0) - closed(3.0))
    e25 = abs(eta(gue_eq, gue, 2.5) - closed(2.5))
    ok = e3 <= 1e-8 and e25 <= 1e-8
    report(3, ok, f"|eta(3)-1.42925467|={e3:.1e} |eta(2.5)-0.48870564|={e25:.1e}")


def test_criterion_04_first_correction(report, gue_eq, gue):
    d = cramer_coefficients(gue_eq, gue, 1)
    err = abs(d[0] - 0.1)
    report(4, err <= 1e-6, f"|d_1-0.1|={err:.1e}")


def test_criterion_05_edge_ratio_rate(report, gue_eq, edge_sweep):
    t, rows, elapsed = edge_sweep
    scale = (t - gue_eq.b) ** 1.5
    devs = [abs(surv / f - 1.0) for _, surv, _, f in rows]
    scaled = [d * N * scale for d, (N, *_rest) in zip(devs, rows)]
    monotone = all(x > y for x, y in zip(devs, devs[1:]))
    band = max(scaled) / min(scaled)
    ok = monotone and band <= 3.0 and elapsed < 120.0
    report(5, ok, f"|ratio-1| monotone={monotone} band={band:.3f} (<=3) "
                   f"sweep time={elapsed:.1f}s (<120)")


def test_criterion_06_trace_ratio_rate(report, gue_eq, edge_sweep):
    t, rows, _ = edge_sweep
    scale = (t - gue_eq.b) ** 1.5
    devs = [abs(trace / f - 1.0) for _, _, trace, f in rows]
    scaled = [d * N * scale for d, (N, *_rest) in zip(devs, rows)]
    monotone = all(x > y for x, y in zip(devs, devs[1:]))
    band = max(scaled) / min(scaled)
    ok = monotone and band <= 3.0
    report(6, ok, f"trace ratio monotone={monotone} band={band:.3f} (<=3)")


def test_criterion_07_far_tail_log_accuracy(report, gue, gue_eq):
    entries = []
    for N in (20, 40):
        basis = build_basis(gue, N)
        model = build_tail_model(gue_eq, gue, N)
        for dt in (1.0, 2.0, 3.0):
            t = gue_eq.b + dt
            log_surv = gap_probability(basis, gue, t).log_survival
            err = abs(log_surv - log_f_approx(model, t))
            entries.append((N, err))
    ok = all(math.isfinite(err) and err <= 5.0 / N for N, err in entries)
    worst = max(err * N / 5.0 for N, err in entries)
    report(7, ok, f"max |dlog|/(5/N) = {worst:.3f} (<=1)")


def test_criterion_08_series_equivalence(report, gue, gue_eq):
    t = gue_eq.b + 0.5
    diffs = []
    for N in (2, 3, 4, 5):
        basis = build_basis(gue, N)
        direct = gap_probability(basis, gue, t).survival
        series = brute_force_survival(basis, gue, t)
        diffs.append(abs(direct - series))
    worst = max(diffs)
    report(8, worst <= 1e-8, f"max |det - series| = {worst:.1e} (<=1e-8)")


def test_criterion_09_orthonormality_and_mass(report, gue):
    neg_inf = float("-inf")
    worst_gram, worst_trace = 0.0, 0.0
    for N in (5, 20, 50):
        basis = build_basis(gue, N)
        G = gram(basis, gue, neg_inf)
        worst_gram = max(worst_gram, float(np.abs(G - np.eye(N)).max()))
        worst_trace = max(worst_trace,
                          abs(gap_probability(basis, gue, neg_inf).trace - N) / N)
    ok = worst_gram <= 1e-8 and worst_trace <= 1e-6
    report(9, ok, f"max |Gram-I| = {worst_gram:.1e} (<=1e-8), "
                   f"max rel trace err = {worst_trace:.1e} (<=1e-6)")


def test_criterion_10_recurrence_closed_form(report, gue):
    basis = build_basis(gue, 50)
    a_err = float(np.abs(basis.alpha).max())
    j = np.arange(1, 50)
    b_err = float(np.abs(basis.beta[1:] - j / 50.0).max())
    ok = a_err <= 1e-10 and b_err <= 1e-10
    report(10, ok, f"max |alpha_j| = {a_err:.1e}, max |beta_j-j/N| = {b_err:.1e}")


def test_criterion_11_variational_identities(report, gue_eq, gue):
    a, b = gue_eq.a, gue_eq.b
    x = a + (b - a) * np.arange(1, 51) / 51.0
    spread = float(np.std(effective_potential(gue_eq, gue, x)))
    defects = [abs(eta(gue_eq, gue, p)
                   - (float(effective_potential(gue_eq, gue, p)) - gue_eq.ell))
               for p in (2.2, 2.5, 3.0)]
    ok = spread <= 1e-6 and max(defects) <= 1e-5
    report(11, ok, f"interior std = {spread:.1e} (<=1e-6), "
                    f"max outside defect = {max(defects):.1e} (<=1e-5)")


def test_criterion_12_moderate_regime_rate(report, gue_eq, gue):
    s = 2.0
    const = 16.0 * math.pi * s**1.5 * math.exp((4.0 / 3.0) * s**1.5)
    start = time.perf_counter()
    sizes = (10**3, 10**4, 10**5)
    errs = []
    for N in sizes:
        model = build_tail_model(gue_eq, gue, N)
        errs.append(abs(f_approx(model, rescale(model, s)) * const - 1.0))
    elapsed = time.perf_counter() - start
    slope = float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
    ok = abs(slope + 2.0 / 3.0) <= 0.1 and elapsed < 1.0
    report(12, ok, f"slope = {slope:.4f} (-2/3 +- 0.1), time = {elapsed:.2f}s (<1)")


def test_criterion_13_determinant_bound(report):
    rng = np.random.default_rng(2026)
    results = []
    for _ in range(100):
        n = int(rng.integers(2, 11))
        X = rng.normal(size=(n, n + 5))
        results.append(hadamard_check(X @ X.T))
    ok = len(results) == 100 and all(results)
    report(13, ok, f"{sum(results)}/100 PD Gram matrices satisfy "
                    f"det <= prod(diag) + 1e-12")


def test_criterion_14_rate_versus_field(report, gue_eq, gue, quartic_eq, quartic):
    slack = []
    for eq, V in ((gue_eq, gue), (quartic_eq, quartic)):
        for dt in (1.0, 3.0, 6.0):
            x = eq.b + dt
            lhs = abs(eta(eq, V, x) - float(V.eval(x, 0)))
            rhs = abs(eq.ell) + 2.0 * math.log(x - eq.a)
            slack.append(rhs - lhs)
    ok = all(s >= 0.0 for s in slack)
    report(14, ok, f"min slack = {min(slack):.3f} (>=0)")
