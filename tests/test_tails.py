"""Tail approximation: correction coefficients, scaling map, regimes."""

import dataclasses
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from loggas import (NumericalError, alpha_threshold, build_tail_model,
                    cramer_coefficients, eta, eta_prime, eta_tilde, f_approx,
                    log_f_approx, moderate_leading, rescale, tail_terms,
                    tw_tail_asymptotic)
from loggas.tails import (K_MAX_SUPPORTED, LOG_UNDERFLOW, MODERATE_MARGIN, TW_CUTOFF,
                          regime_labels)


def binom_half(m):
    # binom(1/2, m), exactly
    return math.prod((Fraction(1, 2) - i for i in range(m)), start=Fraction(1)) / math.factorial(m)


class TestCramerCoefficients:
    def test_quadratic_first_three(self, gue_eq, gue):
        # binomial expansion of sqrt(4 + v) gives 1/10, -1/224, 1/2304, ...
        d = cramer_coefficients(gue_eq, gue, 6)
        assert d[0] == pytest.approx(0.1, abs=1e-8)
        assert d[1] == pytest.approx(-1.0 / 224.0, abs=1e-7)
        assert d[2] == pytest.approx(1.0 / 2304.0, abs=1e-6)
        for j in range(1, 7):
            closed = 2.0 * float(binom_half(j)) * 4.0 ** -j / (j + 1.5)
            assert abs(d[j - 1] - closed) < 1e-12

    def test_quartic_first_two(self, quartic_eq, quartic):
        # edge Taylor coefficients of the density factor, computed by hand
        d = cramer_coefficients(quartic_eq, quartic, 6)
        assert d[0] == pytest.approx(0.3989749991333765, abs=1e-8)
        assert d[1] == pytest.approx(0.05492124175336405, abs=1e-8)
        # h(v) = sqrt(2b + v) (6b^2 + 8bv + 4v^2) with G(x) = 4x^2 + 2b^2,
        # and gamma^(3/2) = 3 sqrt(2) b^(5/2)
        b = (4.0 / 3.0) ** 0.25
        gamma = (3.0 * math.sqrt(2.0) * b**2.5) ** (2.0 / 3.0)

        def root(m):  # v^m coefficient of sqrt(2b + v)
            return 0.0 if m < 0 else math.sqrt(2.0 * b) * float(binom_half(m)) * (2.0 * b) ** -m

        for j in range(1, 7):
            h = 6.0 * b * b * root(j) + 8.0 * b * root(j - 1) + 4.0 * root(j - 2)
            assert abs(d[j - 1] - h / (j + 1.5) * gamma ** -(j + 1.5)) < 1e-12

    def test_order_bounds(self, gue_eq, gue):
        assert cramer_coefficients(gue_eq, gue, 0) == []
        with pytest.raises(ValueError):
            cramer_coefficients(gue_eq, gue, -1)
        with pytest.raises(ValueError):
            cramer_coefficients(gue_eq, gue, K_MAX_SUPPORTED + 1)

    def test_mismatched_field_raises(self, gue_eq, quartic):
        with pytest.raises(ValueError, match="solved for the field"):
            cramer_coefficients(gue_eq, quartic, 2)

    def test_edge_gate_prints_plain_floats(self, gue_eq, gue):
        with pytest.raises(NumericalError, match="edge-coefficient gate") as info:
            cramer_coefficients(dataclasses.replace(gue_eq, gamma=2.0), gue, 2)
        assert "np." not in str(info.value)


class TestTailModel:
    def test_fields(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20, k=2)
        assert m.N == 20
        assert len(m.cramer) == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.N = 30

    def test_default_order(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 10)
        assert len(m.cramer) == K_MAX_SUPPORTED


class TestLogF:
    def test_reference_value(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20)
        assert log_f_approx(m, 2.5) == pytest.approx(-15.82411744189002, rel=1e-12)
        assert f_approx(m, 2.5) == pytest.approx(1.3417546652641363e-07, rel=1e-12)

    def test_formula_assembly(self, gue_eq, gue):
        # log f = log((b-a)/8pi) - N eta - log(N (t-b)(t-a) eta')
        m = build_tail_model(gue_eq, gue, 35)
        t = 2.9
        expected = (math.log(4.0 / (8.0 * math.pi)) - 35.0 * eta(gue_eq, gue, t)
                    - math.log(35.0 * (t - 2.0) * (t + 2.0)
                               * eta_prime(gue_eq, gue, t)))
        assert log_f_approx(m, t) == pytest.approx(expected, rel=1e-12)

    def test_below_edge_rejected(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20)
        with pytest.raises(ValueError):
            log_f_approx(m, gue_eq.b)

    def test_underflow_marker(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 100)
        assert log_f_approx(m, 5.0) < LOG_UNDERFLOW
        assert f_approx(m, 5.0) is None

    def test_array_rejects_any_point_at_or_below_edge(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20)
        with pytest.raises(ValueError, match=r"^tail approximation needs t > b = 2\.0, got 1\.5$"):
            log_f_approx(m, np.array([2.5, 1.5, 2.0]))

    def test_raises_where_the_table_has_an_error_row(self, gue_eq, gue):
        # log F is -inf at 1e153 and nan at 1e200 and nan: tail_terms
        # reports these thresholds as errors, and so do log_f_approx and
        # f_approx, for a scalar and at the first failing entry of an array
        m = build_tail_model(gue_eq, gue, 10)
        for t in (1e153, 1e200, math.nan):
            message = f"^{re.escape(str(tail_terms(m, [t])[3][0]))}$"
            for fn, arg in ((log_f_approx, t), (f_approx, t),
                            (log_f_approx, np.array([[2.5, t], [1.5, 1e153]]))):
                with pytest.raises(NumericalError, match=message):
                    fn(m, arg)


class TestTailTerms:
    def test_entries_match_scalar_functions(self, quartic_eq, quartic):
        m = build_tail_model(quartic_eq, quartic, 50)
        ts = quartic_eq.b + np.array([1e-6, 0.3, 2.0])
        log_f, eta_ts, eta_prime_ts, errors = tail_terms(m, ts)
        assert errors == {}
        for t, lf, e, ep in zip(ts.tolist(), log_f, eta_ts, eta_prime_ts):
            assert (lf, e, ep) == (log_f_approx(m, t), eta(quartic_eq, quartic, t),
                                   eta_prime(quartic_eq, quartic, t))
            assert all(type(v) is float for v in (lf, e, ep))

    def test_each_threshold_fails_alone(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 10)
        log_f, eta_ts, eta_prime_ts, errors = tail_terms(
            m, [-math.inf, 1.0, 2.5, 1e12, math.inf, math.nan])
        assert sorted(errors) == [0, 1, 4, 5]
        assert [type(errors[i]) for i in (0, 1, 4, 5)] == [ValueError, ValueError,
                                                           NumericalError, NumericalError]
        assert str(errors[1]) == "tail approximation needs t > b = 2.0, got 1.0"
        assert all(math.isfinite(v[3]) for v in (log_f, eta_ts, eta_prime_ts))
        assert eta_ts[3] == pytest.approx(5e23, rel=1e-14)
        assert "at t = inf:" in str(errors[4]) and "at t = nan:" in str(errors[5])


class TestScalingMap:
    def test_round_trip(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20)
        t = rescale(m, 2.0)
        s = (t - gue_eq.b) * gue_eq.gamma * 20.0 ** (2.0 / 3.0)
        assert s == pytest.approx(2.0, rel=1e-13)
        with pytest.raises(ValueError):
            rescale(m, -0.5)

    def test_eta_tilde_leading_term(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 50)
        for s in (0.5, 2.0, 7.0):
            assert eta_tilde(m, s, 0) == pytest.approx((4.0 / 3.0) * s**1.5,
                                                       rel=1e-14)

    def test_eta_tilde_converges_to_rate(self, gue_eq, gue):
        # truncations approach N eta(t(s)) as the order grows
        m = build_tail_model(gue_eq, gue, 1000)
        t = rescale(m, 1.0)
        exact = 1000.0 * eta(gue_eq, gue, t)
        assert eta_tilde(m, 1.0, 6) == pytest.approx(exact, abs=1e-9)
        errs = [abs(eta_tilde(m, 1.0, k) - exact) for k in range(3)]
        assert errs[1] < errs[0] and errs[2] < errs[1]

    def test_eta_tilde_order_bounds(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 20, k=2)
        with pytest.raises(ValueError):
            eta_tilde(m, 1.0, 3)  # beyond the model's truncation order
        with pytest.raises(ValueError):
            eta_tilde(m, 1.0, -1)


class TestAsymptotics:
    def test_tw_tail_value(self):
        expected = math.exp(-4.0 / 3.0) / (16.0 * math.pi)
        assert tw_tail_asymptotic(1.0) == pytest.approx(expected, rel=1e-14)

    def test_moderate_leading_consistency(self, gue_eq, gue):
        m = build_tail_model(gue_eq, gue, 40)
        for s, k in ((1.5, 0), (3.0, 2)):
            expected = math.exp(-eta_tilde(m, s, k)) / (16.0 * math.pi * s**1.5)
            assert moderate_leading(m, s, k) == pytest.approx(expected, rel=1e-13)
        # order 0 ignores the field-specific corrections entirely
        assert moderate_leading(m, 2.0, 0) == pytest.approx(
            tw_tail_asymptotic(2.0), rel=1e-13)
        with pytest.raises(ValueError):
            moderate_leading(m, 0.0, 0)

    def test_f_collapses_to_tw_tail(self, gue_eq, gue):
        # at fixed s the relative gap closes like N^(-2/3)
        for N, tol in ((10**3, 0.05), (10**5, 0.01)):
            m = build_tail_model(gue_eq, gue, N)
            ratio = f_approx(m, rescale(m, 2.0)) / tw_tail_asymptotic(2.0)
            assert abs(ratio - 1.0) < tol


class TestRegimes:
    def test_alpha_thresholds(self):
        for k in range(K_MAX_SUPPORTED + 1):
            assert alpha_threshold(k) == pytest.approx(
                2.0 / 3.0 - 2.0 / (2 * k + 5), rel=1e-15)
        assert alpha_threshold(0) == pytest.approx(4.0 / 15.0, rel=1e-15)

    def test_classification(self):
        for s, N, label in [(3.0, 100, "tracy-widom"), (8.0, 10, "tracy-widom"),
                            (10.0, 10**6, "moderate(0)"), (50.0, 10**6, "moderate(1)"),
                            (10.0, 50, "large"), (2000.0, 10**6, "large"),
                            (-1.0, 10**6, "tracy-widom")]:
            assert regime_labels(np.array([s]), N) == [label]

    def test_order_never_decreases_with_s(self):
        labels = regime_labels(np.geomspace(8.1, 5000.0, 40), 10**6)
        order = [math.inf if label == "large" else int(label[len("moderate("):-1])
                 for label in labels]
        assert order == sorted(order)

    @pytest.mark.parametrize("N", [1, 10, 400, 5120, 10**6])
    def test_array_labels_at_the_bounds(self, N):
        # s = 8 and s = 0.5 N^{alpha_k}, each exactly and 1 ulp either side
        bounds = [TW_CUTOFF] + [MODERATE_MARGIN * N ** alpha_threshold(k)
                                for k in range(K_MAX_SUPPORTED + 1)]
        s = sorted({float(x) for b in bounds
                    for x in (np.nextafter(b, -math.inf), b, np.nextafter(b, math.inf))})
        labels = regime_labels(np.array(s), N)
        assert labels == [_seed_rule_label(x, N) for x in s]
        if N == 10**6:
            assert {"tracy-widom", "large"} | {f"moderate({k})" for k in range(7)} == set(labels)


def _seed_rule_label(s, N):
    """The regime rule as a loop, independent of the library's bounds:
    s <= 8 is the limiting law, else the least k with s <= 0.5 N^{alpha_k}
    is moderate(k), else large."""
    if s <= 8.0:
        return "tracy-widom"
    for k in range(7):
        if s <= 0.5 * N ** (2.0 / 3.0 - 2.0 / (2 * k + 5)):
            return f"moderate({k})"
    return "large"
