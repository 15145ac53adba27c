"""Support solver, density data, rate integral, effective potential, and
the energy of the solved measure against perturbed ones."""

import math
import re
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from loggas import (EquilibriumData, NumericalError, Potential, SolverError,
                    build_tail_model, cramer_coefficients, density,
                    effective_potential, eta, eta_prime, g_factor, log_f_approx,
                    solve_mrs)
from loggas import equilibrium

# GUE, quartic, sextic and asymmetric quartic: the benchmark's four fields
FIELDS = {
    "gue": (0.0, 0.0, 0.5),
    "quartic": (0.0, 0.0, 0.0, 0.0, 1.0),
    "sextic": (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1),
    "asymmetric": (0.0, 0.5, 0.5, 0.2, 0.25),
}


# x^2/2 - x^4/50 + x^6/10^4: the one-cut solution on [-2.5015, 2.5015]
# has G > 0 there, but L - ell = -60.81 in the far wells at x = +-10.938
FAR_WELLS = (0.0, 0.0, 0.5, 0.0, -0.02, 0.0, 1e-4)
DIP = re.compile(r"L - ell = ([-+\d.e]+) at x = ([-+\d.e]+), "
                 r"off the support \[([-+\d.e]+), ([-+\d.e]+)\]")


def discrete_measure(eq, V, n=512):
    # (nodes, weights) of the equilibrium measure on n Gauss-Chebyshev
    # nodes: the plain-quadrature weights times the density, exact for
    # the polynomial G, so they sum to 1 up to roundoff
    c, r = 0.5 * (eq.a + eq.b), 0.5 * (eq.b - eq.a)
    theta = (2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n)
    y = c + r * np.cos(theta)
    w = (np.pi / n) * r * np.sin(theta) * density(eq, V, y)
    order = np.argsort(y)
    return y[order], w[order]


def energy(V, x, w):
    # the double sum of log 1/|x_i - x_j| over distinct pairs, plus the
    # mean of V: the discretized energy of the atoms x with weights w
    diff = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(diff, 1.0)  # log 1 = 0 leaves the diagonal out
    return -float(w @ np.log(diff) @ w) + float(np.dot(w, V.eval(x, 0)))


def eta_quadratic(x):
    # antiderivative of sqrt(u^2 - 4) from 2 to x, for V = x^2/2
    r = math.sqrt(x * x - 4.0)
    return 0.5 * x * r - 2.0 * math.log(0.5 * (x + r))


class TestSolveMRS:
    def test_gue_endpoints(self, gue_eq):
        assert gue_eq.a == pytest.approx(-2.0, abs=1e-12)
        assert gue_eq.b == pytest.approx(2.0, abs=1e-12)
        # the endpoint equations are exact polynomial identities here
        assert gue_eq.residuals == (0.0, 0.0)

    def test_gue_constants(self, gue_eq):
        assert gue_eq.gamma == pytest.approx(1.0, abs=1e-12)
        # ell = V - 2 int log|x-t| dmu on the support; 1 exactly here
        assert gue_eq.ell == pytest.approx(1.0, abs=1e-10)

    def test_gue_ell_exact(self, gue_eq):
        # the density's cosine coefficients are exact, so no roundoff is left
        assert gue_eq.ell == 1.0

    def test_quartic_endpoints(self, quartic_eq):
        b = (4.0 / 3.0) ** 0.25
        assert quartic_eq.b == pytest.approx(b, abs=1e-10)
        assert quartic_eq.a == pytest.approx(-b, abs=1e-10)

    def test_quartic_gamma_closed_form(self, quartic_eq):
        # G(b) = 6 b^2, so gamma^(3/2) = sqrt(2b) G(b) / 2 = 3 sqrt(2) b^(5/2)
        b = (4.0 / 3.0) ** 0.25
        assert abs(quartic_eq.gamma - (3.0 * math.sqrt(2.0) * b**2.5) ** (2.0 / 3.0)) < 1e-15

    def test_translation_equivariance(self, gue_eq):
        rng = np.random.default_rng(7)
        for _ in range(5):
            m = float(rng.uniform(-3.0, 3.0))
            # (x - m)^2 / 2 in the monomial basis
            V = Potential((0.5 * m * m, -m, 0.5))
            eq = solve_mrs(V)
            assert eq.a == pytest.approx(gue_eq.a + m, abs=1e-9)
            assert eq.b == pytest.approx(gue_eq.b + m, abs=1e-9)
            assert eq.gamma == pytest.approx(gue_eq.gamma, abs=1e-9)
            assert eq.ell == pytest.approx(gue_eq.ell, abs=1e-9)

    def test_quadratic_family(self):
        # V = tau x^2/2 supports [-2/sqrt(tau), 2/sqrt(tau)]
        for tau in (0.5, 1.0, 4.0):
            eq = solve_mrs(Potential((0.0, 0.0, 0.5 * tau)))
            assert eq.b == pytest.approx(2.0 / math.sqrt(tau), abs=1e-10)
            assert eq.a == pytest.approx(-eq.b, abs=1e-10)

    def test_iteration_cap(self, quartic, monkeypatch):
        monkeypatch.setattr(equilibrium, "MAX_NEWTON_ITER", 1)
        with pytest.raises(SolverError, match="after 1 iterations") as info:
            solve_mrs(quartic)
        assert info.value.iterations == 1
        assert info.value.last_iterate is not None
        assert info.value.residuals is not None

    def test_no_root_for_odd_field(self):
        with pytest.raises(SolverError):
            solve_mrs(Potential((0.0, 0.0, 0.0, 1.0)))

    def test_two_cut_field_raises(self):
        # x^4 - 4x^2 and x^4 - 3x^2 are double wells: the one-cut G is
        # negative at 0
        for a2 in (-4.0, -3.0):
            with pytest.raises(NumericalError, match="density factor G"):
                solve_mrs(Potential((0.0, 0.0, a2, 0.0, 1.0)))

    def test_deterministic(self, gue):
        e1, e2 = solve_mrs(gue), solve_mrs(gue)
        assert (e1.a, e1.b, e1.gamma, e1.ell) == (e2.a, e2.b, e2.gamma, e2.ell)


class TestAdmissibility:
    """solve_mrs checks one-cut regularity exactly: growth at infinity
    before the Newton loop, G > 0 on [a, b], and L > ell at the real
    roots of G off [a, b], where L - ell has its minima."""

    @staticmethod
    def scan(V, a, b):
        """Minimum of L - ell on a grid of 4,000 points out to 10 (b - a)
        off [a, b], refined on 2,001 points around the least one."""
        eq = EquilibriumData(a=a, b=b, gamma=math.nan, ell=math.nan, g_coeffs=(),
                             residuals=(), coeffs=V.coeffs)
        ell = effective_potential(eq, V, 0.5 * (a + b))
        h = 10.0 * (b - a) / 2000
        u = h * np.arange(1, 2001)
        x = np.concatenate([a - u, b + u])
        x0 = x[np.argmin(effective_potential(eq, V, x))]
        x = np.linspace(x0 - h, x0 + h, 2001)
        x = x[(x < a) | (x > b)]
        excess = effective_potential(eq, V, x) - ell
        i = np.argmin(excess)
        return excess[i], x[i]

    @pytest.mark.parametrize("coeffs, wells, depth", [
        (FAR_WELLS, (-10.938, 10.938), 60.81),
        # tilted: the deeper well lies left of a
        ((0.0, 0.0, 0.5, 0.0, -0.02, 4e-5, 1e-4), (-11.127,), 67.35),
    ])
    def test_dip_off_the_support_raises(self, coeffs, wells, depth):
        V = Potential(coeffs)
        with pytest.raises(NumericalError, match="not one-cut") as info:
            solve_mrs(V)
        dip, x, a, b = map(float, DIP.search(str(info.value)).groups())
        assert min(abs(x - well) for well in wells) < 1e-3
        assert dip == pytest.approx(-depth, abs=0.01)
        assert not a <= x <= b
        # the reported dip is the minimum of L - ell off the support
        scan_dip, scan_x = self.scan(V, a, b)
        assert scan_dip >= dip - 1e-9 * abs(dip)
        assert scan_dip == pytest.approx(dip, rel=1e-6)
        assert abs(scan_x) == pytest.approx(abs(x), abs=1e-3)

    @pytest.mark.parametrize("coeffs", [
        *FIELDS.values(),
        (0.0, 0.0, 0.25), (100.0, 0.0, 0.5), (0.5, -1.0, 0.5),
        # not convex, but its far wells at x = +-5.138 sit 0.438 above ell
        (0.0, 0.0, 0.5, 0.0, -0.02, 0.0, 2.85e-4),
    ])
    def test_one_cut_fields_pass(self, coeffs):
        V = Potential(coeffs)
        eq = solve_mrs(V)
        assert self.scan(V, eq.a, eq.b)[0] > -1e-12 * (1.0 + abs(eq.ell))

    @pytest.mark.parametrize("coeffs", [
        (0.0, 0.0, 0.0, 1.0), (0.0, 1.0), (5.0,), (0.0, 0.0, -0.5), (0.0, 0.0, 0.0, 0.0, -1.0),
    ], ids=["x^3", "x", "constant", "-x^2/2", "-x^4"])
    def test_no_growth_raises_before_newton(self, coeffs):
        V = Potential(coeffs)
        start = time.perf_counter()
        with pytest.raises(SolverError, match="does not grow at infinity"):
            solve_mrs(V)
        assert time.perf_counter() - start < 0.01


class TestDensity:
    def test_quadratic_g_is_constant(self, gue_eq, gue):
        x = np.linspace(-2.0, 2.0, 41)
        assert np.max(np.abs(g_factor(gue_eq, gue, x) - 1.0)) < 1e-12

    def test_semicircle_density(self, gue_eq, gue):
        x = np.linspace(-1.9, 1.9, 21)
        rho = np.sqrt(4.0 - x * x) / (2.0 * math.pi)
        assert np.max(np.abs(density(gue_eq, gue, x) - rho)) < 1e-12

    def test_scalar_input(self, gue_eq, gue):
        assert density(gue_eq, gue, 0.0) == pytest.approx(1.0 / math.pi, abs=1e-14)
        assert np.ndim(g_factor(gue_eq, gue, 0.0)) == 0

    def test_quartic_g_closed_form(self, quartic_eq, quartic):
        b = quartic_eq.b
        x = np.linspace(quartic_eq.a, b, 41)
        exact = 4.0 * x * x + 2.0 * b * b
        assert np.max(np.abs(g_factor(quartic_eq, quartic, x) - exact)) < 1e-13

    def test_quartic_density_positive(self, quartic_eq, quartic):
        x = np.linspace(quartic_eq.a + 1e-3, quartic_eq.b - 1e-3, 33)
        assert (density(quartic_eq, quartic, x) > 0.0).all()


class TestEta:
    def test_matches_closed_form(self, gue_eq, gue):
        rng = np.random.default_rng(11)
        for x in 2.0 + rng.uniform(0.05, 6.0, size=8):
            x = float(x)
            assert eta(gue_eq, gue, x) == pytest.approx(eta_quadratic(x), abs=1e-9)

    def test_reference_points(self, gue_eq, gue):
        assert eta(gue_eq, gue, 3.0) == pytest.approx(1.4292546660112708, abs=1e-10)
        assert eta(gue_eq, gue, 2.5) == pytest.approx(1.875 - 2.0 * math.log(2.0), abs=1e-10)

    def test_vanishes_at_edge(self, gue_eq, gue):
        assert eta(gue_eq, gue, gue_eq.b) == 0.0

    def test_domain_errors(self, gue_eq, gue):
        with pytest.raises(ValueError):
            eta(gue_eq, gue, 1.0)
        with pytest.raises(ValueError):
            eta_prime(gue_eq, gue, gue_eq.b)

    def test_derivative_consistency(self, gue_eq, gue):
        for x in (2.3, 3.1, 4.7):
            h = 1e-5
            fd = (eta(gue_eq, gue, x + h) - eta(gue_eq, gue, x - h)) / (2.0 * h)
            assert eta_prime(gue_eq, gue, x) == pytest.approx(fd, rel=1e-8)
        assert eta_prime(gue_eq, gue, 3.0) == pytest.approx(math.sqrt(5.0), abs=1e-12)

    def test_monotone_increasing(self, quartic_eq, quartic):
        xs = quartic_eq.b + np.array([0.1, 0.5, 1.0, 2.0, 4.0])
        vals = [eta(quartic_eq, quartic, float(x)) for x in xs]
        assert all(u < v for u, v in zip(vals, vals[1:]))

    @pytest.mark.parametrize("coeffs", FIELDS.values(), ids=FIELDS.keys())
    def test_edge_matches_cramer_series(self, coeffs):
        # eta(b + v) = sum_m c_m v^{m+3/2}, c_m = d_m gamma^{m+3/2}, d_0 = 4/3;
        # the first term left out is below 1e-25 of the sum here
        V = Potential(coeffs)
        eq = solve_mrs(V)
        d = np.array([4.0 / 3.0] + cramer_coefficients(eq, V, 6))
        c = d * eq.gamma ** (np.arange(7) + 1.5)
        x = eq.b + np.geomspace(1e-12, 1e-4, 40)
        v = x - eq.b        # the offset x really carries
        series = sum(c[m] * v ** (m + 1.5) for m in range(7))
        assert np.max(np.abs(eta(eq, V, x) / series - 1.0)) < 1e-13

    @pytest.mark.parametrize("coeffs", FIELDS.values(), ids=FIELDS.keys())
    def test_matches_effective_potential(self, coeffs):
        V = Potential(coeffs)
        eq = solve_mrs(V)
        x = eq.b + np.geomspace(0.1, 100.0, 40)
        excess = effective_potential(eq, V, x) - eq.ell
        assert np.max(np.abs(eta(eq, V, x) / excess - 1.0)) < 1e-13

    def test_gue_closed_form_to_1e12(self, gue_eq, gue):
        # the closed form cancels two terms of size x sqrt(x^2 - 4) / 2 near
        # the edge, so its own rounding is relative to that size
        for x in np.geomspace(2.01, 1e12, 60).tolist():
            lead = 0.5 * x * math.sqrt(x * x - 4.0)
            assert abs(eta(gue_eq, gue, x) - (lead - 2.0 * math.acosh(0.5 * x))) <= 1e-14 * lead

    @pytest.mark.parametrize("coeffs", FIELDS.values(), ids=FIELDS.keys())
    def test_array_equals_scalar(self, coeffs):
        V = Potential(coeffs)
        eq = solve_mrs(V)
        model = build_tail_model(eq, V, 40)
        xs = eq.b + np.geomspace(1e-9, 1e3, 37)
        # across both support edges: inside, at and outside
        across = np.append(np.linspace(eq.a - 1.0, eq.b + 1.0, 36), eq.b)
        for fn, args, points in ((eta, (eq, V), xs), (eta_prime, (eq, V), xs),
                                 (log_f_approx, (model,), xs), (density, (eq, V), across),
                                 (effective_potential, (eq, V), across)):
            batch = fn(*args, points)
            assert batch.shape == points.shape
            assert [fn(*args, x) for x in points.tolist()] == batch.tolist(), fn.__name__

    def test_cost_does_not_grow_with_x(self, gue_eq, gue):
        tracemalloc.start()
        try:
            value = eta(gue_eq, gue, 1e12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(5e23, rel=1e-14)
        assert peak < 1_000_000

    def test_slope_past_the_product_overflow(self, gue_eq, gue, quartic_eq, quartic):
        # (x-b)(x-a) overflows from about 1.3e154, eta'(x) = sqrt(x^2 - 4)
        # does not; x^2 - 4 rounds to x^2 there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1.4e154, 1e155, 1e200, 1e300):
                assert eta_prime(gue_eq, gue, x) == pytest.approx(x, rel=4e-16)
                assert eta_prime(quartic_eq, quartic, x) == math.inf
        # ordinary points keep the bits of the square root of the product
        for eq, V in ((gue_eq, gue), (quartic_eq, quartic)):
            x = eq.b + np.geomspace(1e-12, 1e150, 60)
            with np.errstate(over="ignore"):     # the quartic's slope overflows
                product = np.sqrt((x - eq.b) * (x - eq.a)) * g_factor(eq, V, x)
            assert eta_prime(eq, V, x).tolist() == product.tolist()

    def test_array_domain_error_names_the_point(self, gue_eq, gue):
        with pytest.raises(ValueError, match="got 1.5"):
            eta(gue_eq, gue, np.array([2.5, 1.5, 3.0]))
        with pytest.raises(ValueError, match="got 2.0"):
            eta_prime(gue_eq, gue, np.array([2.5, 2.0]))

    def test_overflow_is_silent_and_not_finite(self, gue_eq, gue):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # eta(1e200) = 5e399 is past the double range
            values = eta(gue_eq, gue, np.array([1e200, math.inf, math.nan]))
            slopes = eta_prime(gue_eq, gue, np.array([math.inf, math.nan]))
        assert not np.isfinite(values).any()
        assert not np.isfinite(slopes).any()

    @pytest.mark.parametrize("coeffs", FIELDS.values(), ids=FIELDS.keys())
    def test_overflow_is_plus_infinity(self, coeffs):
        # past the double range eta and eta' are +inf, x = inf included
        # (eta is 5e307 at GUE x = 1e154 and past the range from 1e155 on
        # every field); only a nan x gives nan
        V = Potential(coeffs)
        eq = solve_mrs(V)
        x = np.array([1e154, 1e155, 1e200, 1e300, math.inf, math.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for fn in (eta, eta_prime):
                values = fn(eq, V, x)
                assert np.isnan(values).tolist() == [False] * 5 + [True], fn.__name__
                assert (values[:5] > 0.0).all() and values[4] == math.inf, fn.__name__
                assert [fn(eq, V, xi) for xi in x[:5].tolist()] == values[:5].tolist()
            assert eta(eq, V, x[1:5]).tolist() == [math.inf] * 4


class TestEffectivePotential:
    def test_constant_inside_support(self, gue_eq, gue):
        x = np.linspace(-1.8, 1.8, 50)
        L = effective_potential(gue_eq, gue, x)
        assert float(np.std(L)) < 1e-12
        assert float(np.mean(L)) == pytest.approx(gue_eq.ell, abs=1e-10)

    def test_exceeds_level_outside(self, quartic_eq, quartic):
        b = quartic_eq.b
        for x in (b + 0.5, b + 1.5, b + 3.0):
            gap = float(effective_potential(quartic_eq, quartic, x)) - quartic_eq.ell
            assert gap > 0.0
            # outside the support the excess is exactly the rate function
            assert gap == pytest.approx(eta(quartic_eq, quartic, x), abs=1e-10)


class TestFieldGuard:
    # eq solved for the GUE field, V the quartic one: every (eq, V)
    # function refuses the pair instead of answering for the GUE
    @pytest.mark.parametrize("fn, x", [(g_factor, 1.0), (density, 1.0), (eta, 3.0),
                                       (eta_prime, 3.0), (effective_potential, 3.0)],
                             ids=["g_factor", "density", "eta", "eta_prime",
                                  "effective_potential"])
    def test_mismatched_field_raises(self, gue_eq, gue, quartic, fn, x):
        fn(gue_eq, gue, x)
        with pytest.raises(ValueError, match="solved for the field"):
            fn(gue_eq, quartic, x)

    def test_eq_keeps_solved_coeffs(self, gue_eq, gue):
        assert gue_eq.coeffs == gue.coeffs
        # equal coefficients in a new Potential pass the check
        assert eta(gue_eq, Potential((0.0, 0.0, 0.5, 0.0)), 3.0) == eta(gue_eq, gue, 3.0)


class TestDiscreteMeasure:
    def test_nodes_inside_support(self, gue_eq, gue):
        # unit mass checks the normalization of density
        x, w = discrete_measure(gue_eq, gue)
        assert len(x) == 512
        assert x[0] > gue_eq.a and x[-1] < gue_eq.b
        assert math.fsum(w) == pytest.approx(1.0, abs=1e-12)

    def test_second_moment(self, gue_eq, gue):
        # semicircle on [-2, 2] has unit second moment
        x, w = discrete_measure(gue_eq, gue)
        assert float(w @ (x * x)) == pytest.approx(1.0, abs=1e-10)


class TestEnergy:
    def test_two_atom_value(self, gue):
        # the helper's value on a hand case, since the tests below rest on it
        expected = -0.5 * math.log(2.0) + 0.5  # pair term + field term
        value = energy(gue, np.array([-1.0, 1.0]), np.array([0.5, 0.5]))
        assert value == pytest.approx(expected, abs=1e-15)

    def test_equilibrium_minimizes(self, gue_eq, gue):
        x, w = discrete_measure(gue_eq, gue, n=256)
        base = energy(gue, x, w)
        assert base < energy(gue, 1.3 * x, w)    # stretched
        assert base < energy(gue, x + 0.5, w)    # shifted

    def test_refinement_approaches_limit(self, gue_eq, gue):
        # the quadratic-field minimum value is 3/4
        vals = [energy(gue, *discrete_measure(gue_eq, gue, n=n))
                for n in (64, 128, 256, 512)]
        diffs = np.diff(vals)
        assert (diffs > 0.0).all()
        assert all(abs(d2) < abs(d1) for d1, d2 in zip(diffs, diffs[1:]))
        assert abs(vals[-1] - 0.75) < 0.02
