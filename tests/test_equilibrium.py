"""Support solver, density data, rate integral, effective potential, energy."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from loggas import (DiscreteMeasure, NumericalError, Potential, SolverError,
                    build_tail_model, cramer_coefficients, density,
                    effective_potential, energy, equilibrium_measure, eta,
                    eta_prime, g_factor, log_f_approx, solve_mrs)

# GUE, quartic, sextic and asymmetric quartic: the benchmark's four fields
FIELDS = {
    "gue": (0.0, 0.0, 0.5),
    "quartic": (0.0, 0.0, 0.0, 0.0, 1.0),
    "sextic": (0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1),
    "asymmetric": (0.0, 0.5, 0.5, 0.2, 0.25),
}


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

    def test_iteration_cap(self, quartic):
        with pytest.raises(SolverError) as info:
            solve_mrs(quartic, max_iter=1)
        assert info.value.iterations == 1
        assert info.value.last_iterate is not None
        assert info.value.residuals is not None

    def test_no_root_for_odd_field(self):
        with pytest.raises(SolverError):
            solve_mrs(Potential((0.0, 0.0, 0.0, 1.0)))

    def test_two_cut_field_raises(self):
        # x^4 - 4x^2 is a double well: the one-cut G is negative at 0
        with pytest.raises(NumericalError):
            solve_mrs(Potential((0.0, 0.0, -4.0, 0.0, 1.0)))

    def test_deterministic(self, gue):
        e1, e2 = solve_mrs(gue), solve_mrs(gue)
        assert (e1.a, e1.b, e1.gamma, e1.ell) == (e2.a, e2.b, e2.gamma, e2.ell)


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
        for fn, args in ((eta, (eq, V)), (eta_prime, (eq, V)), (log_f_approx, (model,))):
            batch = fn(*args, xs)
            assert batch.shape == xs.shape
            assert [fn(*args, x) for x in xs.tolist()] == batch.tolist(), fn.__name__

    def test_cost_does_not_grow_with_x(self, gue_eq, gue):
        tracemalloc.start()
        try:
            value = eta(gue_eq, gue, 1e12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == pytest.approx(5e23, rel=1e-14)
        assert peak < 1_000_000

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
    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteMeasure((1.0, 0.5), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0, 1.0), (0.6, 0.6))
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0, 1.0), (-0.1, 1.1))
        with pytest.raises(ValueError):
            DiscreteMeasure((0.0, 1.0), (1.0,))

    def test_nodes_inside_support(self, gue_eq, gue):
        mu = equilibrium_measure(gue_eq, gue)
        assert len(mu.nodes) == 512
        assert mu.nodes[0] > gue_eq.a and mu.nodes[-1] < gue_eq.b
        assert math.fsum(mu.weights) == pytest.approx(1.0, abs=1e-12)

    def test_second_moment(self, gue_eq, gue):
        # semicircle on [-2, 2] has unit second moment
        mu = equilibrium_measure(gue_eq, gue)
        x = np.asarray(mu.nodes)
        w = np.asarray(mu.weights)
        assert float(w @ (x * x)) == pytest.approx(1.0, abs=1e-10)


class TestEnergy:
    def test_two_atom_value(self, gue):
        mu = DiscreteMeasure((-1.0, 1.0), (0.5, 0.5))
        expected = -0.5 * math.log(2.0) + 0.5  # pair term + field term
        assert energy(gue, mu) == pytest.approx(expected, abs=1e-15)

    def test_equilibrium_minimizes(self, gue_eq, gue):
        mu = equilibrium_measure(gue_eq, gue, n=256)
        base = energy(gue, mu)
        stretched = DiscreteMeasure(tuple(1.3 * x for x in mu.nodes), mu.weights)
        shifted = DiscreteMeasure(tuple(x + 0.5 for x in mu.nodes), mu.weights)
        assert base < energy(gue, stretched)
        assert base < energy(gue, shifted)

    def test_refinement_approaches_limit(self, gue_eq, gue):
        # the quadratic-field minimum value is 3/4
        vals = [energy(gue, equilibrium_measure(gue_eq, gue, n=n))
                for n in (64, 128, 256, 512)]
        diffs = np.diff(vals)
        assert (diffs > 0.0).all()
        assert all(abs(d2) < abs(d1) for d1, d2 in zip(diffs, diffs[1:]))
        assert abs(vals[-1] - 0.75) < 0.02
