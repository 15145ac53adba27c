"""Equilibrium measures and precise upper-tail deviation estimates for
log-gases with polynomial fields, validated against an exact
orthogonal-polynomial Fredholm oracle."""

from .errors import NumericalError, SolverError
from .potential import (Potential, ValidationReport, potential_from_json,
                        potential_to_json, validate_ga)
from .equilibrium import (DiscreteMeasure, EquilibriumData, density,
                          effective_potential, energy, equilibrium_measure,
                          eta, eta_prime, g_factor, solve_mrs)
from .tails import (DeviationStatistics, Regime, TailModel, alpha_threshold,
                    build_tail_model, cramer_coefficients,
                    deviation_statistics, eta_tilde, f_approx, log_f_approx,
                    moderate_leading, regime_classify, rescale, tail_terms,
                    tw_tail_asymptotic)
from .kernel_oracle import (GapResult, OrthoBasis, brute_force_survival,
                            build_basis, gap_probabilities, gap_probability,
                            gram, hadamard_check, kernel_diag, phi, tail_trace)

__version__ = "0.1.0"

__all__ = [
    "NumericalError", "SolverError",
    "Potential", "ValidationReport", "potential_from_json",
    "potential_to_json", "validate_ga",
    "DiscreteMeasure", "EquilibriumData", "density", "effective_potential",
    "energy", "equilibrium_measure", "eta", "eta_prime", "g_factor",
    "solve_mrs",
    "DeviationStatistics", "Regime", "TailModel", "alpha_threshold",
    "build_tail_model", "cramer_coefficients", "deviation_statistics",
    "eta_tilde", "f_approx", "log_f_approx", "moderate_leading",
    "regime_classify", "rescale", "tail_terms", "tw_tail_asymptotic",
    "GapResult", "OrthoBasis", "brute_force_survival", "build_basis",
    "gap_probabilities", "gap_probability", "gram", "hadamard_check",
    "kernel_diag", "phi", "tail_trace",
    "__version__",
]
