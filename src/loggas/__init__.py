"""Equilibrium measures and precise upper-tail deviation estimates for
log-gases with polynomial fields, validated against an exact
orthogonal-polynomial Fredholm oracle.

The public names are resolved lazily (PEP 562): `import loggas` loads
no submodule, and the first lookup of a name, `loggas.build_basis` or
`from loggas import build_basis`, imports the one submodule that
defines it and keeps the name here.  So a `loggas tail` run never
compiles the Fredholm oracle, which only `compare` uses.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines; the one list of them
_EXPORTS = {
    "errors": ("NumericalError", "SolverError"),
    "potential": ("Potential", "potential_from_json"),
    "equilibrium": ("EquilibriumData", "density", "effective_potential", "eta",
                    "eta_prime", "g_factor", "solve_mrs"),
    "tails": ("Regime", "TailModel", "alpha_threshold", "build_tail_model",
              "cramer_coefficients", "eta_tilde", "f_approx", "log_f_approx",
              "moderate_leading", "regime_classify", "rescale", "tail_terms",
              "tw_tail_asymptotic"),
    "kernel_oracle": ("GapResult", "OrthoBasis", "brute_force_survival", "build_basis",
                      "gap_probabilities", "gap_probability", "gram", "hadamard_check",
                      "tail_trace"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
