"""Polynomial external fields and their JSON form.

A field V enters every downstream formula only through its values and
first two derivatives, so potentials are stored as plain polynomial
coefficients and evaluated exactly.  Admissibility (growth at infinity
and a one-cut regular equilibrium measure) is checked exactly by
equilibrium.solve_mrs, not here.
"""

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import Record


class Potential(Record):
    """Polynomial field V(x) = sum_k coeffs[k] * x**k.

    Parameters
    ----------
    coeffs : sequence of float
        Polynomial coefficients in ascending degree.  Trailing zeros are
        stripped so ``degree`` is meaningful.
    """

    coeffs: tuple

    def __post_init__(self):
        c = [float(v) for v in self.coeffs]
        if not c:
            raise ValueError("potential needs at least one coefficient")
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        object.__setattr__(self, "coeffs", tuple(c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self):
        return self.coeffs[-1]

    def eval(self, x, order=0):
        """Evaluate V, V' or V'' at x (scalar or array).

        order selects the derivative: 0, 1 or 2.  Derivatives of the
        polynomial are exact, not finite differences.
        """
        if order not in (0, 1, 2):
            raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
        c = np.asarray(self.coeffs, dtype=float)
        if order:
            c = npoly.polyder(c, order)
        return npoly.polyval(x, c)

    def scale(self):
        """Characteristic length |leading coeff|^(-1/degree).

        solve_mrs starts its Newton iteration from the support
        [-2 scale, 2 scale]; 1.0 for constant or degenerate input.
        """
        if self.degree < 1 or self.leading_coefficient <= 0:
            return 1.0
        return float(self.leading_coefficient) ** (-1.0 / self.degree)


def json_float(value):
    """float(value) of one JSON number; TypeError for anything else: a
    JSON string, which float() would parse, or a JSON true or false,
    which it would read as 1.0 or 0.0."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def potential_from_json(obj):
    """Build a Potential from a parsed JSON object {"coeffs": [...],
    "ga_infinity": bool}; anything else, a JSON string or an object
    with another key included, raises ValueError.  The optional
    "ga_infinity" enters no computation."""
    if not isinstance(obj, dict):
        raise ValueError("potential entry must be a JSON object")
    unknown = [key for key in obj if key not in ("coeffs", "ga_infinity")]
    if unknown:
        raise ValueError(f"unknown potential key {unknown[0]!r}; the keys are coeffs, "
                         f"ga_infinity")
    if "coeffs" not in obj:
        raise ValueError('potential entry needs a "coeffs" array')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise ValueError('"coeffs" must be a non-empty array of numbers')
    try:
        coeffs = tuple(json_float(v) for v in coeffs)
    except (TypeError, ValueError):
        raise ValueError('"coeffs" must contain only numbers') from None
    if not isinstance(obj.get("ga_infinity", False), bool):
        raise ValueError('"ga_infinity" must be a boolean')
    return Potential(coeffs)
