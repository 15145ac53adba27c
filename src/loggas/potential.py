"""Polynomial external fields and their JSON form.

A field V enters every downstream formula only through its values and
first two derivatives, so potentials are stored as plain polynomial
coefficients and evaluated exactly.  Admissibility (growth at infinity
and a one-cut regular equilibrium measure) is checked exactly by
equilibrium.solve_mrs, not here.
"""

import json
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly


@dataclass(frozen=True)
class Potential:
    """Polynomial field V(x) = sum_k coeffs[k] * x**k.

    Parameters
    ----------
    coeffs : sequence of float
        Polynomial coefficients in ascending degree.  Trailing zeros are
        stripped so ``degree`` is meaningful.
    asserts_ga_infinity : bool
        Caller's assertion that V admits the required analytic growth
        extension off the real axis.  Recorded, read from the JSON
        "ga_infinity" key; no computation uses it.
    """

    coeffs: tuple
    asserts_ga_infinity: bool = False

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

    def __call__(self, x):
        return self.eval(x, 0)

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


def potential_from_json(source):
    """Build a Potential from a JSON object {"coeffs": [...], "ga_infinity": bool}.

    Accepts a dict, a JSON string, or anything json.loads handles.
    """
    if isinstance(source, (str, bytes)):
        obj = json.loads(source)
    else:
        obj = source
    if not isinstance(obj, dict):
        raise ValueError("potential entry must be a JSON object")
    if "coeffs" not in obj:
        raise ValueError('potential entry needs a "coeffs" array')
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, (list, tuple)) or not coeffs:
        raise ValueError('"coeffs" must be a non-empty array of numbers')
    try:
        coeffs = tuple(json_float(v) for v in coeffs)
    except (TypeError, ValueError):
        raise ValueError('"coeffs" must contain only numbers') from None
    ga = obj.get("ga_infinity", False)
    if not isinstance(ga, bool):
        raise ValueError('"ga_infinity" must be a boolean')
    return Potential(coeffs, asserts_ga_infinity=ga)
