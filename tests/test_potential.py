"""Field construction, evaluation, JSON round-trips."""

import dataclasses
import math

import numpy as np
import pytest

from loggas import Potential, potential_from_json


def test_trailing_zeros_stripped():
    V = Potential((1.0, 2.0, 0.0, 0.0))
    assert V.coeffs == (1.0, 2.0)
    assert V.degree == 1
    assert V.leading_coefficient == 2.0


def test_zero_polynomial_keeps_one_coefficient():
    V = Potential((0.0, 0.0))
    assert V.coeffs == (0.0,)
    assert V.degree == 0


def test_empty_coeffs_rejected():
    with pytest.raises(ValueError):
        Potential(())


def test_non_finite_coeffs_rejected():
    # a nan field used to give the GUE support with ell = nan, and an
    # infinite one the GUE table with status ok
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="potential coefficients must be finite"):
            Potential((bad, 0.0, 0.5))
        with pytest.raises(ValueError, match="potential coefficients must be finite"):
            Potential((0.0, 0.0, bad))


def test_frozen_and_hashable():
    V = Potential((0.0, 0.0, 0.5))
    assert V == Potential([0, 0, 0.5])
    assert hash(V) == hash(Potential((0.0, 0.0, 0.5)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        V.coeffs = (1.0,)


def test_eval_derivatives_exact():
    V = Potential((3.0, -1.0, 0.0, 2.0))  # 3 - x + 2x^3
    x = np.linspace(-2.0, 2.0, 7)
    assert np.allclose(V.eval(x, 0), 3.0 - x + 2.0 * x**3, rtol=1e-14, atol=0)
    assert np.allclose(V.eval(x, 1), -1.0 + 6.0 * x**2, rtol=1e-14, atol=0)
    assert np.allclose(V.eval(x, 2), 12.0 * x, rtol=1e-14, atol=0)


def test_eval_rejects_higher_order():
    with pytest.raises(ValueError):
        Potential((0.0, 1.0)).eval(0.0, 3)


def test_scale():
    assert Potential((0.0, 0.0, 0.5)).scale() == pytest.approx(math.sqrt(2.0))
    assert Potential((0.0, 0.0, 0.0, 0.0, 1.0)).scale() == 1.0
    assert Potential((5.0,)).scale() == 1.0  # constant: fallback


def test_json_round_trip(quartic):
    V = Potential((1.0, 0.0, -0.5, 0.0, 2.0))
    for ga in (True, False):
        assert potential_from_json({"coeffs": list(V.coeffs), "ga_infinity": ga}) == V
    assert potential_from_json({"coeffs": [0, 0, 0, 0, 1]}) == quartic


@pytest.mark.parametrize("bad", [
    42,
    {},
    {"coeffs": []},
    {"coeffs": "abc"},
    {"coeffs": [1, "x"]},
    {"coeffs": [0, 0, 0.5], "ga_infinity": "yes"},
    {"coeffs": [0, 0, True]},
    {"coeffs": [False]},
    {"coeffs": ["0", "0", "0.5"]},
    {"coeffs": [0, 0, "1e-1"]},
    # the parsed object only: a JSON string is not parsed again
    '{"coeffs": [0, 0, 0.5]}',
    b'{"coeffs": [0, 0, 0.5]}',
])
def test_json_rejects_malformed(bad):
    with pytest.raises(ValueError):
        potential_from_json(bad)
