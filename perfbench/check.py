"""Output checker: every CLI row, equilibrium field and det-vs-series
pair is one operation, judged against closed forms or an independent
cross-check, never against an earlier output of the program.

Each check returns, per operation, the list of failure categories it
hit (empty when the operation passed), plus integrity problems: output
that cannot be parsed or lacks expected operations.

Categories:
  status       a row whose status is not "ok"
  nonfinite    a missing or non-finite value
  json_token   a non-standard JSON token (-Infinity, NaN) in a JSON row
  grid         N or t off the requested grid (closed-form b, gamma)
  consistency  a column off the value its own documented formula gives
  closed_form  GUE eta, eta_prime, log_F or equilibrium fields off their
               closed forms
  cross_check  non-GUE eta off effective_potential - ell
  regime       a regime label off the documented classification
  envelope     |log_survival_oracle - log_F| beyond ENVELOPE_MULTIPLE
               gamma^(-3/2) times the row's own bound column
  series       |det - series| above the criterion-8 bound 1e-8
  missing      an expected operation absent from the output
"""

import csv
import io
import json
import math

GUE = (0.0, 0.0, 0.5)
QUARTIC = (0.0, 0.0, 0.0, 0.0, 1.0)
_QUARTIC_B = (4.0 / 3.0) ** 0.25
# closed-form support edge b, left edge a and edge constant gamma; for
# V = x^4 the density is (4x^2 + 2b^2) sqrt(b^2 - x^2) / (2 pi), so
# G(b) = 6 b^2 and gamma = (sqrt(b - a) G(b) / 2)^(2/3)
CLOSED_FORMS = {
    GUE: {"a": -2.0, "b": 2.0, "gamma": 1.0, "ell": 1.0},
    QUARTIC: {"a": -_QUARTIC_B, "b": _QUARTIC_B,
              "gamma": (3.0 * math.sqrt(2.0) * _QUARTIC_B ** 2.5) ** (2.0 / 3.0)},
}

# The relative error of f_approx is O(1/(N (t-b)^{3/2})), the bound
# column.  At the edge the constant is fixed by the Airy-kernel tail,
# 1 - F_2(s) = e^{-4/3 s^{3/2}} / (16 pi s^{3/2}) (1 - (35/24) s^{-3/2} + O(s^{-3})),
# and s^{-3/2} = gamma^{-3/2} / (N (t-b)^{3/2}).  Twice that leading
# constant leaves room for the O(s^{-3}) remainder and the finite-N
# large-deviation terms over the benchmark's thresholds (t - b < 2.5).
AIRY_CORRECTION = 35.0 / 24.0
ENVELOPE_MULTIPLE = 2.0 * AIRY_CORRECTION

VALUE_RTOL = 1e-8          # criterion 3's 1e-8, relative beyond magnitude 1
EDGE_TOL = 1e-10           # criteria 1-2: endpoints and gamma
CRAMER_TOL = 1e-12         # closed-form GUE d_j gate
RESIDUAL_TOL = 1e-12       # solve_mrs default convergence tolerance
SERIES_TOL = 1e-8          # criterion 8
UNDERFLOW_LIMIT = 1e-300   # CLI's linear-space floor (README)


class NonStandard:
    """Marker for a -Infinity / Infinity / NaN token in JSON output."""

    def __init__(self, token):
        self.token = token


def _close(x, y, rtol):
    return abs(x - y) <= rtol * max(1.0, abs(y))


def finite_number(value):
    """float(value) when finite, else None."""
    if isinstance(value, (NonStandard, bool)) or value is None:
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        return None
    return x if math.isfinite(x) else None


def gue_eta(x):
    """Closed-form GUE rate function (acceptance criterion 3)."""
    r = math.sqrt(x * x - 4.0)
    return 0.5 * x * r - 2.0 * math.log(0.5 * (x + r))


def gue_cramer(j):
    """d_j = 2 binom(1/2, j) 4^-j / (j + 3/2)."""
    binom = 1.0
    for i in range(j):
        binom *= (0.5 - i) / (i + 1)
    return 2.0 * binom * 4.0 ** (-j) / (j + 1.5)


def alpha_closed(j):
    return 2.0 / 3.0 - 2.0 / (2 * j + 5)


def regime_label(s, N):
    """Documented classification: s <= 8 is the limiting-law regime,
    else the least k <= 6 with s <= 0.5 N^{alpha_k}, else large."""
    if s <= 8.0:
        return "tracy-widom"
    for k in range(7):
        if s <= 0.5 * N ** alpha_closed(k):
            return f"moderate({k})"
    return "large"


def _survival_consistent(token, value, log_survival):
    """The underflow token stands exactly for values below the linear
    floor; a printed probability lies in (0, 1] and matches its log."""
    if token == "underflow":
        return log_survival < math.log(UNDERFLOW_LIMIT)
    return 0.0 < value <= 1.0 and _close(math.log(value), log_survival, 1e-9)


def log_f_formula(a, b, N, t, eta, eta_prime):
    return (math.log((b - a) / (8.0 * math.pi)) - N * eta
            - math.log(N * (t - b) * (t - a) * eta_prime))


class Checker:
    """Checks outputs; caches the equilibrium of fields without a closed
    form, which the cross-checks need."""

    def __init__(self):
        self._eq = {}

    def _equilibrium(self, coeffs):
        if coeffs not in self._eq:
            from loggas import Potential, solve_mrs
            V = Potential(coeffs)
            self._eq[coeffs] = (V, solve_mrs(V))
        return self._eq[coeffs]

    def check(self, spec, text):
        """(per-operation failure lists, integrity problems, extras)."""
        kind = spec["kind"]
        try:
            if kind == "series":
                return self._series(spec, text)
            if kind == "equilibrium":
                return self._equilibrium_fields(spec, text)
            rows, summary = _parse_table(text, spec["format"])
        except (ValueError, KeyError, TypeError) as exc:
            return [["missing"]] * spec["ops"], [f"{spec['name']}: unparseable output ({exc})"], {}
        if kind == "compare":
            reasons, extras = self._compare_rows(spec, rows), dict(summary)
        else:
            reasons, extras = self._tail_rows(spec, rows), {}
        problems = []
        if len(rows) != spec["ops"]:
            problems.append(f"{spec['name']}: {len(rows)} rows, expected {spec['ops']}")
        reasons = reasons[:spec["ops"]]
        reasons += [["missing"]] * (spec["ops"] - len(reasons))
        return reasons, problems, extras

    def _grid(self, spec):
        cfg = spec["config"]
        return [(N, s) for N in cfg["N_list"] for s in cfg["s_grid"]]

    def _compare_rows(self, spec, rows):
        coeffs = tuple(spec["config"]["potential"]["coeffs"])
        closed = CLOSED_FORMS[coeffs]
        a, b, gamma = closed["a"], closed["b"], closed["gamma"]
        multiple = ENVELOPE_MULTIPLE * gamma ** -1.5
        out = []
        for row, (N, s) in zip(rows, self._grid(spec)):
            why = set()
            if row.get("status") != "ok":
                why.add("status")
            if any(isinstance(v, NonStandard) for v in row.values()):
                why.add("json_token")
            vals = {k: finite_number(row.get(k)) for k in
                    ("N", "t", "log_survival_oracle", "log_F", "ratio_minus_1", "trace", "bound")}
            surv = row.get("survival_oracle")
            if surv != "underflow":
                vals["survival_oracle"] = finite_number(surv)
            if any(v is None for v in vals.values()):
                why.add("nonfinite")
                out.append(sorted(why))
                continue
            t, lso, lf = vals["t"], vals["log_survival_oracle"], vals["log_F"]
            t_exp = b + s / (gamma * N ** (2.0 / 3.0))
            if vals["N"] != N or not _close(t, t_exp, EDGE_TOL):
                why.add("grid")
            elif (not _close(vals["bound"], 1.0 / (N * (t - b) ** 1.5), 1e-9)
                  or not _close(vals["ratio_minus_1"], math.expm1(min(lso - lf, 700.0)), 1e-9)
                  or not _survival_consistent(surv, vals.get("survival_oracle"), lso)):
                why.add("consistency")
            else:
                if coeffs == GUE:
                    lf_exact = log_f_formula(a, b, N, t, gue_eta(t), math.sqrt(t * t - 4.0))
                    if not _close(lf, lf_exact, VALUE_RTOL):
                        why.add("closed_form")
                if abs(lso - lf) > multiple * vals["bound"]:
                    why.add("envelope")
            out.append(sorted(why))
        return out

    def _tail_rows(self, spec, rows):
        coeffs = tuple(spec["config"]["potential"]["coeffs"])
        closed = CLOSED_FORMS.get(coeffs)
        if closed:
            a, b = closed["a"], closed["b"]
        else:
            _, eq = self._equilibrium(coeffs)
            a, b = eq.a, eq.b
        grid = self._grid(spec)
        parsed, out = [], []
        for row, (N, s) in zip(rows, grid):
            why = set()
            if row.get("status") != "ok":
                why.add("status")
            vals = {k: finite_number(row.get(k)) for k in ("N", "t", "log_F", "eta", "eta_prime")}
            if any(v is None for v in vals.values()):
                why.add("nonfinite")
            else:
                t = vals["t"]
                if vals["N"] != N or (closed and not _close(
                        t, b + s / (closed["gamma"] * N ** (2.0 / 3.0)), EDGE_TOL)):
                    why.add("grid")
                if row.get("regime") != regime_label(s, N):
                    why.add("regime")
                if t <= b or vals["eta_prime"] <= 0.0:
                    why.add("consistency")      # outside the tail, where eta' > 0
                elif coeffs == GUE:
                    eta, eta_prime = gue_eta(t), math.sqrt(t * t - 4.0)
                    if (not _close(vals["eta"], eta, VALUE_RTOL)
                            or not _close(vals["eta_prime"], eta_prime, VALUE_RTOL)
                            or not _close(vals["log_F"], log_f_formula(a, b, N, t, eta, eta_prime),
                                          VALUE_RTOL)):
                        why.add("closed_form")
                else:
                    lf = log_f_formula(a, b, N, t, vals["eta"], vals["eta_prime"])
                    if not _close(vals["log_F"], lf, VALUE_RTOL):
                        why.add("consistency")
                    parsed.append((len(out), t, vals["eta"]))
            out.append(why)
        if parsed:
            import numpy as np
            from loggas import effective_potential
            V, eq = self._equilibrium(coeffs)
            ts = np.array([t for _, t, _ in parsed])
            expected = effective_potential(eq, V, ts) - eq.ell
            for (i, _, eta), exp in zip(parsed, expected):
                if not _close(eta, float(exp), VALUE_RTOL):
                    out[i].add("cross_check")
        return [sorted(w) for w in out]

    def _equilibrium_fields(self, spec, text):
        k = spec["config"]["k"]
        closed = CLOSED_FORMS[GUE]
        try:
            obj = json.loads(text, parse_constant=NonStandard)
            fields = ([(name, obj[name], closed[name], EDGE_TOL)
                       for name in ("a", "b", "gamma", "ell")]
                      + [(f"residual_{i}", r, 0.0, RESIDUAL_TOL)
                         for i, r in enumerate(obj["residuals"], start=1)]
                      + [(f"d_{j}", d, gue_cramer(j), CRAMER_TOL)
                         for j, d in enumerate(obj["cramer"], start=1)]
                      + [(f"alpha_{j}", x, alpha_closed(j), 1e-15)
                         for j, x in enumerate(obj["alpha"])])
        except (ValueError, KeyError, TypeError) as exc:
            return [["missing"]] * spec["ops"], [f"{spec['name']}: unparseable output ({exc})"], {}
        out = []
        for name, value, exact, tol in fields:
            why = []
            if isinstance(value, NonStandard):
                why.append("json_token")
            x = finite_number(value)
            if x is None:
                why.append("nonfinite")
            elif abs(x - exact) > tol:
                why.append("closed_form")
            out.append(why)
        problems = []
        if len(fields) != spec["ops"] or len(obj["cramer"]) != k:
            problems.append(f"{spec['name']}: {len(fields)} fields, expected {spec['ops']}")
        out = out[:spec["ops"]] + [["missing"]] * (spec["ops"] - len(out))
        return out, problems, {}

    def _series(self, spec, text):
        out, worst, problems = [], 0.0, []
        lines = text.splitlines()
        for line in lines:
            try:
                pair = json.loads(line, parse_constant=NonStandard)
                direct, series = finite_number(pair["direct"]), finite_number(pair["series"])
            except (ValueError, KeyError, TypeError) as exc:
                problems.append(f"{spec['name']}: unparseable line ({exc})")
                out.append(["missing"])
                continue
            if direct is None or series is None or not 0.0 < direct < 1.0:
                out.append(["nonfinite"])
                continue
            diff = abs(direct - series)
            worst = max(worst, diff)
            out.append(["series"] if diff > SERIES_TOL else [])
        if len(lines) != spec["ops"]:
            problems.append(f"{spec['name']}: {len(lines)} pairs, expected {spec['ops']}")
        out = out[:spec["ops"]] + [["missing"]] * (spec["ops"] - len(out))
        return out, problems, {"series_max_diff": worst}


def _parse_table(text, fmt):
    """Rows (list of dicts) and summary dict of a tail/compare output."""
    if fmt == "json":
        payload = json.loads(text, parse_constant=NonStandard)
        return payload["rows"], payload.get("summary", {})
    body, summary = [], {}
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            summary[key] = value
        else:
            body.append(line)
    return list(csv.DictReader(io.StringIO("\n".join(body)))), summary
