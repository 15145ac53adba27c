"""Command-line front end.

Reads a JSON run configuration, dispatches one of four subcommands, and
emits machine-readable tables (CSV or JSON) on stdout or to a file.

Exit status contract: 0 when every requested row succeeded, 1 on
numerical failures (solver breakdowns or per-row evaluation errors,
which are still reported as rows with a status marker), 2 on usage or
configuration errors.

Output is byte-identical for identical configurations: rows are
computed and written in grid order, floats are printed with 17
significant digits in CSV, and linear-space probabilities below the
floating-point floor appear as the literal token "underflow" next to
their always-finite log columns.
"""

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, replace

from .equilibrium import solve_mrs
from .errors import NumericalError, SolverError
from .kernel_oracle import GapResult, build_basis, gap_probabilities
from .potential import potential_from_json
# log_f_approx is not called here, but perfbench/child.py wraps
# loggas.cli.log_f_approx when it traces a run
from .tails import (K_MAX_SUPPORTED, alpha_threshold, build_tail_model,  # noqa: F401
                    cramer_coefficients, log_f_approx, regime_classify,
                    tail_terms)

DEFAULT_ORACLE_N_LIMIT = 200

COLUMNS = {
    "tail": ["N", "t", "log_F", "regime", "eta", "eta_prime", "status"],
    "compare": ["N", "t", "log_survival_oracle", "survival_oracle", "log_F",
                "ratio_minus_1", "trace", "bound", "status"],
    "cramer": ["j", "alpha_j", "d_j"],
}


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    potential: object
    n_list: list
    t_grid: list
    s_grid: list
    k: int
    output_format: str
    seed: int
    max_oracle_n: int


def _strictly_increasing(grid):
    return all(x < y for x, y in zip(grid, grid[1:]))


def load_config(path):
    """Parse and validate the JSON run configuration."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path!r}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    if "potential" not in raw:
        raise ConfigError('config needs a "potential" object')
    try:
        V = potential_from_json(raw["potential"])
    except ValueError as exc:
        raise ConfigError(f"bad potential entry: {exc}") from None

    n_list = raw.get("N_list")
    if n_list is not None:
        if (not isinstance(n_list, list) or not n_list
                or not all(isinstance(n, int) and n >= 1 for n in n_list)):
            raise ConfigError('"N_list" must be a non-empty list of positive integers')

    grids = {}
    for name in ("t_grid", "s_grid"):
        g = raw.get(name)
        if g is not None:
            if not isinstance(g, list):
                raise ConfigError(f'"{name}" must be a list of numbers')
            try:
                g = [float(v) for v in g]
            except (TypeError, ValueError):
                raise ConfigError(f'"{name}" must be a list of numbers') from None
            if not g:
                raise ConfigError(f'"{name}" must not be empty')
            if not _strictly_increasing(g):
                raise ConfigError(f'"{name}" must be strictly increasing')
        grids[name] = g
    if grids["t_grid"] is not None and grids["s_grid"] is not None:
        raise ConfigError('give "t_grid" or "s_grid", not both')

    k = raw.get("k", 3)
    if not isinstance(k, int) or not 0 <= k <= K_MAX_SUPPORTED:
        raise ConfigError(f'"k" must be an integer in [0, {K_MAX_SUPPORTED}]')
    fmt = raw.get("output_format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError('"output_format" must be "csv" or "json"')
    seed = raw.get("seed", 0)
    if not isinstance(seed, int):
        raise ConfigError('"seed" must be an integer')
    max_n = raw.get("max_oracle_n", DEFAULT_ORACLE_N_LIMIT)
    if not isinstance(max_n, int) or max_n < 1:
        raise ConfigError('"max_oracle_n" must be a positive integer')

    return RunConfig(potential=V, n_list=n_list, t_grid=grids["t_grid"],
                     s_grid=grids["s_grid"], k=k, output_format=fmt,
                     seed=seed, max_oracle_n=max_n)


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return "%.17g" % float(value)


def _write_csv(stream, fieldnames, rows, summary=None):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_fmt_cell(row.get(name)) for name in fieldnames])
    if summary:
        for key in summary:
            stream.write(f"# {key} = {_fmt_cell(summary[key])}\n")


def _finite_or_null(value):
    """value with every non-finite float replaced by None, so the JSON
    output carries null where Python would write -Infinity or NaN."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(stream, payload):
    stream.write(json.dumps(_finite_or_null(payload), indent=2, allow_nan=False))
    stream.write("\n")


def _emit(args, config, fieldnames, rows, summary=None, single=None):
    fmt = args.format or config.output_format
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            _dispatch_write(fh, fmt, fieldnames, rows, summary, single)
    else:
        _dispatch_write(sys.stdout, fmt, fieldnames, rows, summary, single)


def _dispatch_write(stream, fmt, fieldnames, rows, summary, single):
    if fmt == "csv":
        _write_csv(stream, fieldnames, rows, summary)
    elif single is not None:
        _write_json(stream, single)
    else:
        payload = {"rows": rows}
        if summary:
            payload["summary"] = summary
        _write_json(stream, payload)


def _thresholds(config, eq, model_n, t_or_s):
    """Per-row threshold pairs (t, s) for one N."""
    gamma, b = eq.gamma, eq.b
    scale = gamma * model_n ** (2.0 / 3.0)
    if t_or_s == "t":
        return [(t, (t - b) * scale) for t in config.t_grid]
    return [(b + s / scale, s) for s in config.s_grid]


def cmd_equilibrium(args, config):
    """One row: endpoints, edge constant, Lagrange constant, residuals,
    correction coefficients d_1..d_k and thresholds alpha_0..alpha_k."""
    V = config.potential
    eq = solve_mrs(V)
    d = cramer_coefficients(eq, V, config.k)
    fieldnames = (["a", "b", "gamma", "ell", "residual_1", "residual_2"]
                  + [f"d_{j}" for j in range(1, config.k + 1)]
                  + [f"alpha_{j}" for j in range(config.k + 1)])
    row = {
        "a": eq.a, "b": eq.b, "gamma": eq.gamma, "ell": eq.ell,
        "residual_1": eq.residuals[0], "residual_2": eq.residuals[1],
    }
    for j in range(1, config.k + 1):
        row[f"d_{j}"] = d[j - 1]
    for j in range(config.k + 1):
        row[f"alpha_{j}"] = alpha_threshold(j)
    single = {
        "a": eq.a, "b": eq.b, "gamma": eq.gamma, "ell": eq.ell,
        "residuals": list(eq.residuals), "cramer": d,
        "alpha": [alpha_threshold(j) for j in range(config.k + 1)],
    }
    _emit(args, config, fieldnames, [row], single=single)
    return 0


def cmd_tail(args, config):
    """Tail-approximation table over N_list x grid."""
    if config.n_list is None:
        raise ConfigError('tail needs "N_list"')
    if config.t_grid is None and config.s_grid is None:
        raise ConfigError('tail needs "t_grid" or "s_grid"')
    V = config.potential
    eq = solve_mrs(V)
    t_or_s = "t" if config.t_grid is not None else "s"
    rows, all_ok = [], True
    # the Cramer coefficients depend on the field and k, not on N
    base = build_tail_model(eq, V, config.n_list[0], k=config.k)
    for N in config.n_list:
        model = replace(base, N=N)
        thresholds = _thresholds(config, eq, N, t_or_s)
        terms = tail_terms(model, [t for t, _ in thresholds])
        for (t, s), term in zip(thresholds, terms):
            row = {"N": N, "t": t}
            try:
                if isinstance(term, Exception):
                    raise term
                row["log_F"] = term[0]
                row["regime"] = regime_classify(s, N).label()
                row["eta"], row["eta_prime"] = term[1:]
                row["status"] = "ok"
            except (ValueError, NumericalError) as exc:
                row.update(log_F=None, regime=None, eta=None, eta_prime=None,
                           status=f"error: {exc}")
                all_ok = False
            rows.append(row)
    _emit(args, config, COLUMNS["tail"], rows)
    return 0 if all_ok else 1


def cmd_compare(args, config):
    """Oracle-vs-approximation table; the summary reports the worst
    |ratio - 1| N (t-b)^{3/2} over the successful rows."""
    if config.n_list is None:
        raise ConfigError('compare needs "N_list"')
    if config.t_grid is None and config.s_grid is None:
        raise ConfigError('compare needs "t_grid" or "s_grid"')
    too_big = [n for n in config.n_list if n > config.max_oracle_n]
    if too_big:
        raise ConfigError(
            f"N = {too_big[0]} exceeds the oracle feasibility limit "
            f"{config.max_oracle_n} (raise \"max_oracle_n\" to override)")
    V = config.potential
    eq = solve_mrs(V)
    t_or_s = "t" if config.t_grid is not None else "s"
    rows, all_ok, worst = [], True, None
    base = build_tail_model(eq, V, config.n_list[0], k=config.k)
    for N in config.n_list:
        model = replace(base, N=N)
        basis = build_basis(V, N)
        thresholds = _thresholds(config, eq, N, t_or_s)
        ts = [t for t, _ in thresholds]
        results = gap_probabilities(basis, V, ts)
        for t, result, term in zip(ts, results, tail_terms(model, ts)):
            row = {"N": N, "t": t}
            try:
                if not isinstance(result, GapResult):
                    raise result
                if isinstance(term, Exception):
                    raise term
                lf = term[0]
                ratio_m1 = math.expm1(result.log_survival - lf)
                row["log_survival_oracle"] = result.log_survival
                row["survival_oracle"] = ("underflow" if result.survival is None
                                          else result.survival)
                row["log_F"] = lf
                row["ratio_minus_1"] = ratio_m1
                row["trace"] = result.trace
                row["bound"] = 1.0 / (N * (t - eq.b) ** 1.5)
                row["status"] = "ok"
                scaled = abs(ratio_m1) * N * (t - eq.b) ** 1.5
                worst = scaled if worst is None else max(worst, scaled)
            except (ValueError, NumericalError) as exc:
                row.update(log_survival_oracle=None, survival_oracle=None,
                           log_F=None, ratio_minus_1=None, trace=None,
                           bound=None, status=f"error: {exc}")
                all_ok = False
            rows.append(row)
    summary = {"max_scaled_deviation": worst}
    _emit(args, config, COLUMNS["compare"], rows, summary=summary)
    return 0 if all_ok else 1


def cmd_cramer(args, config):
    """Correction coefficients by order: rows j = 0..k with the growth
    threshold alpha_j and, for j >= 1, the coefficient d_j."""
    V = config.potential
    eq = solve_mrs(V)
    d = cramer_coefficients(eq, V, config.k)
    rows = []
    for j in range(config.k + 1):
        rows.append({"j": j, "alpha_j": alpha_threshold(j),
                     "d_j": None if j == 0 else d[j - 1]})
    _emit(args, config, COLUMNS["cramer"], rows)
    return 0


_EPILOG = """\
config JSON keys:
  potential       {"coeffs": [c0, c1, ...], "ga_infinity": bool}; c_k multiplies x^k
  N_list          non-empty list of positive integers (tail, compare)
  t_grid | s_grid strictly increasing list of thresholds (tail, compare); give one
  k               correction order, integer in [0, 6] (default 3)
  output_format   "csv" or "json" (default csv; the --format flag wins)
  seed            integer, recorded for reproducibility (default 0)
  max_oracle_n    oracle feasibility cap for compare (default 200)

CSV column orders (floats carry 17 significant digits):
  equilibrium  a, b, gamma, ell, residual_1, residual_2, d_1..d_k, alpha_0..alpha_k
  tail         N, t, log_F, regime, eta, eta_prime, status
  compare      N, t, log_survival_oracle, survival_oracle, log_F, ratio_minus_1,
               trace, bound, status; then a "# max_scaled_deviation = ..." line
               with the worst |ratio-1| N (t-b)^(3/2)
  cramer       j, alpha_j, d_j

Linear-space probabilities below 1e-300 print as the token "underflow";
their log columns stay finite.  JSON output is strict JSON: a non-finite
number prints as null.  Failed rows carry an "error: ..." status and the
run exits 1 after writing every row.
"""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loggas",
        description="Equilibrium measures and upper-tail deviation tables "
                    "for log-gas ensembles.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    handlers = {
        "equilibrium": cmd_equilibrium,
        "tail": cmd_tail,
        "compare": cmd_compare,
        "cramer": cmd_cramer,
    }
    helps = {
        "equilibrium": "solve the support problem and report its constants",
        "tail": "tabulate the tail approximation over N and threshold grids",
        "compare": "tabulate exact oracle vs approximation with error ratios",
        "cramer": "tabulate correction coefficients and growth thresholds",
    }
    for name, handler in handlers.items():
        p = sub.add_parser(name, help=helps[name], epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (overrides config)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
        return args.handler(args, config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SolverError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
