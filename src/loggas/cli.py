"""Command-line front end.

Reads a JSON run configuration, dispatches one of four subcommands, and
emits machine-readable tables (CSV or JSON) on stdout or to a file.
`tail` and `compare` share one table loop (_table), which supplies N,
t, the error rows and the exit status; each command gives only its
cells per threshold.  One writer (_write) emits every table, CSV or
JSON.

Exit status contract: 0 when every requested row succeeded, 1 on
numerical failures (solver breakdowns, or per-row evaluation errors and
oracle bases that fail for one N, which are still reported as rows with
a status marker), 2 on usage or configuration errors, an unwritable
--out path included.  A reader that closes stdout early (a pipe into
head) does not change it: the rest of the table is discarded and the
run exits with the status its rows earned.

Output is byte-identical for identical configurations: rows are
computed and written in grid order, floats are printed with 17
significant digits in CSV, and linear-space probabilities below the
floating-point floor appear as the literal token "underflow" next to
their always-finite log columns.
"""

import argparse
import csv
import gc
import json
import math
import os
import sys
from dataclasses import dataclass, replace

from .equilibrium import solve_mrs
from .errors import NumericalError, SolverError
from .potential import json_float, potential_from_json
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

    # integers are tested by type(v) is int: a JSON true or false loads as
    # a bool, which isinstance(v, int) accepts
    n_list = raw.get("N_list")
    if n_list is not None:
        if (not isinstance(n_list, list) or not n_list
                or not all(type(n) is int and n >= 1 for n in n_list)):
            raise ConfigError('"N_list" must be a non-empty list of positive integers')

    grids = {}
    for name in ("t_grid", "s_grid"):
        g = raw.get(name)
        if g is not None:
            if not isinstance(g, list):
                raise ConfigError(f'"{name}" must be a list of numbers')
            try:
                g = [json_float(v) for v in g]
            except (TypeError, ValueError):
                raise ConfigError(f'"{name}" must be a list of numbers') from None
            if not g:
                raise ConfigError(f'"{name}" must not be empty')
            if not all(x < y for x, y in zip(g, g[1:])):
                raise ConfigError(f'"{name}" must be strictly increasing')
        grids[name] = g
    if grids["t_grid"] is not None and grids["s_grid"] is not None:
        raise ConfigError('give "t_grid" or "s_grid", not both')

    k = raw.get("k", 3)
    if type(k) is not int or not 0 <= k <= K_MAX_SUPPORTED:
        raise ConfigError(f'"k" must be an integer in [0, {K_MAX_SUPPORTED}]')
    fmt = raw.get("output_format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError('"output_format" must be "csv" or "json"')
    seed = raw.get("seed", 0)
    if type(seed) is not int:
        raise ConfigError('"seed" must be an integer')
    max_n = raw.get("max_oracle_n", DEFAULT_ORACLE_N_LIMIT)
    if type(max_n) is not int or max_n < 1:
        raise ConfigError('"max_oracle_n" must be a positive integer')

    return RunConfig(potential=V, n_list=n_list, t_grid=grids["t_grid"],
                     s_grid=grids["s_grid"], k=k, output_format=fmt,
                     seed=seed, max_oracle_n=max_n)


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return "%.17g" % float(value)


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


def _write(stream, fmt, fieldnames, rows, summary=None, single=None):
    """Write one table to stream.  CSV: a header, one line per row and a
    `# key = value` line per summary entry.  JSON: the single object if
    given, else {"rows": rows} with the summary under "summary"."""
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(fieldnames)
        writer.writerows([_fmt_cell(row[name]) for name in fieldnames] for row in rows)
        for key, value in (summary or {}).items():
            stream.write(f"# {key} = {_fmt_cell(value)}\n")
        return
    if single is None:
        single = {"rows": rows, **({"summary": summary} if summary else {})}
    stream.write(json.dumps(_finite_or_null(single), indent=2, allow_nan=False) + "\n")


def _emit(args, config, fieldnames, rows, summary=None, single=None):
    fmt = args.format or config.output_format
    if not args.out:
        try:
            _write(sys.stdout, fmt, fieldnames, rows, summary, single)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed stdout early; what is left of the table goes
            # to os.devnull, so the flush at interpreter exit stays silent
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    # the file is opened only here, once every row is computed, so a run
    # that fails numerically leaves no truncated file behind
    try:
        stream = open(args.out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output {args.out!r}: {exc}") from None
    with stream:
        _write(stream, fmt, fieldnames, rows, summary, single)


def cmd_equilibrium(args, config):
    """One row: endpoints, edge constant, Lagrange constant, residuals,
    correction coefficients d_1..d_k and thresholds alpha_0..alpha_k."""
    V = config.potential
    eq = solve_mrs(V)
    d = cramer_coefficients(eq, V, config.k)
    alpha = [alpha_threshold(j) for j in range(config.k + 1)]
    fieldnames = (["a", "b", "gamma", "ell", "residual_1", "residual_2"]
                  + [f"d_{j}" for j in range(1, config.k + 1)]
                  + [f"alpha_{j}" for j in range(config.k + 1)])
    row = dict(zip(fieldnames, [eq.a, eq.b, eq.gamma, eq.ell, *eq.residuals, *d, *alpha]))
    single = {"a": eq.a, "b": eq.b, "gamma": eq.gamma, "ell": eq.ell,
              "residuals": list(eq.residuals), "cramer": d, "alpha": alpha}
    _emit(args, config, fieldnames, [row], single=single)
    return 0


def _value(entry):
    """entry of a batch result list, raised if it is a threshold's error."""
    if isinstance(entry, Exception):
        raise entry
    return entry


def _table(config, name, cells, max_n=None):
    """The table loop of tail and compare, over N_list x grid.

    For each N it derives the thresholds (t, s) from the grid, evaluates
    the tail approximation at every t in one pass and, when the oracle
    cap max_n is given (compare), the oracle at every t in one pass.
    cells(model, t, s, term, result) gives the cells of one row after N
    and t from the tail term and the oracle result (None without the
    oracle); where it raises ValueError or NumericalError the row
    carries an "error: ..." status and empty cells.  Where the oracle
    basis of one N raises NumericalError, every row of that N carries
    that error and the other N are unaffected.  Returns (the
    equilibrium, the rows, the exit status)."""
    if config.n_list is None:
        raise ConfigError(f'{name} needs "N_list"')
    if config.t_grid is None and config.s_grid is None:
        raise ConfigError(f'{name} needs "t_grid" or "s_grid"')
    too_big = [n for n in config.n_list if max_n is not None and n > max_n]
    if too_big:
        raise ConfigError(
            f"N = {too_big[0]} exceeds the oracle feasibility limit "
            f"{max_n} (raise \"max_oracle_n\" to override)")
    if max_n is not None:
        # imported for compare only, so tail, equilibrium and cramer never
        # compile the oracle; its functions are looked up on the module,
        # where perfbench/child.py wraps them when it traces a run
        from . import kernel_oracle
    V, columns = config.potential, COLUMNS[name]
    eq = solve_mrs(V)
    rows, all_ok = [], True
    # the Cramer coefficients depend on the field and k, not on N
    base = build_tail_model(eq, V, config.n_list[0], k=config.k)
    for N in config.n_list:
        model = replace(base, N=N)
        scale = eq.gamma * N ** (2.0 / 3.0)
        if config.t_grid is not None:
            thresholds = [(t, (t - eq.b) * scale) for t in config.t_grid]
        else:
            thresholds = [(eq.b + s / scale, s) for s in config.s_grid]
        ts = [t for t, _ in thresholds]
        results = [None] * len(ts)
        if max_n is not None:
            # gap_probabilities returns its per-threshold errors as
            # entries, so only build_basis raises here
            try:
                results = kernel_oracle.gap_probabilities(
                    kernel_oracle.build_basis(V, N), V, ts)
            except NumericalError as exc:
                results = [exc] * len(ts)
        for (t, s), term, result in zip(thresholds, tail_terms(model, ts), results):
            try:
                row = cells(model, t, s, term, result)
            except (ValueError, NumericalError) as exc:
                row = [None] * (len(columns) - 3) + [f"error: {exc}"]
                all_ok = False
            rows.append(dict(zip(columns, [N, t] + row)))
    return eq, rows, 0 if all_ok else 1


def _tail_cells(model, t, s, term, result):
    log_f, eta, eta_prime = _value(term)
    return [log_f, regime_classify(s, model.N).label(), eta, eta_prime, "ok"]


def cmd_tail(args, config):
    """Tail-approximation table over N_list x grid."""
    _, rows, status = _table(config, "tail", _tail_cells)
    _emit(args, config, COLUMNS["tail"], rows)
    return status


def _compare_cells(model, t, s, term, result):
    result, log_f = _value(result), _value(term)[0]
    return [result.log_survival,
            "underflow" if result.survival is None else result.survival,
            log_f, math.expm1(result.log_survival - log_f), result.trace,
            1.0 / (model.N * (t - model.eq.b) ** 1.5), "ok"]


def cmd_compare(args, config):
    """Oracle-vs-approximation table; the summary reports the worst
    |ratio - 1| N (t-b)^{3/2} over the successful rows."""
    eq, rows, status = _table(config, "compare", _compare_cells, config.max_oracle_n)
    worst = max((abs(row["ratio_minus_1"]) * row["N"] * (row["t"] - eq.b) ** 1.5
                 for row in rows if row["status"] == "ok"), default=None)
    _emit(args, config, COLUMNS["compare"], rows, summary={"max_scaled_deviation": worst})
    return status


def cmd_cramer(args, config):
    """Correction coefficients by order: rows j = 0..k with the growth
    threshold alpha_j and, for j >= 1, the coefficient d_j."""
    V = config.potential
    eq = solve_mrs(V)
    d = cramer_coefficients(eq, V, config.k)
    rows = [dict(zip(COLUMNS["cramer"], [j, alpha_threshold(j), d_j]))
            for j, d_j in enumerate([None, *d])]
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
    for name, handler, help_text in [
        ("equilibrium", cmd_equilibrium, "solve the support problem and report its constants"),
        ("tail", cmd_tail, "tabulate the tail approximation over N and threshold grids"),
        ("compare", cmd_compare, "tabulate exact oracle vs approximation with error ratios"),
        ("cramer", cmd_cramer, "tabulate correction coefficients and growth thresholds"),
    ]:
        p = sub.add_parser(name, help=help_text, epilog=_EPILOG,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", required=True, help="path to JSON run config")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (overrides config)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    """Run one subcommand on argv (default sys.argv[1:]) and return its
    exit status.

    main freezes the garbage collector's heap first (gc.freeze), so an
    in-process caller keeps a frozen heap afterwards: every container
    object alive at the call moves to the permanent generation, and one
    that later becomes part of a garbage cycle is never freed (until the
    caller runs gc.unfreeze())."""
    # CPython's finalizer runs a full collection over every tracked
    # container, here about 22.5k that the imports made (mostly numpy's)
    # and that never become garbage.  Frozen, they move to the permanent
    # generation, which the exit pass and any full collection during the
    # run skip: a fresh process's exit took 32-38 ms before, 6-10 ms
    # after (Python 3.11, 2-vCPU VM).  gc.disable() alone is not enough,
    # since the finalizer collects all the same.
    gc.freeze()
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
