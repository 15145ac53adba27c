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
import gc
import io
import json
import math
import os
import sys
from dataclasses import replace
from itertools import chain, repeat

import numpy as np

from .equilibrium import solve_mrs
from .errors import NumericalError, Record, SolverError
from .potential import json_float, potential_from_json
# log_f_approx is not called here, but perfbench/child.py wraps
# loggas.cli.log_f_approx when it traces a run
from .tails import (K_MAX_SUPPORTED, alpha_threshold, build_tail_model,  # noqa: F401
                    cramer_coefficients, log_f_approx, regime_labels,
                    tail_terms)

DEFAULT_ORACLE_N_LIMIT = 200

COLUMNS = {
    "tail": ["N", "t", "log_F", "regime", "eta", "eta_prime", "status"],
    "compare": ["N", "t", "log_survival_oracle", "survival_oracle", "log_F",
                "ratio_minus_1", "trace", "bound", "status"],
    "cramer": ["j", "alpha_j", "d_j"],
}


CONFIG_KEYS = ("potential", "N_list", "t_grid", "s_grid", "k", "output_format", "seed",
               "max_oracle_n")


class ConfigError(ValueError):
    """Bad usage or configuration; maps to exit status 2."""


class RunConfig(Record):
    """A validated run configuration (see load_config)."""

    potential: object
    n_list: list
    t_grid: list
    s_grid: list
    k: int
    output_format: str
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
    unknown = [key for key in raw if key not in CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}; the keys are "
                          f"{', '.join(CONFIG_KEYS)}")
    if "potential" not in raw:
        raise ConfigError('config needs a "potential" object')
    try:
        V = potential_from_json(raw["potential"])
    except ValueError as exc:
        raise ConfigError(f"bad potential entry: {exc}") from None

    # integers are tested by type(v) is int: a JSON true or false loads as
    # a bool, which isinstance(v, int) accepts; each N must also fit a double
    n_list = raw.get("N_list")
    if n_list is not None:
        if (not isinstance(n_list, list) or not n_list
                or not all(type(n) is int and n >= 1 and math.isfinite(json_float(n))
                           for n in n_list)):
            raise ConfigError('"N_list" must be a non-empty list of positive integers '
                              'that fit a double')

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
    # no computation is random; "seed" is checked and otherwise unused
    if type(raw.get("seed", 0)) is not int:
        raise ConfigError('"seed" must be an integer')
    max_n = raw.get("max_oracle_n", DEFAULT_ORACLE_N_LIMIT)
    if type(max_n) is not int or max_n < 1:
        raise ConfigError('"max_oracle_n" must be a positive integer')

    return RunConfig(potential=V, n_list=n_list, t_grid=grids["t_grid"],
                     s_grid=grids["s_grid"], k=k, output_format=fmt,
                     max_oracle_n=max_n)


def _fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return "%.17g" % float(value)


def _row_format(types):
    """One %-format for a CSV line of cells of these types, equal to
    joining their _fmt_cell strings; None where a cell is None, or of a
    type that _fmt_cell converts with float(), and for a one-cell row,
    whose empty cell csv.writer quotes."""
    specs = ["%s" if issubclass(cls, (str, int)) else "%.17g" if issubclass(cls, float)
             else None for cls in types]
    return None if len(specs) < 2 or None in specs else ",".join(specs) + "\n"


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
    """Write one table to stream; each row is a sequence of cells in the
    order of fieldnames.  CSV: a header, one line per row and a
    `# key = value` line per summary entry.  JSON: the single object if
    given, else {"rows": [one object per row]} with the summary under
    "summary".

    A CSV line is what csv.writer writes for the row's _fmt_cell
    strings.  Each row takes the %-format of its cell types, and each
    run of consecutive rows that have one is formatted in one operation
    (_format_run); a row with a cell that no format covers goes through
    csv.writer."""
    if fmt == "csv":
        parts, run, formats = [], [], {}
        for row in (fieldnames, *rows):
            row = tuple(row)
            types = tuple(map(type, row))
            try:
                form = formats[types]
            except KeyError:
                form = formats[types] = _row_format(types)
            if form is None:
                parts += [_format_run(run), _csv_lines([row])]
                run = []
            else:
                run.append((form, row))
        parts.append(_format_run(run))
        parts += [f"# {key} = {_fmt_cell(value)}\n" for key, value in (summary or {}).items()]
        stream.write("".join(parts))
        return
    if single is None:
        single = {"rows": [dict(zip(fieldnames, row)) for row in rows],
                  **({"summary": summary} if summary else {})}
    stream.write(json.dumps(_finite_or_null(single), indent=2, allow_nan=False) + "\n")


def _format_run(run):
    """The CSV lines of consecutive rows, each given as (its %-format,
    its cells), from one format operation: numbers never print a comma,
    quote or line break, so where the text has none but the separators
    no cell needs quoting; otherwise csv.writer's lines (_csv_lines)."""
    if not run:
        return ""
    forms, rows = zip(*run)
    text = "".join(forms) % tuple(chain.from_iterable(rows))
    if (text.count(",") == sum(map(len, rows)) - len(rows) and text.count("\n") == len(rows)
            and '"' not in text and "\r" not in text):
        return text
    return _csv_lines(rows)


def _csv_lines(rows):
    """csv.writer's lines for the _fmt_cell strings of rows; it quotes a
    cell with a comma, a quote or a line break."""
    # imported here, as only such a cell or a cell no format covers needs it
    import csv
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([_fmt_cell(v) for v in row] for row in rows)
    return buf.getvalue()


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
    row = (eq.a, eq.b, eq.gamma, eq.ell, *eq.residuals, *d, *alpha)
    single = {"a": eq.a, "b": eq.b, "gamma": eq.gamma, "ell": eq.ell,
              "residuals": list(eq.residuals), "cramer": d, "alpha": alpha}
    _emit(args, config, fieldnames, [row], single=single)
    return 0


def _table(config, name, cells, max_n=None):
    """The table loop of tail and compare, over N_list x grid.

    For each N it derives the thresholds t and their edge-scaled s from
    the grid, evaluates the tail approximation at every t in one pass
    (tail_terms) and, when the oracle cap max_n is given (compare), the
    oracle in one pass at every t where the tail did not fail and the
    bound column (_bound) is a finite double; the bound's errors and the
    oracle's join the tail's dict terms[3] from the index of each failed
    row to its ValueError or NumericalError, and such a row carries an
    "error: ..." status and empty cells.  Where the oracle basis of one N
    raises NumericalError, every row of that N that has not failed
    carries that error, and the other N are unaffected.  cells(model, ts,
    s, terms, results) gives the cells after N and t of the rows of one N,
    one tuple per row in grid order, from the thresholds, the tail terms
    and the oracle results (None at a row without one: every row of tail,
    and every failed row, whose tuple is never read).
    Returns (the equilibrium, the rows as tuples, the exit status)."""
    if config.n_list is None:
        raise ConfigError(f'{name} needs "N_list"')
    if config.t_grid is None and config.s_grid is None:
        raise ConfigError(f'{name} needs "t_grid" or "s_grid"')
    too_big = [n for n in config.n_list if max_n is not None and n > max_n]
    if too_big:
        raise ConfigError(
            f"N = {too_big[0]} exceeds the oracle feasibility limit "
            f"{max_n} (raise \"max_oracle_n\" to override)")
    V = config.potential
    blank = (None,) * (len(COLUMNS[name]) - 3)
    eq = solve_mrs(V)
    rows, all_ok = [], True
    # the Cramer coefficients depend on the field and k, not on N
    base = build_tail_model(eq, V, config.n_list[0], k=config.k)
    for N in config.n_list:
        model = replace(base, N=N)
        scale = eq.gamma * N ** (2.0 / 3.0)
        if config.t_grid is not None:
            ts = config.t_grid
            s = (np.array(ts) - eq.b) * scale
        else:
            s = np.array(config.s_grid)
            with np.errstate(over="ignore"):  # an overflowing t is a tail error row
                ts = (eq.b + s / scale).tolist()
        terms = tail_terms(model, ts)
        errors, results = terms[3], [None] * len(ts)
        if max_n is not None:
            for i, t in enumerate(ts):
                if i not in errors and not math.isfinite(_bound(N, eq.b, t)):
                    errors[i] = NumericalError(f"bound 1/(N (t-b)^(3/2)) is not a finite "
                                               f"double at t = {t!r}")
            # an N whose every threshold failed builds no basis,
            # and the oracle is imported at the first N with one left, so
            # only a compare run that reaches it compiles it; its functions
            # are looked up on the module, where perfbench/child.py wraps
            # them when it traces a run.  gap_probabilities returns its
            # per-threshold errors as entries, so only build_basis raises
            kept = [i for i in range(len(ts)) if i not in errors]
            if kept:
                from . import kernel_oracle
                try:
                    found = kernel_oracle.gap_probabilities(
                        kernel_oracle.build_basis(V, N), V, [ts[i] for i in kept])
                except NumericalError as exc:
                    found = repeat(exc)
                for i, result in zip(kept, found):
                    (errors if isinstance(result, Exception) else results)[i] = result
        rows += [(N, t, *blank, f"error: {errors[i]}") if i in errors else (N, t, *row)
                 for i, (t, row) in enumerate(zip(ts, cells(model, ts, s, terms, results)))]
        all_ok = all_ok and not errors
    return eq, rows, 0 if all_ok else 1


def _tail_cells(model, ts, s, terms, results):
    log_f, eta, eta_prime, _ = terms
    return zip(log_f, regime_labels(s, model.N), eta, eta_prime, repeat("ok"))


def cmd_tail(args, config):
    """Tail-approximation table over N_list x grid."""
    _, rows, status = _table(config, "tail", _tail_cells)
    _emit(args, config, COLUMNS["tail"], rows)
    return status


def _bound(N, b, t):
    """The bound column of compare, 1/(N (t-b)^{3/2}) at t > b; inf where
    N (t-b)^{3/2} underflows to zero."""
    scale = N * (t - b) ** 1.5
    return 1.0 / scale if scale else math.inf


def _compare_cells(model, ts, s, terms, results):
    N, b = model.N, model.eq.b
    return (r and (r.log_survival, "underflow" if r.survival is None else r.survival, lf,
                   math.expm1(r.log_survival - lf), r.trace, _bound(N, b, t), "ok")
            for t, lf, r in zip(ts, terms[0], results))


def cmd_compare(args, config):
    """Oracle-vs-approximation table; the summary reports the worst
    |ratio - 1| N (t-b)^{3/2} over the successful rows."""
    eq, rows, status = _table(config, "compare", _compare_cells, config.max_oracle_n)
    worst = max((abs(ratio_minus_1) * N * (t - eq.b) ** 1.5
                 for N, t, _, _, _, ratio_minus_1, _, _, status_cell in rows
                 if status_cell == "ok"), default=None)
    _emit(args, config, COLUMNS["compare"], rows, summary={"max_scaled_deviation": worst})
    return status


def cmd_cramer(args, config):
    """Correction coefficients by order: rows j = 0..k with the growth
    threshold alpha_j and, for j >= 1, the coefficient d_j."""
    V = config.potential
    eq = solve_mrs(V)
    d = cramer_coefficients(eq, V, config.k)
    rows = [(j, alpha_threshold(j), d_j) for j, d_j in enumerate([None, *d])]
    _emit(args, config, COLUMNS["cramer"], rows)
    return 0


_EPILOG = """\
commands:
  equilibrium     solve the support problem and report its constants
  tail            tabulate the tail approximation over N and threshold grids
  compare         tabulate exact oracle vs approximation with error ratios
  cramer          tabulate correction coefficients and growth thresholds

config JSON keys:
  potential       {"coeffs": [c0, c1, ...], "ga_infinity": bool}; c_k multiplies x^k
                  and must be finite; "ga_infinity" is optional, must be a boolean
                  and enters no result
  N_list          non-empty list of positive integers that fit a double (tail, compare)
  t_grid | s_grid strictly increasing list of thresholds (tail, compare); give one
  k               correction order, integer in [0, 6] (default 3): the number of
                  d_j and alpha_j that equilibrium and cramer print; tail and
                  compare use it only to run the edge gate c_0 gamma^(-3/2) = 4/3
  output_format   "csv" or "json" (default csv; the --format flag wins)
  seed            integer (default 0), checked and otherwise unused: no
                  computation is random
  max_oracle_n    oracle feasibility cap for compare (default 200)
Any other key, at the top or in "potential", is rejected with exit status 2.

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
run exits 1 after writing every row; a compare row whose bound is not a
finite double is one.
"""


COMMANDS = {"equilibrium": cmd_equilibrium, "tail": cmd_tail, "compare": cmd_compare,
            "cramer": cmd_cramer}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="loggas",
        description="Equilibrium measures and upper-tail deviation tables "
                    "for log-gas ensembles.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=COMMANDS, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to JSON run config")
    parser.add_argument("--format", choices=("csv", "json"), default=None,
                        help="output format (overrides config)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
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
        return COMMANDS[args.command](args, config)
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
