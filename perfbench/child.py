"""One fresh benchmark process.

    python child.py probe                      set-up only: import loggas.cli
    python child.py cli [--trace OUT] ARGV...  run loggas.cli.main(ARGV)
    python child.py series [--trace OUT] FIELD...
                                               det-vs-series pairs of the
                                               fields (gue, quartic), one
                                               JSON line per pair on stdout

`src` must be on PYTHONPATH.  Right after `import loggas.cli` returns the
process writes `perfbench-setup <time.monotonic()>` as its first stderr
line; CLOCK_MONOTONIC is shared by all processes, so the parent turns
that into the set-up time of this process.

With --trace the process replaces the module attributes that callers
look up at call time with span-recording wrappers (no file of the
program changes), keeps every span in memory and writes them, with the
counters, to OUT once at exit.
"""

import json
import sys
import time

SERIES_SIZES = (2, 3, 4, 5)
SERIES_OFFSET = 0.5


class Tracer:
    """Spans and counters of one process.

    A wrapper only appends [name, start, end, parent, args, result]; the
    argument keys, oracle sizes and closed-form errors are derived from
    the kept arguments at exit, so that work lands in no span's time.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.post = {}
        self.counts = {"potential.eval": 0}

    def span(self, name, func, key=None, size=None, check=None):
        """Wrap func so each call records a span named name.

        key(args) gives the argument identity behind distinct_frac,
        size(args, result) the oracle size N of the call, and
        check(args, result) returns (error name, value) pairs for the
        closed-form error maxima.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        self.post[name] = (key, size, check)

        def wrapper(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, args, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                record[5] = func(*args, **kwargs)
            finally:
                stack.pop()
                record[2] = clock()
            return record[5]

        return wrapper

    def install(self):
        import numpy as np
        from check import GUE, gue_cramer, gue_eta

        import loggas.cli as cli
        import loggas.kernel_oracle as oracle
        import loggas.tails as tails
        from loggas.potential import Potential

        def is_gue(V):
            return tuple(V.coeffs) == GUE

        def eq_key(eq, V):
            return (tuple(V.coeffs), eq.a, eq.b)

        def point_key(args):
            eq, V, x = args[:3]
            return eq_key(eq, V) + (float(x),)

        def check_eta(args, result):
            eq, V, x = args[:3]
            if is_gue(V) and x > 2.0:
                yield ("equilibrium.eta_max_err",
                       abs(result - gue_eta(x)) / max(1.0, abs(result)))

        def check_cramer(args, result):
            if is_gue(args[1]):
                for j, d in enumerate(result, start=1):
                    yield "tails.cramer_max_err", abs(d - gue_cramer(j))

        def check_basis(args, basis):
            if is_gue(args[0]):
                j = np.arange(1, basis.N)
                yield "kernel_oracle.beta_max_err", max(
                    float(np.max(np.abs(basis.alpha))),
                    float(np.max(np.abs(basis.beta[1:] - j / basis.N), initial=0.0)))

        eta = self.span("equilibrium.eta", tails.eta, key=point_key, check=check_eta)
        eta_prime = self.span("equilibrium.eta_prime", tails.eta_prime, key=point_key)
        cramer = self.span("tails.cramer_coefficients", tails.cramer_coefficients,
                           key=lambda a: eq_key(a[0], a[1]) + (a[2],), check=check_cramer)
        build_basis = self.span("kernel_oracle.build_basis", oracle.build_basis,
                                size=lambda a, r: r.N, check=check_basis)
        gap_probability = self.span("kernel_oracle.gap_probability",
                                    oracle.gap_probability, size=lambda a, r: a[0].N)
        for module in (cli, tails):
            module.eta, module.eta_prime, module.cramer_coefficients = eta, eta_prime, cramer
        cli.solve_mrs = self.span("equilibrium.solve_mrs", cli.solve_mrs)
        cli.build_tail_model = self.span("tails.build_tail_model", cli.build_tail_model)
        cli.log_f_approx = self.span("tails.log_f_approx", cli.log_f_approx)
        cli.build_basis = oracle.build_basis = build_basis
        cli.gap_probability = oracle.gap_probability = gap_probability
        oracle.gram = self.span("kernel_oracle.gram", oracle.gram)
        oracle.brute_force_survival = self.span("kernel_oracle.brute_force_survival",
                                                oracle.brute_force_survival)

        counts, evaluate = self.counts, Potential.eval

        def counted_eval(V, x, order=0):
            counts["potential.eval"] += 1
            return evaluate(V, x, order)

        Potential.eval = counted_eval

    def write(self, path):
        """Write spans as [name, start, end, parent, N] plus the derived
        distinct-argument counts, counters and error maxima."""
        distinct, errors, spans = {}, {}, []
        for name, start, end, parent, args, result in self.spans:
            key, size, check = self.post[name]
            if key is not None:
                distinct.setdefault(name, set()).add(key(args))
            if check is not None:
                for err_name, value in check(args, result):
                    errors[err_name] = max(errors.get(err_name, 0.0), float(value))
            spans.append([name, start, end, parent,
                          None if size is None else size(args, result)])
        record = {
            "spans": spans,
            "distinct": {name: len(keys) for name, keys in distinct.items()},
            "counts": self.counts,
            "errors": errors,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def run_series(fields):
    """Fredholm determinant against the brute-force series, N = 2..5."""
    from check import GUE, QUARTIC

    import loggas.kernel_oracle as oracle
    from loggas.potential import Potential

    # t = b + 0.5 with the closed-form right edges b = 2 and (4/3)^(1/4)
    edges = {"gue": (GUE, 2.0), "quartic": (QUARTIC, (4.0 / 3.0) ** 0.25)}
    for field in fields:
        coeffs, b = edges[field]
        V = Potential(coeffs)
        t = b + SERIES_OFFSET
        for N in SERIES_SIZES:
            # looked up on the module at call time, so traced runs see spans
            basis = oracle.build_basis(V, N)
            direct = oracle.gap_probability(basis, V, t).survival
            series = oracle.brute_force_survival(basis, V, t)
            print(json.dumps({"field": field, "N": N, "t": t,
                              "direct": direct, "series": series}), flush=True)
    return 0


def main(argv):
    mode, rest = argv[0], argv[1:]
    trace_path = None
    if rest[:1] == ["--trace"]:
        trace_path, rest = rest[1], rest[2:]
    import loggas.cli

    sys.stderr.write(f"perfbench-setup {time.monotonic()!r}\n")
    sys.stderr.flush()
    tracer = Tracer() if trace_path else None
    if tracer:
        tracer.install()
    if mode == "probe":
        status = 0
    elif mode == "cli":
        main_fn = loggas.cli.main
        if tracer:
            main_fn = tracer.span("cli.main", main_fn)
        status = main_fn(rest)
    elif mode == "series":
        series_fn = run_series
        if tracer:
            series_fn = tracer.span("bench.series", series_fn)
        status = series_fn(rest)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    if tracer:
        tracer.write(trace_path)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
