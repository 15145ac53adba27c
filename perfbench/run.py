"""loggas benchmark: runs the CLI in fresh processes, checks every output
and reports end-to-end or (with --trace 1) per-layer metrics.

    python3 perfbench/run.py --workload oracle_compare --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is taken from
`src/`.  Workloads, metrics and the layer -> end-to-end predictions are
described in perfbench/README.md.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}; the lines before
it are a readable report, and the full record (environment, samples,
failure categories) goes to .bench_build/perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

FIELDS = {
    "gue": [0.0, 0.0, 0.5],
    "quartic": [0.0, 0.0, 0.0, 0.0, 1.0],
    "sextic": [0.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.1],
    "asymmetric": [0.0, 0.5, 0.5, 0.2, 0.25],
}
ORACLE_N = [50, 100, 200, 300, 400]
TABLE_N = [10 * 2 ** i for i in range(10)]          # 10 .. 5120
K = 6
SERIES_PAIRS = 4                                      # N = 2..5, per field
EQUILIBRIUM_FIELDS = 4 + 2 + K + (K + 1)             # a b gamma ell, residuals, d_j, alpha_j

SETUP_SAMPLES_PER_CYCLE = 3  # set-up probes top up each iteration's own children to this
IMPORTTIME_PROBES = 3
CHILD_TIMEOUT_S = 120.0
# Time of one speed_probe() call on a quiet host (2-vCPU Xeon VM, Python
# 3.11, OpenBLAS on one thread).  Times are scaled by this over the
# probe time measured around each child, see Runner.
REFERENCE_PROBE_S = 0.2
RUN_LIMIT_S = 150.0       # start nothing new past this, to exit well inside 180 s

EXPECTED_DOMINANT = {
    "oracle_compare": {"kernel_oracle"},
    "analytic_tables": {"equilibrium", "tails"},
    "series_crosscheck": {"kernel_oracle"},
}
LAYERS = ("cli", "equilibrium", "tails", "kernel_oracle")


def s_grid(rng, lo, hi, n, seed):
    """geomspace(lo, hi, n); other seeds than 0 move each point by up to a
    quarter of the log spacing, which keeps the grid strictly increasing."""
    import numpy as np
    grid = np.geomspace(lo, hi, n).tolist()
    if seed == 0:
        return grid
    h = math.log(hi / lo) / (n - 1)
    return [s * math.exp(rng.uniform(-0.25, 0.25) * h) for s in grid]


def cli_spec(name, kind, subcommand, config, fmt, ops):
    return {"name": name, "kind": kind, "mode": "cli", "subcommand": subcommand,
            "config": config, "format": fmt, "ops": ops}


def workload_specs(workload, seed):
    """The invocations of one workload iteration, generated from the seed."""
    rng = random.Random(seed)
    if workload == "oracle_compare":
        specs = []
        for field, fmt in (("gue", "json"), ("quartic", "csv")):
            grid = s_grid(rng, 0.5, 32.0, 32, seed)
            config = {"potential": {"coeffs": FIELDS[field], "ga_infinity": False},
                      "N_list": ORACLE_N, "s_grid": grid, "k": K,
                      "max_oracle_n": max(ORACLE_N), "seed": seed}
            specs.append(cli_spec(f"compare-{field}", "compare", "compare", config, fmt,
                                  len(ORACLE_N) * len(grid)))
        return specs
    if workload == "analytic_tables":
        specs = []
        for field in ("gue", "quartic", "sextic", "asymmetric"):
            grid = s_grid(rng, 0.25, 256.0, 160, seed)
            config = {"potential": {"coeffs": FIELDS[field], "ga_infinity": False},
                      "N_list": TABLE_N, "s_grid": grid, "k": K, "seed": seed}
            specs.append(cli_spec(f"tail-{field}", "tail", "tail", config, "csv",
                                  len(TABLE_N) * len(grid)))
        config = {"potential": {"coeffs": FIELDS["gue"], "ga_infinity": False},
                  "k": K, "seed": seed}
        specs.append(cli_spec("equilibrium-gue", "equilibrium", "equilibrium", config,
                              "json", EQUILIBRIUM_FIELDS))
        return specs
    if workload == "series_crosscheck":
        # one process per field: shorter children let the speed probe
        # between them follow the host more closely
        return [{"name": f"series-{field}", "kind": "series", "mode": "series",
                 "fields": [field], "ops": SERIES_PAIRS} for field in ("gue", "quartic")]
    raise ValueError(workload)


def child_argv(spec, trace_path=None):
    argv = [sys.executable, CHILD, spec["mode"]]
    if trace_path:
        argv += ["--trace", trace_path]
    if spec["mode"] == "cli":
        argv += [spec["subcommand"], "--config", spec["config_path"]]
        if spec["format"] == "json":
            argv += ["--format", "json"]
    elif spec["mode"] == "series":
        argv += spec["fields"]
    return argv


def speed_probe_kernel():
    """A fixed CPU kernel in the mix the children run: interpreted Python,
    numpy element-wise work, a small LAPACK eigenproblem and batched 4x4
    determinants of gathered submatrices.  Returns a function that runs
    it once and returns its time in seconds."""
    import numpy as np
    rng = np.random.default_rng(0)
    a = rng.standard_normal((120, 120))
    a = a + a.T
    x = rng.standard_normal(200_000)
    m = rng.standard_normal((24, 24))
    m = m @ m.T
    idx = rng.integers(0, 24, size=(20_000, 4))

    def probe():
        start = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        for _ in range(20):
            np.linalg.eigh(a)
            np.exp(np.sin(x)).sum()
        for _ in range(10):
            np.linalg.det(m[idx[:, :, None], idx[:, None, :]]).sum()
        return time.perf_counter() - start

    return probe


class Runner:
    """Starts child processes one at a time and waits for each.

    With a speed probe, the probe runs between children, and each result
    carries `scale`: REFERENCE_PROBE_S over the mean probe time just
    before and just after the child.  A shared host's speed drifts by
    tens of percent over minutes; times multiplied by `scale` read as on
    the quiet reference host, so that drift cancels while a change of
    the program's own speed shows in full.
    """

    def __init__(self, work_dir, env, speed_probe=None):
        self.work_dir = work_dir
        self.env = env
        self.count = 0
        self.speed_probe = speed_probe
        self.last_probe = None
        self.probe_times = []

    def run(self, argv):
        """Run argv; return wall, set-up, max RSS (MB), exit code, stdout,
        stderr and the time scale."""
        if self.speed_probe and self.last_probe is None:
            self.last_probe = self.speed_probe()
        result = self._run(argv)
        result["scale"] = 1.0
        if self.speed_probe:
            before, self.last_probe = self.last_probe, self.speed_probe()
            self.probe_times.append(self.last_probe)
            result["scale"] = REFERENCE_PROBE_S / (0.5 * (before + self.last_probe))
        return result

    def _run(self, argv):
        self.count += 1
        out_path = os.path.join(self.work_dir, f"child{self.count}.out")
        err_path = os.path.join(self.work_dir, f"child{self.count}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
                timer.join()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read().decode("utf-8", "replace")
        setup = None
        for line in stderr.splitlines():
            if line.startswith("perfbench-setup "):
                setup = float(line.split()[1]) - start
                break
        return {"wall": end - start, "setup": setup, "rss_mb": usage.ru_maxrss / 1024.0,
                "code": proc.returncode, "stdout": stdout, "stderr": stderr}


class Run:
    """One benchmark run: iterations of a workload, checked as they go."""

    def __init__(self, specs, runner, checker):
        self.specs = specs
        self.runner = runner
        self.checker = checker
        self.hashes = {}
        self.setups = []              # scaled, see Runner
        self.raw_setups = []
        self.rss = []
        self.iterations = []          # (wall, ok ops, attempted ops)
        self.walls = defaultdict(list)  # invocation name -> scaled wall of each run
        self.raw_walls = defaultdict(list)
        # (invocation, operation index) -> failure categories over every
        # iteration, so an operation counts once however many iterations fit
        self.outcomes = {}
        self.problems = []
        self.extras = defaultdict(list)

    def probe(self):
        result = self.runner.run([sys.executable, CHILD, "probe"])
        self._require(result, "probe", (0,))
        self._record_setup(result)

    def iteration(self, trace_dir=None):
        """Run every invocation once; return the wall time and the traced
        children's records (when trace_dir is given)."""
        results, traces = [], []
        start = time.monotonic()
        for spec in self.specs:
            trace_path = None
            if trace_dir:
                trace_path = os.path.join(trace_dir, f"{spec['name']}.trace.json")
            results.append(self.runner.run(child_argv(spec, trace_path)))
            traces.append(trace_path)
        wall = time.monotonic() - start
        ok_ops = attempted = 0
        records = []
        for spec, result, trace_path in zip(self.specs, results, traces):
            self.walls[spec["name"]].append(result["wall"] * result["scale"])
            self.raw_walls[spec["name"]].append(result["wall"])
            ok, ops = self._check(spec, result)
            ok_ops += ok
            attempted += ops
            if trace_path is None:
                continue
            if not os.path.exists(trace_path):
                self.problems.append(f"{spec['name']}: no trace written")
                continue
            with open(trace_path, encoding="utf-8") as fh:
                record = json.load(fh)
            record["setup"] = result["setup"]
            record["rows"] = ops if spec["kind"] in ("tail", "compare") else 0
            records.append(record)
        self.iterations.append((wall, ok_ops, attempted))
        return wall, records

    def _record_setup(self, result):
        if result["setup"] is not None:
            self.setups.append(result["setup"] * result["scale"])
            self.raw_setups.append(result["setup"])

    def _require(self, result, name, codes):
        if result["code"] not in codes:
            tail = result["stderr"].strip().splitlines()[-1:] or [""]
            self.problems.append(f"{name}: exit code {result['code']} ({tail[0]})")
        if result["setup"] is None:
            self.problems.append(f"{name}: no set-up stamp")

    def _check(self, spec, result):
        # the CLI exits 1 when some row carries an error status; the rows
        # are still printed and are judged one by one
        self._require(result, spec["name"], (0, 1) if spec["mode"] == "cli" else (0,))
        self._record_setup(result)
        self.rss.append(result["rss_mb"])
        text = result["stdout"].decode("utf-8", "replace")
        reasons, problems, extras = self.checker.check(spec, text)
        self.problems += problems
        for key, value in extras.items():
            self.extras[key].append(value)
        digest = hashlib.sha256(result["stdout"]).hexdigest()
        first = self.hashes.setdefault(spec["name"], digest)
        if digest != first:
            self.problems.append(f"{spec['name']}: stdout differs from its first run")
            reasons = [r + ["determinism"] for r in reasons]
        for index, why in enumerate(reasons):
            self.outcomes.setdefault((spec["name"], index), set()).update(why)
        failed = sum(1 for why in reasons if why)
        return len(reasons) - failed, len(reasons)

    @property
    def attempted(self):
        return len(self.outcomes)

    @property
    def failed(self):
        return sum(1 for why in self.outcomes.values() if why)

    @property
    def categories(self):
        return Counter(c for why in self.outcomes.values() for c in why)

    @property
    def by_invocation(self):
        return Counter(name for (name, _), why in self.outcomes.items() if why)


def importtime_probe(runner):
    """(import loggas.cli, scipy share of it) in seconds, from -X importtime."""
    result = runner.run([sys.executable, "-X", "importtime", "-c", "import loggas.cli"])
    total = scipy = 0.0
    stack = []                         # (level, inside a scipy subtree)
    entries = []
    for line in result["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue
        name = parts[2].rstrip()
        level = (len(name) - len(name.lstrip())) // 2
        entries.append((level, name.strip(), self_us, cum_us))
    # children are printed before their parent, so walk backwards
    for level, name, self_us, cum_us in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        inside = (bool(stack) and stack[-1][1]) or name == "scipy" or name.startswith("scipy.")
        stack.append((level, inside))
        if inside:
            scipy += self_us
        if level == 0 and (name == "loggas" or name.startswith("loggas.")):
            total += cum_us
    return total * 1e-6, scipy * 1e-6


def quantile(values, q):
    """Linear-interpolation quantile, 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(records, traced_wall):
    """Per-layer metrics from the traced children's span records."""
    calls, self_s = Counter(), Counter()
    durations = defaultdict(list)
    by_n = Counter()
    layer_self = Counter()
    distinct, counts, errors = Counter(), Counter(), {}
    setup = 0.0
    for record in records:
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, size in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent, size), inner in zip(spans, child_time):
            dur = end - start
            own = dur - inner
            calls[name] += 1
            self_s[name] += own
            durations[name].append(dur)
            layer_self[name.split(".")[0]] += own
            if name == "kernel_oracle.build_basis":
                by_n[f"kernel_oracle.build_basis.self_s.N{size}"] += own
            elif name == "kernel_oracle.gap_probability":
                by_n[f"kernel_oracle.gap_probability.total_s.N{size}"] += dur
        distinct.update(record["distinct"])
        counts.update(record["counts"])
        for key, value in record["errors"].items():
            errors[key] = max(errors.get(key, 0.0), value)
        setup += record["setup"] or 0.0
    m = {}
    for name in ("equilibrium.solve_mrs", "equilibrium.eta", "equilibrium.eta_prime",
                 "tails.cramer_coefficients", "tails.log_f_approx",
                 "kernel_oracle.build_basis", "kernel_oracle.gram",
                 "kernel_oracle.gap_probability", "kernel_oracle.brute_force_survival"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s[name]
    for name in ("equilibrium.eta", "equilibrium.eta_prime", "tails.cramer_coefficients"):
        m[f"{name}.distinct_frac"] = distinct[name] / calls[name] if calls[name] else 0.0
    gap = durations["kernel_oracle.gap_probability"]
    m["kernel_oracle.gap_probability.p50_ms"] = 1e3 * quantile(gap, 0.5)
    m["kernel_oracle.gap_probability.p90_ms"] = 1e3 * quantile(gap, 0.9)
    for N in ORACLE_N:
        for key in (f"kernel_oracle.build_basis.self_s.N{N}",
                    f"kernel_oracle.gap_probability.total_s.N{N}"):
            m[key] = by_n[key]
    m["cli.main.self_s"] = self_s["cli.main"]
    m["cli.rows"] = sum(record["rows"] for record in records)
    m["potential.eval.calls"] = counts["potential.eval"]
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = layer_self[layer] / traced_wall
    m["loggas.setup_frac"] = setup / traced_wall
    for key in ("kernel_oracle.beta_max_err", "tails.cramer_max_err", "equilibrium.eta_max_err"):
        m[key] = errors.get(key, 0.0)
    kernel_calls = sum(v for k, v in calls.items() if k.startswith("kernel_oracle."))
    return m, layer_self, kernel_calls


def environment(threads, seed):
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(EXPECTED_DOMINANT))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds through Runner.run, which stops its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "loggas", "cli.py")):
        print(f"error: no loggas sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from check import Checker, finite_number

    run_start = time.monotonic()
    work_dir = os.path.join(ROOT, ".bench_build", "perfbench",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    # one BLAS thread in every process: the load is one thread of one
    # process at a time, so a busy neighbour core moves the figures less
    threads = 1
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(threads)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    specs = workload_specs(args.workload, args.seed)
    for spec in specs:
        if spec["mode"] == "cli":
            spec["config_path"] = os.path.join(work_dir, f"{spec['name']}.json")
            with open(spec["config_path"], "w", encoding="utf-8") as fh:
                json.dump(spec["config"], fh)
    # the untraced run scales its times by the speed probe; the traced run
    # compares two iterations of its own and needs none
    runner = Runner(work_dir, env, speed_probe_kernel() if args.trace == 0 else None)
    run = Run(specs, runner, Checker())
    runner.run([sys.executable, CHILD, "probe"])       # untimed: fills bytecode caches

    metrics, report = {}, []
    if args.trace == 0:
        deadline = run_start + min(args.seconds, RUN_LIMIT_S)
        cycles = []
        while True:
            cycle_start = time.monotonic()
            for _ in range(SETUP_SAMPLES_PER_CYCLE - len(specs)):
                run.probe()
            run.iteration()
            cycles.append(time.monotonic() - cycle_start)
            if time.monotonic() + statistics.median(cycles) > deadline:
                break
        metrics["setup_s"] = statistics.median(run.setups)
        # each invocation's median wall damps a slow spell in one iteration
        wall = sum(statistics.median(walls) for walls in run.walls.values())
        metrics["ok_ops_per_s"] = statistics.median(ok for _, ok, _ in run.iterations) / wall
        metrics["ok_frac"] = (run.attempted - run.failed) / run.attempted
        metrics["peak_rss_mb"] = max(run.rss)
        raw_wall = sum(statistics.median(walls) for walls in run.raw_walls.values())
        report.append(f"unscaled: setup_s {statistics.median(run.raw_setups):.6g} s, ok_ops_per_s "
                      f"{statistics.median(ok for _, ok, _ in run.iterations) / raw_wall:.6g} ops/s; "
                      f"speed probe median {statistics.median(runner.probe_times):.6g} s "
                      f"(reference {REFERENCE_PROBE_S} s)")
        wanted = declared["end_to_end"]
    else:
        probes = [importtime_probe(runner) for _ in range(IMPORTTIME_PROBES)]
        untraced_wall, _ = run.iteration()
        traced_dir = os.path.join(work_dir, "traced")
        os.makedirs(traced_dir)
        traced_wall, records = run.iteration(trace_dir=traced_dir)
        metrics, layer_self, kernel_calls = layer_metrics(records, traced_wall)
        metrics["loggas.import_s"] = statistics.median(p[0] for p in probes)
        metrics["loggas.import_scipy_s"] = statistics.median(p[1] for p in probes)
        deviations = map(finite_number, run.extras["max_scaled_deviation"])
        metrics["cli.max_scaled_deviation"] = max((d for d in deviations if d is not None),
                                                  default=0.0)
        metrics["kernel_oracle.series_max_diff"] = max(run.extras["series_max_diff"], default=0.0)
        metrics["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
        dominant = max(LAYERS, key=lambda layer: layer_self[layer])
        expected = EXPECTED_DOMINANT[args.workload]
        report.append(f"dominant layer (self time, set-up aside): {dominant}; expected "
                      f"{' or '.join(sorted(expected))}: {'yes' if dominant in expected else 'NO'}")
        report.append("layer self time: " + ", ".join(
            f"{layer} {layer_self[layer]:.3f} s" for layer in LAYERS)
            + f"; traced wall {traced_wall:.3f} s")
        report.append(f"kernel_oracle calls: {kernel_calls}")
        wanted = declared["per_layer"]

    unknown = [m["name"] for m in wanted if m["name"] not in metrics]
    if unknown:
        raise SystemExit(f"metrics not computed: {unknown}")
    result_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                      for m in wanted}
    correct = not run.problems
    env_record = environment(threads, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_record,
        "samples": {"iterations": len(run.iterations), "setup": len(run.setups),
                    "iteration_walls_s": [w for w, _, _ in run.iterations],
                    "iteration_ok_ops": [ok for _, ok, _ in run.iterations],
                    "setup_s": run.setups, "unscaled_setup_s": run.raw_setups,
                    "unscaled_walls_s": run.raw_walls,
                    "speed_probe_s": runner.probe_times},
        "correct": correct, "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failed_by_category": dict(run.categories),
        "failed_by_invocation": dict(run.by_invocation),
        "metrics": result_metrics,
    }
    results_dir = os.path.join(ROOT, ".bench_build", "perfbench", "results")
    os.makedirs(results_dir, exist_ok=True)
    result_path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_record.items()))
    print(f"samples: {len(run.iterations)} iterations, {len(run.setups)} set-up samples")
    for name, entry in result_metrics.items():
        print(f"  {name:<48} {entry['value']:.6g} {entry['unit']}")
    print(f"failed_frac {record['failed_frac']:.6g} ({run.failed} of {run.attempted} operations)"
          + "".join(f"; {k} {v}" for k, v in sorted(run.categories.items())))
    if run.failed:
        print("failed operations by invocation: " + ", ".join(
            f"{k} {v}" for k, v in sorted(run.by_invocation.items()) if v))
    for line in report + [f"problem: {p}" for p in run.problems]:
        print(line)
    print(f"record: {os.path.relpath(result_path, ROOT)}")
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
