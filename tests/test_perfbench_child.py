"""The names perfbench/child.py rebinds when it traces a run.

The traced benchmark child replaces module attributes of the program by
name (cli.solve_mrs, kernel_oracle.gap_probability, ...) and reads
arguments by position (cramer_coefficients(eq, V, k)'s V as args[1]).
A renamed function or a changed signature shows here as a failed child
or a missing span.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "perfbench" / "child.py"


def traced_spans(tmp_path, mode, *args):
    """Names of the spans of one traced child run, which must exit 0."""
    trace = tmp_path / f"{mode}-trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(CHILD), mode, "--trace", str(trace), *args],
                          env=dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {span[0] for span in json.loads(trace.read_text())["spans"]}


def test_traced_compare_records_every_stage(tmp_path):
    config = tmp_path / "gue.json"
    config.write_text(json.dumps({"potential": {"coeffs": [0.0, 0.0, 0.5]}, "N_list": [4, 8],
                                  "t_grid": [2.5, 3.0]}))
    spans = traced_spans(tmp_path, "cli", "compare", "--config", str(config))
    assert {"cli.main", "equilibrium.solve_mrs", "tails.build_tail_model",
            "tails.cramer_coefficients", "kernel_oracle.build_basis"} <= spans, spans


def test_traced_series_records_every_stage(tmp_path):
    spans = traced_spans(tmp_path, "series", "gue")
    assert {"kernel_oracle.build_basis", "kernel_oracle.gap_probability",
            "kernel_oracle.brute_force_survival"} <= spans, spans
