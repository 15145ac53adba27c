"""Command-line interface: config validation, table shapes, formats,
exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import loggas
from loggas import cli, tails
from loggas.cli import COLUMNS, ConfigError, _write, load_config, main

GOLDEN = Path(__file__).parent / "golden"

GUE_POTENTIAL = {"coeffs": [0, 0, 0.5]}
EXTREME_T = [-math.inf, 1.0, 2.5, 1e12, math.inf]
EXTREME_S = [-1.0, 0.0, 1e-300, 0.5, 1e300]


def write_config(tmp_path, name="config.json", **keys):
    keys.setdefault("potential", GUE_POTENTIAL)
    path = tmp_path / name
    path.write_text(json.dumps(keys))
    return str(path)


def parse_csv(text):
    """Rows as dicts plus the trailing `# key = value` summary lines."""
    lines = text.splitlines()
    table = [ln for ln in lines if not ln.startswith("#")]
    summary = {}
    for ln in lines:
        if ln.startswith("# "):
            key, _, value = ln[2:].partition(" = ")
            summary[key] = value
    reader = csv.DictReader(io.StringIO("\n".join(table)))
    return list(reader), summary


class TestLoadConfig:
    def test_minimal(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.potential.coeffs == (0.0, 0.0, 0.5)
        assert cfg.k == 3
        assert cfg.output_format == "csv"
        assert cfg.max_oracle_n == 200

    def test_full(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, N_list=[10, 20], s_grid=[1.0, 2.0], k=5,
            output_format="json", seed=7, max_oracle_n=50))
        assert cfg.n_list == [10, 20]
        assert cfg.s_grid == [1.0, 2.0]
        assert cfg.t_grid is None
        assert (cfg.k, cfg.output_format, cfg.max_oracle_n) == (5, "json", 50)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "absent.json"))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("keys", [
        {"potential": None},
        {"potential": {"coeffs": []}},
        {"N_list": []},
        {"N_list": [0]},
        {"N_list": [2.5]},
        {"t_grid": []},
        {"t_grid": [3.0, 2.0]},
        {"t_grid": [2.5], "s_grid": [1.0]},
        {"k": 7},
        {"k": -1},
        {"output_format": "xml"},
        {"seed": "abc"},
        {"max_oracle_n": 0},
        # a JSON true or false is not a number, though Python's bool is an int
        {"N_list": [True]},
        {"N_list": [4, True]},
        {"t_grid": [True]},
        {"s_grid": [False, 1.0]},
        {"k": True},
        {"seed": False},
        {"max_oracle_n": True},
        {"potential": {"coeffs": [0, 0, True]}},
        # a JSON string is not a number, though float() parses it
        {"t_grid": ["2.5"]},
        {"s_grid": [0.5, "1.0"]},
        {"potential": {"coeffs": ["0", "0", "0.5"]}},
    ])
    def test_rejected_keys(self, tmp_path, keys):
        if keys.get("potential", "keep") is None:
            keys = dict(keys)
            del keys["potential"]
            path = tmp_path / "nopot.json"
            path.write_text(json.dumps(keys))
            with pytest.raises(ConfigError):
                load_config(str(path))
            return
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, **keys))


    @pytest.mark.parametrize("keys, named", [
        ({"K": 6}, "'K'"),
        ({"outputformat": "json"}, "'outputformat'"),
        ({"potential": {"coeffs": [0, 0, 0.5], "ga_infinty": True}}, "'ga_infinty'"),
    ])
    def test_unknown_key_is_rejected(self, tmp_path, keys, named):
        with pytest.raises(ConfigError, match=f"unknown (config|potential) key {named}"):
            load_config(write_config(tmp_path, **keys))

    @pytest.mark.parametrize("command", ["equilibrium", "tail", "compare", "cramer"])
    def test_misspelt_keys_exit_2(self, tmp_path, capsys, command):
        # a misspelt "k" and "output_format" ran with the defaults before
        cfg = write_config(tmp_path, potential={"coeffs": [0, 0, 0.5], "ga_infinty": True},
                           N_list=[4], t_grid=[2.5], K=6, outputformat="json")
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown config key 'K'; the keys are ")


class TestEquilibriumCommand:
    def test_csv_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["equilibrium", "--config", cfg]) == 0
        rows, summary = parse_csv(capsys.readouterr().out)
        assert summary == {}
        assert len(rows) == 1
        row = rows[0]
        assert float(row["a"]) == pytest.approx(-2.0, abs=1e-10)
        assert float(row["b"]) == pytest.approx(2.0, abs=1e-10)
        assert float(row["gamma"]) == pytest.approx(1.0, abs=1e-10)
        assert float(row["ell"]) == pytest.approx(1.0, abs=1e-9)
        assert float(row["d_1"]) == pytest.approx(0.1, abs=1e-6)
        assert float(row["alpha_0"]) == pytest.approx(4.0 / 15.0, abs=1e-12)
        assert list(row) == ["a", "b", "gamma", "ell", "residual_1",
                             "residual_2", "d_1", "d_2", "d_3",
                             "alpha_0", "alpha_1", "alpha_2", "alpha_3"]

    def test_json_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k=2)
        assert main(["equilibrium", "--config", cfg, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"a", "b", "gamma", "ell", "residuals",
                                "cramer", "alpha"}
        assert len(payload["cramer"]) == 2
        assert len(payload["alpha"]) == 3
        assert payload["b"] == pytest.approx(2.0, abs=1e-10)

    def test_format_flag_beats_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, output_format="json")
        assert main(["equilibrium", "--config", cfg, "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("a,b,gamma,ell")

    def test_two_cut_field_fails(self, tmp_path, capsys):
        cfg = write_config(tmp_path, potential={"coeffs": [0, 0, -4, 0, 1]})
        assert main(["equilibrium", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err


class TestTailCommand:
    def test_table_shape(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[10, 20], t_grid=[2.5, 3.0])
        assert main(["tail", "--config", cfg]) == 0
        rows, _ = parse_csv(capsys.readouterr().out)
        assert [(r["N"], r["t"]) for r in rows] == \
            [("10", "2.5"), ("10", "3"), ("20", "2.5"), ("20", "3")]
        assert all(r["status"] == "ok" for r in rows)
        assert all(float(r["log_F"]) < 0.0 for r in rows)
        assert all(float(r["eta_prime"]) > 0.0 for r in rows)
        assert rows[0]["regime"] in ("tracy-widom", "large") or \
            rows[0]["regime"].startswith("moderate")

    def test_s_grid_thresholds(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[20], s_grid=[1.0, 2.0])
        assert main(["tail", "--config", cfg]) == 0
        rows, _ = parse_csv(capsys.readouterr().out)
        scale = 20.0 ** (2.0 / 3.0)  # gamma = 1 here
        assert float(rows[0]["t"]) == pytest.approx(2.0 + 1.0 / scale, rel=1e-12)
        assert float(rows[1]["t"]) == pytest.approx(2.0 + 2.0 / scale, rel=1e-12)

    def test_row_error_keeps_going(self, tmp_path, capsys):
        # 1.0 sits below the support edge: that row fails, the rest pass
        cfg = write_config(tmp_path, N_list=[10], t_grid=[1.0, 3.0])
        assert main(["tail", "--config", cfg]) == 1
        rows, _ = parse_csv(capsys.readouterr().out)
        assert rows[0]["status"].startswith("error:")
        assert rows[0]["log_F"] == ""
        assert rows[1]["status"] == "ok"

    def test_extreme_t_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[10], t_grid=EXTREME_T)
        assert main(["tail", "--config", cfg]) == 1
        rows, _ = parse_csv(capsys.readouterr().out)
        assert [r["status"] for r in rows[:2]] == [
            "error: tail approximation needs t > b = 2.0, got -inf",
            "error: tail approximation needs t > b = 2.0, got 1.0"]
        assert rows[2]["status"] == rows[3]["status"] == "ok"
        # eta(t) = t^2/2 - 2 log t + O(1/t^2) for x^2/2
        assert float(rows[3]["eta"]) == pytest.approx(5e23, rel=1e-14)
        assert float(rows[3]["eta_prime"]) == pytest.approx(1e12, rel=1e-14)
        assert math.isfinite(float(rows[3]["log_F"]))
        assert rows[4]["status"].startswith("error: tail approximation not finite at t = inf:")
        assert rows[4]["eta"] == rows[4]["log_F"] == ""

    def test_extreme_s_grid(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[10], s_grid=EXTREME_S, output_format="json")
        assert main(["tail", "--config", cfg]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        # s = 1e-300 puts t on b itself
        for row in rows[:3]:
            assert row["status"] == f"error: tail approximation needs t > b = 2.0, got {row['t']!r}"
        assert rows[3]["status"] == "ok"
        # eta overflows at t = 2.15e299; eta' = sqrt(t^2 - 4) does not
        assert rows[4]["status"] == (f"error: tail approximation not finite at t = {rows[4]['t']!r}: "
                                     "log_F = nan, eta = nan, eta_prime = 2.1544346900318846e+299")
        assert rows[4]["eta"] is None

    def test_needs_grids(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[10])
        assert main(["tail", "--config", cfg]) == 2
        assert "error:" in capsys.readouterr().err
        cfg = write_config(tmp_path, t_grid=[2.5])
        assert main(["tail", "--config", cfg]) == 2


class TestCompareCommand:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[4], t_grid=[2.5])
        assert main(["compare", "--config", cfg]) == 0
        rows, summary = parse_csv(capsys.readouterr().out)
        row = rows[0]
        assert row["status"] == "ok"
        surv = float(row["survival_oracle"])
        assert 0.0 < surv < 1.0
        assert float(row["log_survival_oracle"]) == pytest.approx(
            math.log(surv), rel=1e-12)
        assert float(row["bound"]) == pytest.approx(
            1.0 / (4.0 * 0.5**1.5), rel=1e-9)
        scaled = abs(float(row["ratio_minus_1"])) * 4.0 * 0.5**1.5
        assert float(summary["max_scaled_deviation"]) == pytest.approx(
            scaled, rel=1e-12)

    def test_underflow_token(self, tmp_path, capsys):
        # survival near e^-699: positive, beneath every representable
        # double, and finite in log space
        cfg = write_config(tmp_path, N_list=[85], t_grid=[4.95])
        assert main(["compare", "--config", cfg]) == 0
        rows, _ = parse_csv(capsys.readouterr().out)
        row = rows[0]
        assert row["status"] == "ok"
        assert row["survival_oracle"] == "underflow"
        assert -708.0 < float(row["log_survival_oracle"]) < math.log(1e-300)
        assert abs(float(row["ratio_minus_1"])) < 0.01
        assert float(row["log_F"]) < -690.0

    def test_underflow_row_is_strict_json(self, tmp_path, capsys):
        # same row as above, and a failed row whose empty cells print as null
        cfg = write_config(tmp_path, N_list=[85], t_grid=[4.95, 12.0],
                           output_format="json")
        assert main(["compare", "--config", cfg]) == 1

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        row, failed = payload["rows"]
        assert row["survival_oracle"] == "underflow"
        assert math.isfinite(row["log_survival_oracle"])
        assert failed["status"].startswith("error:")
        assert failed["log_survival_oracle"] is None

    def test_no_mass_row_is_an_error(self, tmp_path, capsys):
        # GUE N = 50 has no normal-range kernel mass past t = 12: the row
        # fails, the run exits 1, and the summary covers the other row only
        cfg = write_config(tmp_path, N_list=[50], t_grid=[2.5, 12.0])
        assert main(["compare", "--config", cfg]) == 1
        rows, summary = parse_csv(capsys.readouterr().out)
        assert rows[0]["status"] == "ok"
        assert rows[1]["status"].startswith("error:")
        assert rows[1]["log_survival_oracle"] == "" and rows[1]["ratio_minus_1"] == ""
        scaled = abs(float(rows[0]["ratio_minus_1"])) * 50 * 0.5 ** 1.5
        assert float(summary["max_scaled_deviation"]) == pytest.approx(scaled, rel=1e-12)

    def test_constant_in_field(self, tmp_path, capsys):
        # x^2/2 + 100 has the kernel of x^2/2
        out = []
        for coeffs in ([0, 0, 0.5], [100, 0, 0.5]):
            cfg = write_config(tmp_path, potential={"coeffs": coeffs},
                               N_list=[50, 200], s_grid=[0.5, 16.0])
            assert main(["compare", "--config", cfg]) == 0
            rows, _ = parse_csv(capsys.readouterr().out)
            out.append([row["log_survival_oracle"] for row in rows])
        assert out[0] == out[1]

    @pytest.mark.parametrize("grid, ok_row, above", [
        ({"t_grid": EXTREME_T}, 2, ["threshold 1000000000000.0: ", "tail approximation not finite"]),
        ({"s_grid": EXTREME_S}, 3, ["tail approximation not finite"])], ids=["t_grid", "s_grid"])
    def test_extreme_thresholds(self, tmp_path, capsys, grid, ok_row, above):
        # below the ok row the tail approximation fails; above it the tail
        # fails where log_F is not finite (t = inf, 2.2e299), and the
        # oracle where it is (t = 1e12: no kernel mass past t)
        cfg = write_config(tmp_path, N_list=[10], **grid)
        assert main(["compare", "--config", cfg]) == 1
        rows, summary = parse_csv(capsys.readouterr().out)
        for row in rows[:ok_row]:
            assert row["status"] == f"error: tail approximation needs t > b = 2.0, got {float(row['t'])!r}"
        assert rows[ok_row]["status"] == "ok"
        assert len(rows) == ok_row + 1 + len(above)
        for row, start in zip(rows[ok_row + 1:], above):
            assert row["status"].startswith("error: " + start), row
        t = float(rows[ok_row]["t"])
        scaled = abs(float(rows[ok_row]["ratio_minus_1"])) * 10 * (t - 2.0) ** 1.5
        assert float(summary["max_scaled_deviation"]) == pytest.approx(scaled, rel=1e-12)

    def test_row_past_the_window(self, tmp_path, capsys):
        # GUE N = 500 ends its oracle window at 2.366; past it, at t = 2.4,
        # the survival is about e^-182.5 and the row is ok
        cfg = write_config(tmp_path, N_list=[500], t_grid=[2.4], max_oracle_n=500)
        assert main(["compare", "--config", cfg]) == 0
        rows, _ = parse_csv(capsys.readouterr().out)
        assert rows[0]["status"] == "ok"
        assert float(rows[0]["log_survival_oracle"]) == pytest.approx(-182.54006053165756,
                                                                      rel=1e-13)

    def test_failing_basis_fails_its_rows_only(self, tmp_path, capsys, monkeypatch):
        # GUE N = 700 reaches past the oracle window, so its basis raises;
        # its rows carry that error and the N = 10 rows still print.  The
        # oracle gets only the thresholds the tail did not fail (t > b,
        # finite log_F); those rows carry the tail's error at both N
        from loggas import kernel_oracle
        calls = []
        batch = kernel_oracle.gap_probabilities

        def recording(basis, V, ts):
            calls.append(list(ts))
            return batch(basis, V, ts)

        monkeypatch.setattr(kernel_oracle, "gap_probabilities", recording)
        cfg = write_config(tmp_path, N_list=[10, 700], t_grid=[0.5, 2.5, 3.0, math.inf],
                           max_oracle_n=1000)
        assert main(["compare", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and calls == [[2.5, 3.0]]
        rows, summary = parse_csv(captured.out)
        assert [row["N"] for row in rows] == ["10"] * 4 + ["700"] * 4
        for row in rows[::4]:
            assert row["status"] == "error: tail approximation needs t > b = 2.0, got 0.5"
        for row in rows[3::4]:
            assert row["status"].startswith("error: tail approximation not finite at t = inf")
        assert [row["status"] for row in rows[1:3]] == ["ok"] * 2
        for row in rows[5:7]:
            assert row["log_survival_oracle"] == ""
            assert row["status"].startswith("error: window [")
            assert "cuts off kernel mass at N = 700" in row["status"]
        assert float(summary["max_scaled_deviation"]) > 0.0

    def test_no_basis_without_oracle_rows(self, tmp_path, capsys, monkeypatch):
        # every threshold lies below b = 2, so the tail fails every row and
        # no N builds a basis, not even N = 700, whose basis would fail
        from loggas import kernel_oracle
        built = []
        build = kernel_oracle.build_basis

        def recording(V, N):
            built.append(N)
            return build(V, N)

        monkeypatch.setattr(kernel_oracle, "build_basis", recording)
        cfg = write_config(tmp_path, N_list=[400, 700], t_grid=[0.5, 1.0], max_oracle_n=700)
        assert main(["compare", "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.err == "" and built == []
        rows, summary = parse_csv(captured.out)
        assert [(row["N"], row["t"]) for row in rows] == [
            ("400", "0.5"), ("400", "1"), ("700", "0.5"), ("700", "1")]
        for row in rows:
            assert row["status"].startswith("error: tail approximation needs t > b = 2.0")
        assert summary["max_scaled_deviation"] == ""

    def test_oracle_cap(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[500], t_grid=[2.5])
        assert main(["compare", "--config", cfg]) == 2
        assert "max_oracle_n" in capsys.readouterr().err

    def test_json_payload(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[3], t_grid=[2.4],
                           output_format="json")
        assert main(["compare", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"rows", "summary"}
        assert payload["rows"][0]["N"] == 3
        assert payload["summary"]["max_scaled_deviation"] > 0.0


class TestCramerCommand:
    def test_rows(self, tmp_path, capsys):
        cfg = write_config(tmp_path, k=2)
        assert main(["cramer", "--config", cfg]) == 0
        rows, _ = parse_csv(capsys.readouterr().out)
        assert [r["j"] for r in rows] == ["0", "1", "2"]
        assert rows[0]["d_j"] == ""  # no order-zero coefficient
        assert float(rows[1]["d_j"]) == pytest.approx(0.1, abs=1e-6)
        assert float(rows[0]["alpha_j"]) == pytest.approx(4.0 / 15.0, abs=1e-12)


class TestPlumbing:
    def test_out_file_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, N_list=[3], t_grid=[2.2, 2.6])
        out1, out2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
        assert main(["compare", "--config", cfg, "--out", out1]) == 0
        assert main(["compare", "--config", cfg, "--out", out2]) == 0
        b1 = Path(out1).read_bytes()
        assert b1 == Path(out2).read_bytes()
        assert b1.startswith(b"N,t,log_survival_oracle")

    def test_main_freezes_the_import_heap(self, tmp_path):
        # the objects the imports made sit in the permanent generation, so
        # the collection at interpreter exit skips them
        src = os.path.dirname(os.path.dirname(loggas.__file__))
        cfg = write_config(tmp_path, k=2)
        code = ("import gc, sys, loggas.cli; "
                f"status = loggas.cli.main(['cramer', '--config', {cfg!r}]); "
                "print(status, gc.get_freeze_count(), file=sys.stderr)")
        err = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stderr
        status, frozen = map(int, err.split())
        assert status == 0 and frozen > 0

    def test_closed_pipe_keeps_the_exit_status(self, tmp_path):
        # a reader that stops after the header: no traceback, and the exit
        # status of the full run; the table is larger than a 64 KiB pipe
        # buffer, so the writer meets the closed pipe
        src = os.path.dirname(os.path.dirname(loggas.__file__))
        cfg = write_config(tmp_path, N_list=[10 * 2 ** i for i in range(10)],
                           t_grid=[2.01 + 0.01 * i for i in range(160)])
        command = [sys.executable, "-m", "loggas.cli", "tail", "--config", cfg]
        env = {**os.environ, "PYTHONPATH": src}
        full = subprocess.run(command, capture_output=True, env=env)
        assert full.returncode == 0 and len(full.stdout) > 65536
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=env)
        assert proc.stdout.readline().startswith(b"N,t,log_F,")
        proc.stdout.close()
        assert proc.wait(timeout=60) == full.returncode
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_import_loads_no_scipy(self):
        # numpy and the standard library are the only runtime dependencies;
        # every submodule is imported, since loggas.cli loads only some
        src = os.path.dirname(os.path.dirname(loggas.__file__))
        code = ("import loggas, loggas.cli, loggas.equilibrium, loggas.errors, "
                "loggas.kernel_oracle, loggas.potential, loggas.tails, sys; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "[]"

    @pytest.mark.parametrize("command", ["equilibrium", "tail", "cramer", "compare"])
    def test_only_compare_imports_the_oracle(self, tmp_path, command):
        # loggas.cli loads the oracle module only when compare runs, and
        # then only at an N with a threshold the tail did not fail: every
        # threshold of the second config lies below the support edge
        src = os.path.dirname(os.path.dirname(loggas.__file__))
        small = write_config(tmp_path, N_list=[4], t_grid=[2.5])
        bulk = write_config(tmp_path, "bulk.json", N_list=[400, 700], t_grid=[0.5, 1.0],
                            max_oracle_n=700)
        rows_fail = command in ("tail", "compare")
        for cfg, expected in ((small, ["False", "0", str(command == "compare")]),
                              (bulk, ["False", str(int(rows_fail)), "False"])):
            code = ("import sys, loggas.cli; "
                    "loaded = lambda: 'loggas.kernel_oracle' in sys.modules; "
                    "before = loaded(); "
                    f"status = loggas.cli.main([{command!r}, '--config', {cfg!r}]); "
                    "print(before, status, loaded(), file=sys.stderr)")
            err = subprocess.run([sys.executable, "-c", code], check=True,
                                 capture_output=True, text=True,
                                 env={**os.environ, "PYTHONPATH": src}).stderr
            assert err.split() == expected, cfg

    def test_no_runtime_warning(self, tmp_path):
        # non-finite and huge thresholds end as error rows, and numpy says
        # nothing on stderr
        src = os.path.dirname(os.path.dirname(loggas.__file__))
        extreme = write_config(tmp_path, N_list=[10, 50], t_grid=EXTREME_T)
        # an s_grid entry whose threshold overflows to +inf
        overflow = write_config(tmp_path, "overflow.json", potential={"coeffs": [0, 0, 5e-5]},
                                N_list=[4], s_grid=[1.0, 1e308])
        for cfg, ok_rows in ((extreme, {"tail": 4, "compare": 2}),
                             (overflow, {"tail": 1, "compare": 1})):
            for command, ok in ok_rows.items():
                proc = subprocess.run(
                    [sys.executable, "-W", "error::RuntimeWarning", "-m", "loggas.cli",
                     command, "--config", cfg],
                    capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
                assert (proc.returncode, proc.stderr) == (1, ""), (cfg, command)
                assert proc.stdout.count(",ok\n") == ok, (cfg, command)

    @pytest.mark.parametrize("command", ["tail", "compare"])
    def test_json_row_keys(self, tmp_path, capsys, command):
        # an error row and an ok row both carry every column, in CSV order
        cfg = write_config(tmp_path, N_list=[4], t_grid=[1.0, 2.5], output_format="json")
        assert main([command, "--config", cfg]) == 1
        error, ok = json.loads(capsys.readouterr().out)["rows"]
        assert error["status"].startswith("error:") and ok["status"] == "ok"
        assert list(error) == list(ok) == COLUMNS[command]

    @pytest.mark.parametrize("command", ["tail", "compare"])
    def test_tables_do_not_depend_on_k(self, tmp_path, capsys, command):
        # k only runs the edge gate here; equilibrium and cramer print d_1..d_k
        outputs = set()
        for k in (0, 3, 6):
            cfg = write_config(tmp_path, potential={"coeffs": [0, 0, 0, 0, 1]},
                               N_list=[10, 50], s_grid=[0.5, 4.0, 9.0, 30.0], k=k)
            outputs.add((main([command, "--config", cfg]), capsys.readouterr().out))
        assert len(outputs) == 1

    @pytest.mark.parametrize("command", ["tail", "compare"])
    def test_one_tail_evaluation_per_n(self, tmp_path, capsys, monkeypatch, command):
        sizes = []
        core = tails._eta

        def counting(eq, x):
            sizes.append(x.size)
            return core(eq, x)

        monkeypatch.setattr(tails, "_eta", counting)
        cfg = write_config(tmp_path, N_list=[4, 8, 16], t_grid=[1.0, 2.2, 2.5, 3.0])
        assert main([command, "--config", cfg]) == 1
        capsys.readouterr()
        assert sizes == [3, 3, 3]

    @pytest.mark.parametrize("command", ["tail", "compare"])
    def test_cramer_coefficients_once_per_run(self, tmp_path, capsys, monkeypatch, command):
        calls = []
        core = tails.cramer_coefficients

        def counting(eq, V, k):
            calls.append(k)
            return core(eq, V, k)

        monkeypatch.setattr(tails, "cramer_coefficients", counting)
        cfg = write_config(tmp_path, N_list=[4, 8, 16], t_grid=[2.2, 2.5, 3.0], k=5)
        assert main([command, "--config", cfg]) == 0
        capsys.readouterr()
        assert calls == [5]

    @pytest.mark.parametrize("command", ["equilibrium", "tail", "compare"])
    def test_field_with_far_wells_fails(self, tmp_path, capsys, command):
        # G > 0 on the one-cut support, but L - ell < 0 at x = +-10.938
        cfg = write_config(tmp_path, potential={"coeffs": [0, 0, 0.5, 0, -0.02, 0, 1e-4]},
                           N_list=[10], s_grid=[1.0])
        assert main([command, "--config", cfg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "numerical failure" in captured.err and "not one-cut" in captured.err

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    @pytest.mark.parametrize("command", ["equilibrium", "tail", "compare", "cramer"])
    def test_potential_as_json_string_exits_2(self, tmp_path, capsys, command):
        # "potential" is the JSON object itself, not a string that holds one
        cfg = write_config(tmp_path, potential=json.dumps(GUE_POTENTIAL), N_list=[4],
                           t_grid=[2.5])
        assert main([command, "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bad potential entry: potential entry must be "
                                "a JSON object\n")

    @pytest.mark.parametrize("argv", [["--help"], ["equilibrium", "--help"],
                                      ["tail", "--help"], ["compare", "--help"],
                                      ["cramer", "--help"]])
    def test_help_exits_0_and_lists_the_columns(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        # the epilog's column orders, continuation lines joined, up to a ";"
        section = capsys.readouterr().out.split("CSV column orders")[1].split("\n\n")[0]
        listed = {}
        for line in section.splitlines()[1:]:
            if line.startswith("   "):
                listed[name] += " " + line
            else:
                name, _, rest = line.strip().partition(" ")
                listed[name] = rest
        for command, columns in COLUMNS.items():
            assert " ".join(listed[command].split(";")[0].split()) == ", ".join(columns)

    def test_bad_config_path_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "none.json")
        assert main(["equilibrium", "--config", missing]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, N_list=[4], t_grid=[2.5])
        out = str(tmp_path / "missing" / "x.csv")
        assert main(["tail", "--config", cfg, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write output {out!r}: ")

    def test_failed_run_leaves_no_out_file(self, tmp_path, capsys):
        # the output file is opened only once every row is computed
        cfg = write_config(tmp_path, potential={"coeffs": [0, 0, 0.5, 0, -0.02, 0, 1e-4]},
                           N_list=[10], s_grid=[1.0])
        out = tmp_path / "x.csv"
        assert main(["tail", "--config", cfg, "--out", str(out)]) == 1
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()


GOLDEN_RUNS = [(command, fmt, suffix, field)
               for command, fmt, suffix in (("tail", "csv", "tail.csv"),
                                            ("compare", "json", "compare.json"),
                                            ("equilibrium", "json", "equilibrium.json"),
                                            ("cramer", "csv", "cramer.csv"))
               for field in ("gue", "quartic")] + [("tail", "csv", "tail.csv", "regimes")]


@pytest.mark.parametrize("command, fmt, suffix, field", GOLDEN_RUNS)
def test_golden_output(tmp_path, capsys, command, fmt, suffix, field):
    # tests/golden/<field>_<suffix> was written by `loggas <command> --config
    # tests/golden/<field>.json --format <fmt>`: tail and compare for gue
    # and quartic before the tail loop and the CSV writer were rewritten
    # (N_list [10, 40], 12 thresholds, the first below the support edge, so
    # the run exits 1), equilibrium and cramer for them before the oracle's
    # window-edge check and log_f_approx were rewritten; tail for regimes
    # before the regime rule had one implementation (GUE, N_list [5120,
    # 100000], 10 thresholds s, every label at N = 100000).
    # The files hold the last digits of numpy's log and sqrt and of
    # OpenBLAS on an AVX-512 x86-64 host with numpy 2.4; a platform whose
    # numpy rounds those differently prints other digits
    out = tmp_path / suffix
    status = main([command, "--config", str(GOLDEN / f"{field}.json"), "--format", fmt,
                   "--out", str(out)])
    failing = command in ("tail", "compare") and field != "regimes"
    assert (status, capsys.readouterr().err) == (int(failing), "")
    assert out.read_bytes() == (GOLDEN / f"{field}_{suffix}").read_bytes()
    if field == "regimes":
        rows, _ = parse_csv(out.read_text())
        labels = {row["regime"] for row in rows if row["N"] == "100000"}
        assert labels == {"tracy-widom", "large"} | {f"moderate({k})" for k in range(7)}


def _reference_fmt_cell(value):
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return "%.17g" % float(value)


def _reference_csv(fieldnames, rows, summary):
    """The CSV writer as it was: csv.writer over the _fmt_cell strings."""
    stream = io.StringIO()
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fieldnames)
    writer.writerows([_reference_fmt_cell(cell) for cell in row] for row in rows)
    for key, value in (summary or {}).items():
        stream.write(f"# {key} = {_reference_fmt_cell(value)}\n")
    return stream.getvalue()


WRITER_TABLES = {
    "error messages": [
        (10, 2.5, None, None, 'error: got "1,5", expected t > b = 2.0'),
        (10, 2.5, None, None, "error: a, b and c"),
        (10, 2.5, None, None, "error: two\nlines"),
        (10, 2.5, 0.1, 0.2, "ok"),
    ],
    # one table per character that needs quoting, so that each is the only
    # one in its run of formatted rows
    "comma in a label": [(10, 2.5, 0.1, 0.2, "ok, but a comma"), (10, 2.6, 0.1, 0.2, "ok")],
    "quote in a label": [(10, 2.5, 0.1, 0.2, 'ok "quoted"'), (10, 2.6, 0.1, 0.2, "ok")],
    "line break in a label": [(10, 2.5, 0.1, 0.2, "ok\nsplit"), (10, 2.6, 0.1, 0.2, "ok")],
    "carriage return in a label": [(10, 2.5, 0.1, 0.2, "ok\rsplit"), (10, 2.6, 0.1, 0.2, "ok")],
    "underflow tokens": [
        (40, 6.0, -712.3, "underflow", "ok"),
        (40, 6.5, -650.25, 1.5e-283, "ok"),
        (40, 7.0, -1e300, "underflow", "ok"),
    ],
    "None cells": [
        (0, None, None, None, ""),
        (None, None, None, None, None),
        (1, 0.26666666666666666, None, -0.004464285714285714, "moderate(0)"),
    ],
    "int cells": [
        (5120, 2, True, False, "large"),
        (-3, 10**30, 0, 7, "tracy-widom"),
        (np.int64(4), np.float64(0.1), np.float32(0.1), 2.0, "ok"),
        (1, math.inf, -math.inf, math.nan, "ok"),
        (1, 0.1, 1e-320, -0.0, ""),
    ],
}


@pytest.mark.parametrize("table", list(WRITER_TABLES))
def test_writer_matches_csv_writer(table, monkeypatch):
    rows = WRITER_TABLES[table]
    fieldnames = ["N", "t", "a", "b", "status"]
    summary = {"max_scaled_deviation": 0.125, "none": None}
    # each row type is looked up once, also one with no format (an error
    # row, with its empty cells)
    calls = []
    row_format = cli._row_format
    monkeypatch.setattr(cli, "_row_format", lambda types: calls.append(types) or row_format(types))
    stream = io.StringIO()
    _write(stream, "csv", fieldnames, rows, summary)
    assert stream.getvalue() == _reference_csv(fieldnames, rows, summary)
    assert len(calls) == len(set(calls))
    assert set(calls) == {tuple(map(type, row)) for row in [fieldnames, *rows]}
    # the same rows as lists, in one table, and with one cell
    stream = io.StringIO()
    _write(stream, "csv", fieldnames, [list(row) for row in rows] * 2)
    assert stream.getvalue() == _reference_csv(fieldnames, rows * 2, None)
    for cells in ([""], [None], ["a,b"], [1.5], ["ok"]):
        stream = io.StringIO()
        _write(stream, "csv", ["x"], [cells])
        assert stream.getvalue() == _reference_csv(["x"], [cells], None)

