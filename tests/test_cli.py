import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import COMPONENTS, simulate_dataset

import zadr.inference
from zadr import cli
from zadr.errors import NonFiniteObjective
from zadr.model import fitted_values, load_model


@pytest.fixture
def data_csv(tmp_path):
    ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
    path = tmp_path / "data.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COMPONENTS + ["logdepth"])
        for i in range(ds.n):
            w.writerow([repr(float(v)) for v in ds.values[i]]
                       + [repr(float(X.design[i, 1]))])
    return path


COMP_ARG = ",".join(COMPONENTS)


def run(*argv):
    return cli.main(list(argv))


class TestFit:
    def test_fit_writes_model_and_companion(self, data_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out))
        assert code == 0
        assert out.exists()
        assert (tmp_path / "model.initial.json").exists()
        printed = capsys.readouterr().out
        assert "phi" in printed and "Obesa" in printed

    def test_missing_input_is_io_error(self, tmp_path):
        assert run("fit", "--input", str(tmp_path / "nope.csv"),
                   "--components", COMP_ARG, "--out", str(tmp_path / "m.json")) == 1

    def test_unknown_component_is_validation_error(self, data_csv, tmp_path):
        assert run("fit", "--input", str(data_csv), "--components", "a,b,c,d",
                   "--out", str(tmp_path / "m.json")) == 2

    def test_nonconvergence_exits_3_but_writes_model(self, data_csv, tmp_path, monkeypatch):
        import zadr.cli as cli_mod
        from dataclasses import replace

        real_fit = cli_mod.fit

        def stubborn_fit(*args, **kwargs):
            initial, final = real_fit(*args, **kwargs)
            return initial, replace(final, converged=False)

        monkeypatch.setattr(cli_mod, "fit", stubborn_fit)
        out = tmp_path / "m.json"
        code = run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out))
        assert code == 3
        assert load_model(out).converged is False

    def test_aitchison_baseline(self, data_csv, tmp_path):
        out = tmp_path / "ait.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--kind", "aitchison-ols",
                   "--out", str(out)) == 0
        model = load_model(out)
        assert model.loglik is None

    def test_short_row_is_validation_error(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        short.write_text("y:a,y:b,logdepth\n0.4,0.6\n")
        assert run("fit", "--input", str(short), "--out", str(tmp_path / "m.json")) == 2
        assert "data row 0" in capsys.readouterr().err

    def test_deterministic_reruns_byte_identical(self, data_csv, tmp_path):
        out1, out2 = tmp_path / "m1.json", tmp_path / "m2.json"
        for out in (out1, out2):
            assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                       "--covariates", "logdepth", "--seed", "4", "--out", str(out)) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestPredict:
    def test_round_trip_matches_in_memory_fitted_values(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        pred_path = tmp_path / "pred.csv"
        assert run("predict", "--model", str(model_path), "--input", str(data_csv),
                   "--out", str(pred_path)) == 0
        from zadr.compositions import read_csv

        _, X = read_csv(data_csv, components=COMPONENTS, covariates=["logdepth"])
        expected = fitted_values(load_model(model_path), X).values
        with open(pred_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == COMPONENTS
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        assert np.array_equal(got, expected)

    def test_missing_covariate_column_is_schema_error(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        bad = tmp_path / "bad.csv"
        bad.write_text("depthx\n1.0\n")
        assert run("predict", "--model", str(model_path), "--input", str(bad),
                   "--out", str(tmp_path / "p.csv")) == 2


    def test_short_row_is_validation_error(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        short = tmp_path / "short.csv"
        short.write_text("a,logdepth\n1.0\n")
        assert run("predict", "--model", str(model_path), "--input", str(short),
                   "--out", str(tmp_path / "p.csv")) == 2


class TestDiagnose:
    def test_diagnose_writes_result(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        out = tmp_path / "diag.json"
        code = run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19", "--seed", "2", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["T"] >= 0.0
        assert 1.0 / (doc["B_reps"] + 1) <= doc["pvalue"] <= 1.0
        printed = capsys.readouterr().out
        assert "p-value" in printed

    def _diagnose_counting_fits(self, data_csv, tmp_path, monkeypatch, fail_every=0):
        """Run `diagnose --B 28 --bias`; returns (replicate fit calls, JSON)."""
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        monkeypatch.setenv("ZADR_THREADS", "1")
        real_fit = zadr.inference.fit
        calls = []

        def counted_fit(*args):
            calls.append(1)
            if fail_every and len(calls) % fail_every == 0:
                raise NonFiniteObjective("injected")
            return real_fit(*args)

        monkeypatch.setattr(zadr.inference, "fit", counted_fit)
        out = tmp_path / "diag.json"
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "28", "--seed", "2", "--bias", "--out", str(out)) == 0
        return len(calls), json.loads(out.read_text())

    def test_bias_table_comes_from_the_one_bootstrap_pass(self, data_csv, tmp_path, capsys,
                                                          monkeypatch):
        calls, doc = self._diagnose_counting_fits(data_csv, tmp_path, monkeypatch)
        assert calls == 28
        assert doc["failures"] == 0 and doc["failure_causes"] == {}
        lines = capsys.readouterr().out.splitlines()
        table = lines[lines.index(f"{'parameter':>24}  {'estimate':>12}  {'bias':>12}") + 1:]
        names = load_model(tmp_path / "m.json").parameter_names()
        assert [row.split()[0] for row in table] == names
        assert all(np.isfinite(float(row.split()[2])) for row in table)

    def test_failures_printed_and_saved_by_cause(self, data_csv, tmp_path, capsys,
                                                 monkeypatch):
        calls, doc = self._diagnose_counting_fits(data_csv, tmp_path, monkeypatch,
                                                  fail_every=4)
        assert calls == 28
        assert doc["failures"] == 7 and doc["failure_causes"] == {"NonFiniteObjective": 7}
        assert "replicates = 21  failures = 7 (NonFiniteObjective: 7)" in capsys.readouterr().out

    def test_small_B_rejected(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "5") == 2

    def test_aitchison_model_rejected(self, data_csv, tmp_path):
        model_path = tmp_path / "ait.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--kind", "aitchison-ols", "--out", str(model_path))
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19") == 2


class TestSimulate:
    def test_mse_csv_schema(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "3", "--seed", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,parameter,MSE,successes"
        assert len(lines) == 8  # 7 parameters for D=4, p=1

    def test_covariates_only_design(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        design = tmp_path / "design.csv"
        design.write_text("logdepth\n" + "".join(f"{float(np.log(d))!r}\n" for d in range(1, 31)))
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--input", str(design),
                   "--sizes", "30", "--reps", "2", "--seed", "1", "--out", str(out)) == 0
        assert len(out.read_text().strip().splitlines()) == 8

    def test_repeated_size_is_validation_error(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        assert run("simulate", "--model", str(model_path), "--sizes", "30,30",
                   "--reps", "2", "--out", str(tmp_path / "mse.csv")) == 2
        assert "got 30" in capsys.readouterr().err


class TestPlot:
    def _model(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        return model_path

    def test_ordered_bar_data(self, data_csv, tmp_path):
        model_path = self._model(data_csv, tmp_path)
        out = tmp_path / "plot.csv"
        svg = tmp_path / "plot.svg"
        assert run("plot", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--model", str(model_path),
                   "--order-by", "logdepth", "--out", str(out), "--svg", str(svg)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        order_col = [float(r[1]) for r in rows[1:]]
        assert order_col == sorted(order_col)
        assert rows[0][2] == "observed:Triloba"
        assert rows[0][6] == "fitted:Triloba"
        assert svg.read_text().startswith("<svg")

    def test_ternary_projection(self, tmp_path):
        data3 = tmp_path / "d3.csv"
        data3.write_text("a,b,c,x\n0.2,0.3,0.5,1.0\n0.1,0.1,0.8,2.0\n"
                         "0.4,0.4,0.2,3.0\n0.25,0.25,0.5,4.0\n")
        out = tmp_path / "tern.csv"
        assert run("plot", "--input", str(data3), "--components", "a,b,c",
                   "--covariates", "x", "--ternary", "--out", str(out)) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "x", "y"]
        pts = np.array([[float(r[1]), float(r[2])] for r in rows[1:]])
        assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= np.sqrt(3) / 2 + 1e-12)

    def test_ternary_centroid(self):
        xy = cli.barycentric_xy(np.array([1 / 3, 1 / 3, 1 / 3]))
        assert np.max(np.abs(xy[0] - [0.5, np.sqrt(3) / 6])) < 1e-12

    def test_ternary_requires_three_components(self, data_csv, tmp_path):
        assert run("plot", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--ternary",
                   "--out", str(tmp_path / "t.csv")) == 2


class TestEntryPoint:
    def test_console_script(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "zadr.cli", "--help"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "fit" in proc.stdout and "diagnose" in proc.stdout
