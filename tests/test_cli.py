import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    COMPONENTS,
    TRUE_B,
    negate_stage_information,
    simulate_dataset,
    tiny_component_dataset,
    truth_model,
)

import zadr.inference
from zadr import cli
from zadr.errors import NonFiniteObjective
from zadr.inference import diagnostic_T
from zadr.model import fitted_values, load_model, save_model


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def write_data_csv(path, seed):
    return write_csv(path, *simulate_dataset(n=30, seed=seed, n_zero=5))


def write_csv(path, ds, X):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(COMPONENTS + ["logdepth"])
        for i in range(ds.n):
            w.writerow([repr(float(v)) for v in ds.values[i]]
                       + [repr(float(X.design[i, 1]))])
    return path


@pytest.fixture
def data_csv(tmp_path):
    return write_data_csv(tmp_path / "data.csv", seed=12)


def count_replicate_fits(monkeypatch, fail_every=0):
    """Route zadr.inference.fit through a counter in this process, failing every
    `fail_every`-th call; returns the list of calls."""
    monkeypatch.setenv("ZADR_THREADS", "1")
    real_fit = zadr.inference.fit
    calls = []

    def counted_fit(*args):
        calls.append(1)
        if fail_every and len(calls) % fail_every == 0:
            raise NonFiniteObjective("injected")
        return real_fit(*args)

    monkeypatch.setattr(zadr.inference, "fit", counted_fit)
    return calls


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

    def test_indefinite_information_exits_2_without_a_model(self, data_csv, tmp_path,
                                                            monkeypatch, capsys):
        negate_stage_information(monkeypatch)
        out = tmp_path / "m.json"
        code = run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out))
        assert code == 2
        assert "error: NotPositiveDefinite: " in capsys.readouterr().err
        assert list(tmp_path.glob("m*.json")) == []

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

    def test_nan_cell_is_validation_error(self, data_csv, tmp_path, capsys):
        lines = data_csv.read_text().splitlines()
        cells = lines[4].split(",")  # data row 3
        cells[1] = "nan"
        lines[4] = ",".join(cells)
        data_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError:") and "row 3, column 1" in err
        assert not out.exists()

    def test_nan_covariate_is_validation_error(self, data_csv, tmp_path, capsys):
        lines = data_csv.read_text().splitlines()
        cells = lines[2].split(",")  # data row 1
        cells[-1] = "nan"
        lines[2] = ",".join(cells)
        data_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError:") and "row 1, column 'logdepth'" in err
        assert not out.exists()

    def test_non_numeric_cell_is_validation_error(self, data_csv, tmp_path, capsys):
        lines = data_csv.read_text().splitlines()
        cells = lines[3].split(",")  # data row 2
        cells[2] = "abc"
        lines[3] = ",".join(cells)
        data_csv.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: DomainError:")
        assert f"{data_csv}: non-numeric cell 'abc' at data row 2, column {COMPONENTS[2]!r}" in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["simple", "mixed", "aitchison-ols"])
    def test_seed_is_ignored(self, data_csv, tmp_path, kind):
        outs = [tmp_path / f"m{seed}.json" for seed in (0, 7)]
        for seed, out in zip((0, 7), outs):
            assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                       "--covariates", "logdepth", "--kind", kind, "--seed", str(seed),
                       "--out", str(out)) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert "seed" not in json.loads(outs[0].read_text())

    @pytest.mark.parametrize("tiny", [1e-200, 1e-300])
    def test_underflowing_component_exits_2_without_warning(self, tmp_path, capsys, tiny):
        data = write_csv(tmp_path / "tiny.csv", *tiny_component_dataset(tiny))
        out = tmp_path / "m.json"
        assert run("fit", "--input", str(data), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(out)) == 2
        assert "error: NonFiniteObjective: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["simple", "mixed"])
    def test_as_written_fit_of_zeros_exits_2_without_warning(self, tmp_path, capsys, kind):
        # With zeros the as-written likelihood has no maximum (see `model.fit`).
        data = write_data_csv(tmp_path / "data.csv", seed=1)
        out = tmp_path / "m.json"
        assert run("fit", "--input", str(data), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--kind", kind, "--zero-mode", "as-written",
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "error: NonFiniteObjective: " in err or "error: NotPositiveDefinite: " in err
        assert not out.exists()

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

    def test_file_that_is_not_a_model_is_schema_error(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        diag = tmp_path / "diag.json"
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19", "--out", str(diag)) == 0
        listing = tmp_path / "list.json"
        listing.write_text("[1, 2]\n")
        for path in (diag, listing):
            capsys.readouterr()
            assert run("predict", "--model", str(path), "--input", str(data_csv),
                       "--out", str(tmp_path / "p.csv")) == 2
            err = capsys.readouterr().err
            assert "SchemaMismatch" in err and "model_kind" in err and str(path) in err

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
        calls = count_replicate_fits(monkeypatch, fail_every)
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

    def test_small_B_rejected(self, data_csv, tmp_path, capsys):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        capsys.readouterr()
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "5") == 2
        assert capsys.readouterr().err.startswith("error: ValueError: B must be >= 19")
        # The check comes before any file is read: missing files are not reached.
        assert run("diagnose", "--input", str(tmp_path / "none.csv"),
                   "--model", str(tmp_path / "none.json"), "--B", "5") == 2
        assert capsys.readouterr().err.startswith("error: ValueError:")

    def test_aitchison_model_rejected(self, data_csv, tmp_path):
        model_path = tmp_path / "ait.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--kind", "aitchison-ols", "--out", str(model_path))
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19") == 2

    def _fit(self, data_csv, model_path):
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(model_path)) == 0
        return model_path

    def test_observed_data_is_not_refitted(self, data_csv, tmp_path, monkeypatch):
        model_path = self._fit(data_csv, tmp_path / "m.json")

        def no_refit(*args, **kwargs):
            raise AssertionError("diagnose refitted the observed data")

        monkeypatch.setattr(cli, "fit", no_refit)
        calls = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19", "--seed", "2") == 0
        assert len(calls) == 19

    def test_T_comes_from_the_model_files(self, data_csv, tmp_path):
        model_path = self._fit(data_csv, tmp_path / "m.json")
        # A covariance the observed data would not give back: only the file knows it.
        final = load_model(model_path)
        save_model(replace(final, covariance=2.0 * final.covariance), model_path)
        out = tmp_path / "diag.json"
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19", "--seed", "2", "--out", str(out)) == 0
        expected = diagnostic_T(load_model(tmp_path / "m.initial.json"), load_model(model_path))
        assert json.loads(out.read_text())["T"] == expected.T

    @pytest.mark.parametrize("stale", ["final", "initial"])
    def test_model_fitted_to_other_data_is_rejected(self, data_csv, tmp_path, monkeypatch,
                                                    capsys, stale):
        other_csv = write_data_csv(tmp_path / "other.csv", seed=13)
        model_path = self._fit(data_csv, tmp_path / "m.json")
        self._fit(other_csv, tmp_path / "other.json")
        if stale == "final":
            data = other_csv
        else:
            shutil.copy(tmp_path / "other.initial.json", tmp_path / "m.initial.json")
            data = data_csv
        capsys.readouterr()
        calls = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(data), "--model", str(model_path),
                   "--B", "19") == 2
        assert "ModelDataMismatch" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("kind", ["simple", "mixed"])
    def test_data_without_zero_free_rows_is_rejected(self, data_csv, tmp_path, monkeypatch,
                                                     capsys, kind):
        # The initial stage's log-likelihood is then recomputed on no rows.
        model_path = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--kind", kind, "--out", str(model_path)) == 0
        zeros_csv = write_csv(tmp_path / "zeros.csv", *simulate_dataset(n=30, seed=13, n_zero=30))
        capsys.readouterr()
        calls = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(zeros_csv), "--model", str(model_path),
                   "--B", "19") == 2
        assert "ModelDataMismatch" in capsys.readouterr().err
        assert calls == []

    def test_missing_initial_model_is_io_error(self, data_csv, tmp_path, capsys):
        model_path = self._fit(data_csv, tmp_path / "m.json")
        (tmp_path / "m.initial.json").unlink()
        capsys.readouterr()
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19") == 1
        assert "m.initial.json" in capsys.readouterr().err


class TestOldModelFiles:
    """Model files written before fits lost their seed carry a "seed" key."""

    def test_seed_key_is_ignored_by_diagnose(self, data_csv, tmp_path):
        outputs = []
        for name, extra in (("new", {}), ("old", {"seed": 3})):
            model_path = tmp_path / f"{name}.json"
            run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                "--covariates", "logdepth", "--out", str(model_path))
            for path in (model_path, tmp_path / f"{name}.initial.json"):
                path.write_text(json.dumps({**json.loads(path.read_text()), **extra}))
            out = tmp_path / f"diag-{name}.json"
            assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                       "--B", "19", "--seed", "2", "--bias", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_key_is_ignored_by_simulate(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import inputs

        truth = tmp_path / "truth.json"
        inputs.write_mixed_truth_json(truth, 5)
        doc = json.loads(truth.read_text())
        assert "seed" in doc
        seedless = tmp_path / "seedless.json"
        seedless.write_text(json.dumps({k: v for k, v in doc.items() if k != "seed"}))
        outputs = []
        for model in (truth, seedless):
            out = tmp_path / f"mse-{model.stem}.csv"
            assert run("simulate", "--model", str(model), "--sizes", "30", "--reps", "3",
                       "--seed", "1", "--out", str(out)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


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

    def test_two_covariates_need_input(self, tmp_path, monkeypatch, capsys):
        truth = truth_model()
        model_path = tmp_path / "m.json"
        save_model(replace(truth, B=np.column_stack([TRUE_B, np.zeros(3)]),
                           covariate_names=["intercept", "x1", "x2"]), model_path)
        calls = count_replicate_fits(monkeypatch)
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "--input" in err
        assert calls == [] and not out.exists()

    def test_aitchison_model_rejected_before_any_fit(self, data_csv, tmp_path, monkeypatch,
                                                     capsys):
        model_path = tmp_path / "ait.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--kind", "aitchison-ols", "--out", str(model_path))
        calls = count_replicate_fits(monkeypatch)
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "2", "--out", str(out)) == 2
        assert "simulate requires a simple or mixed ZADR model" in capsys.readouterr().err
        assert calls == [] and not out.exists()

    def test_size_without_successes_exits_3_with_csv(self, data_csv, tmp_path, monkeypatch):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        calls = count_replicate_fits(monkeypatch, fail_every=1)
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30,40",
                   "--reps", "2", "--seed", "1", "--out", str(out)) == 3
        assert len(calls) == 4
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14 and all(row["successes"] == "0" for row in rows)


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
