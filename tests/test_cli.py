import csv
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    COMPONENTS,
    TRUE_B,
    depth_design,
    negate_stage_information,
    simulate_dataset,
    tiny_component_dataset,
    truth_model,
)

import zadr.inference
from zadr import cli
from zadr.compositions import read_csv
from zadr.errors import NonFiniteObjective
from zadr.inference import diagnostic_T, run_simulation_study
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
    """Log the replicates' checked draws (`zadr.inference._check_rows`) and
    refits (`fit_batch`, in the bootstrap and the simulation study) in this
    process, failing every `fail_every`-th refit with NonFiniteObjective.
    Returns the log: `drawn` lists the drawn responses that pass their
    checks and `fitted` the refitted ones, in order, as value matrices."""
    monkeypatch.setenv("ZADR_THREADS", "1")
    inference = zadr.inference
    real_check, real_fit_batch = inference._check_rows, inference.fit_batch
    log = SimpleNamespace(drawn=[], fitted=[])

    def fails(values):
        log.fitted.append(values)
        return fail_every and len(log.fitted) % fail_every == 0

    def counted_check(values):
        checked, errors = real_check(values)
        log.drawn.extend(v for v, error in zip(checked, errors) if error is None)
        return checked, errors

    def counted_fit_batch(values, design, names):
        return [NonFiniteObjective("injected") if fails(v) else fitted
                for v, fitted in zip(values, real_fit_batch(values, design, names))]

    monkeypatch.setattr(inference, "_check_rows", counted_check)
    monkeypatch.setattr(inference, "fit_batch", counted_fit_batch)
    return log


def refitted_once_each(log) -> bool:
    """Whether every drawn replicate was refitted exactly once, in draw order."""
    return [v.tobytes() for v in log.fitted] == [v.tobytes() for v in log.drawn]


COMP_ARG = ",".join(COMPONENTS)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def float_cells(rows):
    """The cells of CSV rows read back as doubles."""
    return np.array([[float(v) for v in row] for row in rows])


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

    def test_output_path_that_is_a_directory_is_io_error(self, data_csv, tmp_path, capsys):
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--out", str(tmp_path)) == 1
        assert "error: " in capsys.readouterr().err

    def test_reference_by_name(self, data_csv, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--ref", "Atlantica", "--out", str(out)) == 0
        assert load_model(out).link.ref_index == 3
        assert load_model(tmp_path / "model.initial.json").link.ref_index == 3
        capsys.readouterr()
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--ref", "Bulloides", "--out", str(out)) == 2
        assert "ZadrError: reference component 'Bulloides' not among" in capsys.readouterr().err

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
        _, X = read_csv(data_csv, components=COMPONENTS, covariates=["logdepth"])
        expected = fitted_values(load_model(model_path), X).values
        rows = read_rows(pred_path)
        assert rows[0] == COMPONENTS
        assert np.array_equal(float_cells(rows[1:]), expected)
        raw = pred_path.read_bytes()
        assert raw.count(b"\r\n") == raw.count(b"\n") == len(rows)

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
        """Run `diagnose --B 28 --bias`; returns (replicate log, JSON)."""
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        log = count_replicate_fits(monkeypatch, fail_every)
        out = tmp_path / "diag.json"
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "28", "--seed", "2", "--bias", "--out", str(out)) == 0
        return log, json.loads(out.read_text())

    def test_bias_table_comes_from_the_one_bootstrap_pass(self, data_csv, tmp_path, capsys,
                                                          monkeypatch):
        log, doc = self._diagnose_counting_fits(data_csv, tmp_path, monkeypatch)
        assert len(log.fitted) == 28 and refitted_once_each(log)
        assert doc["failures"] == 0 and doc["failure_causes"] == {}
        lines = capsys.readouterr().out.splitlines()
        table = lines[lines.index(f"{'parameter':>24}  {'estimate':>12}  {'bias':>12}") + 1:]
        names = load_model(tmp_path / "m.json").parameter_names()
        assert [row.split()[0] for row in table] == names
        assert all(np.isfinite(float(row.split()[2])) for row in table)

    def test_failures_printed_and_saved_by_cause(self, data_csv, tmp_path, capsys,
                                                 monkeypatch):
        log, doc = self._diagnose_counting_fits(data_csv, tmp_path, monkeypatch, fail_every=4)
        assert len(log.fitted) == 28 and refitted_once_each(log)
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
        log = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19", "--seed", "2") == 0
        assert len(log.fitted) == 19 and refitted_once_each(log)

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
        log = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(data), "--model", str(model_path),
                   "--B", "19") == 2
        assert "ModelDataMismatch" in capsys.readouterr().err
        assert log.drawn == [] and log.fitted == []

    @pytest.mark.parametrize("kind", ["simple", "mixed"])
    def test_data_without_zero_free_rows_is_rejected(self, data_csv, tmp_path, monkeypatch,
                                                     capsys, kind):
        # The initial stage's log-likelihood is then recomputed on no rows.
        model_path = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--kind", kind, "--out", str(model_path)) == 0
        zeros_csv = write_csv(tmp_path / "zeros.csv", *simulate_dataset(n=30, seed=13, n_zero=30))
        capsys.readouterr()
        log = count_replicate_fits(monkeypatch)
        assert run("diagnose", "--input", str(zeros_csv), "--model", str(model_path),
                   "--B", "19") == 2
        assert "ModelDataMismatch" in capsys.readouterr().err
        assert log.drawn == [] and log.fitted == []

    def test_reference_outside_the_components_is_named(self, data_csv, tmp_path, capsys):
        model_path = self._fit(data_csv, tmp_path / "m.json")
        for path in (model_path, tmp_path / "m.initial.json"):
            save_model(replace(load_model(path), link=replace(load_model(path).link, ref_index=7)),
                       path)
        capsys.readouterr()
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19") == 2
        assert "DomainError: reference component 7 is outside 0..3" in capsys.readouterr().err

    def test_model_path_without_json_suffix(self, data_csv, tmp_path):
        model_path = self._fit(data_csv, tmp_path / "model")
        assert (tmp_path / "model.initial").exists()
        assert run("diagnose", "--input", str(data_csv), "--model", str(model_path),
                   "--B", "19") == 0

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


# (kind, edit of the saved model document, error class, text the error must carry)
MALFORMED_MODELS = {
    "ref_index_past_the_components": ("simple", lambda doc: {"ref_index": 5}, "DomainError",
                                      "reference component 5 is outside 0..3"),
    "negative_ref_index": ("simple", lambda doc: {"ref_index": -1}, "DomainError",
                           "reference component -1 is outside 0..3"),
    "three_gammas": ("mixed",
                     lambda doc: {"precision": {"gamma": doc["precision"]["gamma"] + [0.0]}},
                     "ShapeMismatch", "gamma has shape (3,)"),
    "B_one_short": ("simple", lambda doc: {"B": doc["B"][:-1]}, "ShapeMismatch",
                    "model field 'B' has 5 numbers"),
    "covariance_one_short": ("simple", lambda doc: {"covariance": doc["covariance"][:-1]},
                             "ShapeMismatch", "model field 'covariance' has 48 numbers"),
    "p_hat_one_short": ("mixed", lambda doc: {"p_hat": doc["p_hat"][:-1]}, "ShapeMismatch",
                        "model field 'p_hat' has 3 numbers"),
    # A field of the wrong JSON type, or with a value its type does not know.
    "fractional_ref_index": ("simple", lambda doc: {"ref_index": 1.7}, "SchemaMismatch",
                             "'ref_index' must be an integer, not 1.7"),
    "boolean_ref_index": ("simple", lambda doc: {"ref_index": True}, "SchemaMismatch",
                          "'ref_index' must be an integer, not true"),
    "null_ref_index": ("simple", lambda doc: {"ref_index": None}, "SchemaMismatch",
                       "'ref_index' must be an integer, not null"),
    "string_converged": ("simple", lambda doc: {"converged": "no"}, "SchemaMismatch",
                         "'converged' must be true or false"),
    "string_component_names": ("simple", lambda doc: {"component_names": "WXYZ"},
                               "SchemaMismatch", "'component_names' must be a list of strings"),
    "number_component_names": ("simple", lambda doc: {"component_names": 5}, "SchemaMismatch",
                               "'component_names' must be a list of strings, not 5"),
    "null_covariate_names": ("mixed", lambda doc: {"covariate_names": None}, "SchemaMismatch",
                             "'covariate_names' must be a list of strings, not null"),
    "list_precision": ("simple", lambda doc: {"precision": []}, "SchemaMismatch",
                       "'precision' must be an object, not []"),
    "string_phi": ("simple", lambda doc: {"precision": {"phi": "abc"}}, "SchemaMismatch",
                   "'phi' must be a number"),
    "string_in_gamma": ("mixed", lambda doc: {"precision": {"gamma": ["0", 1.0]}},
                        "SchemaMismatch", "'gamma' must be a list of numbers"),
    "ragged_B": ("simple", lambda doc: {"B": doc["B"][:-2] + [doc["B"][-2:]]}, "SchemaMismatch",
                 "'B' must be a list of numbers"),
    "integer_past_the_floats_in_B": ("simple", lambda doc: {"B": [10**400] + doc["B"][1:]},
                                     "SchemaMismatch", "'B' must be a list of numbers, not [1000"),
    "integer_past_the_floats_as_phi": ("simple", lambda doc: {"precision": {"phi": 10**400}},
                                       "SchemaMismatch", "'phi' must be a number, not 1000"),
    "null_in_p_hat": ("mixed", lambda doc: {"p_hat": doc["p_hat"][:-1] + [None]},
                      "SchemaMismatch", "'p_hat' must be a list of numbers"),
    "string_loglik": ("simple", lambda doc: {"loglik": "x"}, "SchemaMismatch",
                      "'loglik' must be a number or null"),
    # Only an aitchison-ols model has no log-likelihood.
    "null_loglik_simple": ("simple", lambda doc: {"loglik": None}, "SchemaMismatch",
                           "model field 'loglik' is null"),
    "null_loglik_mixed": ("mixed", lambda doc: {"loglik": None}, "SchemaMismatch",
                          "model field 'loglik' is null"),
    "number_stage": ("simple", lambda doc: {"stage": 5}, "SchemaMismatch",
                     "'stage' must be one of \"zero-free-initial\", \"final\", not 5"),
    "unknown_model_kind": ("mixed", lambda doc: {"model_kind": "quadratic"}, "SchemaMismatch",
                           "'model_kind' must be one of \"simple\", \"mixed\""),
    "unknown_zero_mode": ("simple", lambda doc: {"zero_mode": "imputed"}, "SchemaMismatch",
                          "'zero_mode' must be one of"),
    # json reads NaN and Infinity, which no fitted model holds.
    "nan_in_B": ("simple", lambda doc: {"B": [math.nan] + doc["B"][1:]}, "SchemaMismatch",
                 "'B' must be a list of numbers, not [NaN"),
    "nan_in_covariance": ("simple",
                          lambda doc: {"covariance": doc["covariance"][:-1] + [math.nan]},
                          "SchemaMismatch", "'covariance' must be a list of numbers"),
    "nan_in_p_hat": ("mixed", lambda doc: {"p_hat": [math.nan] + doc["p_hat"][1:]},
                     "SchemaMismatch", "'p_hat' must be a list of numbers, not [NaN"),
    "nan_loglik": ("simple", lambda doc: {"loglik": math.nan}, "SchemaMismatch",
                   "'loglik' must be a number or null, not NaN"),
    "infinite_phi": ("simple", lambda doc: {"precision": {"phi": math.inf}}, "SchemaMismatch",
                     "'phi' must be a number, not Infinity"),
    "minus_infinity_in_gamma": ("mixed",
                                lambda doc: {"precision": {
                                    "gamma": [-math.inf] + doc["precision"]["gamma"][1:]}},
                                "SchemaMismatch", "'gamma' must be a list of numbers, not [-Inf"),
    "zero_phi": ("simple", lambda doc: {"precision": {"phi": 0}}, "DomainError",
                 "phi must be > 0"),
    "negative_phi": ("simple", lambda doc: {"precision": {"phi": -2.0}}, "DomainError",
                     "phi must be > 0"),
    "p_hat_above_one": ("mixed", lambda doc: {"p_hat": [1.5] + doc["p_hat"][1:]}, "DomainError",
                        "p_hat entries must lie in [0, 1], got [1.5, "),
    "negative_p_hat": ("simple", lambda doc: {"p_hat": doc["p_hat"][:-1] + [-0.25]},
                       "DomainError", "p_hat entries must lie in [0, 1], got ["),
}


class TestMalformedModelFiles:
    """A model file with a field of the wrong JSON type, an unknown value or
    a size that does not fit its names fails where it is read, naming the
    field, in every command that reads it."""

    @pytest.mark.parametrize("case", list(MALFORMED_MODELS))
    def test_every_command_names_the_error(self, data_csv, tmp_path, capsys, monkeypatch, case):
        kind, edit, error, text = MALFORMED_MODELS[case]
        model_path = tmp_path / "m.json"
        assert run("fit", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--kind", kind, "--out", str(model_path)) == 0
        doc = json.loads(model_path.read_text())
        model_path.write_text(json.dumps({**doc, **edit(doc)}))
        log = count_replicate_fits(monkeypatch)
        data, model, out = str(data_csv), str(model_path), str(tmp_path / "out.csv")
        commands = [
            ["predict", "--model", model, "--input", data, "--out", out],
            ["plot", "--input", data, "--components", COMP_ARG, "--covariates", "logdepth",
             "--model", model, "--out", out],
            ["simulate", "--model", model, "--sizes", "30", "--reps", "3", "--out", out],
            ["diagnose", "--input", data, "--model", model, "--B", "19"],
        ]
        for argv in commands:
            capsys.readouterr()
            assert run(*argv) == 2, argv[0]
            err = capsys.readouterr().err
            assert f"error: {error}: " in err and text in err, (argv[0], err)
        assert log.drawn == [] and log.fitted == []


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
        # The default design is log depth 1..30 and the zero fraction 1/6.
        report = run_simulation_study(load_model(model_path), depth_design(30), sizes=[30],
                                      reps=3, zero_fraction=1.0 / 6.0, seed=1)
        rows = read_rows(out)[1:]
        assert [r[1] for r in rows] == report.parameter_names
        assert np.array_equal([float(r[2]) for r in rows], report.mse[30])
        assert {r[3] for r in rows} == {str(report.successes[30])}

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
        log = count_replicate_fits(monkeypatch)
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "3", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "--input" in err
        assert log.drawn == log.fitted == [] and not out.exists()

    def test_aitchison_model_rejected_before_any_fit(self, data_csv, tmp_path, monkeypatch,
                                                     capsys):
        model_path = tmp_path / "ait.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--kind", "aitchison-ols", "--out", str(model_path))
        log = count_replicate_fits(monkeypatch)
        out = tmp_path / "mse.csv"
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "2", "--out", str(out)) == 2
        assert "simulate requires a simple or mixed ZADR model" in capsys.readouterr().err
        assert log.drawn == log.fitted == [] and not out.exists()

    def test_size_without_successes_exits_3_with_csv(self, data_csv, tmp_path, monkeypatch,
                                                     capsys):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        log = count_replicate_fits(monkeypatch, fail_every=1)
        out = tmp_path / "mse.csv"
        capsys.readouterr()
        assert run("simulate", "--model", str(model_path), "--sizes", "30,40",
                   "--reps", "2", "--seed", "1", "--out", str(out)) == 3
        assert len(log.fitted) == 4 and refitted_once_each(log)
        with out.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14 and all(row["successes"] == "0" for row in rows)
        assert capsys.readouterr().err == (
            "n = 30: failures by cause: {'NonFiniteObjective': 2}\n"
            "n = 40: failures by cause: {'NonFiniteObjective': 2}\n")

    def test_failures_by_cause_on_stderr(self, tmp_path, monkeypatch, capsys):
        # At phi = 1e300 every replicate's information is not positive
        # definite; the CSV is the one the report writes.
        monkeypatch.setenv("ZADR_THREADS", "1")
        truth = replace(truth_model(), precision=1e300)
        model_path, out = tmp_path / "m.json", tmp_path / "mse.csv"
        save_model(truth, model_path)
        assert run("simulate", "--model", str(model_path), "--sizes", "30",
                   "--reps", "3", "--seed", "1", "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err == "n = 30: failures by cause: {'NotPositiveDefinite': 3}\n"
        report = run_simulation_study(load_model(model_path), depth_design(30), sizes=[30],
                                      reps=3, zero_fraction=1.0 / 6.0, seed=1)
        assert report.failure_causes == {30: {"NotPositiveDefinite": 3}}
        report.to_csv(tmp_path / "report.csv")
        assert out.read_bytes() == (tmp_path / "report.csv").read_bytes()


FOUR_ROWS = "a,b,c,x\n0.2,0.3,0.5,1.0\n0.1,0.1,0.8,2.0\n0.4,0.4,0.2,3.0\n0.25,0.25,0.5,4.0\n"

TERNARY_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="520" height="480" viewBox="0 0 520 480">
<polygon points="40.00,440.00 480.00,440.00 260.00,58.95" fill="none" stroke="black"/>
<text x="40.00" y="456.00" text-anchor="end" font-size="12">a</text>
<text x="480.00" y="456.00" text-anchor="start" font-size="12">b</text>
<text x="260.00" y="74.95" text-anchor="middle" font-size="12">c</text>
<circle cx="282.00" cy="249.47" r="3" fill="steelblue"/>
<circle cx="260.00" cy="135.16" r="3" fill="steelblue"/>
<circle cx="260.00" cy="363.79" r="3" fill="steelblue"/>
<circle cx="260.00" cy="249.47" r="3" fill="steelblue"/>
</svg>
"""

# The fitted curve of `plot --ternary --model`, drawn over TERNARY_SVG's points.
TERNARY_FIT_POLYLINE = ('<polyline points="270.19,222.90 266.76,246.13 262.11,269.66 '
                        '256.21,292.76" fill="none" stroke="crimson" stroke-width="1.5"/>')

BAR_SVG = """\
<svg xmlns="http://www.w3.org/2000/svg" width="480" height="360" viewBox="0 0 480 360">
<rect x="40.00" y="264.00" width="90.00" height="56.00" fill="black"/>
<rect x="40.00" y="180.00" width="90.00" height="84.00" fill="crimson"/>
<rect x="40.00" y="40.00" width="90.00" height="140.00" fill="seagreen"/>
<rect x="140.00" y="292.00" width="90.00" height="28.00" fill="black"/>
<rect x="140.00" y="264.00" width="90.00" height="28.00" fill="crimson"/>
<rect x="140.00" y="40.00" width="90.00" height="224.00" fill="seagreen"/>
<rect x="240.00" y="208.00" width="90.00" height="112.00" fill="black"/>
<rect x="240.00" y="96.00" width="90.00" height="112.00" fill="crimson"/>
<rect x="240.00" y="40.00" width="90.00" height="56.00" fill="seagreen"/>
<rect x="340.00" y="250.00" width="90.00" height="70.00" fill="black"/>
<rect x="340.00" y="180.00" width="90.00" height="70.00" fill="crimson"/>
<rect x="340.00" y="40.00" width="90.00" height="140.00" fill="seagreen"/>
<text x="40" y="20.00" fill="black" font-size="12">a</text>
<text x="120" y="20.00" fill="crimson" font-size="12">b</text>
<text x="200" y="20.00" fill="seagreen" font-size="12">c</text>
</svg>
"""


class TestPlot:
    def _model(self, data_csv, tmp_path):
        model_path = tmp_path / "m.json"
        run("fit", "--input", str(data_csv), "--components", COMP_ARG,
            "--covariates", "logdepth", "--out", str(model_path))
        return model_path

    @pytest.mark.parametrize("with_model", [True, False], ids=["fitted", "observed"])
    def test_ordered_bar_data(self, data_csv, tmp_path, with_model):
        model_args = ["--model", str(self._model(data_csv, tmp_path))] if with_model else []
        out = tmp_path / "plot.csv"
        svg = tmp_path / "plot.svg"
        assert run("plot", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", *model_args,
                   "--order-by", "logdepth", "--out", str(out), "--svg", str(svg)) == 0
        rows = read_rows(out)
        assert rows[0][2] == "observed:Triloba"
        assert rows[0][6:7] == (["fitted:Triloba"] if with_model else [])
        assert svg.read_text().startswith("<svg")
        # Every cell reads back as the double it was written from.
        ds, X = read_csv(data_csv, components=COMPONENTS, covariates=["logdepth"])
        order = np.argsort(X.design[:, 1], kind="stable")
        assert [int(r[0]) for r in rows[1:]] == order.tolist()
        expected = [X.design[order, 1:], ds.values[order]]
        if with_model:
            expected.append(fitted_values(load_model(model_args[1]), X).values[order])
        assert np.array_equal(float_cells(r[1:] for r in rows[1:]), np.hstack(expected))

    @pytest.mark.parametrize("with_model", [True, False], ids=["fitted", "observed"])
    def test_ternary_projection(self, tmp_path, with_model):
        data3 = tmp_path / "d3.csv"
        data3.write_text(FOUR_ROWS)
        model_args = []
        if with_model:
            model_path = tmp_path / "m3.json"
            assert run("fit", "--input", str(data3), "--components", "a,b,c",
                       "--covariates", "x", "--out", str(model_path)) == 0
            model_args = ["--model", str(model_path)]
        out = tmp_path / "tern.csv"
        assert run("plot", "--input", str(data3), "--components", "a,b,c",
                   "--covariates", "x", *model_args, "--ternary", "--out", str(out)) == 0
        rows = read_rows(out)
        assert rows[0] == ["kind", "x", "y"]
        assert [r[0] for r in rows[1:]] == ["observed"] * 4 + ["fitted"] * (4 * with_model)
        pts = float_cells(r[1:] for r in rows[1:])
        assert np.all(pts[:, 1] >= 0.0) and np.all(pts[:, 1] <= np.sqrt(3) / 2 + 1e-12)
        # Every cell reads back as the double it was written from.
        ds, X = read_csv(data3, components=["a", "b", "c"], covariates=["x"])
        expected = [cli.barycentric_xy(ds.values)]
        if with_model:
            expected.append(cli.barycentric_xy(fitted_values(load_model(model_path), X).values))
        assert np.array_equal(pts, np.vstack(expected))

    @pytest.mark.parametrize("kind", ["bar", "ternary"])
    def test_observed_svg_document(self, tmp_path, kind):
        data3 = tmp_path / "d3.csv"
        data3.write_text(FOUR_ROWS)
        svg = tmp_path / "plot.svg"
        plot_args = ["--ternary"] if kind == "ternary" else ["--order-by", "x"]
        assert run("plot", "--input", str(data3), "--components", "a,b,c", "--covariates", "x",
                   *plot_args, "--out", str(tmp_path / "plot.csv"), "--svg", str(svg)) == 0
        assert svg.read_text() == (TERNARY_SVG if kind == "ternary" else BAR_SVG)

    def test_fitted_ternary_svg_document(self, tmp_path):
        data3 = tmp_path / "d3.csv"
        data3.write_text(FOUR_ROWS)
        model_path = tmp_path / "m3.json"
        assert run("fit", "--input", str(data3), "--components", "a,b,c",
                   "--covariates", "x", "--out", str(model_path)) == 0
        svg = tmp_path / "plot.svg"
        assert run("plot", "--input", str(data3), "--components", "a,b,c", "--covariates", "x",
                   "--model", str(model_path), "--ternary", "--out", str(tmp_path / "plot.csv"),
                   "--svg", str(svg)) == 0
        assert svg.read_text() == TERNARY_SVG.replace("</svg>", TERNARY_FIT_POLYLINE + "\n</svg>")

    def test_unknown_order_by_column_is_schema_error(self, data_csv, tmp_path, capsys):
        assert run("plot", "--input", str(data_csv), "--components", COMP_ARG,
                   "--covariates", "logdepth", "--order-by", "depth",
                   "--out", str(tmp_path / "plot.csv")) == 2
        err = capsys.readouterr().err
        assert "SchemaMismatch: --order-by column 'depth' not a covariate" in err

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
