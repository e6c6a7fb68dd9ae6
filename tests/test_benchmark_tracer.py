"""The benchmark tracer still finds every zadr name it patches, and every
command it traces leaves the optimum its probes differentiate."""

from pathlib import Path

import numpy as np
import pytest
from conftest import COMPONENTS, simulate_dataset

from zadr import cli
from zadr.numerics import numerical_hessian

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


@pytest.fixture
def fitted(tmp_path):
    """(data CSV, model JSON) of a simple fit to 30 rows, 5 with a zero."""
    ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
    data = tmp_path / "data.csv"
    lines = [",".join(COMPONENTS + ["logdepth"])]
    lines += [",".join(repr(float(v)) for v in [*y, x]) for y, x in zip(ds.values, X.design[:, 1])]
    data.write_text("\n".join(lines) + "\n")
    model = tmp_path / "m.json"
    assert cli.main(["fit", "--input", str(data), "--components", ",".join(COMPONENTS),
                     "--covariates", "logdepth", "--out", str(model)]) == 0
    return data, model


def test_tracer_patches_apply_and_trace_a_fit(tracing, fitted, tmp_path):
    data, _ = fitted
    tracer = tracing.Tracer()
    # Entering active() looks up every patched name, so a renamed one fails here.
    with tracer.active():
        assert cli.main(["fit", "--input", str(data), "--components", ",".join(COMPONENTS),
                         "--covariates", "logdepth", "--out", str(tmp_path / "m2.json")]) == 0
    assert tracer.summary()["model.fit"]["calls"] == 1


@pytest.mark.parametrize("command", ["diagnose", "simulate"])
def test_traced_replicates_leave_a_probe_point(tracing, fitted, tmp_path, monkeypatch, command):
    # The benchmark's traced passes run replicates in process (ZADR_THREADS=1)
    # and then differentiate the objective of the last traced minimize.
    data, model = fitted
    monkeypatch.setenv("ZADR_THREADS", "1")
    args = {
        "diagnose": ["diagnose", "--input", str(data), "--model", str(model), "--B", "19",
                     "--out", str(tmp_path / "diag.json")],
        "simulate": ["simulate", "--model", str(model), "--sizes", "30", "--reps", "2",
                     "--out", str(tmp_path / "mse.csv")],
    }[command]
    tracer = tracing.Tracer()
    with tracer.active():
        assert cli.main(args) == 0
    assert tracer.last_minimize is not None
    objective, argmin = tracer.last_minimize
    assert np.isfinite(numerical_hessian(objective, argmin)).all()
