"""The benchmark tracer still finds every zadr name it patches."""

from pathlib import Path

from conftest import COMPONENTS, simulate_dataset

from zadr import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_apply_and_trace_a_fit(tmp_path, monkeypatch):
    ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
    data = tmp_path / "data.csv"
    lines = [",".join(COMPONENTS + ["logdepth"])]
    lines += [",".join(repr(float(v)) for v in [*y, x]) for y, x in zip(ds.values, X.design[:, 1])]
    data.write_text("\n".join(lines) + "\n")
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    # Entering active() looks up every patched name, so a renamed one fails here.
    with tracer.active():
        assert cli.main(["fit", "--input", str(data), "--components", ",".join(COMPONENTS),
                         "--covariates", "logdepth", "--out", str(tmp_path / "m.json")]) == 0
    assert tracer.summary()["model.fit"]["calls"] == 1
