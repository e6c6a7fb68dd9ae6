"""Golden Newton runs at high precision: every fit stage's iterations, objective
calls, termination and optimum value on `simulate_dataset(n=30, seed=s,
n_zero=5, phi=phi)`, s = 1..10, both kinds, phi in {1e7, 1e8}.

At these precisions a stage's Newton path hangs on the last bits of the
objective and its information: a change of one unit in the last place of the
phi gradient moves the iterations or the termination of some stages, while
the fits in `golden_fit.json` and `golden_bootstrap.json`, all at phi = 15.889,
stay byte-identical. The runs are taken by wrapping `zadr.model.minimize`.
The values were written by `python tests/test_golden_stages.py` at the commit
before the bootstrap fitted its replicates as one batch; a change that means
to keep the engine's arithmetic must leave them as they are.
"""

import json
from pathlib import Path

import pytest
from conftest import simulate_dataset

import zadr.model
from zadr.errors import ZadrError
from zadr.model import LinkSpec, ModelKind, fit

GOLDEN = Path(__file__).with_name("golden_stages.json")
KINDS = {"simple": ModelKind.SIMPLE, "mixed": ModelKind.MIXED}
PHIS = (1e7, 1e8)
SEEDS = range(1, 11)


def stage_runs(kind: str, phi: float, monkeypatch) -> list:
    """Per seed, each stage's [iterations, objective calls, termination,
    value as float.hex], and the name of the error the fit raised, if any."""
    real = zadr.model.minimize
    stages = []

    def recording(objective, x0, gradient, opts=None):
        calls = []

        def counted(theta):
            calls.append(1)
            return objective(theta)

        res = real(counted, x0, gradient, opts)
        stages.append([res.iterations, len(calls), res.termination_reason.value,
                       float.hex(res.value)])
        return res

    monkeypatch.setattr(zadr.model, "minimize", recording)
    runs = []
    for seed in SEEDS:
        ds, X = simulate_dataset(n=30, seed=seed, n_zero=5, phi=phi)
        stages.clear()
        try:
            fit(ds, X, LinkSpec(ref_index=0, model_kind=KINDS[kind]))
            error = None
        except ZadrError as exc:
            error = type(exc).__name__
        runs.append({"seed": seed, "stages": list(stages), "error": error})
    return runs


@pytest.mark.parametrize("phi", PHIS)
@pytest.mark.parametrize("kind", list(KINDS))
def test_stages_match_golden_runs(kind, phi, monkeypatch):
    expected = json.loads(GOLDEN.read_text())[kind][repr(phi)]
    assert stage_runs(kind, phi, monkeypatch) == expected


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as mp:
        golden = {kind: {repr(phi): stage_runs(kind, phi, mp) for phi in PHIS} for kind in KINDS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
