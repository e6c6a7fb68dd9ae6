"""Golden bootstrap outputs: the exact replicate statistics, bias and p-value
of one small dataset, for both model kinds.

`golden_bootstrap.json` holds every float as `float.hex`, so a change that
moves any replicate by one unit in the last place fails here. The values were
written by `python tests/test_golden_bootstrap.py` at the commit before the
bootstrap began to prepare its design once; a change that means to keep the
bootstrap's arithmetic must leave them as they are.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import simulate_dataset

from zadr.inference import bootstrap_bias, bootstrap_pvalue
from zadr.model import LinkSpec, ModelKind, fit

GOLDEN = Path(__file__).with_name("golden_bootstrap.json")
KINDS = {"simple": ModelKind.SIMPLE, "mixed": ModelKind.MIXED}


def _hex(values):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(values, dtype=float)).tolist()


def bootstrap_outputs(kind: str) -> dict:
    """Both bootstrap passes on `simulate_dataset(n=30, seed=12, n_zero=5)`,
    B = 19, seed = 5, with every float as its hex string."""
    ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
    _, final = fit(ds, X, LinkSpec(ref_index=0, model_kind=KINDS[kind]))
    runs = {"pvalue": bootstrap_pvalue(final, ds, X, B=19, seed=5),
            "bias": bootstrap_bias(final, ds, X, B=19, seed=5)}
    return {name: {"replicate_stats": _hex(r.replicate_stats), "bias": _hex(r.bias),
                   "pvalue": None if r.pvalue is None else float.hex(r.pvalue), "B": r.B,
                   "failures": r.failures, "failure_causes": r.failure_causes}
            for name, r in runs.items()}


@pytest.mark.parametrize("kind", list(KINDS))
def test_bootstrap_matches_golden_outputs(kind, monkeypatch):
    monkeypatch.setenv("ZADR_THREADS", "1")
    expected = json.loads(GOLDEN.read_text())[kind]
    assert bootstrap_outputs(kind) == expected


if __name__ == "__main__":
    import os

    os.environ["ZADR_THREADS"] = "1"
    golden = {kind: bootstrap_outputs(kind) for kind in KINDS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
