"""Golden simulation study: the exact per-parameter MSE, successes and
failures by cause of `run_simulation_study` from a simple and a mixed truth.

`golden_simulation.json` holds every MSE as `float.hex`, so a change that
moves any replicate's estimates by one unit in the last place fails here. The
values were written by `python tests/test_golden_simulation.py` at the commit
before the simulation study fitted each size's replicates in batches; a change
that means to keep the study's arithmetic must leave them as they are.
"""

import json
from pathlib import Path

import pytest
from conftest import depth_design, mixed_truth_model, truth_model

from zadr.inference import run_simulation_study

GOLDEN = Path(__file__).with_name("golden_simulation.json")
SIZES = [2, 4, 8, 30, 60]
REPS = 5
SEED = 6
ZERO_FRACTION = 1.0 / 6.0
TRUTHS = {"simple": truth_model, "mixed": mixed_truth_model}


def study(kind: str):
    """The study of the `kind` truth: sizes 2 to 60, five replicates each.
    Size 2 fails every replicate by InsufficientRows, and so does the mixed
    truth's size 4 by NotPositiveDefinite; one of its size-8 replicates
    does not converge."""
    return run_simulation_study(TRUTHS[kind](), depth_design(), sizes=SIZES, reps=REPS,
                                zero_fraction=ZERO_FRACTION, seed=SEED)


def report_outputs(report) -> dict:
    """Every output of a simulation report, its MSE as hex strings."""
    return {str(n): {"mse": [float.hex(float(v)) for v in report.mse[n]],
                     "successes": report.successes[n],
                     "failure_causes": report.failure_causes[n]}
            for n in report.sizes}


@pytest.mark.parametrize("kind", list(TRUTHS))
def test_simulation_matches_golden_outputs(kind, monkeypatch):
    monkeypatch.setenv("ZADR_THREADS", "1")
    assert report_outputs(study(kind)) == json.loads(GOLDEN.read_text())[kind]


if __name__ == "__main__":
    import os

    os.environ["ZADR_THREADS"] = "1"
    golden = {kind: report_outputs(study(kind)) for kind in TRUTHS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
