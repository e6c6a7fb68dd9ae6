"""Golden fits: both stages of `fit` for both model kinds and both zero modes
at two reference components, the public likelihoods and gradients at each
fitted point, and the Aitchison baseline.

`golden_fit.json` holds every float as `float.hex`, so a change that moves
any number by one unit in the last place fails here. The values were written
by `python tests/test_golden_fit.py` at the commit before each fit stage came
to carry its own link and zero mode; a change that means to keep the fit's
arithmetic must leave them as they are. `golden_bootstrap.json` pins only
renormalized fits at reference 0; this file also pins the as-written and
reference-2 stage paths.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import COMPONENTS, simulate_dataset

from zadr.compositions import CovariateMatrix, load_dataset, zero_pattern
from zadr.dirichlet import ZeroMode
from zadr.model import (
    LinkSpec,
    ModelKind,
    analytic_gradient,
    fit,
    fit_aitchison,
    loglik_mixed,
    loglik_simple,
    loglik_zadr_mixed,
    loglik_zadr_simple,
)

GOLDEN = Path(__file__).with_name("golden_fit.json")
KINDS = {"simple": ModelKind.SIMPLE, "mixed": ModelKind.MIXED}
LOGLIKS = {ModelKind.SIMPLE: (loglik_zadr_simple, loglik_simple),
           ModelKind.MIXED: (loglik_zadr_mixed, loglik_mixed)}
# As written, zero-adjusted data have no MLE (see `fit`), so that mode fits zero-free data.
MODES = {"renormalized": (ZeroMode.RENORMALIZED, 5), "as-written": (ZeroMode.AS_WRITTEN, 0)}
REFS = (0, 2)
CASES = [f"{mode}-ref{ref}" for mode in MODES for ref in REFS]


def _hex(values):
    return np.vectorize(float.hex, otypes=[object])(np.asarray(values, dtype=float)).tolist()


def fit_outputs(case: str) -> dict:
    """Every fit output of one (zero mode, reference) case on
    `simulate_dataset(n=30, seed=12)`, with every float as its hex string."""
    mode_name, ref = case.rsplit("-ref", 1)
    mode, n_zero = MODES[mode_name]
    ds, X = simulate_dataset(n=30, seed=12, n_zero=n_zero)
    zp = zero_pattern(ds)
    mask = ds.zero_free_mask()
    ds_free = load_dataset(ds.values[mask], names=list(COMPONENTS))
    X_free = CovariateMatrix(design=X.design[mask], covariate_names=X.covariate_names)
    out = {}
    for name, kind in KINDS.items():
        link = LinkSpec(ref_index=int(ref), model_kind=kind)
        zadr_loglik, plain_loglik = LOGLIKS[kind]
        initial, final = fit(ds, X, link, mode)
        for model in (initial, final):
            theta = model.parameter_vector()
            out[f"{name}/{model.stage.value}"] = {
                "parameters": _hex(theta),
                "covariance": _hex(model.covariance),
                "loglik": float.hex(model.loglik),
                "converged": model.converged,
                "loglik_zadr": float.hex(zadr_loglik(model.B, model.precision, final.p_hat,
                                                     ds, X, zp, link, mode)),
                "loglik_plain": float.hex(plain_loglik(model.B, model.precision, ds_free,
                                                       X_free, link)),
                "gradient": _hex(analytic_gradient(theta, ds, X, zp, link, mode)),
                "gradient_zero_free": _hex(analytic_gradient(theta, ds_free, X_free, None,
                                                             link)),
            }
    baseline = fit_aitchison(ds, X, LinkSpec(ref_index=int(ref)), mode)
    out["aitchison-ols"] = {"B": _hex(baseline.B), "covariance": _hex(baseline.covariance)}
    return out


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_golden_outputs(case):
    expected = json.loads(GOLDEN.read_text())[case]
    assert fit_outputs(case) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({case: fit_outputs(case) for case in CASES}, indent=1) + "\n")
