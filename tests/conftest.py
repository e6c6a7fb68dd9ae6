"""Shared fixtures: a known truth model and simulated datasets."""

from dataclasses import replace

import numpy as np
import pytest

import zadr.model
from zadr.compositions import CompositionDataset, CovariateMatrix, load_dataset, make_design
from zadr.dirichlet import ZeroMode
from zadr.model import FitStage, LinkSpec, ModelKind, ZadrModel, alpha_matrix

TRUE_B = np.array([
    [-1.225, 0.117],
    [-2.392, 0.087],
    [-2.298, -0.046],
])
TRUE_PHI = 15.889
COMPONENTS = ["Triloba", "Obesa", "Pachyderma", "Atlantica"]
COVARIATES = ["intercept", "logdepth"]


def truth_model(zero_mode: ZeroMode = ZeroMode.RENORMALIZED) -> ZadrModel:
    """Four-component simple model with one covariate, used as ground truth."""
    return ZadrModel(
        B=TRUE_B.copy(),
        precision=TRUE_PHI,
        p_hat=np.ones(4),
        covariance=None,
        loglik=0.0,
        converged=True,
        stage=FitStage.FINAL,
        link=LinkSpec(ref_index=0, model_kind=ModelKind.SIMPLE),
        zero_mode=zero_mode,
        component_names=list(COMPONENTS),
        covariate_names=list(COVARIATES),
    )


def depth_design(n: int = 30) -> CovariateMatrix:
    depth = np.log(np.arange(1, n + 1, dtype=float))
    return make_design(depth[:, None], names=["logdepth"])


def simulate_dataset(
    n: int = 30,
    seed: int = 0,
    n_zero: int = 5,
    B: np.ndarray = TRUE_B,
    phi: float = TRUE_PHI,
) -> tuple[CompositionDataset, CovariateMatrix]:
    """Draw a dataset from the truth model with `n_zero` single-zero rows."""
    rng = np.random.default_rng(seed)
    X = depth_design(n)
    A = alpha_matrix(X.design, B, 0)
    g = rng.standard_gamma(phi * A)
    g = np.maximum(g, np.finfo(float).tiny)
    if n_zero > 0:
        rows = rng.choice(n, size=n_zero, replace=False)
        g[rows, rng.integers(1, A.shape[1], size=n_zero)] = 0.0
    Y = g / g.sum(axis=1, keepdims=True)
    ds = load_dataset(Y, names=list(COMPONENTS))
    return ds, X


def tiny_component_dataset(tiny: float) -> tuple[CompositionDataset, CovariateMatrix]:
    """Zero-free `simulate_dataset(n=30, seed=1)` with its third component set
    to `tiny` in every row, renormalized: valid data at the edge of the
    floating-point range."""
    ds, X = simulate_dataset(n=30, seed=1, n_zero=0)
    Y = ds.values.copy()
    Y[:, 2] = tiny
    return load_dataset(Y / Y.sum(axis=1, keepdims=True), names=list(COMPONENTS)), X


def negate_stage_information(monkeypatch):
    """Make every fit stage's optimizer return its information negated, so
    that no stage's information is positive definite."""
    real = zadr.model.minimize

    def negated(*args, **kwargs):
        res = real(*args, **kwargs)
        return replace(res, hessian=-res.hessian)

    monkeypatch.setattr(zadr.model, "minimize", negated)


def random_composition(rng: np.random.Generator, D: int) -> np.ndarray:
    y = rng.dirichlet(np.full(D, 2.0))
    # keep entries well away from 0 so log-ratio tolerances are meaningful
    y = np.maximum(y, 1e-6)
    return y / y.sum()


@pytest.fixture
def small_dataset():
    return simulate_dataset(n=30, seed=12, n_zero=5)


@pytest.fixture
def zero_free_dataset():
    return simulate_dataset(n=30, seed=12, n_zero=0)
