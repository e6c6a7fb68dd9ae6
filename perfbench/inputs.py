"""Seeded input generation for the benchmark workloads.

The truth model is the four-component, one-covariate model of the test
suite (B = TRUE_B, phi = 15.889, D = 4, covariate `logdepth`). Inputs are
drawn here, with the benchmark's own arithmetic, and handed to zadr only as
CSV and JSON files.
"""

from __future__ import annotations

import json
import math

import numpy as np

TRUE_B = np.array([
    [-1.225, 0.117],
    [-2.392, 0.087],
    [-2.298, -0.046],
])
TRUE_PHI = 15.889
# Mixed-precision truth for the simulation workload: gamma = [log phi, 0.1].
TRUE_GAMMA = np.array([math.log(TRUE_PHI), 0.1])
COMPONENTS = ["Triloba", "Obesa", "Pachyderma", "Atlantica"]
COVARIATE = "logdepth"
COVARIATE_NAMES = ["intercept", COVARIATE]


def depth_design(n: int) -> np.ndarray:
    """Design matrix [1, log depth] for depths 1..n metres."""
    return np.column_stack([np.ones(n), np.log(np.arange(1, n + 1, dtype=float))])


def mean_matrix(X: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Softmax means with the reference (first) component's predictor fixed at 0."""
    eta = np.column_stack([np.zeros(X.shape[0]), X @ B.T])
    e = np.exp(eta - eta.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def simulate_rows(n: int, n_zero: int, seed: int, gamma: np.ndarray | None = None):
    """Draw (Y, X): n rows from the truth model, `n_zero` of them holding one zero.

    With `gamma` the precision is exp(x^T gamma) per row, otherwise TRUE_PHI.
    The zero goes to a non-reference component, so every row keeps at least
    three positive parts.
    """
    rng = np.random.default_rng(seed)
    X = depth_design(n)
    A = mean_matrix(X, TRUE_B)
    phi = np.full(n, TRUE_PHI) if gamma is None else np.exp(X @ gamma)
    g = rng.standard_gamma(phi[:, None] * A)
    g = np.maximum(g, np.finfo(float).tiny)
    if n_zero > 0:
        rows = rng.choice(n, size=n_zero, replace=False)
        g[rows, rng.integers(1, A.shape[1], size=n_zero)] = 0.0
    return g / g.sum(axis=1, keepdims=True), X


def write_dataset_csv(path, Y: np.ndarray, X: np.ndarray) -> None:
    lines = [",".join(COMPONENTS + [COVARIATE])]
    for y, x in zip(Y, X[:, 1]):
        lines.append(",".join(repr(float(v)) for v in y) + "," + repr(float(x)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_mixed_truth_json(path, seed: int) -> None:
    """The mixed-precision truth model in zadr's model-file schema."""
    doc = {
        "model_kind": "mixed",
        "ref_index": 0,
        "component_names": COMPONENTS,
        "covariate_names": COVARIATE_NAMES,
        "B": TRUE_B.ravel().tolist(),
        "precision": {"gamma": TRUE_GAMMA.tolist()},
        "p_hat": [1.0] * len(COMPONENTS),
        "covariance": None,
        "loglik": 0.0,
        "converged": True,
        "seed": seed,
        "zero_mode": "renormalized",
        "stage": "final",
        "library_version": "0.1.0",
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
