"""Correctness gates for the workloads' outputs.

Every check returns a list of failure messages; an empty list passes. The
log-likelihood used here is written independently of zadr's engine, from
the model definition: a Dirichlet density on each row's positive parts
(renormalized to the retained mean mass) plus an independent-Bernoulli term
for the zero pattern.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

import inputs


def _split(theta: np.ndarray, q: int):
    d = len(inputs.COMPONENTS) - 1
    return theta[: d * q].reshape(d, q), theta[d * q:]


def loglik(theta, kind: str, Y: np.ndarray, X: np.ndarray, zero_adjusted: bool) -> float:
    """Log-likelihood of packed parameters: vec(B) row-major, then phi or gamma.

    `zero_adjusted` adds the Bernoulli term with p at its closed-form
    estimate; without it the rows must be zero-free (the plain Dirichlet
    likelihood of the zero-free first fit stage).
    """
    theta = np.asarray(theta, dtype=float)
    B, prec = _split(theta, X.shape[1])
    A = inputs.mean_matrix(X, B)
    phi = np.full(X.shape[0], prec[0]) if kind == "simple" else np.exp(X @ prec)
    if kind == "simple" and prec[0] <= 0:
        return -math.inf
    U = Y > 0
    alpha = phi[:, None] * A
    logy = np.log(np.where(U, Y, 1.0))
    body = np.where(U, (alpha - 1.0) * logy - gammaln(alpha), 0.0).sum()
    norm = gammaln(phi * np.where(U, A, 0.0).sum(axis=1)).sum()
    total = float(norm + body)
    if zero_adjusted:
        p = U.mean(axis=0)
        with np.errstate(divide="ignore"):
            on = np.where(U, np.log(p), 0.0)
            off = np.where(U, 0.0, np.log(1.0 - p))
        total += float(np.sum(on + off))
    return total


def gradient(theta, kind, Y, X, zero_adjusted) -> np.ndarray:
    """Central-difference gradient of `loglik` at theta."""
    theta = np.asarray(theta, dtype=float)
    g = np.empty(theta.size)
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        g[i] = (loglik(up, kind, Y, X, zero_adjusted) - loglik(down, kind, Y, X, zero_adjusted)) / (2 * h)
    return g


def newton_distance(doc: dict, g: np.ndarray) -> float:
    """Length of the Newton step to the optimum, in standard errors: sqrt(g' Cov g)."""
    m = g.size
    return float(np.sqrt(max(g @ np.array(doc["covariance"]).reshape(m, m) @ g, 0.0)))


def model_params(doc: dict) -> np.ndarray:
    prec = doc["precision"]
    tail = [prec["phi"]] if "phi" in prec else prec["gamma"]
    return np.array(list(doc["B"]) + list(tail), dtype=float)


def model_se(doc: dict) -> np.ndarray:
    m = len(model_params(doc))
    return np.sqrt(np.maximum(np.diag(np.array(doc["covariance"]).reshape(m, m)), 0.0))


def truth_params(kind: str) -> np.ndarray:
    tail = [inputs.TRUE_PHI] if kind == "simple" else [math.log(inputs.TRUE_PHI), 0.0]
    return np.concatenate([inputs.TRUE_B.ravel(), tail])


def _close(a, b, rel, abs_tol) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b)) <= abs_tol + rel * np.abs(np.asarray(b))))


def check_fit(kind: str, out: dict, Y, X, tol: dict, ref: dict | None) -> list[str]:
    """One `zadr fit` of the large dataset against the model definition."""
    if "final" not in out:
        return [f"fit {kind}: exit code {out['rc']}, no model written"]
    errs = [] if out["rc"] == 0 else [f"fit {kind}: exit code {out['rc']}"]
    final, initial = out["final"], out["initial"]
    if not (final["converged"] and initial["converged"]):
        errs.append(f"fit {kind}: not converged")
    theta, theta0 = model_params(final), model_params(initial)
    free = (Y > 0).all(axis=1)
    ll = loglik(theta, kind, Y, X, True)
    ll0 = loglik(theta0, kind, Y[free], X[free], False)
    if not _close(final["loglik"], ll, tol["loglik_rel"], 1e-6):
        errs.append(f"fit {kind}: reported loglik {final['loglik']!r} != recomputed {ll!r}")
    if not _close(initial["loglik"], ll0, tol["loglik_rel"], 1e-6):
        errs.append(f"fit {kind}: initial loglik {initial['loglik']!r} != recomputed {ll0!r}")
    for stage, dist in (
            ("final", newton_distance(final, gradient(theta, kind, Y, X, True))),
            ("initial", newton_distance(initial, gradient(theta0, kind, Y[free], X[free], False)))):
        if not dist <= tol["stationary_se"]:
            errs.append(f"fit {kind}: {stage} stage stopped {dist:.3g} standard errors from the optimum")
    ll_truth = loglik(truth_params(kind), kind, Y, X, True)
    if ll < ll_truth - tol["optimality_slack"]:
        errs.append(f"fit {kind}: loglik {ll!r} below the truth's {ll_truth!r}")
    if not np.all(np.isfinite(model_se(final))):
        errs.append(f"fit {kind}: non-finite standard errors")
    if ref is not None:
        se = np.asarray(ref["se"])
        if not np.all(np.abs(theta - np.asarray(ref["params"])) <= tol["ref_params_se"] * se):
            errs.append(f"fit {kind}: parameters differ from the reference")
        if abs(final["loglik"] - ref["loglik"]) > tol["ref_loglik_abs"]:
            errs.append(f"fit {kind}: loglik {final['loglik']!r} vs reference {ref['loglik']!r}")
    return errs


def check_nested(simple: dict, mixed: dict, tol: dict) -> list[str]:
    """The mixed model nests the simple one, so its maximum cannot be lower."""
    if mixed["loglik"] < simple["loglik"] - tol["optimality_slack"]:
        return [f"mixed loglik {mixed['loglik']!r} below simple {simple['loglik']!r}"]
    return []


def check_diagnose(out: dict, B: int, model: dict, initial: dict, tol: dict, ref: dict | None) -> list[str]:
    """One `zadr diagnose --bias` against the observed fit and the p-value formula."""
    errs = []
    if out["rc"] != 0:
        return [f"diagnose: exit code {out['rc']}"]
    diag = out["json"]
    delta, m = np.asarray(diag["delta"]), len(diag["delta"])
    sigma2 = np.asarray(diag["sigma2"]).reshape(m, m)
    if not _close(delta, model_params(initial) - model_params(model), 1e-9, 1e-12):
        errs.append("diagnose: delta differs from initial - final of the observed fit")
    T = float(delta @ np.linalg.solve(sigma2, delta))
    if not (np.isfinite(diag["T"]) and _close(diag["T"], T, 1e-6, 1e-12)):
        errs.append(f"diagnose: T {diag['T']!r} != recomputed {T!r}")
    reps, fails = diag["B_reps"], diag["failures"]
    if reps + fails != B or fails > tol["max_failure_share"] * B:
        errs.append(f"diagnose: {reps} replicates and {fails} failures out of B={B}")
    k = diag["pvalue"] * (reps + 1) - 1
    if not (0 < diag["pvalue"] <= 1 and abs(k - round(k)) < 1e-6):
        errs.append(f"diagnose: p-value {diag['pvalue']!r} is not (k+1)/(B+1)")
    if (out["T"], out["pvalue"], out["replicates"]) != (
            f"{diag['T']:.3f}", f"{diag['pvalue']:.4f}", reps):
        errs.append("diagnose: printed and written results disagree")
    est, bias = np.asarray(out["estimates"]), np.asarray(out["bias"])
    if est.shape != (m,) or not _close(est, model_params(model), 0.0, 5e-4):
        errs.append("diagnose: bias table estimates differ from the model")
    if bias.shape != (m,) or not np.all(np.isfinite(bias)):
        errs.append("diagnose: bias vector missing or non-finite")
    if ref is not None and not errs:
        se = model_se(model)
        if abs(diag["T"] - ref["T"]) > tol["ref_T_rel"] * abs(ref["T"]) + 1e-9:
            errs.append(f"diagnose: T {diag['T']!r} vs reference {ref['T']!r}")
        if abs(diag["pvalue"] - ref["pvalue"]) > tol["ref_pvalue_abs"] + 1e-12:
            errs.append(f"diagnose: p-value {diag['pvalue']!r} vs reference {ref['pvalue']!r}")
        if not np.all(np.abs(bias - np.asarray(ref["bias"])) <= tol["ref_bias_se"] * se + 1e-3):
            errs.append("diagnose: bias differs from the reference")
    return errs


def check_simulate(out: dict, sizes: list[int], reps: int, m: int, tol: dict, ref: dict | None) -> list[str]:
    """One `zadr simulate`: every size reported, replicates converged, MSE sane."""
    if out["rc"] != 0:
        return [f"simulate: exit code {out['rc']}"]
    errs = []
    for n in sizes:
        mse, succ = out["mse"].get(n), out["successes"].get(n)
        if mse is None or len(mse) != m or not np.all(np.isfinite(mse)) or np.any(np.asarray(mse) < 0):
            errs.append(f"simulate: n={n} MSE missing or invalid")
            continue
        if succ < (1.0 - tol["max_failure_share"]) * reps:
            errs.append(f"simulate: n={n} only {succ} of {reps} replicates succeeded")
        if ref is not None:
            r = ref[str(n)]
            if succ != r["successes"] or not _close(mse, r["mse"], tol["ref_mse_rel"], 1e-12):
                errs.append(f"simulate: n={n} differs from the reference")
    return errs
