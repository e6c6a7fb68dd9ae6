"""Zero-effect diagnostic, parametric bootstrap, LRT, fit metrics, simulations.

The diagnostic T is a quadratic form in the difference between the
zero-free-fit parameters and the final zero-adjusted parameters, scaled by
the sum of the two covariance matrices. Its null distribution is calibrated
by parametric bootstrap: replicates are regenerated from the fitted model
with the observed zero pattern preserved row-for-row, then refit end to end.
One pass of refits gives the p-value of T and the bias of every coefficient.

The bootstrap and the simulation study are the same Monte Carlo step: draw
a response from a model with a fixed zero pattern and refit it end to end.
One worker, `_replicate_one`, does that step for both, and a replicate
counts only when both fit stages converged. Each replicate owns a private
generator spawned from the master seed. The simulation study draws each
replicate's design rows and zero pattern in the parent, from that
replicate's generator, and hands the same generator to the worker for the
response. Results are merged by replicate index, so output is independent
of execution order. Failed replicates are counted by cause. Each command
starts at most one process pool, whose worker count is the least of
`ZADR_THREADS`, the cores and the tasks.
"""

from __future__ import annotations

import csv
import json
import os
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .compositions import (
    CompositionDataset,
    CovariateMatrix,
    load_dataset,
    zero_pattern,
)
from .errors import (
    KindMismatch,
    NegativeStat,
    ShapeMismatch,
    TooFewSuccessfulReplicates,
    ZadrError,
)
from .model import (
    _COND_LIMIT,
    FitOptions,
    ModelKind,
    ZadrModel,
    _row_parameters,
    fit,
    refit_options,
)

MIN_REPLICATES = 19


@dataclass(frozen=True)
class DiagnosticResult:
    T: float
    delta: np.ndarray
    sigma2: np.ndarray
    pvalue: float | None
    B_reps: int
    seed: int | None
    failures: int = 0
    failure_causes: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class BootstrapResult:
    replicate_stats: np.ndarray
    bias: np.ndarray
    pvalue: float | None
    B: int
    master_seed: int
    failures: int
    failure_causes: dict[str, int]


@dataclass(frozen=True)
class FitMetrics:
    kl: float
    l2: float


@dataclass(frozen=True)
class SimulationReport:
    sizes: list[int]
    parameter_names: list[str]
    mse: dict[int, np.ndarray]
    successes: dict[int, int]
    reps: int
    seed: int

    def rows(self):
        for n in self.sizes:
            for name, value in zip(self.parameter_names, self.mse[n]):
                yield n, name, value, self.successes[n]

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "parameter", "MSE", "successes"])
            for n, name, value, succ in self.rows():
                writer.writerow([n, name, repr(float(value)), succ])


def diagnostic_T(initial: ZadrModel, final: ZadrModel) -> DiagnosticResult:
    """Quadratic-form diagnostic comparing the two coefficient sets."""
    if initial.kind is not final.kind or initial.link != final.link:
        raise KindMismatch("initial and final models must share kind and link")
    if initial.covariance is None or final.covariance is None:
        raise ValueError("both models need covariance matrices; fit with compute_covariance")
    delta = initial.parameter_vector() - final.parameter_vector()
    sigma2 = initial.covariance + final.covariance
    cond = np.linalg.cond(sigma2)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        warnings.warn(
            f"combined covariance condition number {cond:.3e}; using pseudo-inverse",
            RuntimeWarning,
        )
        T = float(delta @ np.linalg.pinv(sigma2) @ delta)
    else:
        T = float(delta @ np.linalg.solve(sigma2, delta))
    return DiagnosticResult(T=T, delta=delta, sigma2=sigma2, pvalue=None, B_reps=0, seed=None)


def simulate_response(
    model: ZadrModel,
    X: CovariateMatrix,
    U: np.ndarray,
    rng: np.random.Generator,
) -> CompositionDataset:
    """Draw one response matrix from the model, preserving the pattern U.

    Rows marked zero-free come from the full Dirichlet at their covariates;
    rows with zeros come from the renormalized sub-Dirichlet on their
    positive set, which is the Dirichlet marginality-consistent mechanism.
    """
    A, phis = _row_parameters(X.design, model.B, model.precision, model.link.ref_index, model.kind)
    alpha = phis[:, None] * A
    g = rng.standard_gamma(alpha)
    g = np.maximum(g, np.finfo(float).tiny)
    g = np.where(U.astype(bool), g, 0.0)
    values = g / g.sum(axis=1, keepdims=True)
    return load_dataset(values, names=model.component_names, tolerance=1e-6)


def _replicate_seeds(master_seed: int, count: int) -> list[np.random.SeedSequence]:
    return np.random.SeedSequence(master_seed).spawn(count)


def _worker_count() -> int:
    env = os.environ.get("ZADR_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"ZADR_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def _map_indexed(func, args_list):
    """Order-preserving map, optionally across processes."""
    workers = min(_worker_count(), os.cpu_count() or 1, len(args_list))
    if workers <= 1:
        return [func(a) for a in args_list]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, args_list))


def _replicate_one(args):
    """Draw a response from `model` with pattern U and refit it.

    Returns (failure cause or None, T or None, final parameters or None).
    """
    model, X, U, rng, fit_opts = args
    try:
        ds_rep = simulate_response(model, X, U, rng)
        initial, final = fit(ds_rep, X, model.link, fit_opts)
        if not (initial.converged and final.converged):
            return "NotConverged", None, None
        T = diagnostic_T(initial, final).T if fit_opts.compute_covariance else None
        return None, T, final.parameter_vector()
    except (ZadrError, np.linalg.LinAlgError) as exc:
        return type(exc).__name__, None, None


def _run_bootstrap(final, ds, X, B, seed, fit_opts, t_observed=None) -> BootstrapResult:
    """Refit B replicates once; the bias and, given t_observed, the p-value share them."""
    if B < MIN_REPLICATES:
        raise ValueError(f"B must be >= {MIN_REPLICATES}")
    U = zero_pattern(ds).u
    args = [(final, X, U, np.random.default_rng(s), fit_opts) for s in _replicate_seeds(seed, B)]
    records = _map_indexed(_replicate_one, args)
    causes = dict(Counter(cause for cause, _, _ in records if cause is not None))
    kept = [(T, params) for cause, T, params in records if cause is None]
    if len(kept) < MIN_REPLICATES:
        raise TooFewSuccessfulReplicates(
            f"only {len(kept)} converged replicates out of {B}; failures by cause: {causes}"
        )
    params = np.asarray([p for _, p in kept], dtype=float)
    stats = params if t_observed is None else np.asarray([T for T, _ in kept], dtype=float)
    return BootstrapResult(
        replicate_stats=stats,
        bias=params.mean(axis=0) - final.parameter_vector(),
        pvalue=None if t_observed is None else pvalue_from_replicates(stats, t_observed),
        B=len(kept),
        master_seed=seed,
        failures=B - len(kept),
        failure_causes=causes,
    )


def bootstrap_pvalue(
    final: ZadrModel,
    ds: CompositionDataset,
    X: CovariateMatrix,
    B: int,
    seed: int,
    t_observed: float | None = None,
    fit_opts: FitOptions | None = None,
) -> BootstrapResult:
    """Parametric-bootstrap p-value for the zero-effect diagnostic.

    Failed replicates are dropped from both the exceedance count and the
    effective replicate total. If t_observed is not given it is recomputed by
    refitting the observed data. replicate_stats holds the replicate T values;
    the bias comes from the same refits.
    """
    if fit_opts is None:
        fit_opts = refit_options(final)
    if not fit_opts.compute_covariance:
        raise ValueError("bootstrap_pvalue needs fit_opts.compute_covariance for T")
    if t_observed is None:
        initial_obs, final_obs = fit(ds, X, final.link, fit_opts)
        t_observed = diagnostic_T(initial_obs, final_obs).T
    return _run_bootstrap(final, ds, X, B, seed, fit_opts, t_observed)


def pvalue_from_replicates(stats: np.ndarray, t_observed: float) -> float:
    """The +1/(B+1) exceedance formula."""
    stats = np.asarray(stats, dtype=float)
    return (float(np.sum(stats >= t_observed)) + 1.0) / (stats.size + 1.0)


def bootstrap_bias(
    final: ZadrModel,
    ds: CompositionDataset,
    X: CovariateMatrix,
    B: int,
    seed: int,
    fit_opts: FitOptions | None = None,
) -> BootstrapResult:
    """Bootstrap bias estimates: mean(replicate estimates) - final estimates.
    Fits skip the covariance by default; replicate_stats holds the estimates."""
    if fit_opts is None:
        fit_opts = refit_options(final, compute_covariance=False)
    return _run_bootstrap(final, ds, X, B, seed, fit_opts)


def chi2_sf(stat: float, df: int) -> float:
    """Upper-tail chi-square probability via the regularized incomplete gamma."""
    if df < 1:
        return 1.0
    return float(special.gammaincc(df / 2.0, stat / 2.0))


def lrt(simple: ZadrModel, mixed: ZadrModel) -> tuple[float, int, float]:
    """Likelihood-ratio test of constant against covariate-linked precision."""
    if simple.kind is not ModelKind.SIMPLE or mixed.kind is not ModelKind.MIXED:
        raise KindMismatch("lrt expects (simple, mixed) models in that order")
    if simple.link.ref_index != mixed.link.ref_index:
        raise KindMismatch("models must share the reference component")
    stat = 2.0 * (mixed.loglik - simple.loglik)
    if stat < -1e-6:
        raise NegativeStat(f"LRT statistic {stat} is negative; fits are not nested or not converged")
    stat = max(stat, 0.0)
    df = len(mixed.covariate_names) - 1
    return stat, df, chi2_sf(stat, df)


def fit_metrics(observed: CompositionDataset, fitted: CompositionDataset) -> FitMetrics:
    """Aggregate KL divergence and squared L2 distance, with 0*log(0) = 0."""
    Y = observed.values
    F = fitted.values
    if Y.shape != F.shape:
        raise ShapeMismatch(f"observed {Y.shape} vs fitted {F.shape}")
    mask = Y > 0
    ratio = np.divide(Y, F, out=np.ones_like(Y), where=mask)
    kl = float(np.sum(np.where(mask, Y * np.log(ratio), 0.0)))
    l2 = float(np.sum((Y - F) ** 2))
    return FitMetrics(kl=kl, l2=l2)


def run_simulation_study(
    true_model: ZadrModel,
    design: CovariateMatrix,
    sizes: list[int],
    reps: int,
    zero_fraction: float,
    seed: int,
) -> SimulationReport:
    """Per-parameter MSE of the fitted coefficients across sample sizes.

    Covariates for each replicate are resampled with replacement from the
    rows of `design`; a `zero_fraction` share of rows gets one randomly
    placed zero component, drawn by zeroing a full-Dirichlet draw and
    renormalizing (the marginality-consistent mechanism). The MSE averages
    over the replicates whose two fit stages both converged.
    """
    if reps < 1 or not sizes:
        raise ValueError("reps must be >= 1 and sizes nonempty")
    for n in sizes:
        if n < 1 or sizes.count(n) > 1:
            raise ValueError(f"sizes must be distinct and positive, got {n}")
    if not 0.0 <= zero_fraction < 1.0:
        raise ValueError("zero_fraction must be in [0, 1)")
    fit_opts = refit_options(true_model, compute_covariance=False)
    D = true_model.D
    args = []
    for n, seed_seq in zip(np.repeat(sizes, reps), _replicate_seeds(seed, len(sizes) * reps)):
        rng = np.random.default_rng(seed_seq)
        rows = design.design[rng.integers(0, design.design.shape[0], size=n)]
        U = np.ones((n, D), dtype=np.int8)
        n_zero = int(round(zero_fraction * n))
        if n_zero > 0 and D >= 3:
            zero_rows = rng.choice(n, size=n_zero, replace=False)
            U[zero_rows, rng.integers(0, D, size=n_zero)] = 0
        X = CovariateMatrix(design=rows, covariate_names=design.covariate_names)
        args.append((true_model, X, U, rng, fit_opts))
    records = _map_indexed(_replicate_one, args)
    truth = true_model.parameter_vector()
    mse: dict[int, np.ndarray] = {}
    successes: dict[int, int] = {}
    for k, n in enumerate(sizes):
        kept = [p for cause, _, p in records[k * reps:(k + 1) * reps] if cause is None]
        successes[n] = len(kept)
        if kept:
            mse[n] = np.mean((np.asarray(kept) - truth) ** 2, axis=0)
        else:
            mse[n] = np.full(truth.size, np.nan)
    return SimulationReport(
        sizes=list(sizes),
        parameter_names=true_model.parameter_names(),
        mse=mse,
        successes=successes,
        reps=reps,
        seed=seed,
    )


def diagnostic_to_dict(result: DiagnosticResult) -> dict:
    return {
        "T": result.T,
        "delta": result.delta.tolist(),
        "sigma2": result.sigma2.ravel().tolist(),
        "pvalue": result.pvalue,
        "B_reps": result.B_reps,
        "seed": result.seed,
        "failures": result.failures,
        "failure_causes": result.failure_causes,
    }


def save_diagnostic(result: DiagnosticResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(diagnostic_to_dict(result), fh, indent=2)
        fh.write("\n")
