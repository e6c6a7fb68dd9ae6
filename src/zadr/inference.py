"""Zero-effect diagnostic, parametric bootstrap, LRT, fit metrics, simulations.

The diagnostic T is a quadratic form in the difference between the
zero-free-fit parameters and the final zero-adjusted parameters, scaled by
the sum of the two covariance matrices. Its null distribution is calibrated
by parametric bootstrap: replicates are regenerated from the fitted model
with the observed zero pattern preserved row-for-row, then refit end to end.
One pass of refits gives the p-value of T and the bias of every coefficient.
Replicates are refitted with the link and zero mode of the fitted model,
and every replicate stage, like every fitted stage, ends with its
covariance checked positive definite. A saved diagnosis is T
(`DiagnosticResult`) together with the bootstrap that calibrates it
(`BootstrapResult`).

The bootstrap and the simulation study are the same Monte Carlo step: draw
a response from a model with a fixed zero pattern and refit it end to end,
and a replicate counts only when both fit stages converged and its T could
be formed. Each replicate owns a private generator spawned from the master
seed. Failed replicates are counted by cause, and results are merged by
replicate index, so output is independent of execution order. A drawn
response keeps every retained cell positive, so a replicate keeps its zero
pattern at any precision.

Every bootstrap replicate keeps the observed covariates and zero pattern,
so the bootstrap prepares the design half of `fit` once
(`model.prepare_design`); a failure of that half is counted once for each
replicate, with nothing drawn or fitted. A simulation-study replicate draws
its own covariate rows and zero pattern in the parent, from its generator.
Its batch (`_study_batch`) prepares its design half on its own, counts it
under its error, with nothing drawn, when that fails, and stacks the
prepared designs behind a leading replicate axis (`model.stack_designs`):
each zero row of the study holds one zero, so those of one sample size
stack.

The replicates of a bootstrap, and those of each sample size of a study,
are cut into near-equal batches of at most `_BATCH_CELLS` response cells, a
larger replicate alone, so a large n x B cannot exhaust memory. A batch
(`_replicate_batch`) draws its responses in generator order, from the
model's means and precisions computed once, and fits them together with
`model.fit_batch` on the bootstrap's one design or the stack of the
batch's own, whose Newton loop serves every replicate still fitting. A
replicate's numbers are bit for bit those of its draw and `fit` alone,
whatever the batches and wherever they run. A batch of two or more
reports each replicate stage through a one-response `minimize` restarted
where the batch stopped and answered there from the batch's own result:
the traced benchmark reads its counts and probe point from that
`minimize`, and the restart goes once the fit records those itself
(ROADMAP item 1).

The batches are the tasks of `_map_indexed`, which runs them in this
process or in a pool of at most `ZADR_THREADS` processes, the simulation
study's largest samples first; the records go back to replicate order.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy import special

from .compositions import (
    CompositionDataset,
    CovariateMatrix,
    _write_csv,
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
    ModelKind,
    ZadrModel,
    _row_parameters,
    check_positive_definite,
    fit,
    fit_batch,
    prepare_design,
    stack_designs,
)

MIN_REPLICATES = 19
# Response cells (replicates x rows x components) in one batch of bootstrap
# refits. The batch's arrays take about 250 bytes per cell, so a batch holds
# about 2 MB whatever n and B are.
_BATCH_CELLS = 1 << 13
# Chunks of tasks handed to each pool worker (`_map_indexed`).
_CHUNKS_PER_WORKER = 8


@dataclass(frozen=True)
class DiagnosticResult:
    T: float
    delta: np.ndarray
    sigma2: np.ndarray


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
    failure_causes: dict[int, dict[str, int]]

    def to_csv(self, path) -> None:
        """One row per sample size and parameter: n, parameter, MSE, successes."""
        _write_csv(path, ["n", "parameter", "MSE", "successes"],
                   ([n, name, value, self.successes[n]]
                    for n in self.sizes for name, value in zip(self.parameter_names, self.mse[n])))


def diagnostic_T(initial: ZadrModel, final: ZadrModel) -> DiagnosticResult:
    """Quadratic-form diagnostic comparing the two coefficient sets."""
    if initial.kind is not final.kind or initial.link != final.link:
        raise KindMismatch("initial and final models must share kind and link")
    if initial.covariance is None or final.covariance is None:
        raise ValueError("both models need covariance matrices")
    delta = initial.parameter_vector() - final.parameter_vector()
    sigma2 = initial.covariance + final.covariance
    check_positive_definite(sigma2, "the sum of the two stages' covariances")
    T = float(delta @ np.linalg.solve(sigma2, delta))
    return DiagnosticResult(T=T, delta=delta, sigma2=sigma2)


def simulate_response(
    model: ZadrModel,
    X: CovariateMatrix,
    U: np.ndarray,
    rng: np.random.Generator,
    params: tuple[np.ndarray, np.ndarray] | None = None,
) -> CompositionDataset:
    """Draw one response matrix from the model, preserving the pattern U.

    Rows marked zero-free come from the full Dirichlet at their covariates;
    rows with zeros come from the renormalized sub-Dirichlet on their
    positive set, which is the Dirichlet marginality-consistent mechanism.
    Every retained cell stays positive, at least the smallest normal double,
    so the draw keeps U at any precision. `params` are the model's means and
    precisions at X (`model._row_parameters`), computed here when None, so
    that many draws from one model and design compute them once; X is read
    only then.
    """
    A, phis = (_row_parameters(X.design, model.B, model.precision, model.link)
               if params is None else params)
    keep = U.astype(bool)
    tiny = np.finfo(float).tiny
    # A is component-major; the transposed view keeps the draws in row-major cell order.
    g = rng.standard_gamma((phis * A).T)
    g = np.where(keep, np.maximum(g, tiny), 0.0)
    values = g / g.sum(axis=1, keepdims=True)
    # A row sum past about 1e16 divides a floored draw to 0, so floor again.
    np.maximum(values, tiny, out=values, where=keep)
    return load_dataset(values, names=model.component_names)


def _replicate_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """One private generator per replicate, spawned from the master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(master_seed).spawn(count)]


def _map_indexed(func, args_list):
    """Order-preserving map, optionally across processes.

    The pool has min(ZADR_THREADS, usable CPUs, tasks) workers. An unset or
    blank ZADR_THREADS means the usable CPUs, a value below 1 counts as 1,
    and one that is not an integer is a ValueError that names it; with one
    worker the map runs in this process. Tasks reach the pool in chunks of
    ceil(tasks / (_CHUNKS_PER_WORKER * workers)), so each worker gets about
    that many chunks: few round trips, each pickling the shared model and
    design once, and still enough chunks to even out replicates of uneven cost.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("ZADR_THREADS", "").strip()
    try:
        threads = max(1, int(env)) if env else cpus
    except ValueError:
        raise ValueError(f"ZADR_THREADS must be an integer, got {env!r}") from None
    workers = min(threads, cpus, len(args_list))
    if workers <= 1:
        return [func(a) for a in args_list]
    chunksize = -(-len(args_list) // (_CHUNKS_PER_WORKER * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, args_list, chunksize=chunksize))


def _failure(exc: Exception):
    return type(exc).__name__, None, None


def _outcome(initial: ZadrModel, final: ZadrModel):
    """A refitted replicate's record: (failure cause or None, T or None,
    final parameters or None)."""
    if not (initial.converged and final.converged):
        return "NotConverged", None, None
    try:
        return None, diagnostic_T(initial, final).T, final.parameter_vector()
    except (ZadrError, np.linalg.LinAlgError) as exc:
        return _failure(exc)


def _replicate_batch(args) -> list:
    """Replicate k of a batch: a response drawn from `model` with its
    generator rngs[k], at the covariates and with the zero pattern of its
    design, and refitted on that design prepared for the model's link and
    zero mode. One design and zero pattern U (n x D) serve every replicate
    of a bootstrap; a stack of designs and of patterns (R x n x D) gives
    replicate k its own.

    Returns each replicate's record, (failure cause or None, T or None,
    final parameters or None), bit for bit that of `simulate_response` and
    `fit` alone, with all the refits in one `fit_batch`. The responses are
    drawn first, in generator order, from the model's means and precisions
    computed once for the batch.
    """
    model, design, U, rngs = args
    records, drawn = [None] * len(rngs), {}
    A, phis = _row_parameters(design.design, model.B, model.precision, model.link)
    # Per replicate: views of the shared arrays, or the stack's own rows.
    A, U = (np.broadcast_to(a, (len(rngs),) + a.shape[-2:]) for a in (A, U))
    phis = np.broadcast_to(phis, (len(rngs), phis.shape[-1]))
    for k, rng in enumerate(rngs):
        try:
            drawn[k] = simulate_response(model, design, U[k], rng, (A[k], phis[k]))
        except (ZadrError, np.linalg.LinAlgError) as exc:
            records[k] = _failure(exc)
    fits = fit_batch(list(drawn.values()), design.take(list(drawn)))
    for k, fitted in zip(drawn, fits):
        records[k] = _failure(fitted) if isinstance(fitted, Exception) else _outcome(*fitted)
    return records


def _study_batch(args) -> list:
    """A batch of simulation-study replicates: replicate k's design half
    prepared for its covariates Xs[k] and zero pattern Us[k] (R x n x D),
    then `_replicate_batch` of those prepared, on their designs stacked. A
    replicate whose design half cannot be prepared is counted under that
    error, with nothing drawn. Returns each replicate's record."""
    model, Xs, Us, rngs = args
    records, prepared = [None] * len(rngs), {}
    for k, (X, U) in enumerate(zip(Xs, Us)):
        try:
            prepared[k] = prepare_design(X, U, model.link, model.zero_mode)
        except (ZadrError, np.linalg.LinAlgError) as exc:
            records[k] = _failure(exc)
    if prepared:
        ks = list(prepared)
        batch = _replicate_batch((model, stack_designs(list(prepared.values())), Us[ks],
                                  [rngs[k] for k in ks]))
        for k, record in zip(ks, batch):
            records[k] = record
    return records


def _batches(count: int, cells: int) -> list[slice]:
    """Near-equal slices of `count` replicates of `cells` response cells
    each, at most `_BATCH_CELLS` cells a slice, or one replicate where it
    alone holds more."""
    chunks = -(-count // max(1, _BATCH_CELLS // cells))
    return [slice(c * count // chunks, (c + 1) * count // chunks) for c in range(chunks)]


def _run_bootstrap(final, ds, X, B, seed, t_observed=None) -> BootstrapResult:
    """Refit B replicates once; the bias and, given t_observed, the p-value share them."""
    if B < MIN_REPLICATES:
        raise ValueError(f"B must be >= {MIN_REPLICATES}")
    U = zero_pattern(ds)
    try:
        # Every replicate keeps X and U, so they share one design half.
        design = prepare_design(X, U, final.link, final.zero_mode)
    except (ZadrError, np.linalg.LinAlgError) as exc:
        # Every replicate's fit would meet this error: count it once for each.
        records = [_failure(exc)] * B
    else:
        rngs = _replicate_rngs(seed, B)
        records = [record for batch in _map_indexed(_replicate_batch, [
            (final, design, U, rngs[part]) for part in _batches(B, U.size)]) for record in batch]
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
) -> BootstrapResult:
    """Parametric-bootstrap p-value for the zero-effect diagnostic.

    Failed replicates are dropped from both the exceedance count and the
    effective replicate total. If t_observed is not given it is recomputed by
    refitting the observed data. replicate_stats holds the replicate T values;
    the bias comes from the same refits.
    """
    if t_observed is None:
        t_observed = diagnostic_T(*fit(ds, X, final.link, final.zero_mode)).T
    return _run_bootstrap(final, ds, X, B, seed, t_observed)


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
) -> BootstrapResult:
    """Bootstrap bias estimates: mean(replicate estimates) - final estimates.
    Replicates are fitted and checked as in `bootstrap_pvalue`;
    replicate_stats holds the estimates."""
    return _run_bootstrap(final, ds, X, B, seed)


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
    """Aggregate KL divergence and squared L2 distance, with 0*log(0) = 0.
    KL is +inf where a fitted mean is 0 at a positive observed value."""
    Y = observed.values
    F = fitted.values
    if Y.shape != F.shape:
        raise ShapeMismatch(f"observed {Y.shape} vs fitted {F.shape}")
    mask = Y > 0
    with np.errstate(divide="ignore", over="ignore"):
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
    over the replicates that a bootstrap would keep: both fit stages
    converged with positive definite information. The others are counted by
    cause for each size, as in `BootstrapResult`; a replicate whose design
    half cannot be prepared is counted under that error without a draw.

    Each size's replicates go in near-equal batches of at most
    `_BATCH_CELLS` cells, largest sizes first. A batch prepares each
    replicate's design half on its own and fits the replicates on their
    designs stacked, in one `fit_batch` (`_study_batch`); a replicate's
    record is bit for bit that of its draw and `fit` alone.
    """
    if reps < 1 or not sizes:
        raise ValueError("reps must be >= 1 and sizes nonempty")
    for n in sizes:
        if n < 1 or sizes.count(n) > 1:
            raise ValueError(f"sizes must be distinct and positive, got {n}")
    if not 0.0 <= zero_fraction < 1.0:
        raise ValueError("zero_fraction must be in [0, 1)")
    D = true_model.D
    rngs = _replicate_rngs(seed, len(sizes) * reps)
    records: list = [None] * len(rngs)
    tasks, homes = [], []
    # The pool takes the largest samples first, so that its last batches are
    # the cheapest; the records go back to replicate order.
    for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
        n, ks = sizes[i], range(i * reps, (i + 1) * reps)
        n_zero = int(round(zero_fraction * n))
        Xs, Us = [], np.ones((reps, n, D), dtype=np.int8)
        for k, U in zip(ks, Us):
            rng = rngs[k]
            rows = design.design[rng.integers(0, design.design.shape[0], size=n)]
            if n_zero > 0 and D >= 3:
                zero_rows = rng.choice(n, size=n_zero, replace=False)
                U[zero_rows, rng.integers(0, D, size=n_zero)] = 0
            Xs.append(CovariateMatrix(design=rows, covariate_names=design.covariate_names))
        # Every zero row holds one zero, so the designs of a size stack.
        for part in _batches(reps, n * D):
            tasks.append((true_model, Xs[part], Us[part], [rngs[k] for k in ks[part]]))
            homes.append(ks[part])
    for ks, batch in zip(homes, _map_indexed(_study_batch, tasks)):
        for k, record in zip(ks, batch):
            records[k] = record
    truth = true_model.parameter_vector()
    mse: dict[int, np.ndarray] = {}
    successes: dict[int, int] = {}
    failure_causes: dict[int, dict[str, int]] = {}
    for k, n in enumerate(sizes):
        size_records = records[k * reps:(k + 1) * reps]
        kept = [p for cause, _, p in size_records if cause is None]
        successes[n] = len(kept)
        failure_causes[n] = dict(Counter(c for c, _, _ in size_records if c is not None))
        mse[n] = (np.mean((np.asarray(kept) - truth) ** 2, axis=0) if kept
                  else np.full(truth.size, np.nan))
    return SimulationReport(
        sizes=list(sizes),
        parameter_names=true_model.parameter_names(),
        mse=mse,
        successes=successes,
        failure_causes=failure_causes,
    )


def diagnostic_to_dict(diag: DiagnosticResult, boot: BootstrapResult) -> dict:
    """The diagnosis as JSON: T from `diag`, its bootstrap calibration from `boot`."""
    return {
        "T": diag.T,
        "delta": diag.delta.tolist(),
        "sigma2": diag.sigma2.ravel().tolist(),
        "pvalue": boot.pvalue,
        "B_reps": boot.B,
        "seed": boot.master_seed,
        "failures": boot.failures,
        "failure_causes": boot.failure_causes,
    }


def save_diagnostic(diag: DiagnosticResult, boot: BootstrapResult, path) -> None:
    with open(path, "w") as fh:
        json.dump(diagnostic_to_dict(diag, boot), fh, indent=2)
        fh.write("\n")
