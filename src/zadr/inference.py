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
(`_replicate_batch`) works on stacks from the draw to T. Each replicate
draws with its own generator, in generator order, into one R x n x D array,
from the model's means and precisions computed once (`_draw_responses`,
whose one-replicate case is `simulate_response`); the array is floored,
normalized and checked as a whole with the checks of `load_dataset`
(`compositions._check_rows`). The responses that pass are fitted together
by `model.fit_batch` on the bootstrap's one design or the stack of the
batch's own: its Newton loop serves every replicate still fitting, and
each stage checks and inverts its informations as one stack. T of every
replicate whose stages both converged comes from one stacked solve
(`_quadratic_forms`, which `diagnostic_T` also uses). A replicate that
fails a step is counted under the error it raises alone, and the others go
on as a stack. numpy runs LAPACK one matrix at a time on a stack, and
every elementwise step and row sum keeps its order, so a replicate's
numbers are bit for bit those of its draw, `fit` and `diagnostic_T` alone,
whatever the batches and wherever they run. What still runs once per
replicate stage is its report through a one-response `minimize`
restarted where the batch stopped and answered there from the batch's own
result: the traced benchmark reads its counts and probe point
from that `minimize`, and the restart goes once the fit records those
itself (ROADMAP item 1).

The batches are the tasks of `_map_indexed`, the simulation study's largest
samples first; the records go back to replicate order. It starts a pool of
W processes, at most `ZADR_THREADS`, only when the pool can save more than
one batch's time, ceil(N / W) + 1 < N for N batches. Measured on 2 vCPUs on
the bootstrap of 30 rows and B = 199 (3 batches): a batch alone in this
process took 22-41 ms; a pool took 11-27 ms to start its first batch and
4-7 ms to join after its last, and its two concurrent workers took 50-89 ms
per batch, twice as long as alone or more. The pool's 3 batches took
100-154 ms against 72-109 ms in this process, so 3 batches on 2 workers,
and the 2 batches of the default B = 99 at that size, run in this process,
while B = 999 at that size (15 batches) and a study with more than three
batches keep the pool.
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
    _check_rows,
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
    _not_positive_definite,
    _row_parameters,
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
    [T] = _quadratic_forms(delta[None], sigma2[None])
    if isinstance(T, Exception):
        raise T
    return DiagnosticResult(T=T, delta=delta, sigma2=sigma2)


def _quadratic_forms(delta: np.ndarray, sigma2: np.ndarray) -> list:
    """T = delta^T sigma2^-1 delta of each pair of a stack of differences
    delta (R x m) and covariance sums sigma2 (R x m x m), the diagnostic's
    statistic: per pair T, or the NotPositiveDefinite of a sigma2 that fails
    `_not_positive_definite`. The sums that pass are solved as one stack,
    which LAPACK solves matrix by matrix, and each product runs per pair,
    so a pair's T has the bits of its own solve."""
    errors = _not_positive_definite(sigma2, "the sum of the two stages' covariances")
    passed = [error is None for error in errors]
    if not all(passed):
        delta, sigma2 = delta[passed], sigma2[passed]
    Ts = iter((delta[:, None, :] @ np.linalg.solve(sigma2, delta[:, :, None]))[:, 0, 0].tolist())
    return [next(Ts) if error is None else error for error in errors]


def _draw_responses(A: np.ndarray, phis: np.ndarray, U: np.ndarray, rngs) -> np.ndarray:
    """R response matrices (R x n x D) drawn with the zero pattern U (n x
    D) from the means A (D x n) and precisions phis (n,) of a model at its
    covariates, response k with the generator rngs[k], in generator order;
    stacks of patterns (R x n x D), means (R x D x n) and precisions (R x n)
    give response k its own.

    Rows marked zero-free come from the full Dirichlet at their covariates;
    rows with zeros come from the renormalized sub-Dirichlet on their
    positive set, which is the Dirichlet marginality-consistent mechanism.
    Every retained cell stays positive, at least the smallest normal double,
    so the draw keeps U at any precision. Flooring and normalizing run
    elementwise and per row on the whole stack, so a response's numbers do
    not depend on the others.
    """
    # A is component-major; the transposed view keeps the draws in row-major cell order.
    shapes = (phis[..., None, :] * A).swapaxes(-1, -2)
    shapes = np.broadcast_to(shapes, (len(rngs),) + shapes.shape[-2:])
    g = np.empty(shapes.shape)
    for k, rng in enumerate(rngs):
        rng.standard_gamma(shapes[k], out=g[k])
    keep = U.astype(bool)
    tiny = np.finfo(float).tiny
    g = np.where(keep, np.maximum(g, tiny), 0.0)
    values = g / g.sum(axis=-1, keepdims=True)
    # A row sum past about 1e16 divides a floored draw to 0, so floor again.
    np.maximum(values, tiny, out=values, where=keep)
    return values


def simulate_response(
    model: ZadrModel,
    X: CovariateMatrix,
    U: np.ndarray,
    rng: np.random.Generator,
) -> CompositionDataset:
    """Draw one response matrix from the model at the covariates X,
    preserving the zero pattern U: `_draw_responses` of one generator,
    validated by `load_dataset`."""
    A, phis = _row_parameters(X.design, model.B, model.precision, model.link)
    return load_dataset(_draw_responses(A, phis, U, [rng])[0], names=model.component_names)


def _replicate_rngs(master_seed: int, count: int) -> list[np.random.Generator]:
    """One private generator per replicate, spawned from the master seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(master_seed).spawn(count)]


def _map_indexed(func, args_list):
    """Order-preserving map, in this process or across a process pool.

    The pool has W = min(ZADR_THREADS, usable CPUs, tasks) workers. An
    unset or blank ZADR_THREADS means the usable CPUs, a value below 1
    counts as 1, and one that is not an integer is a ValueError that names
    it. The map runs in this process unless the pool can save more than one
    task's time on N near-equal tasks, ceil(N / W) + 1 < N: starting and
    joining a pool cost about one small task, and on 2 CPUs two concurrent
    workers each run a task at half the speed of one process alone or less
    (the module docstring gives the measurements). Tasks reach the pool in
    chunks of ceil(tasks / (_CHUNKS_PER_WORKER * workers)), so each worker
    gets about that many chunks: few round trips, each pickling the shared
    model and design once, and still enough chunks to even out tasks of
    uneven cost.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    env = os.environ.get("ZADR_THREADS", "").strip()
    try:
        threads = max(1, int(env)) if env else cpus
    except ValueError:
        raise ValueError(f"ZADR_THREADS must be an integer, got {env!r}") from None
    tasks = len(args_list)
    workers = min(threads, cpus, tasks)
    if workers <= 1 or -(-tasks // workers) + 1 >= tasks:
        return [func(a) for a in args_list]
    chunksize = -(-tasks // (_CHUNKS_PER_WORKER * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(func, args_list, chunksize=chunksize))


def _failure(exc: Exception):
    return type(exc).__name__, None, None


def _replicate_batch(args) -> list:
    """Replicate k of a batch: a response drawn from `model` with its
    generator rngs[k], at the covariates and with the zero pattern of its
    design, and refitted on that design prepared for the model's link and
    zero mode. One design and zero pattern U (n x D) serve every replicate
    of a bootstrap; a stack of designs and of patterns (R x n x D) gives
    replicate k its own.

    Returns each replicate's record, (failure cause or None, T or None,
    final parameters or None), bit for bit that of `simulate_response`,
    `fit` and `diagnostic_T` alone. The batch works on stacks: the
    responses are drawn in generator order into one R x n x D array from
    the model's means and precisions computed once (`_draw_responses`),
    checked as one (`compositions._check_rows`), refitted in one
    `fit_batch`, and the replicates whose stages both converged get T from
    one stacked solve (`_quadratic_forms`). A replicate that fails a step
    is counted under the error it raises alone and leaves the stack for the
    next step to the others. A replicate counts only when both fit stages
    converged and its T could be formed.
    """
    model, design, U, rngs = args
    A, phis = _row_parameters(design.design, model.B, model.precision, model.link)
    values, errors = _check_rows(_draw_responses(A, phis, U, rngs))
    records = [None if error is None else _failure(error) for error in errors]
    drawn = [k for k, error in enumerate(errors) if error is None]
    fits = fit_batch(values if len(drawn) == len(values) else values[drawn],
                     design.take(drawn), model.component_names)
    pairs = {}
    for k, fitted in zip(drawn, fits):
        if isinstance(fitted, Exception):
            records[k] = _failure(fitted)
        elif not (fitted[0].converged and fitted[1].converged):
            records[k] = "NotConverged", None, None
        else:
            pairs[k] = fitted
    if pairs:
        initials, finals = zip(*pairs.values())
        theta = np.stack([final.parameter_vector() for final in finals])
        delta = np.stack([initial.parameter_vector() for initial in initials]) - theta
        sigma2 = (np.stack([initial.covariance for initial in initials])
                  + np.stack([final.covariance for final in finals]))
        for k, params, T in zip(pairs, theta, _quadratic_forms(delta, sigma2)):
            records[k] = _failure(T) if isinstance(T, Exception) else (None, T, params)
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
