"""Zero-adjusted Dirichlet regression: links, likelihoods, staged fitting.

Model structure: component means come from an asymmetric softmax whose
reference slot has linear predictor fixed at zero, so the coefficient
matrix B is d x (p+1) with d = D - 1. Precision is either a single phi
(simple model) or exp(x^T gamma) per row (mixed model).

Zeros in the response are handled by restricting each row's Dirichlet
term to its positive components and adding an independent-Bernoulli term
for the zero pattern. No value is ever imputed.

One vectorized engine evaluates every likelihood on a stage
(`_StageDesign`), which only `_stage_design` builds and which carries its
link and zero mode, so no engine call passes a kind, a reference or a zero
mode beside it. `_row_parameters` maps (B, precision) under a link to row
means and precisions, `_row_work` adds a stage's normalizer masses and
polygamma arguments, `_dirichlet_value` sums the Dirichlet part and one
`binary_log_prob` call adds the Bernoulli term. The engine's functions take
one point on one response, or a stack of R points on R responses behind a
leading axis; every reduction and product runs per point, so a point's
numbers do not depend on the others in its stack. The loglik functions
evaluate single points; the four `loglik_*` functions are thin wrappers
whose names fix the kind of their link. The one fit objective,
`_Objective`, evaluates stacks of responses. It and `_derivatives` (its
gradient and information) share each point's row work on a stage prepared
once. The public functions take `CompositionDataset` and `CovariateMatrix`
objects, which validate their rows once; the private helpers behind them
take the plain arrays (response values, design, zero pattern) and slice
rows from those. A fit splits into a design half
(`prepare_design`: the least-squares normal matrix of the zero-free rows,
the zero-pattern probabilities and each stage's covariate arrays, whose
retained cells hold the zero pattern) and a response half. There is one
staged pipeline, `fit_batch`, which fits many responses on one design
half, each stage through one driver (`_fit_stages`); `fit` is `fit_batch`
of one dataset. A bootstrap of small replicates prepares the design half
once and fits them all on it; the `FitDesign` it gets is a
`CovariateMatrix`, at which it draws them.
The engine's hot path calls numpy's ufuncs and their reductions directly
(`np.add.reduce` for `ndarray.sum`, say): at n = 30 a Newton point is
mostly per-call overhead, and each method wrapper adds to it without
changing a result bit. The engine keeps every cell array component-major, D
x n behind any stack axis (means, retained-cell mask, log y, per-row weight
matrices as D x D x n), so each per-cell operation runs over contiguous
rows of n instead of short rows of D; the public `alpha_matrix` still
returns its means row by row (n x D).

Free-parameter ordering everywhere (gradients, Hessians, covariances):
vec(B) in row-major order (one block of p+1 coefficients per non-reference
component), followed by the precision block (phi or gamma).
"""

from __future__ import annotations

import enum
import json
import sys
from contextlib import suppress
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from . import __version__ as _library_version
from .compositions import (
    CompositionDataset,
    CovariateMatrix,
    alr,
    estimate_p,
    zero_pattern,
)
from .dirichlet import ZeroMode
from .errors import (
    DomainError,
    InsufficientRows,
    NonFiniteObjective,
    ModelDataMismatch,
    NoZeroFreeRows,
    NotPositiveDefinite,
    SchemaMismatch,
    ShapeMismatch,
    SingularDesign,
    ZadrError,
)
from .numerics import (
    OptimizerOptions,
    OptimResult,
    TerminationReason,
    minimize,
    minimize_batch,
    trigamma,
)
from .numerics import numerical_hessian  # noqa: F401  perfbench/tracing.py patches it here

_LINPRED_CLAMP = 700.0
# Objective and gradient are sums over rows, so their size and rounding both grow with n.
_GRADIENT_TOL_PER_ROW = 1e-6
_COND_LIMIT = 1e12
# Largest relative gap between a saved stage's log-likelihood and its value
# recomputed on the data. On the data it was fitted to, the recomputation
# differs at most by summation order (about 1e-14 relative); data from any
# other draw moves the log-likelihood by whole percents.
_LOGLIK_RTOL = 1e-9
# Starting precision of stage one (the mixed model's exp(gamma_0)).
_PHI_START = 10.0


class ModelKind(enum.Enum):
    SIMPLE = "simple"
    MIXED = "mixed"
    # Aitchison log-ratio OLS on zero-free rows; comparison baseline only.
    AITCHISON = "aitchison-ols"


class FitStage(enum.Enum):
    ZERO_FREE_INITIAL = "zero-free-initial"
    FINAL = "final"


@dataclass(frozen=True)
class LinkSpec:
    ref_index: int = 0
    model_kind: ModelKind = ModelKind.SIMPLE


@dataclass(frozen=True)
class ZadrModel:
    B: np.ndarray
    precision: float | np.ndarray  # phi (simple) or gamma vector (mixed)
    p_hat: np.ndarray
    covariance: np.ndarray | None
    loglik: float
    converged: bool
    stage: FitStage
    link: LinkSpec
    zero_mode: ZeroMode
    component_names: list[str]
    covariate_names: list[str]

    @property
    def kind(self) -> ModelKind:
        return self.link.model_kind

    @property
    def D(self) -> int:
        return self.B.shape[0] + 1

    def parameter_vector(self) -> np.ndarray:
        return pack_params(self.B, self.precision, self.kind)

    def parameter_names(self) -> list[str]:
        comp = [c for j, c in enumerate(self.component_names) if j != self.link.ref_index]
        names = [f"{c}:{x}" for c in comp for x in self.covariate_names]
        if self.kind is ModelKind.SIMPLE:
            names.append("phi")
        elif self.kind is ModelKind.MIXED:
            names.extend(f"phi:{x}" for x in self.covariate_names)
        return names


# ---------------------------------------------------------------------------
# links and elementary terms


def _means(Xd: np.ndarray, B: np.ndarray, ref_index: int) -> np.ndarray:
    """Mean parameters a* of every row, component-major (D x n): the softmax
    over the component axis of the linear predictors B Xd^T with a zeroed
    reference slot. A stack of coefficients (R x d x q) gives a stack of
    means (R x D x n)."""
    linear = B @ Xd.T
    np.maximum(linear, -_LINPRED_CLAMP, out=linear)
    np.minimum(linear, _LINPRED_CLAMP, out=linear)
    e = np.zeros(B.shape[:-2] + (B.shape[-2] + 1, Xd.shape[0]))
    e[..., :ref_index, :] = linear[..., :ref_index, :]
    e[..., ref_index + 1:, :] = linear[..., ref_index:, :]
    e -= np.maximum.reduce(e, axis=-2)[..., None, :]
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-2)[..., None, :]
    return e


def alpha_matrix(X: np.ndarray, B: np.ndarray, ref_index: int) -> np.ndarray:
    """Row-wise mean parameters a* (n x D): softmax with a zeroed reference slot."""
    return np.ascontiguousarray(_means(X, B, ref_index).T)


def link_alpha(x_row: np.ndarray, B: np.ndarray, ref_index: int = 0) -> np.ndarray:
    """Mean vector a* for a single covariate row."""
    return alpha_matrix(np.atleast_2d(np.asarray(x_row, dtype=float)), B, ref_index)[0]


def phi_rows(X: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-row precision exp(x^T gamma), clamped against overflow; gamma
    columns (q x 1, or a stack R x q x 1) give a column of precisions each."""
    linear = X @ gamma
    np.maximum(linear, -_LINPRED_CLAMP, out=linear)
    np.minimum(linear, _LINPRED_CLAMP, out=linear)
    return np.exp(linear, out=linear)


def link_phi(x_row: np.ndarray, gamma: np.ndarray) -> float:
    return float(phi_rows(np.atleast_2d(np.asarray(x_row, dtype=float)), gamma)[0])


def binary_log_prob(u_row, p) -> float:
    """log of prod p_j^{u_j} (1-p_j)^{1-u_j}, with 0*log(0) = 0.

    Impossible events (a zero where p_j = 1, or a nonzero where p_j = 0)
    yield -inf rather than raising. A 2-D `u_row` is a whole indicator
    matrix; the result is then the sum over its rows.
    """
    u = np.asarray(u_row, dtype=float)
    p = np.asarray(p, dtype=float)
    if np.any((p < 0) | (p > 1)):
        raise DomainError("p entries must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return float(np.sum(np.where(u > 0, np.log(p), np.log(1.0 - p))))


# ---------------------------------------------------------------------------
# vectorized likelihood engine

class _StageDesign(NamedTuple):
    """The covariate side of a fit stage: everything its objective and
    derivative calls need apart from the response, prepared once for all of
    them, and through a `FitDesign` once for every response fitted on the
    same design. It carries the link and zero mode whose likelihood the stage
    evaluates. Its cell arrays are component-major, D x n, so that every
    per-cell operation runs over contiguous rows of n; they broadcast over
    the engine's leading replicate axis."""

    Xd: np.ndarray  # design (n, q)
    U: np.ndarray  # retained cells (D, n), bool
    keep: np.ndarray  # U as floats (D, n); a product with it zeroes the cells not retained
    u: np.ndarray  # cells in the normalizer (D, n): `keep` when renormalized, zeros as written
    XX: np.ndarray  # per-row outer products x x^T of the design (n, q*q)
    nonref: slice | np.ndarray  # the non-reference components' rows of a cell array
    link: LinkSpec
    zero_mode: ZeroMode


def _check_reference(ref: int, D: int) -> None:
    if not 0 <= ref < D:
        raise DomainError(f"reference component {ref} is outside 0..{D - 1} for D={D}")


def _check_parameter_shapes(B, precision, D: int, q: int, kind: ModelKind) -> None:
    """ShapeMismatch unless B is (D-1) x q and the precision is one phi
    (simple) or q gammas (mixed), for D components and q design columns."""
    if np.shape(B) != (D - 1, q):
        raise ShapeMismatch(f"B has shape {np.shape(B)}; D={D} components and {q} design "
                            f"columns need ({D - 1}, {q})")
    need = () if kind is ModelKind.SIMPLE else (q,)
    if np.shape(precision) != need:
        name = "phi" if kind is ModelKind.SIMPLE else "gamma"
        raise ShapeMismatch(f"the {kind.value} model's precision {name} has shape "
                            f"{np.shape(precision)}; {q} design columns need {need}")


def _stage_design(Xd: np.ndarray, zp: np.ndarray, link: LinkSpec,
                  zero_mode: ZeroMode) -> _StageDesign:
    """The stage of design Xd and zero pattern zp (n x D) under a link and a
    zero mode; DomainError when Xd and zp differ in rows or the link's
    reference is not one of the D components."""
    n, q = Xd.shape
    if zp.shape[0] != n:
        raise DomainError("design and dataset row counts differ")
    U = np.ascontiguousarray(zp.T, dtype=bool)
    D = U.shape[0]
    ref = link.ref_index
    _check_reference(ref, D)
    keep = U.astype(float)
    return _StageDesign(
        Xd=Xd,
        U=U,
        keep=keep,
        u=keep if zero_mode is ZeroMode.RENORMALIZED else np.zeros(U.shape),
        XX=(Xd[:, :, None] * Xd[:, None, :]).reshape(n, q * q),
        # A slice, which selects a view instead of a copy, when the reference
        # is the first or the last component.
        nonref=(slice(1, None) if ref == 0 else slice(None, -1) if ref == D - 1
                else np.array([j for j in range(D) if j != ref])),
        link=link,
        zero_mode=zero_mode,
    )


def _row_parameters(Xd: np.ndarray, B, precision, link: LinkSpec):
    """Means A (D x n) and precisions phis (n,) of a simple or mixed model;
    a stack of points (B as R x d x q, phi as R or gamma as R x q) gives
    stacks (R x D x n and R x n)."""
    A = _means(Xd, np.asarray(B, dtype=float), link.ref_index)
    precision = np.asarray(precision, dtype=float)
    if link.model_kind is ModelKind.SIMPLE:
        return A, np.repeat(precision[..., None], Xd.shape[0], axis=-1)
    return A, phi_rows(Xd, precision[..., None])[..., 0]


def _row_work(stage: _StageDesign, B, precision):
    """A point's row quantities on a stage, component-major like its cells
    (D x n): means A, precisions phis (n,), the mean mass S (n,) in each
    row's normalizer (1 as written) and the polygamma arguments, alpha =
    phis * A on the retained cells (1 elsewhere) raveled and followed by the
    normalizers' phis * S. A stack of R points (as `_row_parameters` takes
    them) gives each quantity behind a leading axis of R."""
    A, phis = _row_parameters(stage.Xd, B, precision, stage.link)
    S = (np.add.reduce(A * stage.U, axis=-2) if stage.zero_mode is ZeroMode.RENORMALIZED
         else np.ones(phis.shape))
    cells = np.where(stage.U, A * phis[..., None, :], 1.0).reshape(phis.shape[:-1] + (-1,))
    return A, phis, S, np.concatenate([cells, phis * S], axis=-1)


def _dirichlet_value(work, logY: np.ndarray):
    """Dirichlet part of the log-likelihood from a point's `_row_work` and
    the log response logY (D x n, as `_log_response` forms it); for a stack
    of points and responses (R x D x n), one value each. A cell that is not
    retained adds exactly 0: its argument is 1 and its logY 0.

    Extreme line-search probes overflow to a non-finite value, which the
    objective maps to +inf, so those floating-point warnings are silenced.
    """
    A, _, _, args = work
    cells = A.shape[-2] * A.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        lgamma = special.gammaln(args)
        body = np.add.reduce((args[..., :cells] - 1.0) * logY.reshape(logY.shape[:-2] + (cells,))
                             - lgamma[..., :cells], axis=-1)
        return np.add.reduce(lgamma[..., cells:], axis=-1) + body


def _log_response(values: np.ndarray, U: np.ndarray) -> np.ndarray:
    """log(y) of n x D `values` on the retained cells U (a stage's), 0
    elsewhere; D x n like U."""
    if values.shape[0] != U.shape[1]:
        raise DomainError("design and dataset row counts differ")
    if values.shape[1] != U.shape[0]:
        raise ShapeMismatch(f"the zero pattern has {U.shape[0]} components, "
                            f"the dataset {values.shape[1]}")
    Y = np.ascontiguousarray(values.T)
    return np.where(U, np.log(np.where(U, Y, 1.0)), 0.0)


def _loglik(B, precision, p, values: np.ndarray, Xd: np.ndarray, zp: np.ndarray,
            link: LinkSpec, zero_mode: ZeroMode) -> float:
    """Dirichlet part plus, unless p is None, the Bernoulli zero-pattern term.

    With p None this is the plain Dirichlet likelihood, defined only on
    zero-free data. Parameters whose shapes do not fit the data's D and
    design columns are a ShapeMismatch.
    """
    stage = _stage_design(Xd, zp, link, zero_mode)
    logY = _log_response(values, stage.U)
    _check_parameter_shapes(B, precision, values.shape[1], Xd.shape[1], link.model_kind)
    if p is None and not stage.U.all():
        raise DomainError(f"loglik_{link.model_kind.value} requires a zero-free dataset")
    if p is not None and np.shape(p) != (values.shape[1],):
        raise ShapeMismatch(f"p has shape {np.shape(p)}, the dataset {values.shape[1]} components")
    if link.model_kind is ModelKind.SIMPLE and precision <= 0:
        raise DomainError("phi must be > 0")
    value = float(_dirichlet_value(_row_work(stage, B, precision), logY))
    return value if p is None else value + binary_log_prob(zp, p)


def check_fitted_to(initial: ZadrModel, final: ZadrModel, ds: CompositionDataset,
                    X: CovariateMatrix) -> None:
    """Raise ModelDataMismatch unless both saved fit stages describe (ds, X).

    Each stage's stored log-likelihood is recomputed: the final stage
    zero-adjusted on all rows under its zero mode, the initial stage plain
    Dirichlet on the zero-free rows.
    """
    zp = zero_pattern(ds)
    mask = zp.all(axis=1)
    recomputed = [
        (final, _loglik(final.B, final.precision, final.p_hat, ds.values, X.design, zp,
                        final.link, final.zero_mode)),
        (initial, _loglik(initial.B, initial.precision, None, ds.values[mask], X.design[mask],
                          zp[mask], initial.link, ZeroMode.AS_WRITTEN)),
    ]
    for model, value in recomputed:
        if not abs(value - model.loglik) <= _LOGLIK_RTOL * abs(model.loglik):
            raise ModelDataMismatch(
                f"the {model.stage.value} model's stored log-likelihood {model.loglik!r} "
                f"recomputes as {value!r} on these data; it was fitted to other data")


def loglik_simple(B, phi, ds, X, link: LinkSpec) -> float:
    """Plain Dirichlet regression log-likelihood; requires zero-free data."""
    return _loglik(B, phi, None, ds.values, X.design, zero_pattern(ds),
                   LinkSpec(link.ref_index, ModelKind.SIMPLE), ZeroMode.AS_WRITTEN)


def loglik_mixed(B, gamma, ds, X, link: LinkSpec) -> float:
    return _loglik(B, gamma, None, ds.values, X.design, zero_pattern(ds),
                   LinkSpec(link.ref_index, ModelKind.MIXED), ZeroMode.AS_WRITTEN)


def loglik_zadr_simple(B, phi, p, ds, X, zp, link: LinkSpec,
                       zero_mode: ZeroMode = ZeroMode.AS_WRITTEN) -> float:
    """Zero-adjusted log-likelihood of the simple model; zp None is the zero
    pattern of ds. `zero_mode` defaults to as-written, while `fit` defaults to
    renormalized: to evaluate a fitted model, pass its `zero_mode`."""
    zp = zero_pattern(ds) if zp is None else zp
    return _loglik(B, phi, p, ds.values, X.design, zp, LinkSpec(link.ref_index, ModelKind.SIMPLE),
                   zero_mode)


def loglik_zadr_mixed(B, gamma, p, ds, X, zp, link: LinkSpec,
                      zero_mode: ZeroMode = ZeroMode.AS_WRITTEN) -> float:
    """`loglik_zadr_simple` for the mixed model, with the same as-written default."""
    zp = zero_pattern(ds) if zp is None else zp
    return _loglik(B, gamma, p, ds.values, X.design, zp, LinkSpec(link.ref_index, ModelKind.MIXED),
                   zero_mode)


# ---------------------------------------------------------------------------
# parameter packing and analytic gradients

def pack_params(B, precision, kind: ModelKind) -> np.ndarray:
    B = np.asarray(B, dtype=float)
    if kind is ModelKind.SIMPLE:
        return np.concatenate([B.ravel(), [float(precision)]])
    if kind is ModelKind.MIXED:
        return np.concatenate([B.ravel(), np.asarray(precision, dtype=float)])
    return B.ravel()


def unpack_params(theta: np.ndarray, d: int, q: int, kind: ModelKind):
    """Split a packed vector into (B, precision); q = p + 1 design columns."""
    theta = np.asarray(theta, dtype=float)
    B = theta[: d * q].reshape(d, q)
    if kind is ModelKind.SIMPLE:
        return B, float(theta[d * q])
    return B, theta[d * q:]


def _block_sum(W: np.ndarray, XX: np.ndarray, q: int) -> np.ndarray:
    """Sum over rows of the Kronecker products W_i (x) x_i x_i^T, W (k, k, n)
    and XX (n, q*q) the outer products: a (k*q, k*q) matrix ordered like
    vec(B); one per point for a stack of W (R, k, k, n)."""
    lead, k = W.shape[:-3], W.shape[-3]
    blocks = (W.reshape(lead + (k * k, -1)) @ XX).reshape(lead + (k, k, q, q))
    return blocks.swapaxes(-3, -2).reshape(lead + (k * q, k * q))


def _derivatives(work, logY: np.ndarray, stage: _StageDesign):
    """Gradient and observed information (minus the Hessian) of the Dirichlet
    part from a point's `_row_work` on a stage's log response and prepared
    design; every cell quantity is component-major (D x n), like the stage's
    cell arrays. A stack of points and responses (R x D x n) gives a
    gradient (R x m) and an information (R x m x m) each; every reduction and
    product runs per point, so a point's derivatives do not depend on the
    others in its stack.

    Per row, with a the means, phi the precision, alpha = phi * a and S the
    mean mass in the normalizer (1 as written), the derivatives are first
    taken with a free and then chained through the softmax Jacobian
    diag(a) - a a^T to the linear predictors. Second derivatives need
    trigamma at alpha and at phi * S (Minka 2000), which `numerics.trigamma`
    evaluates in one call on both arguments. Each row then has a symmetric
    D x D weight matrix in the coordinates (eta of the d non-reference
    components, precision), where the precision coordinate is phi (simple)
    or log phi (mixed, whose exp link adds d(loglik)/d(phi) * phi to its
    curvature); W (D, D, n) holds them all. The information is the sum over
    rows of W (x) x x^T: one product of W with the stage's outer products,
    and for the simple model, whose phi has the design 1, x x^T for the eta
    block, x for the cross block and a plain sum for phi.

    A cell that is not retained has the polygamma argument 1, so its resid
    and t are finite until the product with `keep` makes them +0.0, the
    value a mask would give.
    """
    A, phis, S, args = work
    Xd, _, keep, u, XX, nonref, link, _ = stage
    lead, (D, n) = A.shape[:-2], A.shape[-2:]
    d = D - 1
    q = Xd.shape[1]
    simple = link.model_kind is ModelKind.SIMPLE
    add = np.add.reduce
    psi = special.digamma(args)
    psi_nu = psi[..., n * D:]
    resid = (logY - psi[..., : n * D].reshape(lead + (D, n))) * keep
    g = phis[..., None, :] * (resid + psi_nu[..., None, :] * u)  # d/da, a free
    dphi = S * psi_nu + add(A * resid, axis=-2)  # d/dphi
    e = A * (g - add(g * A, axis=-2)[..., None, :])  # d/deta
    # phi's design is the intercept column; a dot with contiguous ones sums
    # dphi in unit-stride order, which a dot with that strided column does not.
    grad = np.concatenate([(e[..., nonref, :] @ Xd).reshape(lead + (d * q,)),
                           np.ones(n) @ dphi[..., None] if simple
                           else (Xd.T @ (dphi * phis)[..., None])[..., 0]], axis=-1)

    # phi^2 trigamma(alpha) on retained cells, and phi^2 trigamma(phi * S)
    psi1 = trigamma(args)
    phi2 = phis**2
    t = phi2[..., None, :] * psi1[..., : n * D].reshape(lead + (D, n)) * keep
    r = phi2 * psi1[..., n * D:]
    v = A * A * t
    s = add(v, axis=-2)
    c = e - v
    w = A * (u - add(A * u, axis=-2)[..., None, :])  # (diag(a) - a a^T) u
    h = (g - t * A + (r * S)[..., None, :] * u) / phis[..., None, :]  # d2/(da dphi)
    h_eta = A * (h - add(h * A, axis=-2)[..., None, :])  # d2/(deta dphi)
    h_phi = (r * S * S - s) / phi2  # d2/dphi2

    # Minus the Hessian in eta, -diag(c) + f a^T + a f^T - r w w^T with
    # f = c + s a / 2, then the precision's row and column; from here on
    # the cell quantities keep only their non-reference rows.
    a, c, w, h_eta = A[..., nonref, :], c[..., nonref, :], w[..., nonref, :], h_eta[..., nonref, :]
    fa = (c + 0.5 * s[..., None, :] * a)[..., None, :] * a[..., None, :, :]
    W = np.empty(lead + (D, D, n))
    np.add(fa, fa.swapaxes(-3, -2), out=W[..., :d, :d, :])
    W[..., :d, :d, :] -= (r[..., None, :] * w)[..., None, :] * w[..., None, :, :]
    W.reshape(lead + (D * D, n))[..., : d * (D + 1): D + 1, :] -= c  # the eta block's diagonal
    if simple:
        W[..., :d, d, :] = W[..., d, :d, :] = -h_eta
        W[..., d, d, :] = -h_phi
        dq = d * q
        info = np.empty(lead + (dq + 1, dq + 1))
        info[..., :dq, :dq] = _block_sum(W[..., :d, :d, :], XX, q)
        info[..., :dq, dq] = info[..., dq, :dq] = (W[..., :d, d, :] @ Xd).reshape(lead + (dq,))
        info[..., dq, dq] = add(W[..., d, d, :], axis=-1)
    else:
        W[..., :d, d, :] = W[..., d, :d, :] = -h_eta * phis[..., None, :]
        W[..., d, d, :] = -(h_phi * phi2 + dphi * phis)
        info = _block_sum(W, XX, q)
    return grad, 0.5 * (info + info.swapaxes(-1, -2))


def analytic_gradient(
    theta: np.ndarray,
    ds: CompositionDataset,
    X: CovariateMatrix,
    zp: np.ndarray | None,
    link: LinkSpec,
    zero_mode: ZeroMode = ZeroMode.AS_WRITTEN,
) -> np.ndarray:
    """Gradient of the (zero-adjusted) log-likelihood w.r.t. packed params.

    The Bernoulli zero-pattern term carries no free parameters, so the same
    gradient serves both the plain and the zero-adjusted likelihoods. Like
    the `loglik_*` functions, `zero_mode` defaults to as-written while `fit`
    defaults to renormalized: at a fitted model, pass its `zero_mode`. A
    theta whose length does not fit the data is a ShapeMismatch.
    """
    negderivatives = _objective_pair(ds, X, zp, link, zero_mode)[1]
    d, q = ds.D - 1, X.design.shape[1]
    size = d * q + (1 if link.model_kind is ModelKind.SIMPLE else q)
    if np.shape(theta) != (size,):
        raise ShapeMismatch(f"theta has shape {np.shape(theta)}; a {link.model_kind.value} "
                            f"model of D={d + 1} components and {q} design columns has "
                            f"{size} parameters")
    return -negderivatives(theta)[0]


# ---------------------------------------------------------------------------
# OLS warm start (also the Aitchison comparison model)

def _normal_matrix(Xd: np.ndarray) -> np.ndarray:
    """Xd^T Xd of the least-squares design rows, once they are at least
    p + 2 and Xd^T Xd is not near singular."""
    n, q = Xd.shape
    if n < q + 1:
        raise InsufficientRows(f"need at least p+2={q + 1} zero-free rows, have {n}")
    XtX = Xd.T @ Xd
    if np.linalg.cond(XtX) > _COND_LIMIT:
        raise SingularDesign("X^T X is singular or near-singular")
    return XtX


def _least_squares(XtX: np.ndarray, Xd: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Least-squares coefficients (d x q) of the alr responses Z (n x d) on
    the design Xd, given its normal matrix XtX checked by `_normal_matrix`;
    a stack of responses (R x n x d), as `fit_batch` passes even for one,
    gives a stack of coefficients (R x d x q). Each product and solve runs
    per response, so a response's coefficients do not depend on the others
    in its stack: one product of Xd^T with all responses side by side
    differs in the last bits at n of about 2000 and more."""
    return np.linalg.solve(XtX, Xd.T @ Z).swapaxes(-1, -2)


def ols_init(ds: CompositionDataset, X: CovariateMatrix, link: LinkSpec) -> np.ndarray:
    """Least-squares coefficients of the alr-transformed responses, d x (p+1)."""
    _check_reference(link.ref_index, ds.D)
    return _least_squares(_normal_matrix(X.design), X.design, alr(ds, link.ref_index))


# ---------------------------------------------------------------------------
# fitting pipeline

def _objective_pair(ds, X, zp, link, zero_mode):
    """The fit objective and its derivatives (`_Objective.pair`) on a
    dataset, its design and zero pattern (None: that of the dataset)."""
    stage = _stage_design(X.design, zero_pattern(ds) if zp is None else zp, link, zero_mode)
    return _Objective(_log_response(ds.values, stage.U)[None], stage).pair(0)


class _Objective:
    """The fit objective of R responses on one stage (their log responses
    logY, R x D x n, on a prepared stage design), in the form
    `numerics.minimize_batch` calls: `value(theta, rows)` is the negated
    Dirichlet-part log-likelihood of response rows[i] at theta[i], for rows
    distinct and increasing, and `derivatives(theta, rows)` its gradient and
    Hessian (the observed information). The value is +inf where theta is not
    finite, a simple model's phi is not positive or the likelihood is not
    finite. `pair` gives one response's objective as the closures `minimize`
    calls. The Bernoulli zero-pattern term is parameter-free and omitted;
    callers add it back to reported log-likelihoods.

    Both compute a point's row work with `_row_work`. `value` keeps each
    response's latest point and its row work, which `derivatives` reuses at
    finite thetas with, row for row, the bytes of the kept points: each
    accepted Newton point builds its row work once. A call on every
    response, as each of a one-response objective is, takes the row work
    and logY as views instead of copying their rows.
    """

    def __init__(self, logY: np.ndarray, stage: _StageDesign):
        self.logY, self.stage = logY, stage
        R, D, _ = logY.shape
        self.d, self.q = D - 1, stage.Xd.shape[1]
        self.simple = stage.link.model_kind is ModelKind.SIMPLE
        m = self.d * self.q + (1 if self.simple else self.q)
        # Each response's kept point, NaN until it has one: a NaN matches
        # only a theta that is not finite, whose row work is never reused.
        self.keys = np.full((R, m), np.nan)
        self.work = None  # the row work there

    def _row_work(self, theta: np.ndarray):
        dq = self.d * self.q
        B = theta[:, :dq].reshape(len(theta), self.d, self.q)
        return _row_work(self.stage, B, theta[:, dq] if self.simple else theta[:, dq:])

    def _index(self, rows):
        """rows as an index of the per-response arrays: a slice, which takes
        views instead of copies, when they are all of them."""
        return slice(None) if len(rows) == len(self.keys) else rows

    def value(self, theta, rows) -> np.ndarray:
        theta = np.ascontiguousarray(theta, dtype=float)
        ok = np.isfinite(theta).all(axis=1)
        if self.simple:
            ok &= theta[:, self.d * self.q] > 0
        if not ok.all():
            values = np.full(len(theta), np.inf)
            if ok.any():
                values[ok] = self.value(theta[ok], rows[ok])
            return values
        index = self._index(rows)
        work = self._row_work(theta)
        if isinstance(index, slice):
            self.work = work
        else:
            if self.work is None:
                self.work = tuple(np.empty((len(self.keys),) + a.shape[1:]) for a in work)
            for kept, a in zip(self.work, work):
                kept[rows] = a
        self.keys[index] = theta
        value = _dirichlet_value(work, self.logY[index])
        return np.where(np.isfinite(value), -value, np.inf)

    def derivatives(self, theta, rows):
        theta = np.ascontiguousarray(theta, dtype=float)
        index = self._index(rows)
        if np.isfinite(theta).all() and self.keys[index].tobytes() == theta.tobytes():
            work = tuple(a[index] for a in self.work)
        else:
            work = self._row_work(theta)
        # On valid but extreme data a mean can underflow to 0 while its
        # trigamma overflows to inf, and where no MLE exists (as-written
        # zeros) phi runs away until phi**2 * trigamma overflows. The NaN or
        # inf is left to the optimizer's finiteness check, which ends that
        # response's fit with NonFiniteObjective.
        with np.errstate(over="ignore", invalid="ignore"):
            grad, information = _derivatives(work, self.logY[index], self.stage)
        return -grad, information

    def pair(self, k: int):
        """Response k's objective and derivative closures, of one theta each,
        sharing what this objective keeps."""
        row = np.array([k])

        def negloglik(theta):
            return float(self.value(np.asarray(theta, dtype=float)[None], row)[0])

        def negderivatives(theta):
            grad, information = self.derivatives(np.asarray(theta, dtype=float)[None], row)
            return grad[0], information[0]

        return negloglik, negderivatives


def check_positive_definite(matrix: np.ndarray, name: str) -> None:
    """Raise NotPositiveDefinite, naming the matrix, unless it has a finite Cholesky factor."""
    with suppress(np.linalg.LinAlgError):
        if np.isfinite(np.linalg.cholesky(matrix)).all():
            return
    raise NotPositiveDefinite(f"{name} is not positive definite")


def _stage_options(n: int) -> OptimizerOptions:
    """The optimizer options of a stage that fits n rows."""
    return OptimizerOptions(gradient_tolerance=_GRADIENT_TOL_PER_ROW * n)


def _answered_at(stopped: OptimResult, negloglik, negderivatives):
    """The closures `negloglik` and `negderivatives` of one theta array,
    except that at a theta with the bytes of `stopped.argmin` they return
    (copies of) the value, gradient and Hessian that `stopped` carries."""
    key = stopped.argmin.tobytes()

    def value(theta):
        return stopped.value if theta.tobytes() == key else negloglik(theta)

    def derivatives(theta):
        if theta.tobytes() == key:
            return stopped.gradient.copy(), stopped.hessian.copy()
        return negderivatives(theta)

    return value, derivatives


def _fit_stages(logY: np.ndarray, stage_design: _StageDesign, theta0: np.ndarray,
                fit_mode: ZeroMode, stage: FitStage, p_hat: np.ndarray,
                names: tuple[list[str], list[str]], loglik_offset: float = 0.0) -> list:
    """Maximize one stage's Dirichlet-part likelihood, under the link and
    zero mode the stage carries, for R log responses (R x D x n) from R
    starts (R x m); per response its model, or the error its fit raised.
    Each model's covariance is the inverse of its information at the
    optimum, once that is checked positive definite; loglik_offset adds
    back the Bernoulli term, and `fit_mode` is the zero mode of the whole
    fit, which the model records with the (component, covariate) `names`.

    Every stage is reported through `minimize` on its `_Objective.pair`. A
    lone response, as `fit` has, runs it from its start: a batch would only
    find the point that the restart confirms. R >= 2 responses first run
    one `minimize_batch`; each then restarts from its start if the batch
    ran out of iterations, and otherwise where the batch stopped, answered
    there from the batch's `OptimResult` (`_answered_at`), so that it
    computes nothing at that point again and stops there, bit for bit.
    """
    link = stage_design.link
    opts = _stage_options(stage_design.Xd.shape[0])
    objective = _Objective(logY, stage_design)
    batch = (minimize_batch(objective.value, theta0, objective.derivatives, opts)
             if len(theta0) > 1 else [None])
    models = []
    for k, (start, stopped) in enumerate(zip(theta0, batch)):
        if isinstance(stopped, NonFiniteObjective):
            models.append(stopped)
            continue
        negloglik, negderivatives = objective.pair(k)
        if stopped is not None and stopped.termination_reason is not TerminationReason.MAX_ITER:
            start = stopped.argmin
            negloglik, negderivatives = _answered_at(stopped, negloglik, negderivatives)
        try:
            res = minimize(negloglik, start, gradient=negderivatives, opts=opts)
            B, precision = unpack_params(res.argmin, objective.d, objective.q, link.model_kind)
            check_positive_definite(res.hessian, f"the {stage.value} stage's observed information")
            models.append(ZadrModel(
                B=B, precision=precision, p_hat=p_hat, covariance=np.linalg.inv(res.hessian),
                loglik=-res.value + loglik_offset, converged=res.converged, stage=stage,
                link=link, zero_mode=fit_mode, component_names=names[0], covariate_names=names[1],
            ))
        except (ZadrError, np.linalg.LinAlgError) as exc:
            models.append(exc)
    return models


@dataclass(frozen=True, eq=False)
class FitDesign(CovariateMatrix):
    """Covariates together with the half of `fit` that depends only on them,
    the zero pattern, the link and the zero mode, prepared by
    `prepare_design`. Its stages carry the link, the zero mode and the zero
    pattern (the final stage's retained cells). `fit_batch` fits responses
    on it: `fit` one, on the design it prepares for that call; a parametric
    bootstrap many that share all four, drawn at these covariates.
    """

    XtX: np.ndarray  # X^T X of the zero-free rows, checked for the least-squares start
    p_hat: np.ndarray  # closed-form zero-pattern probabilities
    bernoulli: float  # log-probability of the zero pattern under p_hat
    initial: _StageDesign  # stage one: plain likelihood on the zero-free rows
    final: _StageDesign  # stage two: zero-adjusted likelihood on every row


def prepare_design(X: CovariateMatrix, zp: np.ndarray, link: LinkSpec,
                   zero_mode: ZeroMode) -> FitDesign:
    """The design half of `fit` for covariates X and zero pattern zp (n x D).

    Raises what `fit` raises before it reads a response value: DomainError
    when X and zp differ in rows, NoZeroFreeRows, InsufficientRows and
    SingularDesign.
    """
    final = _stage_design(X.design, zp, link, zero_mode)
    mask = zp.all(axis=1)
    if not mask.any():
        raise NoZeroFreeRows("no zero-free rows to warm-start from")
    Xd_free = X.design[mask]
    p_hat = estimate_p(zp)
    return FitDesign(
        design=X.design, covariate_names=X.covariate_names, XtX=_normal_matrix(Xd_free),
        p_hat=p_hat, bernoulli=binary_log_prob(zp, p_hat),
        initial=_stage_design(Xd_free, zp[mask], link, ZeroMode.AS_WRITTEN),
        final=final,
    )


def fit(
    ds: CompositionDataset,
    X: CovariateMatrix,
    link: LinkSpec = LinkSpec(),
    zero_mode: ZeroMode = ZeroMode.RENORMALIZED,
) -> tuple[ZadrModel, ZadrModel]:
    """Staged maximum-likelihood fit; returns (initial, final) models.

    Stage one fits the plain Dirichlet regression to the zero-free rows,
    warm-started from least squares on the alr-transformed responses. Stage
    two maximizes the zero-adjusted likelihood on the full data starting
    from the stage-one coefficients. The zero-pattern probabilities enter
    through their closed-form estimates and are held fixed: the Bernoulli
    term is additively separable from the Dirichlet term. The result is a
    function of the data, the link and `zero_mode` alone.

    The fit has two halves. The design half (`prepare_design`) depends only
    on the covariates, the zero pattern of `ds`, the link and the zero mode;
    the response half fits the values of `ds` on it. The design half builds
    both stages, each carrying the link and the zero mode it is fitted under:
    as written for stage one, `zero_mode` for stage two. `fit` is `fit_batch`
    of the one dataset on the design half it prepares, and raises the error
    that batch gives for it.

    Every stage ends the same way: its optimizer stops, and counts as
    converged, only once max|gradient| < 1e-6 per row fitted in that stage,
    and the analytic observed information at the optimum, the matrix that
    also steers the stage's Newton steps, must be positive definite; its
    inverse is the stage's covariance.

    `zero_mode` defaults to the renormalized sub-Dirichlet mode: with the
    as-written normalizer the zero-adjusted likelihood is unbounded in the
    precision (each row with zeros contributes ~phi*(1-S)*log(phi) for
    large phi, S < 1 the retained mean mass), so no MLE exists.
    """
    [fitted] = fit_batch([ds], prepare_design(X, zero_pattern(ds), link, zero_mode))
    if isinstance(fitted, Exception):
        raise fitted
    return fitted


def _starts(B0: np.ndarray, kind: ModelKind) -> np.ndarray:
    """Stage one's starting points (R x m) of R responses, one for `fit`,
    from their least-squares coefficients B0 (R x d x q). Both kinds start
    from the precision _PHI_START; the mixed model anchors its precision
    intercept there and starts its slopes at 0."""
    R, _, q = B0.shape
    if kind is ModelKind.SIMPLE:
        precision0 = [_PHI_START]
    else:
        precision0 = np.zeros(q)
        precision0[0] = np.log(_PHI_START)
    return np.concatenate([B0.reshape(R, -1), np.repeat([precision0], R, axis=0)], axis=1)


def _stack(arrays: list) -> np.ndarray:
    """The arrays behind a new leading axis; a lone array as a view of it,
    which `np.stack` would copy."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def fit_batch(datasets: list[CompositionDataset], design: FitDesign) -> list:
    """`fit` of many datasets on one prepared design, under the link and zero
    mode it was prepared for: entry k is, bit for bit, what `fit(datasets[k],
    design, link, zero_mode)` returns, or the error it raises; `fit` is this
    of one dataset. Every dataset must have the zero pattern the design was
    prepared for and the same components, as bootstrap replicates drawn at
    one model and design have.

    The least-squares starts come from one stacked solve, and each stage
    fits the datasets still fitting together (`_fit_stages`). Memory grows
    with the datasets' cells, so callers pass them in chunks.
    """
    if not datasets:
        return []
    link, zero_mode = design.final.link, design.final.zero_mode
    free = design.final.U.all(axis=0)
    values_free = [ds.values[free] for ds in datasets]
    B0 = _least_squares(design.XtX, design.initial.Xd,
                        _stack([alr(v, link.ref_index) for v in values_free]))
    names = (datasets[0].component_names, design.covariate_names)
    initial = _fit_stages(_stack([_log_response(v, design.initial.U) for v in values_free]),
                          design.initial, _starts(B0, link.model_kind), zero_mode,
                          FitStage.ZERO_FREE_INITIAL, np.ones(datasets[0].D), names)
    fitted = [k for k, model in enumerate(initial) if isinstance(model, ZadrModel)]
    results = list(initial)
    if fitted:
        final = _fit_stages(
            _stack([_log_response(datasets[k].values, design.final.U) for k in fitted]),
            design.final, _stack([initial[k].parameter_vector() for k in fitted]), zero_mode,
            FitStage.FINAL, design.p_hat, names, design.bernoulli)
        for k, model in zip(fitted, final):
            results[k] = (initial[k], model) if isinstance(model, ZadrModel) else model
    return results


def fit_aitchison(ds: CompositionDataset, X: CovariateMatrix, link: LinkSpec,
                  zero_mode: ZeroMode) -> ZadrModel:
    """Aitchison comparison baseline: OLS of the alr responses on the zero-free
    rows, with squared OLS standard errors as a diagonal covariance."""
    _check_reference(link.ref_index, ds.D)
    mask = ds.zero_free_mask()
    Xd = X.design[mask]
    XtX = _normal_matrix(Xd)
    Z = alr(ds.values[mask], link.ref_index)
    B = _least_squares(XtX, Xd, Z)
    n, q = Xd.shape
    sigma2 = np.sum((Z - Xd @ B.T)**2, axis=0) / (n - q)
    se = np.sqrt(np.outer(sigma2, np.diag(np.linalg.inv(XtX))))
    link = LinkSpec(link.ref_index, ModelKind.AITCHISON)
    return ZadrModel(
        B=B, precision=None, p_hat=np.ones(ds.D), covariance=np.diag((se**2).ravel()),
        loglik=None, converged=True, stage=FitStage.FINAL, link=link, zero_mode=zero_mode,
        component_names=ds.component_names, covariate_names=X.covariate_names,
    )


def fitted_values(model: ZadrModel, X: CovariateMatrix) -> CompositionDataset:
    """Row-wise Dirichlet means, rows summing to 1; a mean whose linear
    predictor is far below its row's largest underflows to 0."""
    A = alpha_matrix(X.design, model.B, model.link.ref_index)
    return CompositionDataset(values=A, component_names=model.component_names)


# ---------------------------------------------------------------------------
# persistence

def model_to_dict(model: ZadrModel) -> dict:
    precision = model.precision
    if model.kind is ModelKind.SIMPLE:
        precision_doc = {"phi": float(precision)}
    elif model.kind is ModelKind.MIXED:
        precision_doc = {"gamma": np.asarray(precision, dtype=float).tolist()}
    else:
        precision_doc = {}
    return {
        "model_kind": model.kind.value,
        "ref_index": model.link.ref_index,
        "component_names": model.component_names,
        "covariate_names": model.covariate_names,
        "B": model.B.ravel().tolist(),
        "precision": precision_doc,
        "p_hat": model.p_hat.tolist(),
        "covariance": None if model.covariance is None else model.covariance.ravel().tolist(),
        "loglik": model.loglik,
        "converged": model.converged,
        "zero_mode": model.zero_mode.value,
        "stage": model.stage.value,
        "library_version": _library_version,
    }


def _is_number(value) -> bool:
    """Whether a JSON value is a finite number that a float holds: not a
    bool, NaN or an infinity, and not an integer past the largest float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _checked(key: str, value, ok, need: str):
    """The model field `key` holding value, once ok(value); SchemaMismatch
    naming the field and what it needs otherwise."""
    if not ok(value):
        shown = json.dumps(value)
        raise SchemaMismatch(f"model field {key!r} must be {need}, not "
                             f"{shown if len(shown) <= 40 else shown[:36] + ' ...'}")
    return value


# (test, what passes it) of the JSON values a model file holds.
_NUMBER = (_is_number, "a number")
_NUMBERS = (lambda v: isinstance(v, list) and all(map(_is_number, v)), "a list of numbers")
_NAMES = (lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
          "a list of strings")


def _member(key: str, value, kind: type[enum.Enum]):
    """The member of enum `kind` whose value the model field `key` holds."""
    values = [member.value for member in kind]
    return kind(_checked(key, value, lambda v: v in values,
                         "one of " + ", ".join(map(json.dumps, values))))


def _field(doc: dict, key: str, shape: tuple[int, ...], need: str) -> np.ndarray:
    """doc[key] as an array of the given shape; SchemaMismatch unless it is a
    list of numbers, ShapeMismatch unless it holds as many as the shape, each
    naming the key."""
    values = np.array(_checked(key, doc[key], *_NUMBERS), dtype=float)
    if values.size != np.prod(shape):
        raise ShapeMismatch(f"model field {key!r} has {values.size} numbers; "
                            f"{need} need {np.prod(shape)}")
    return values.reshape(shape)


def model_from_dict(doc: dict) -> ZadrModel:
    """The model a `model_to_dict` document describes, checked before it is
    built: SchemaMismatch naming a field of the wrong JSON type, a number
    that is not finite or an unknown value, then DomainError for a reference
    outside the components, a simple model's phi <= 0 or a p_hat entry
    outside [0, 1], and ShapeMismatch naming a field of the wrong size. Keys
    it does not read, such as the "seed" that older model files carry, are
    ignored."""
    kind = _member("model_kind", doc["model_kind"], ModelKind)
    component_names = _checked("component_names", doc["component_names"], *_NAMES)
    covariate_names = _checked("covariate_names", doc["covariate_names"], *_NAMES)
    D, q = len(component_names), len(covariate_names)
    ref = _checked("ref_index", doc["ref_index"],
                   lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer")
    _check_reference(ref, D)
    B = _field(doc, "B", (D - 1, q), f"{D} components and {q} design columns")
    if kind is ModelKind.AITCHISON:
        precision = None
    else:
        precision_doc = _checked("precision", doc["precision"], lambda v: isinstance(v, dict),
                                 "an object")
        name = "phi" if kind is ModelKind.SIMPLE else "gamma"
        precision = _checked(name, precision_doc[name],
                             *(_NUMBER if kind is ModelKind.SIMPLE else _NUMBERS))
        _check_parameter_shapes(B, precision, D, q, kind)
        if kind is ModelKind.SIMPLE and precision <= 0:
            raise DomainError("phi must be > 0")
        precision = (float(precision) if kind is ModelKind.SIMPLE
                     else np.array(precision, dtype=float))
    m = pack_params(B, precision, kind).size
    covariance = (None if doc.get("covariance") is None
                  else _field(doc, "covariance", (m, m), f"{m} parameters"))
    loglik = _checked("loglik", doc["loglik"], lambda v: v is None or _is_number(v),
                      "a number or null")
    if loglik is None and kind is not ModelKind.AITCHISON:
        raise SchemaMismatch(f"model field 'loglik' is null; a {kind.value} model needs a number")
    p_hat = _field(doc, "p_hat", (D,), f"{D} components")
    if np.any((p_hat < 0) | (p_hat > 1)):
        raise DomainError(f"p_hat entries must lie in [0, 1], got {p_hat.tolist()}")
    return ZadrModel(
        B=B,
        precision=precision,
        p_hat=p_hat,
        covariance=covariance,
        loglik=None if loglik is None else float(loglik),
        converged=_checked("converged", doc["converged"], lambda v: isinstance(v, bool),
                           "true or false"),
        stage=_member("stage", doc.get("stage", "final"), FitStage),
        link=LinkSpec(ref_index=ref, model_kind=kind),
        zero_mode=_member("zero_mode", doc["zero_mode"], ZeroMode),
        component_names=list(component_names),
        covariate_names=list(covariate_names),
    )


def save_model(model: ZadrModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> ZadrModel:
    with open(path) as fh:
        doc = json.load(fh)
    try:
        return model_from_dict(doc if isinstance(doc, dict) else {})
    except KeyError as exc:
        raise SchemaMismatch(f"{path} is not a model file: it has no key {exc}") from None
