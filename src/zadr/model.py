"""Zero-adjusted Dirichlet regression: links, likelihoods, staged fitting.

Model structure: component means come from an asymmetric softmax whose
reference slot has linear predictor fixed at zero, so the coefficient
matrix B is d x (p+1) with d = D - 1. Precision is either a single phi
(simple model) or exp(x^T gamma) per row (mixed model).

Zeros in the response are handled by restricting each row's Dirichlet
term to its positive components and adding an independent-Bernoulli term
for the zero pattern. No value is ever imputed.

One vectorized engine evaluates every likelihood: `_row_parameters` maps
(B, precision, kind) to row means and precisions, `_core_loglik` sums the
Dirichlet part and one `binary_log_prob` call adds the Bernoulli term. The
four `loglik_*` functions are one-line wrappers whose names fix the kind;
the fit objective and gradient reuse the pieces on data prepared once.

Free-parameter ordering everywhere (gradients, Hessians, covariances):
vec(B) in row-major order (one block of p+1 coefficients per non-reference
component), followed by the precision block (phi or gamma).
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import __version__ as _library_version
from .compositions import (
    CompositionDataset,
    CovariateMatrix,
    ZeroPattern,
    alr,
    estimate_p,
    zero_pattern,
)
from .dirichlet import ZeroMode
from .errors import (
    DomainError,
    InsufficientRows,
    ModelDataMismatch,
    NoZeroFreeRows,
    SingularDesign,
)
from .numerics import minimize, numerical_hessian

_LINPRED_CLAMP = 700.0
_COND_LIMIT = 1e12
# Largest relative gap between a saved stage's log-likelihood and its value
# recomputed on the data. On the data it was fitted to, the recomputation
# differs at most by summation order (about 1e-14 relative); data from any
# other draw moves the log-likelihood by whole percents.
_LOGLIK_RTOL = 1e-9
# Standard deviation of the random-normal start of the mixed model's
# precision slopes, drawn from default_rng(FitOptions.random_seed).
_MIXED_SLOPE_SD = 0.1


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
class FitOptions:
    """How `fit` treats zeros, seeds the mixed start and whether it computes
    covariances. The optimizer always runs with its default options.

    Fitting defaults to the renormalized sub-Dirichlet mode: with the
    as-written normalizer the zero-adjusted likelihood is unbounded in the
    precision (each row with zeros contributes ~phi*(1-S)*log(phi) for
    large phi, S < 1 the retained mean mass), so no MLE exists.
    """

    zero_mode: ZeroMode = ZeroMode.RENORMALIZED
    random_seed: int = 0
    compute_covariance: bool = True


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
    seed_provenance: int
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


def _eta_matrix(X: np.ndarray, B: np.ndarray, ref_index: int) -> np.ndarray:
    n = X.shape[0]
    D = B.shape[0] + 1
    eta = np.zeros((n, D))
    nonref = [j for j in range(D) if j != ref_index]
    eta[:, nonref] = np.clip(X @ B.T, -_LINPRED_CLAMP, _LINPRED_CLAMP)
    return eta


def _softmax(eta: np.ndarray) -> np.ndarray:
    z = eta - eta.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def alpha_matrix(X: np.ndarray, B: np.ndarray, ref_index: int) -> np.ndarray:
    """Row-wise mean parameters a*: softmax with a zeroed reference slot."""
    return _softmax(_eta_matrix(X, B, ref_index))


def link_alpha(x_row: np.ndarray, B: np.ndarray, ref_index: int = 0) -> np.ndarray:
    """Mean vector a* for a single covariate row."""
    return alpha_matrix(np.atleast_2d(np.asarray(x_row, dtype=float)), B, ref_index)[0]


def phi_rows(X: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Per-row precision exp(x^T gamma), clamped against overflow."""
    return np.exp(np.clip(X @ gamma, -_LINPRED_CLAMP, _LINPRED_CLAMP))


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
        logp = np.where(u > 0, np.log(np.where(p > 0, p, 1.0)), 0.0)
        logp = np.where((u > 0) & (p == 0), -np.inf, logp)
        logq = np.where(u == 0, np.log(np.where(p < 1, 1.0 - p, 1.0)), 0.0)
        logq = np.where((u == 0) & (p == 1), -np.inf, logq)
    return float(np.sum(logp + logq))


# ---------------------------------------------------------------------------
# vectorized likelihood engine

def _row_parameters(Xd: np.ndarray, B, precision, ref_index: int, kind: ModelKind):
    """Row-wise means A (n x D) and precisions phis (n,) of a simple or mixed model."""
    A = alpha_matrix(Xd, np.asarray(B, dtype=float), ref_index)
    if kind is ModelKind.SIMPLE:
        return A, np.full(Xd.shape[0], float(precision))
    return A, phi_rows(Xd, np.asarray(precision, dtype=float))


def _core_loglik(A, phis, logY, U, zero_mode: ZeroMode) -> float:
    """Dirichlet part of the log-likelihood on `_prepare`d data.

    Extreme line-search probes overflow to a non-finite value, which the
    objective maps to +inf, so those floating-point warnings are silenced.
    """
    alpha = phis[:, None] * A
    with np.errstate(over="ignore", invalid="ignore"):
        body = np.sum(np.where(U, (alpha - 1.0) * logY - special.gammaln(alpha), 0.0))
        if zero_mode is ZeroMode.AS_WRITTEN:
            norm = np.sum(special.gammaln(phis))
        else:
            S = np.sum(np.where(U, A, 0.0), axis=1)
            norm = np.sum(special.gammaln(phis * S))
        return float(norm + body)


def _core_grad(A, phis, logY, U, zero_mode: ZeroMode):
    """Returns (dEta, dphi_row): gradient pieces of the Dirichlet part.

    dEta is n x D (w.r.t. the linear predictors, reference column included);
    dphi_row is the per-row derivative w.r.t. that row's precision.
    """
    alpha = phis[:, None] * A
    psi_alpha = np.where(U, special.digamma(np.where(U, alpha, 1.0)), 0.0)
    g = np.where(U, phis[:, None] * (logY - psi_alpha), 0.0)
    if zero_mode is ZeroMode.AS_WRITTEN:
        dphi_row = special.digamma(phis)
    else:
        S = np.sum(np.where(U, A, 0.0), axis=1)
        psi_norm = special.digamma(phis * S)
        g = g + np.where(U, (phis * psi_norm)[:, None], 0.0)
        dphi_row = S * psi_norm
    dphi_row = dphi_row + np.sum(np.where(U, A * (logY - psi_alpha), 0.0), axis=1)
    gbar = np.sum(g * A, axis=1)
    dEta = A * (g - gbar[:, None])
    return dEta, dphi_row


def _prepare(ds: CompositionDataset, X: CovariateMatrix, zp: ZeroPattern | None):
    """(logY, design, U); U marks the retained components, logY is log(y) there, 0 elsewhere."""
    if X.n != ds.n:
        raise DomainError("design and dataset row counts differ")
    if zp is None:
        zp = zero_pattern(ds)
    U = zp.u.astype(bool)
    return np.where(U, np.log(np.where(U, ds.values, 1.0)), 0.0), X.design, U


def _loglik(kind: ModelKind, B, precision, p, ds, X, zp, link: LinkSpec,
            zero_mode: ZeroMode) -> float:
    """Dirichlet part plus, unless p is None, the Bernoulli zero-pattern term.

    With p None this is the plain Dirichlet likelihood, defined only on
    zero-free data.
    """
    logY, Xd, U = _prepare(ds, X, zp)
    if p is None and not U.all():
        raise DomainError(f"loglik_{kind.value} requires a zero-free dataset")
    if kind is ModelKind.SIMPLE and precision <= 0:
        raise DomainError("phi must be > 0")
    value = _core_loglik(*_row_parameters(Xd, B, precision, link.ref_index, kind), logY, U, zero_mode)
    return value if p is None else value + binary_log_prob(U, p)


def check_fitted_to(initial: ZadrModel, final: ZadrModel, ds: CompositionDataset,
                    X: CovariateMatrix) -> None:
    """Raise ModelDataMismatch unless both saved fit stages describe (ds, X).

    Each stage's stored log-likelihood is recomputed: the final stage
    zero-adjusted on all rows under its zero mode, the initial stage plain
    Dirichlet on the zero-free rows.
    """
    mask = ds.zero_free_mask()
    recomputed = [
        (final, _loglik(final.kind, final.B, final.precision, final.p_hat, ds, X, None,
                        final.link, final.zero_mode)),
        (initial, _loglik(initial.kind, initial.B, initial.precision, None, _subset(ds, mask),
                          _subset_design(X, mask), None, initial.link, ZeroMode.AS_WRITTEN)),
    ]
    for model, value in recomputed:
        if not abs(value - model.loglik) <= _LOGLIK_RTOL * abs(model.loglik):
            raise ModelDataMismatch(
                f"the {model.stage.value} model's stored log-likelihood {model.loglik!r} "
                f"recomputes as {value!r} on these data; it was fitted to other data")


def loglik_simple(B, phi, ds, X, link: LinkSpec) -> float:
    """Plain Dirichlet regression log-likelihood; requires zero-free data."""
    return _loglik(ModelKind.SIMPLE, B, phi, None, ds, X, None, link, ZeroMode.AS_WRITTEN)


def loglik_mixed(B, gamma, ds, X, link: LinkSpec) -> float:
    return _loglik(ModelKind.MIXED, B, gamma, None, ds, X, None, link, ZeroMode.AS_WRITTEN)


def loglik_zadr_simple(B, phi, p, ds, X, zp, link: LinkSpec,
                       zero_mode: ZeroMode = ZeroMode.AS_WRITTEN) -> float:
    return _loglik(ModelKind.SIMPLE, B, phi, p, ds, X, zp, link, zero_mode)


def loglik_zadr_mixed(B, gamma, p, ds, X, zp, link: LinkSpec,
                      zero_mode: ZeroMode = ZeroMode.AS_WRITTEN) -> float:
    return _loglik(ModelKind.MIXED, B, gamma, p, ds, X, zp, link, zero_mode)


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


def _gradient(theta, logY, Xd, U, link: LinkSpec, zero_mode: ZeroMode) -> np.ndarray:
    """Dirichlet-part gradient on prepared arrays (see `analytic_gradient`)."""
    D = logY.shape[1]
    kind = link.model_kind
    B, precision = unpack_params(theta, D - 1, Xd.shape[1], kind)
    A, phis = _row_parameters(Xd, B, precision, link.ref_index, kind)
    dEta, dphi_row = _core_grad(A, phis, logY, U, zero_mode)
    nonref = [j for j in range(D) if j != link.ref_index]
    dB = dEta[:, nonref].T @ Xd
    if kind is ModelKind.SIMPLE:
        dprec = np.array([np.sum(dphi_row)])
    else:
        dprec = Xd.T @ (dphi_row * phis)
    return np.concatenate([dB.ravel(), dprec])


def analytic_gradient(
    theta: np.ndarray,
    ds: CompositionDataset,
    X: CovariateMatrix,
    zp: ZeroPattern | None,
    link: LinkSpec,
    zero_mode: ZeroMode = ZeroMode.AS_WRITTEN,
) -> np.ndarray:
    """Gradient of the (zero-adjusted) log-likelihood w.r.t. packed params.

    The Bernoulli zero-pattern term carries no free parameters, so the same
    gradient serves both the plain and the zero-adjusted likelihoods.
    """
    return _gradient(theta, *_prepare(ds, X, zp), link, zero_mode)


# ---------------------------------------------------------------------------
# OLS warm start (also the Aitchison comparison model)

def ols_init(ds: CompositionDataset, X: CovariateMatrix, link: LinkSpec) -> np.ndarray:
    """Least-squares coefficients of the alr-transformed responses, d x (p+1)."""
    if ds.n < X.p + 2:
        raise InsufficientRows(f"need at least p+2={X.p + 2} zero-free rows, have {ds.n}")
    Z = alr(ds, link.ref_index)
    XtX = X.design.T @ X.design
    if np.linalg.cond(XtX) > _COND_LIMIT:
        raise SingularDesign("X^T X is singular or near-singular")
    coeffs = np.linalg.solve(XtX, X.design.T @ Z)  # (p+1, d)
    return coeffs.T


def ols_standard_errors(ds: CompositionDataset, X: CovariateMatrix, link: LinkSpec,
                        B: np.ndarray) -> np.ndarray:
    """Per-equation OLS standard errors of the ols_init coefficients B."""
    Z = alr(ds, link.ref_index)
    resid = Z - X.design @ B.T
    dof = max(ds.n - (X.p + 1), 1)
    sigma2 = np.sum(resid**2, axis=0) / dof
    XtX_inv = np.linalg.inv(X.design.T @ X.design)
    return np.sqrt(np.outer(sigma2, np.diag(XtX_inv)))


# ---------------------------------------------------------------------------
# fitting pipeline

def _subset(ds: CompositionDataset, mask: np.ndarray) -> CompositionDataset:
    return CompositionDataset(
        values=ds.values[mask].copy(),
        component_names=ds.component_names,
        row_ids=[r for r, keep in zip(ds.row_ids, mask) if keep],
    )


def _subset_design(X: CovariateMatrix, mask: np.ndarray) -> CovariateMatrix:
    return CovariateMatrix(design=X.design[mask].copy(), covariate_names=X.covariate_names)


def _objective_pair(ds, X, zp, link, zero_mode):
    """Negated Dirichlet-part log-likelihood and gradient closures.

    The Bernoulli zero-pattern term is parameter-free and omitted from the
    objective; callers add it back to reported log-likelihoods.
    """
    d = ds.D - 1
    q = X.design.shape[1]
    kind = link.model_kind
    logY, Xd, U = _prepare(ds, X, zp)

    def negloglik(theta):
        B, precision = unpack_params(theta, d, q, kind)
        if not np.all(np.isfinite(theta)) or (kind is ModelKind.SIMPLE and precision <= 0):
            return np.inf
        A, phis = _row_parameters(Xd, B, precision, link.ref_index, kind)
        value = _core_loglik(A, phis, logY, U, zero_mode)
        return -value if np.isfinite(value) else np.inf

    def neggrad(theta):
        return -_gradient(theta, logY, Xd, U, link, zero_mode)

    return negloglik, neggrad


def _covariance_from_hessian(negloglik, theta: np.ndarray) -> np.ndarray:
    """Inverse observed information; pseudo-inverse with a warning when
    the information matrix is ill-conditioned."""
    H = numerical_hessian(negloglik, theta)  # = -Hessian of the log-likelihood
    cond = np.linalg.cond(H)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        warnings.warn(
            f"information matrix condition number {cond:.3e}; using pseudo-inverse",
            RuntimeWarning,
        )
        return np.linalg.pinv(H)
    return np.linalg.inv(H)


def _init_phi_grid(negloglik, B0: np.ndarray) -> float:
    """Coarse 1-D scan for a sane starting precision at the OLS coefficients."""
    best_phi, best_val = 1.0, np.inf
    for log_phi in np.linspace(np.log(0.5), np.log(500.0), 30):
        phi = float(np.exp(log_phi))
        val = negloglik(np.concatenate([B0.ravel(), [phi]]))
        if val < best_val:
            best_phi, best_val = phi, val
    return best_phi


def _fit_stage(ds, X, zp, link: LinkSpec, zero_mode: ZeroMode, theta0, opts: FitOptions,
               stage: FitStage, p_hat: np.ndarray, loglik_offset: float = 0.0) -> ZadrModel:
    """Maximize one stage's Dirichlet-part likelihood under `zero_mode` from
    theta0 and wrap the optimum as a model; loglik_offset adds back the
    Bernoulli term. The model records `opts.zero_mode`, the mode of the fit."""
    negloglik, neggrad = _objective_pair(ds, X, zp, link, zero_mode)
    res = minimize(negloglik, theta0, gradient=neggrad)
    B, precision = unpack_params(res.argmin, ds.D - 1, X.design.shape[1], link.model_kind)
    covariance = _covariance_from_hessian(negloglik, res.argmin) if opts.compute_covariance else None
    return ZadrModel(
        B=B,
        precision=precision,
        p_hat=p_hat,
        covariance=covariance,
        loglik=-res.value + loglik_offset,
        converged=res.converged,
        stage=stage,
        link=link,
        zero_mode=opts.zero_mode,
        seed_provenance=opts.random_seed,
        component_names=ds.component_names,
        covariate_names=X.covariate_names,
    )


def fit(
    ds: CompositionDataset,
    X: CovariateMatrix,
    link: LinkSpec = LinkSpec(),
    opts: FitOptions = FitOptions(),
) -> tuple[ZadrModel, ZadrModel]:
    """Staged maximum-likelihood fit; returns (initial, final) models.

    Stage one fits the plain Dirichlet regression to the zero-free rows,
    warm-started from least squares on the alr-transformed responses. Stage
    two maximizes the zero-adjusted likelihood on the full data starting
    from the stage-one coefficients. The zero-pattern probabilities enter
    through their closed-form estimates and are held fixed: the Bernoulli
    term is additively separable from the Dirichlet term.
    """
    zp = zero_pattern(ds)
    p_hat = estimate_p(zp)
    mask = ds.zero_free_mask()
    if not mask.any():
        raise NoZeroFreeRows("no zero-free rows to warm-start from")
    ds_free = _subset(ds, mask)
    X_free = _subset_design(X, mask)
    zp_free = ZeroPattern(u=zp.u[mask])

    B0 = ols_init(ds_free, X_free, link)
    q = B0.shape[1]

    # Stage one: plain likelihood on zero-free rows. Both kinds start from
    # the simple-model grid precision; the mixed model anchors its precision
    # intercept there and draws its slopes at random.
    simple_link = LinkSpec(link.ref_index, ModelKind.SIMPLE)
    phi0 = _init_phi_grid(
        _objective_pair(ds_free, X_free, zp_free, simple_link, ZeroMode.AS_WRITTEN)[0], B0)
    if link.model_kind is ModelKind.SIMPLE:
        precision0 = [phi0]
    else:
        precision0 = np.zeros(q)
        precision0[0] = np.log(phi0)
        if q > 1:
            rng = np.random.default_rng(opts.random_seed)
            precision0[1:] = rng.normal(0.0, _MIXED_SLOPE_SD, size=q - 1)
    theta0 = np.concatenate([B0.ravel(), precision0])
    initial = _fit_stage(ds_free, X_free, zp_free, link, ZeroMode.AS_WRITTEN, theta0, opts,
                         FitStage.ZERO_FREE_INITIAL, np.ones(ds.D))

    # Stage two: zero-adjusted likelihood on the full data.
    final = _fit_stage(ds, X, zp, link, opts.zero_mode, initial.parameter_vector(), opts,
                       FitStage.FINAL, p_hat, binary_log_prob(zp.u, p_hat))
    return initial, final


def refit_options(model: ZadrModel, compute_covariance: bool = True) -> FitOptions:
    """Options that refit data the way `model` was fitted: same zero mode and seed."""
    return FitOptions(zero_mode=model.zero_mode, random_seed=model.seed_provenance,
                      compute_covariance=compute_covariance)


def fit_aitchison(ds: CompositionDataset, X: CovariateMatrix, link: LinkSpec,
                  zero_mode: ZeroMode, seed: int) -> ZadrModel:
    """Aitchison comparison baseline: OLS of the alr responses on the zero-free
    rows, with squared OLS standard errors as a diagonal covariance."""
    mask = ds.zero_free_mask()
    ds_free, X_free = _subset(ds, mask), _subset_design(X, mask)
    link = LinkSpec(link.ref_index, ModelKind.AITCHISON)
    B = ols_init(ds_free, X_free, link)
    se = ols_standard_errors(ds_free, X_free, link, B)
    return ZadrModel(
        B=B, precision=None, p_hat=np.ones(ds.D), covariance=np.diag((se**2).ravel()),
        loglik=None, converged=True, stage=FitStage.FINAL, link=link, zero_mode=zero_mode,
        seed_provenance=seed, component_names=ds.component_names,
        covariate_names=X.covariate_names,
    )


def fitted_values(model: ZadrModel, X: CovariateMatrix) -> CompositionDataset:
    """Row-wise Dirichlet means; a valid zero-free composition matrix."""
    A = alpha_matrix(X.design, model.B, model.link.ref_index)
    return CompositionDataset(
        values=A,
        component_names=model.component_names,
        row_ids=[str(i) for i in range(A.shape[0])],
    )


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
        "seed": model.seed_provenance,
        "zero_mode": model.zero_mode.value,
        "stage": model.stage.value,
        "library_version": _library_version,
    }


def model_from_dict(doc: dict) -> ZadrModel:
    kind = ModelKind(doc["model_kind"])
    D = len(doc["component_names"])
    q = len(doc["covariate_names"])
    d = D - 1
    B = np.array(doc["B"], dtype=float).reshape(d, q)
    if kind is ModelKind.SIMPLE:
        precision = float(doc["precision"]["phi"])
    elif kind is ModelKind.MIXED:
        precision = np.array(doc["precision"]["gamma"], dtype=float)
    else:
        precision = None
    m = pack_params(B, precision, kind).size
    cov = doc.get("covariance")
    covariance = None if cov is None else np.array(cov, dtype=float).reshape(m, m)
    return ZadrModel(
        B=B,
        precision=precision,
        p_hat=np.array(doc["p_hat"], dtype=float),
        covariance=covariance,
        loglik=None if doc["loglik"] is None else float(doc["loglik"]),
        converged=bool(doc["converged"]),
        stage=FitStage(doc.get("stage", "final")),
        link=LinkSpec(ref_index=int(doc["ref_index"]), model_kind=kind),
        zero_mode=ZeroMode(doc["zero_mode"]),
        seed_provenance=int(doc["seed"]),
        component_names=list(doc["component_names"]),
        covariate_names=list(doc["covariate_names"]),
    )


def save_model(model: ZadrModel, path) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")


def load_model(path) -> ZadrModel:
    with open(path) as fh:
        return model_from_dict(json.load(fh))
