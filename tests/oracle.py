"""Independent row-by-row log-likelihood oracle, a finite-difference helper
and a reference assembly of the observed information.

The log-likelihood oracle is deliberately scalar: it builds each row's mean
vector with explicit loops and math.exp, then delegates the density to the
dirichlet module. Nothing here shares code with the vectorized likelihood
engine it is used to check. Central differences check the engine's analytic
derivatives, and `rowkron_information` assembles the information matrix
from row-wise Kronecker products, summed in an order of its own.
`oracle_read_csv` and `oracle_read_covariates` are the reference CSV readers:
every cell goes through the csv module and Python's float. `oracle_minimize`
is the reference Newton loop of one problem, written on scalars, against which
each problem of `minimize_batch` is checked; it shares only the Newton step
and the line-search constants with the batch loop.
"""

import csv
import math
import string

import numpy as np
from scipy import special

from zadr.compositions import load_dataset, make_design
from zadr.dirichlet import DirichletParams, ZeroMode, log_density, subcomposition_log_density
from zadr.errors import DomainError, EmptyInput, NonFiniteObjective, SchemaMismatch
from zadr.numerics import (
    _ARMIJO_C1,
    _BACKTRACK,
    _MAX_BACKTRACKS,
    _ROUNDOFF_RTOL,
    OptimizerOptions,
    OptimResult,
    TerminationReason,
    _newton_steps,
)


def finite_diff_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central differences with magnitude-scaled steps: the gradient of a scalar
    f, or the Jacobian of a vector-valued f with row i holding df/dx_i."""
    x = np.asarray(x, dtype=float)
    h = np.maximum(1e-6, 1e-6 * np.abs(x))
    rows = []
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp, fm = f(xp), f(xm)
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
            raise NonFiniteObjective(f"non-finite objective near component {i}")
        rows.append((fp - fm) / (2.0 * h[i]))
    return np.array(rows)


def oracle_mean_vector(x, B, ref_index):
    D = B.shape[0] + 1
    q = B.shape[1]
    eta = []
    k = 0
    for j in range(D):
        if j == ref_index:
            eta.append(0.0)
        else:
            eta.append(sum(B[k][m] * x[m] for m in range(q)))
            k += 1
    mx = max(eta)
    e = [math.exp(v - mx) for v in eta]
    s = sum(e)
    a = np.array([v / s for v in e])
    return a / a.sum()


def oracle_loglik(B, precision, ds, X, ref_index, mixed,
                  p=None, zero_mode=ZeroMode.AS_WRITTEN):
    """Sum of per-row densities plus, if p is given, the Bernoulli term."""
    B = np.asarray(B, dtype=float)
    total = 0.0
    for i in range(ds.n):
        x = X.design[i]
        a = oracle_mean_vector(x, B, ref_index)
        if mixed:
            phi = math.exp(sum(float(g) * float(v) for g, v in zip(precision, x)))
        else:
            phi = float(precision)
        params = DirichletParams(phi, a)
        row = ds.values[i]
        C = [j for j in range(ds.D) if row[j] > 0]
        if len(C) == ds.D:
            total += log_density(row, params)
        else:
            total += subcomposition_log_density(row, params, C, zero_mode)
        if p is not None:
            for j in range(ds.D):
                if row[j] > 0:
                    total += math.log(p[j])
                else:
                    total += math.log(1.0 - p[j])
    return total


def _rowkron(M, Xd):
    """(n, d*q) row-wise Kronecker products of M's d columns with the design."""
    return (M[:, :, None] * Xd[:, None, :]).reshape(Xd.shape[0], -1)


def rowkron_information(theta, logY, Xd, U, ref_index, mixed, renormalized):
    """Observed information of the Dirichlet part, assembled from row-wise
    Kronecker products of weights and design, a loop over components and
    T + T^T: the reference for the engine's per-row weight matrices.

    Takes row-major (n x D) cell arrays, the transposes of `model._log_response`
    and of a stage's `U` (log y on retained cells, retained-cell mask), and
    the design; trigamma is scipy's polygamma.
    """
    n, q = Xd.shape
    D = logY.shape[1]
    d = D - 1
    theta = np.asarray(theta, dtype=float)
    nonref = [j for j in range(D) if j != ref_index]
    eta = np.zeros((n, D))
    eta[:, nonref] = Xd @ theta[: d * q].reshape(d, q).T
    A = np.exp(eta - eta.max(axis=1, keepdims=True))
    A /= A.sum(axis=1, keepdims=True)
    phis = np.exp(Xd @ theta[d * q:]) if mixed else np.full(n, theta[d * q])
    u = U.astype(float) if renormalized else np.zeros_like(A)
    mass = np.sum(A * u, axis=1)
    S = mass if renormalized else np.ones(n)
    alpha = np.where(U, phis[:, None] * A, 1.0)
    resid = np.where(U, logY - special.digamma(alpha), 0.0)
    psi_nu = special.digamma(phis * S)
    g = phis[:, None] * (resid + psi_nu[:, None] * u)
    dphi = S * psi_nu + np.sum(A * resid, axis=1)
    e = A * (g - np.sum(g * A, axis=1)[:, None])
    P, dphi_dprec, curvature = (Xd, phis, phis) if mixed else (np.ones((n, 1)), np.ones(n), 0.0)

    t = np.where(U, phis[:, None] ** 2 * special.polygamma(1, alpha), 0.0)
    r = phis**2 * special.polygamma(1, phis * S)
    v = A * A * t
    s = np.sum(v, axis=1)
    c = e - v
    w = A * (u - mass[:, None])
    h = (g - t * A + (r * S)[:, None] * u) / phis[:, None]
    h_eta = A * (h - np.sum(h * A, axis=1)[:, None])
    h_phi = (r * S * S - s) / phis**2
    Ka, Kw = _rowkron(A[:, nonref], Xd), _rowkron(w[:, nonref], Xd)
    T = _rowkron(c[:, nonref] + 0.5 * s[:, None] * A[:, nonref], Xd).T @ Ka
    dq = Ka.shape[1]
    m = dq + P.shape[1]
    info = np.empty((m, m))
    info[:dq, :dq] = T + T.T - Kw.T @ (r[:, None] * Kw)
    for k, j in enumerate(nonref):
        block = slice(k * q, (k + 1) * q)
        info[block, block] -= (c[:, j, None] * Xd).T @ Xd
    info[:dq, dq:] = -_rowkron(h_eta[:, nonref], Xd).T @ (dphi_dprec[:, None] * P)
    info[dq:, :dq] = info[:dq, dq:].T
    info[dq:, dq:] = -P.T @ ((h_phi * dphi_dprec**2 + dphi * curvature)[:, None] * P)
    return 0.5 * (info + info.T)


def _oracle_read_table(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInput(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        records = [row for row in reader if "".join(row).strip()]
    if not records:
        raise EmptyInput(f"{path}: no data rows")
    for i, rec in enumerate(records):
        if len(rec) < len(header):
            raise SchemaMismatch(
                f"{path}: data row {i} has {len(rec)} cells but the header has {len(header)}")
    return header, records


def _oracle_column_indices(path, header, names, role):
    missing = [name for name in names if name not in header]
    if missing:
        raise SchemaMismatch(f"{path}: {role} column {missing[0]!r} not found")
    return [header.index(name) for name in names]


def _oracle_parse_columns(path, header, records, cols):
    cells = [rec[j] for rec in records for j in cols]
    try:
        values = np.fromiter(map(float, cells), dtype=float, count=len(cells))
    except ValueError:
        for i, rec in enumerate(records):
            for j in cols:
                cell = rec[j]
                if not cell.strip():
                    raise EmptyInput(
                        f"{path}: empty cell at data row {i}, column {header[j]!r}") from None
                try:
                    float(cell)
                except ValueError:
                    shown = cell.strip(string.whitespace)
                    raise DomainError(f"{path}: non-numeric cell {shown!r} at data row {i}, "
                                      f"column {header[j]!r}") from None
        raise
    return values.reshape(len(records), len(cols))


def oracle_read_covariates(path, covariates):
    header, records = _oracle_read_table(path)
    cols = _oracle_column_indices(path, header, covariates, "covariate")
    return make_design(_oracle_parse_columns(path, header, records, cols), names=list(covariates))


def oracle_read_csv(path, components=None, covariates=None):
    """`read_csv` with every cell read by the csv module and Python's float.
    It takes the first copy of a column name that appears twice."""
    header, records = _oracle_read_table(path)
    if components is not None:
        comp_cols = _oracle_column_indices(path, header, components, "component")
        comp_names = list(components)
    else:
        comp_cols = [j for j, h in enumerate(header) if h.startswith("y:")]
        if not comp_cols:
            raise SchemaMismatch(f"{path}: no components given and no 'y:'-prefixed columns")
        comp_names = [header[j][2:] for j in comp_cols]
    if covariates is not None:
        cov_cols = _oracle_column_indices(path, header, covariates, "covariate")
    else:
        cov_cols = [j for j in range(len(header)) if j not in comp_cols]
    values = _oracle_parse_columns(path, header, records, comp_cols + cov_cols)
    k = len(comp_cols)
    ds = load_dataset(values[:, :k], names=comp_names)
    return ds, make_design(values[:, k:], names=[header[j] for j in cov_cols])


def _oracle_derivatives(gradient, x):
    g, H = gradient(x)
    if not (np.isfinite(g).all() and np.isfinite(H).all()):
        raise NonFiniteObjective("gradient or Hessian not finite")
    return g, H


def oracle_minimize(objective, x0, gradient, opts: OptimizerOptions) -> OptimResult:
    """Damped Newton with Armijo backtracking on one problem, one scalar test
    at a time: the result `minimize_batch` must give for that problem, or the
    NonFiniteObjective it must return for it, raised."""
    x = np.asarray(x0, dtype=float).copy()
    fx = objective(x)
    if not np.isfinite(fx):
        raise NonFiniteObjective("objective not finite at starting point")
    g, H = _oracle_derivatives(gradient, x)
    reason = TerminationReason.MAX_ITER
    iterations = 0
    while True:
        if np.max(np.abs(g)) < opts.gradient_tolerance:
            reason = TerminationReason.GRADIENT_TOL
            break
        if iterations == opts.max_iterations:
            break
        iterations += 1
        d = _newton_steps(g[None], H[None])[0]
        slope = float(g @ d)
        allowance = _ROUNDOFF_RTOL * abs(fx)
        t = 1.0
        for _ in range(_MAX_BACKTRACKS + 1):
            x_new = x + t * d
            fx_new = objective(x_new)
            if np.isfinite(fx_new) and fx_new <= fx + _ARMIJO_C1 * t * slope + allowance:
                break
            t *= _BACKTRACK
        else:
            if not np.isfinite(fx_new):
                raise NonFiniteObjective("line search could not recover a finite objective")
            reason = TerminationReason.STEP_TOL  # no Armijo decrease at the smallest step
            break
        if (x_new == x).all():
            reason = TerminationReason.STEP_TOL  # a step lost to rounding
            break
        x, fx = x_new, fx_new
        g, H = _oracle_derivatives(gradient, x)
    return OptimResult(argmin=x, value=float(fx), gradient_norm=float(np.max(np.abs(g))),
                       iterations=iterations, termination_reason=reason, hessian=H)
