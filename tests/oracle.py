"""Independent row-by-row log-likelihood oracle and a finite-difference helper.

Deliberately scalar: builds each row's mean vector with explicit loops and
math.exp, then delegates the density to the dirichlet module. Shares no code
with the vectorized likelihood engine it is used to check. Central
differences check the engine's analytic derivatives.
"""

import math

import numpy as np

from zadr.dirichlet import DirichletParams, ZeroMode, log_density, subcomposition_log_density
from zadr.errors import NonFiniteObjective


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
