"""Special functions and a quasi-Newton minimizer for likelihood fitting.

The log-gamma family is delegated to scipy.special, which meets the 1e-12
relative accuracy requirement out of the box. The optimizer is a BFGS with
Armijo backtracking: the likelihoods are smooth and low-dimensional, and a
self-contained implementation gives us a stable termination contract.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import DomainError, NonFiniteObjective


def _check_positive(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)) or np.any(x <= 0.0):
        raise DomainError("argument must be finite and > 0")
    return x


def lgamma_fn(x):
    """log Gamma(x) for x > 0."""
    return special.gammaln(_check_positive(x))


def digamma_fn(x):
    """d/dx log Gamma(x) for x > 0."""
    return special.digamma(_check_positive(x))


def trigamma_fn(x):
    """d^2/dx^2 log Gamma(x) for x > 0."""
    return special.polygamma(1, _check_positive(x))


class TerminationReason(enum.Enum):
    GRADIENT_TOL = "GradientTol"
    STEP_TOL = "StepTol"
    MAX_ITER = "MaxIter"


@dataclass(frozen=True)
class OptimizerOptions:
    max_iterations: int = 500
    gradient_tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.gradient_tolerance <= 0:
            raise ValueError("gradient_tolerance must be > 0")


@dataclass(frozen=True)
class OptimResult:
    argmin: np.ndarray
    value: float
    gradient_norm: float
    iterations: int
    termination_reason: TerminationReason

    @property
    def converged(self) -> bool:
        """True only when the gradient test passed."""
        return self.termination_reason is TerminationReason.GRADIENT_TOL


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


def numerical_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central second differences, symmetrized as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    m = x.size
    h = np.maximum(1e-4, 1e-4 * np.abs(x))
    f0 = f(x)
    if not np.isfinite(f0):
        raise NonFiniteObjective("objective non-finite at expansion point")
    H = np.empty((m, m))
    for i in range(m):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        fp, fm = f(xp), f(xm)
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NonFiniteObjective(f"non-finite objective near component {i}")
        H[i, i] = (fp - 2.0 * f0 + fm) / h[i] ** 2
        for j in range(i + 1, m):
            xpp = x.copy()
            xpm = x.copy()
            xmp = x.copy()
            xmm = x.copy()
            xpp[[i, j]] += [h[i], h[j]]
            xpm[i] += h[i]
            xpm[j] -= h[j]
            xmp[i] -= h[i]
            xmp[j] += h[j]
            xmm[[i, j]] -= [h[i], h[j]]
            vals = np.array([f(xpp), f(xpm), f(xmp), f(xmm)])
            if not np.all(np.isfinite(vals)):
                raise NonFiniteObjective(f"non-finite objective near components {i},{j}")
            H[i, j] = H[j, i] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4.0 * h[i] * h[j])
    return 0.5 * (H + H.T)


_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
_MAX_BACKTRACKS = 60


def minimize(objective, x0, gradient, opts: OptimizerOptions | None = None) -> OptimResult:
    """BFGS with Armijo backtracking line search.

    The objective may return +inf outside its domain; the line search simply
    shrinks the step until it is finite again. `gradient(x)` returns its
    gradient. `opts` defaults to `OptimizerOptions()`. Deterministic given
    inputs.

    There is one success test: max|gradient| < `opts.gradient_tolerance`,
    which ends the run with GradientTol, the only reason that counts as
    converged. StepTol means the line search found no Armijo decrease even
    at its smallest step (a stall short of the tolerance); MaxIter means
    `opts.max_iterations` iterations ran without passing the test.
    """
    if opts is None:
        opts = OptimizerOptions()
    x = np.asarray(x0, dtype=float).copy()

    fx = objective(x)
    if not np.isfinite(fx):
        raise NonFiniteObjective("objective not finite at starting point")
    g = np.asarray(gradient(x), dtype=float)
    m = x.size
    H = np.eye(m)  # inverse Hessian approximation
    first_update = True

    reason = TerminationReason.MAX_ITER
    iterations = 0
    while True:
        if np.max(np.abs(g)) < opts.gradient_tolerance:
            reason = TerminationReason.GRADIENT_TOL
            break
        if iterations == opts.max_iterations:
            break
        iterations += 1

        d = -H @ g
        slope = float(d @ g)
        if slope >= 0.0:  # reset on loss of descent direction
            H = np.eye(m)
            d = -g
            slope = -float(g @ g)
            first_update = True

        # Try the minimizer of the quadratic fit through (0, fx, slope) and
        # (1, f(x+d)) first; on quadratic objectives this is an exact line
        # search, which gives BFGS its finite-termination behaviour.
        t = 1.0
        accepted = False
        fx_new = objective(x + d)
        if np.isfinite(fx_new):
            denom = fx_new - fx - slope
            if denom > 0.0:
                t_star = -slope / (2.0 * denom)
                if 1e-10 < t_star < 1e10:
                    f_star = objective(x + t_star * d)
                    if (
                        np.isfinite(f_star)
                        and f_star <= fx + _ARMIJO_C1 * t_star * slope
                        and f_star <= fx_new
                    ):
                        t, fx_new, accepted = t_star, f_star, True
            if not accepted and fx_new <= fx + _ARMIJO_C1 * slope:
                accepted = True

        if not accepted:
            for _ in range(_MAX_BACKTRACKS):
                t *= _BACKTRACK
                fx_new = objective(x + t * d)
                if np.isfinite(fx_new) and fx_new <= fx + _ARMIJO_C1 * t * slope:
                    accepted = True
                    break
        x_new = x + t * d
        if not accepted:
            if not np.isfinite(fx_new):
                raise NonFiniteObjective("line search could not recover a finite objective")
            # No Armijo decrease at the smallest step: treat as stalled.
            reason = TerminationReason.STEP_TOL
            break

        g_new = np.asarray(gradient(x_new), dtype=float)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * np.linalg.norm(s) * np.linalg.norm(y):
            if first_update:
                H *= sy / float(y @ y)
                first_update = False
            rho = 1.0 / sy
            Hy = H @ y
            H -= rho * (np.outer(s, Hy) + np.outer(Hy, s))
            H += (rho * rho * float(y @ Hy) + rho) * np.outer(s, s)

        x, fx, g = x_new, fx_new, g_new

    return OptimResult(
        argmin=x,
        value=float(fx),
        gradient_norm=float(np.max(np.abs(g))),
        iterations=iterations,
        termination_reason=reason,
    )
