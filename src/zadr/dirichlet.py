"""Dirichlet density, sampling and sub-composition densities.

Uses the precision parametrization: mean vector a* on the simplex and a
scalar precision phi, so the classical parameters are alpha_i = phi * a*_i.

Everything here is deliberately scalar and row-at-a-time: these functions
double as the independent oracle against which the vectorized likelihood
engine is checked, so they must not share code with it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError


class ZeroMode(enum.Enum):
    """How the normalizer of a sub-composition density is formed.

    AS_WRITTEN keeps log Gamma(phi) even when components are missing, which
    is what the zero-adjusted likelihood uses by default. RENORMALIZED uses
    log Gamma(sum of the retained alphas), a properly normalized density on
    the sub-simplex.
    """

    AS_WRITTEN = "as-written"
    RENORMALIZED = "renormalized"


@dataclass(frozen=True)
class DirichletParams:
    phi: float
    a_star: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_star, dtype=float)
        if not (np.isfinite(self.phi) and self.phi > 0):
            raise DomainError("phi must be finite and > 0")
        if np.any(a <= 0) or abs(a.sum() - 1.0) > 1e-12:
            raise DomainError("a_star must be strictly positive and sum to 1")
        object.__setattr__(self, "a_star", a)
        a.setflags(write=False)


def log_density(y, params: DirichletParams) -> float:
    """Log density of a single strictly positive composition row."""
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0):
        raise DomainError("log_density requires strictly positive y")
    phi, a = params.phi, params.a_star
    out = math.lgamma(phi)
    for i in range(y.size):
        out -= math.lgamma(phi * a[i])
        out += (phi * a[i] - 1.0) * math.log(y[i])
    return out


def subcomposition_log_density(
    y,
    params: DirichletParams,
    C,
    mode: ZeroMode = ZeroMode.AS_WRITTEN,
) -> float:
    """Log density contribution of a row observed only on the index set C.

    Requires y to be zero exactly off C, positive on C, summing to 1 over C.
    """
    y = np.asarray(y, dtype=float)
    C = sorted(int(k) for k in C)
    if len(C) < 2:
        raise DomainError("sub-composition needs at least 2 components")
    in_C = np.zeros(y.size, dtype=bool)
    in_C[C] = True
    if np.any(y[in_C] <= 0) or np.any(y[~in_C] != 0):
        raise DomainError("y must be positive exactly on C")
    if abs(y[in_C].sum() - 1.0) > 1e-8:
        raise DomainError("y must sum to 1 over C")
    phi, a = params.phi, params.a_star
    if mode is ZeroMode.AS_WRITTEN:
        out = math.lgamma(phi)
    else:
        out = math.lgamma(phi * sum(a[k] for k in C))
    for k in C:
        out -= math.lgamma(phi * a[k])
        out += (phi * a[k] - 1.0) * math.log(y[k])
    return out


def sample(params: DirichletParams, count: int, seed: int) -> np.ndarray:
    """Draw `count` rows via the gamma-variate construction, fixed seed."""
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return _gamma_normalize(rng, params.phi * params.a_star, count)


def sample_subcomposition(
    params: DirichletParams, C, count: int, seed: int
) -> np.ndarray:
    """Draw rows that are zero off C and sub-Dirichlet on C.

    By the marginality property the renormalized restriction of a Dirichlet
    to C is Dirichlet with the retained alphas, so we sample it directly.
    """
    C = sorted(int(k) for k in C)
    rng = np.random.default_rng(seed)
    sub = _gamma_normalize(rng, params.phi * params.a_star[C], count)
    out = np.zeros((count, params.a_star.size))
    out[:, C] = sub
    return out


def _gamma_normalize(rng: np.random.Generator, alphas: np.ndarray, count: int) -> np.ndarray:
    g = rng.standard_gamma(alphas, size=(count, alphas.size))
    # Guard against exact-zero gamma draws for tiny shapes.
    tiny = np.finfo(float).tiny
    g = np.maximum(g, tiny)
    return g / g.sum(axis=1, keepdims=True)
