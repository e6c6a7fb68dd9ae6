import math

import numpy as np
import pytest
from scipy import stats

from zadr.dirichlet import (
    DirichletParams,
    ZeroMode,
    log_density,
    sample,
    sample_subcomposition,
    subcomposition_log_density,
)
from zadr.errors import DomainError

PARAM_SETS = [
    DirichletParams(3.0, np.array([1 / 3, 1 / 3, 1 / 3])),
    DirichletParams(15.889, np.array([0.6, 0.3, 0.1])),
    DirichletParams(0.9, np.array([0.05, 0.15, 0.8])),
]


class TestParams:
    def test_rejects_nonpositive_phi(self):
        with pytest.raises(DomainError):
            DirichletParams(0.0, np.array([0.5, 0.5]))

    def test_rejects_bad_mean_vector(self):
        with pytest.raises(DomainError):
            DirichletParams(2.0, np.array([0.7, 0.7]))
        with pytest.raises(DomainError):
            DirichletParams(2.0, np.array([1.0, 0.0]))


class TestLogDensity:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        for params in PARAM_SETS:
            for _ in range(20):
                y = rng.dirichlet(np.full(3, 2.0))
                ours = log_density(y, params)
                ref = stats.dirichlet.logpdf(y / y.sum(), params.phi * params.a_star)
                assert abs(ours - ref) < 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        y = rng.dirichlet([2.0, 2.0, 2.0])
        a = np.array([0.5, 0.3, 0.2])
        perm = [2, 0, 1]
        base = log_density(y, DirichletParams(7.0, a))
        permuted = log_density(y[perm], DirichletParams(7.0, a[perm]))
        assert abs(base - permuted) < 1e-12

    def test_rejects_zero_entries(self):
        with pytest.raises(DomainError):
            log_density([0.5, 0.5, 0.0], PARAM_SETS[0])

    # density must vanish at the boundary (all alphas > 1) for midpoint
    # quadrature to reach 1e-3; singular-at-boundary cases are not gridable
    QUADRATURE_SETS = [
        DirichletParams(6.0, np.array([1 / 3, 1 / 3, 1 / 3])),
        DirichletParams(15.889, np.array([0.6, 0.3, 0.1])),
        DirichletParams(12.0, np.array([0.15, 0.25, 0.6])),
    ]

    @pytest.mark.parametrize("params", QUADRATURE_SETS)
    def test_integrates_to_one_on_2_simplex(self, params):
        # deterministic midpoint grid over (y1, y2); y3 = 1 - y1 - y2
        m = 700
        step = 1.0 / m
        centers = (np.arange(m) + 0.5) * step
        total = 0.0
        for y1 in centers:
            y2 = centers[centers < 1.0 - y1]
            if y2.size == 0:
                continue
            y3 = 1.0 - y1 - y2
            keep = y3 > 0
            for b, c in zip(y2[keep], y3[keep]):
                total += math.exp(log_density([y1, b, c], params))
        assert abs(total * step * step - 1.0) < 1e-3


class TestSubcompositionDensity:
    def test_renormalized_pair_equals_beta(self):
        params = DirichletParams(9.0, np.array([0.5, 0.2, 0.3]))
        C = [0, 2]
        a1, a2 = params.phi * params.a_star[0], params.phi * params.a_star[2]
        for y0 in [0.1, 0.37, 0.9]:
            y = np.array([y0, 0.0, 1.0 - y0])
            ours = subcomposition_log_density(y, params, C, ZeroMode.RENORMALIZED)
            ref = stats.beta.logpdf(y0, a1, a2)
            assert abs(ours - ref) < 1e-12

    def test_modes_differ_by_normalizer_only(self):
        params = DirichletParams(6.0, np.array([0.4, 0.35, 0.25]))
        y = np.array([0.3, 0.7, 0.0])
        C = [0, 1]
        gap = subcomposition_log_density(y, params, C, ZeroMode.AS_WRITTEN) \
            - subcomposition_log_density(y, params, C, ZeroMode.RENORMALIZED)
        S = params.a_star[0] + params.a_star[1]
        expected = math.lgamma(params.phi) - math.lgamma(params.phi * S)
        assert abs(gap - expected) < 1e-12

    def test_full_set_equals_plain_density(self):
        params = PARAM_SETS[1]
        y = np.array([0.2, 0.5, 0.3])
        full = subcomposition_log_density(y, params, [0, 1, 2], ZeroMode.AS_WRITTEN)
        assert abs(full - log_density(y, params)) < 1e-12

    def test_rejects_singleton_set(self):
        with pytest.raises(DomainError):
            subcomposition_log_density([1.0, 0.0, 0.0], PARAM_SETS[0], [0])

    def test_rejects_mismatched_support(self):
        with pytest.raises(DomainError):
            subcomposition_log_density([0.5, 0.5, 0.0], PARAM_SETS[0], [0, 2])
        with pytest.raises(DomainError, match="sum to 1 over C"):
            subcomposition_log_density([0.5, 0.4, 0.0], PARAM_SETS[0], [0, 1])


class TestSampling:
    N = 100_000

    @pytest.mark.parametrize("params", PARAM_SETS)
    def test_moments_within_four_se(self, params):
        draws = sample(params, self.N, seed=11)
        a = params.a_star
        var_theory = a * (1.0 - a) / (params.phi + 1.0)
        mean_se = draws.std(axis=0, ddof=1) / math.sqrt(self.N)
        assert np.all(np.abs(draws.mean(axis=0) - a) < 4.0 * mean_se)
        sq_dev = (draws - a) ** 2
        var_se = sq_dev.std(axis=0, ddof=1) / math.sqrt(self.N)
        assert np.all(np.abs(sq_dev.mean(axis=0) - var_theory) < 4.0 * var_se)

    def test_marginality_of_aggregated_subcomposition(self):
        params = DirichletParams(8.0, np.array([0.45, 0.25, 0.2, 0.1]))
        C = [1, 3]
        draws = sample(params, self.N, seed=13)[:, C]
        draws = draws / draws.sum(axis=1, keepdims=True)
        target = params.a_star[C] / params.a_star[C].sum()
        se = draws.std(axis=0, ddof=1) / math.sqrt(self.N)
        assert np.all(np.abs(draws.mean(axis=0) - target) < 4.0 * se)

    def test_direct_subcomposition_sampler_agrees(self):
        params = DirichletParams(8.0, np.array([0.45, 0.25, 0.2, 0.1]))
        C = [0, 2, 3]
        draws = sample_subcomposition(params, C, self.N, seed=17)
        assert np.all(draws[:, 1] == 0.0)
        target = params.a_star[C] / params.a_star[C].sum()
        se = draws[:, C].std(axis=0, ddof=1) / math.sqrt(self.N)
        assert np.all(np.abs(draws[:, C].mean(axis=0) - target) < 4.0 * se)

    def test_deterministic_given_seed(self):
        params = PARAM_SETS[0]
        assert np.array_equal(sample(params, 50, seed=3), sample(params, 50, seed=3))

    def test_rejects_count_below_one(self):
        with pytest.raises(ValueError, match="count must be >= 1"):
            sample(PARAM_SETS[0], 0, seed=3)

    def test_rows_on_simplex(self):
        draws = sample(PARAM_SETS[2], 1000, seed=5)
        assert np.all(draws > 0)
        assert np.max(np.abs(draws.sum(axis=1) - 1.0)) < 1e-12
