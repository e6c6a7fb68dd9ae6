import math
import warnings

import numpy as np
import pytest

from conftest import COMPONENTS, TRUE_B, TRUE_PHI, simulate_dataset
from oracle import oracle_loglik

from zadr.compositions import estimate_p, load_dataset, make_design, zero_pattern
from zadr.dirichlet import ZeroMode
from zadr.errors import DomainError, InsufficientRows, NoZeroFreeRows, SingularDesign
from zadr.model import (
    FitOptions,
    FitStage,
    LinkSpec,
    ModelKind,
    analytic_gradient,
    binary_log_prob,
    fit,
    fit_aitchison,
    fitted_values,
    link_alpha,
    link_phi,
    load_model,
    loglik_mixed,
    loglik_simple,
    loglik_zadr_mixed,
    loglik_zadr_simple,
    model_from_dict,
    model_to_dict,
    ols_init,
    pack_params,
    save_model,
    unpack_params,
)
from zadr.numerics import finite_diff_gradient

SIMPLE_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.SIMPLE)
MIXED_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.MIXED)


class TestBinaryLogProb:
    def test_worked_example(self):
        val = binary_log_prob((1, 1, 1, 0), (1.0, 0.9, 1.0, 0.95))
        assert abs(val - math.log(0.045)) < 1e-12

    def test_certain_pattern_has_probability_one(self):
        assert binary_log_prob((1, 0), (1.0, 0.0)) == 0.0

    def test_impossible_pattern(self):
        assert binary_log_prob((0, 1), (1.0, 1.0)) == -math.inf

    def test_rejects_p_outside_unit_interval(self):
        with pytest.raises(DomainError):
            binary_log_prob((1, 1), (0.5, 1.2))

    def test_matrix_equals_sum_of_rows(self):
        U = np.array([[1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 1, 1]])
        p = np.array([1.0, 0.8, 0.6])
        rows = [binary_log_prob(u, p) for u in U]
        assert rows[-1] == -math.inf  # a zero where p_j = 1
        assert binary_log_prob(U, p) == -math.inf
        finite = U[:-1]
        assert abs(binary_log_prob(finite, p) - sum(rows[:-1])) < 1e-12
        with pytest.raises(DomainError):
            binary_log_prob(U, np.array([1.0, -0.1, 0.6]))


class TestLinks:
    def test_mean_vector_reference_slot(self):
        a = link_alpha(np.array([1.0, 2.0]), TRUE_B, ref_index=0)
        assert abs(a.sum() - 1.0) < 1e-12
        assert np.all(a > 0)
        # reference slot carries the zero linear predictor
        etas = np.log(a[1:] / a[0])
        assert np.max(np.abs(etas - TRUE_B @ [1.0, 2.0])) < 1e-10

    def test_precision_link(self):
        gamma = np.array([1.5, -0.2])
        x = np.array([1.0, 3.0])
        assert abs(link_phi(x, gamma) - math.exp(1.5 - 0.6)) < 1e-12


class TestLoglikOracle:
    def test_simple_matches_oracle(self, zero_free_dataset):
        ds, X = zero_free_dataset
        ours = loglik_simple(TRUE_B, TRUE_PHI, ds, X, SIMPLE_LINK)
        ref = oracle_loglik(TRUE_B, TRUE_PHI, ds, X, 0, mixed=False)
        assert abs(ours - ref) < 1e-10

    def test_zadr_matches_oracle_both_modes(self, small_dataset):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p = estimate_p(zp)
        for mode in ZeroMode:
            ours = loglik_zadr_simple(TRUE_B, TRUE_PHI, p, ds, X, zp, SIMPLE_LINK, mode)
            ref = oracle_loglik(TRUE_B, TRUE_PHI, ds, X, 0, mixed=False, p=p, zero_mode=mode)
            assert abs(ours - ref) < 1e-10

    def test_mixed_matches_oracle(self, small_dataset):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p = estimate_p(zp)
        gamma = np.array([2.5, 0.1])
        ours = loglik_zadr_mixed(TRUE_B, gamma, p, ds, X, zp, MIXED_LINK, ZeroMode.RENORMALIZED)
        ref = oracle_loglik(TRUE_B, gamma, ds, X, 0, mixed=True, p=p,
                            zero_mode=ZeroMode.RENORMALIZED)
        assert abs(ours - ref) < 1e-10

    def test_zero_free_adjusted_equals_plain_exactly(self, zero_free_dataset):
        ds, X = zero_free_dataset
        zp = zero_pattern(ds)
        p = np.ones(ds.D)
        plain = loglik_simple(TRUE_B, TRUE_PHI, ds, X, SIMPLE_LINK)
        for mode in ZeroMode:
            assert loglik_zadr_simple(TRUE_B, TRUE_PHI, p, ds, X, zp, SIMPLE_LINK, mode) == plain
        gamma = np.array([math.log(TRUE_PHI), 0.0])
        plain_m = loglik_mixed(TRUE_B, gamma, ds, X, MIXED_LINK)
        assert loglik_zadr_mixed(TRUE_B, gamma, p, ds, X, zp, MIXED_LINK) == plain_m

    def test_plain_likelihoods_reject_zeros(self, small_dataset):
        ds, X = small_dataset
        with pytest.raises(DomainError):
            loglik_simple(TRUE_B, TRUE_PHI, ds, X, SIMPLE_LINK)
        with pytest.raises(DomainError):
            loglik_mixed(TRUE_B, np.array([2.0, 0.0]), ds, X, MIXED_LINK)

    def test_permutation_invariance(self, small_dataset):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p = estimate_p(zp)
        base = loglik_zadr_simple(TRUE_B, TRUE_PHI, p, ds, X, zp, SIMPLE_LINK)
        # swap the last two non-reference components together with their rows of B
        perm = [0, 1, 3, 2]
        ds_p = load_dataset(ds.values[:, perm], names=[ds.component_names[j] for j in perm])
        zp_p = zero_pattern(ds_p)
        B_p = TRUE_B[[0, 2, 1]]
        permuted = loglik_zadr_simple(B_p, TRUE_PHI, p[perm], ds_p, X, zp_p, SIMPLE_LINK)
        assert abs(base - permuted) < 1e-10

    def test_binary_term_is_additively_separable(self, small_dataset):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p1 = estimate_p(zp)
        p2 = np.clip(p1, 0.3, 0.9)
        B2 = TRUE_B + 0.2
        gap_at_truth = (loglik_zadr_simple(TRUE_B, TRUE_PHI, p1, ds, X, zp, SIMPLE_LINK)
                        - loglik_zadr_simple(TRUE_B, TRUE_PHI, p2, ds, X, zp, SIMPLE_LINK))
        gap_elsewhere = (loglik_zadr_simple(B2, 7.0, p1, ds, X, zp, SIMPLE_LINK)
                         - loglik_zadr_simple(B2, 7.0, p2, ds, X, zp, SIMPLE_LINK))
        assert abs(gap_at_truth - gap_elsewhere) < 1e-10


class TestGradients:
    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_analytic_matches_finite_difference(self, small_dataset, kind, mode):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p = estimate_p(zp)
        link = LinkSpec(ref_index=0, model_kind=kind)
        rng = np.random.default_rng(4)
        for _ in range(10):
            B = TRUE_B + rng.normal(scale=0.3, size=TRUE_B.shape)
            if kind is ModelKind.SIMPLE:
                theta = pack_params(B, math.exp(rng.normal(2.5, 0.3)), kind)
                f = lambda t: loglik_zadr_simple(*unpack_params(t, 3, 2, kind), p, ds, X, zp, link, mode)
            else:
                theta = pack_params(B, rng.normal([2.5, 0.0], 0.2), kind)
                f = lambda t: loglik_zadr_mixed(*unpack_params(t, 3, 2, kind), p, ds, X, zp, link, mode)
            ga = analytic_gradient(theta, ds, X, zp, link, mode)
            gf = finite_diff_gradient(f, theta)
            assert np.max(np.abs(ga - gf) / (1.0 + np.abs(ga))) < 1e-6


class TestOlsInit:
    def test_matches_lstsq(self, zero_free_dataset):
        ds, X = zero_free_dataset
        B = ols_init(ds, X, SIMPLE_LINK)
        from zadr.compositions import alr

        ref, *_ = np.linalg.lstsq(X.design, alr(ds, 0), rcond=None)
        assert np.max(np.abs(B - ref.T)) < 1e-10

    def test_insufficient_rows(self):
        ds = load_dataset([[0.5, 0.3, 0.2], [0.2, 0.2, 0.6]])
        X = make_design(np.array([[1.0], [2.0]]), names=["x"])
        with pytest.raises(InsufficientRows):
            ols_init(ds, X, SIMPLE_LINK)

    def test_singular_design(self, zero_free_dataset):
        ds, _ = zero_free_dataset
        col = np.ones((ds.n, 1))
        X = make_design(np.hstack([col, col]), names=["x1", "x2"])
        with pytest.raises(SingularDesign):
            ols_init(ds, X, SIMPLE_LINK)


class TestFit:
    def test_two_stage_fit(self, small_dataset):
        ds, X = small_dataset
        initial, final = fit(ds, X, SIMPLE_LINK, FitOptions())
        assert initial.stage is FitStage.ZERO_FREE_INITIAL
        assert final.stage is FitStage.FINAL
        assert initial.converged and final.converged
        assert final.covariance is not None
        # optimizer monotonicity: the final point is at least as good as the
        # initial coefficients under the zero-adjusted objective
        zp = zero_pattern(ds)
        start = loglik_zadr_simple(initial.B, initial.precision, final.p_hat, ds, X,
                                   zp, SIMPLE_LINK, final.zero_mode)
        assert final.loglik >= start - 1e-9

    def test_recovers_truth_on_large_sample(self):
        ds, X = simulate_dataset(n=2000, seed=31, n_zero=300)
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions(compute_covariance=False))
        assert np.max(np.abs(final.B - TRUE_B)) < 0.25
        assert abs(final.precision - TRUE_PHI) / TRUE_PHI < 0.15

    def test_mixed_fit(self, small_dataset):
        ds, X = small_dataset
        initial, final = fit(ds, X, MIXED_LINK, FitOptions())
        assert final.kind is ModelKind.MIXED
        assert final.precision.shape == (2,)
        assert final.converged

    def test_mixed_nests_simple_in_loglik(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK, FitOptions())
        _, mixed = fit(ds, X, MIXED_LINK, FitOptions())
        assert mixed.loglik >= simple.loglik - 1e-6

    def test_no_zero_free_rows(self):
        rows = [[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.7, 0.0, 0.3],
                [0.2, 0.8, 0.0], [0.0, 0.1, 0.9]]
        ds = load_dataset(rows)
        X = make_design(np.arange(5.0)[:, None], names=["x"])
        with pytest.raises(NoZeroFreeRows):
            fit(ds, X, SIMPLE_LINK, FitOptions())

    def test_too_few_zero_free_rows(self):
        rows = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.7, 0.0, 0.3], [0.1, 0.6, 0.3]]
        ds = load_dataset(rows)
        X = make_design(np.arange(4.0)[:, None], names=["x"])
        with pytest.raises(InsufficientRows, match="need at least p\\+2=3 zero-free rows, have 2"):
            fit(ds, X, SIMPLE_LINK, FitOptions())

    def test_deterministic(self, small_dataset):
        ds, X = small_dataset
        _, a = fit(ds, X, SIMPLE_LINK, FitOptions(random_seed=7))
        _, b = fit(ds, X, SIMPLE_LINK, FitOptions(random_seed=7))
        assert np.array_equal(a.B, b.B)
        assert a.loglik == b.loglik

    def test_p_hat_is_nonzero_proportion(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions())
        assert np.array_equal(final.p_hat, estimate_p(zero_pattern(ds)))

    def test_fitted_values_on_simplex(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions())
        F = fitted_values(final, X)
        assert np.all(F.values > 0)
        assert np.max(np.abs(F.values.sum(axis=1) - 1.0)) < 1e-12

    def test_permuting_components_permutes_fit(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions(compute_covariance=False))
        perm = [0, 1, 3, 2]
        ds_p = load_dataset(ds.values[:, perm], names=[ds.component_names[j] for j in perm])
        _, final_p = fit(ds_p, X, SIMPLE_LINK, FitOptions(compute_covariance=False))
        F = fitted_values(final, X).values
        F_p = fitted_values(final_p, X).values
        assert np.max(np.abs(F[:, perm] - F_p)) < 1e-4

    def test_mixed_start_anchors_intercept_and_draws_slopes(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        class Started(Exception):
            pass

        starts = []

        def capture(objective, x0, gradient=None, opts=None):
            starts.append(np.array(x0))
            raise Started

        monkeypatch.setattr(model_mod, "minimize", capture)
        ds, X = small_dataset
        x = X.design[:, 1]
        X2 = make_design(np.column_stack([x, x**2]), names=["x1", "x2"])
        for link in (SIMPLE_LINK, MIXED_LINK):
            with pytest.raises(Started):
                fit(ds, X2, link, FitOptions(random_seed=11))
        simple0, mixed0 = starts
        dq = (ds.D - 1) * X2.design.shape[1]
        phi0 = simple0[dq]
        assert phi0 in np.exp(np.linspace(np.log(0.5), np.log(500.0), 30))
        assert np.array_equal(mixed0[:dq], simple0[:dq])
        assert mixed0[dq] == np.log(phi0)
        assert np.array_equal(mixed0[dq + 1:], np.random.default_rng(11).normal(0.0, 0.1, 2))

    def test_fit_extracts_the_zero_pattern_once(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        calls = []
        real = model_mod.zero_pattern

        def counted(ds):
            calls.append(ds.n)
            return real(ds)

        monkeypatch.setattr(model_mod, "zero_pattern", counted)
        ds, X = small_dataset
        fit(ds, X, SIMPLE_LINK, FitOptions(compute_covariance=False))
        assert calls == [ds.n]


class TestEngine:
    def test_mixed_fit_makes_at_most_one_bernoulli_call(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        calls = []
        real = model_mod.binary_log_prob

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(model_mod, "binary_log_prob", counted)
        ds, X = small_dataset
        fit(ds, X, MIXED_LINK, FitOptions())
        assert len(calls) <= 1

    def test_large_mixed_fit_raises_no_runtime_warning(self):
        ds, X = simulate_dataset(n=5000, seed=3, n_zero=833)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, final = fit(ds, X, MIXED_LINK, FitOptions())
        assert final.converged

    def test_aitchison_baseline_is_ols_on_zero_free_rows(self, small_dataset):
        ds, X = small_dataset
        model = fit_aitchison(ds, X, SIMPLE_LINK, ZeroMode.RENORMALIZED, seed=5)
        mask = ds.zero_free_mask()
        free = load_dataset(ds.values[mask], names=ds.component_names)
        X_free = make_design(X.design[mask, 1:], names=X.covariate_names[1:])
        assert model.kind is ModelKind.AITCHISON
        assert np.array_equal(model.B, ols_init(free, X_free, SIMPLE_LINK))
        assert model.loglik is None and model.seed_provenance == 5
        assert model.covariance.shape == (model.B.size, model.B.size)

    def test_aitchison_baseline_solves_ols_once(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        calls = []
        real = model_mod.ols_init

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model_mod, "ols_init", counted)
        ds, X = small_dataset
        fit_aitchison(ds, X, SIMPLE_LINK, ZeroMode.RENORMALIZED, seed=5)
        assert len(calls) == 1


class TestPacking:
    def test_round_trip_simple(self):
        theta = pack_params(TRUE_B, TRUE_PHI, ModelKind.SIMPLE)
        B, phi = unpack_params(theta, 3, 2, ModelKind.SIMPLE)
        assert np.array_equal(B, TRUE_B)
        assert phi == TRUE_PHI

    def test_round_trip_mixed(self):
        gamma = np.array([2.7, -0.1])
        theta = pack_params(TRUE_B, gamma, ModelKind.MIXED)
        B, g = unpack_params(theta, 3, 2, ModelKind.MIXED)
        assert np.array_equal(B, TRUE_B)
        assert np.array_equal(g, gamma)

    def test_parameter_names_align_with_vector(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions(compute_covariance=False))
        names = final.parameter_names()
        assert len(names) == final.parameter_vector().size
        assert names[0] == "Obesa:intercept"
        assert names[-1] == "phi"


class TestPersistence:
    def test_save_load_round_trip_is_bit_exact(self, small_dataset, tmp_path):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions())
        path = tmp_path / "m.json"
        save_model(final, path)
        back = load_model(path)
        assert np.array_equal(back.B, final.B)
        assert back.precision == final.precision
        assert np.array_equal(back.covariance, final.covariance)
        assert back.loglik == final.loglik
        assert back.link == final.link
        assert back.zero_mode is final.zero_mode
        assert back.component_names == COMPONENTS

    def test_dict_round_trip_mixed(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, MIXED_LINK, FitOptions())
        back = model_from_dict(model_to_dict(final))
        assert np.array_equal(back.precision, final.precision)

    def test_predictions_survive_round_trip(self, small_dataset, tmp_path):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK, FitOptions())
        path = tmp_path / "m.json"
        save_model(final, path)
        F1 = fitted_values(final, X).values
        F2 = fitted_values(load_model(path), X).values
        assert np.array_equal(F1, F2)
