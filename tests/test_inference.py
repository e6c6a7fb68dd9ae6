import re
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from conftest import (
    TRUE_B,
    depth_design,
    negate_stage_information,
    simulate_dataset,
    truth_model,
)

from zadr.compositions import load_dataset, make_design, zero_pattern
from zadr.dirichlet import ZeroMode
from zadr.errors import (
    KindMismatch,
    NegativeStat,
    NonFiniteObjective,
    NotPositiveDefinite,
    ShapeMismatch,
    TooFewSuccessfulReplicates,
)
from zadr.inference import (
    BootstrapResult,
    DiagnosticResult,
    _replicate_batch,
    _replicate_one,
    _replicate_rngs,
    bootstrap_bias,
    bootstrap_pvalue,
    chi2_sf,
    diagnostic_T,
    diagnostic_to_dict,
    fit_metrics,
    lrt,
    pvalue_from_replicates,
    run_simulation_study,
    simulate_response,
)
from zadr.model import (
    LinkSpec,
    ModelKind,
    alpha_matrix,
    fit,
    fit_batch,
    fitted_values,
    phi_rows,
    prepare_design,
)
from zadr.numerics import OptimizerOptions, TerminationReason

SIMPLE_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.SIMPLE)
MIXED_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.MIXED)


class TestDiagnosticT:
    def test_zero_free_data_gives_zero(self, zero_free_dataset):
        ds, X = zero_free_dataset
        initial, final = fit(ds, X, SIMPLE_LINK)
        T = diagnostic_T(initial, final).T
        assert abs(T) < 1e-8

    def test_nonnegative_and_finite(self, small_dataset):
        ds, X = small_dataset
        initial, final = fit(ds, X, SIMPLE_LINK)
        result = diagnostic_T(initial, final)
        assert np.isfinite(result.T) and result.T >= 0.0
        assert result.delta.size == final.parameter_vector().size
        assert result.sigma2.shape == (result.delta.size,) * 2

    def test_reordering_invariance(self, small_dataset):
        ds, X = small_dataset
        initial, final = fit(ds, X, SIMPLE_LINK)
        result = diagnostic_T(initial, final)
        rng = np.random.default_rng(9)
        perm = rng.permutation(result.delta.size)
        T_perm = float(result.delta[perm] @ np.linalg.solve(
            result.sigma2[np.ix_(perm, perm)], result.delta[perm]))
        assert abs(result.T - T_perm) < 1e-8 * max(1.0, result.T)

    def test_covariance_sum_must_be_positive_definite(self, small_dataset):
        initial, final = fit(*small_dataset, SIMPLE_LINK)
        with pytest.raises(NotPositiveDefinite, match="sum of the two stages' covariances"):
            diagnostic_T(initial, replace(final, covariance=-3 * final.covariance))

    def test_kind_mismatch(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK)
        _, mixed = fit(ds, X, MIXED_LINK)
        with pytest.raises(KindMismatch):
            diagnostic_T(simple, mixed)

    def test_needs_both_covariances(self, small_dataset):
        initial, final = fit(*small_dataset, SIMPLE_LINK)
        with pytest.raises(ValueError, match="covariance"):
            diagnostic_T(initial, replace(final, covariance=None))

    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED], ids=lambda k: k.value)
    def test_does_not_depend_on_the_reference(self, small_dataset, monkeypatch, kind):
        # Another reference is an invertible linear map of the coefficients,
        # so the quadratic form T, its bootstrap and the fit itself stay put.
        ds, X = small_dataset
        monkeypatch.setenv("ZADR_THREADS", "1")
        results = []
        for ref in range(ds.D):
            initial, final = fit(ds, X, LinkSpec(ref_index=ref, model_kind=kind))
            T = diagnostic_T(initial, final).T
            boot = bootstrap_pvalue(final, ds, X, B=19, seed=4, t_observed=T)
            results.append((T, boot.pvalue, final.loglik, fitted_values(final, X).values))
        T0, p0, loglik0, fitted0 = results[0]
        for T, p, loglik, fitted in results[1:]:
            assert abs(T - T0) <= 1e-10 * abs(T0)
            assert p == p0
            assert abs(loglik - loglik0) <= 1e-10 * abs(loglik0)
            assert np.max(np.abs(fitted - fitted0)) <= 1e-12

    def test_serialization(self):
        diag = DiagnosticResult(T=1.5, delta=np.array([0.1]), sigma2=np.eye(1))
        boot = BootstrapResult(replicate_stats=np.zeros(99), bias=np.zeros(1), pvalue=0.2,
                               B=99, master_seed=1, failures=2,
                               failure_causes={"NotConverged": 2})
        doc = diagnostic_to_dict(diag, boot)
        assert list(doc) == ["T", "delta", "sigma2", "pvalue", "B_reps", "seed", "failures",
                             "failure_causes"]
        assert doc["T"] == 1.5 and doc["pvalue"] == 0.2 and doc["B_reps"] == 99
        assert doc["seed"] == 1 and doc["failure_causes"] == {"NotConverged": 2}


class TestPvalueFormula:
    def test_no_exceedances(self):
        stats_vec = np.zeros(99)
        assert pvalue_from_replicates(stats_vec, 1.0) == pytest.approx(0.01)

    def test_all_exceed(self):
        stats_vec = np.full(99, 5.0)
        assert pvalue_from_replicates(stats_vec, 1.0) == 1.0

    def test_counts_ties_as_exceedances(self):
        stats_vec = np.array([1.0, 2.0, 0.5])
        assert pvalue_from_replicates(stats_vec, 1.0) == pytest.approx(3.0 / 4.0)


class TestBootstrap:
    def test_pvalue_deterministic_and_in_range(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        r1 = bootstrap_pvalue(final, ds, X, B=19, seed=5)
        r2 = bootstrap_pvalue(final, ds, X, B=19, seed=5)
        assert r1.pvalue == r2.pvalue
        assert np.array_equal(r1.replicate_stats, r2.replicate_stats)
        assert 1.0 / (r1.B + 1) <= r1.pvalue <= 1.0
        assert r1.failures <= 19

    def test_rejects_too_small_B(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        with pytest.raises(ValueError):
            bootstrap_pvalue(final, ds, X, B=5, seed=1)

    def test_bias_shape(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        result = bootstrap_bias(final, ds, X, B=19, seed=5)
        assert result.bias.shape == final.parameter_vector().shape
        assert np.all(np.isfinite(result.bias))

    def test_pvalue_pass_carries_the_bias(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        one_pass = bootstrap_pvalue(final, ds, X, B=19, seed=5)
        assert np.array_equal(one_pass.bias, bootstrap_bias(final, ds, X, B=19, seed=5).bias)

    def test_seeded_results_do_not_depend_on_worker_count(self, small_dataset, monkeypatch):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        results = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ZADR_THREADS", threads)
            results.append(bootstrap_pvalue(final, ds, X, B=19, seed=5, t_observed=1.0))
        one, two = results
        assert one.pvalue == two.pvalue
        assert np.array_equal(one.replicate_stats, two.replicate_stats)
        assert np.array_equal(one.bias, two.bias)

    def test_refits_take_the_model_options(self, small_dataset, monkeypatch):
        import zadr.inference as inference_mod

        ds, X = small_dataset
        seen = []

        def recording_fit_batch(datasets, design):
            seen.extend([(design.final.link, design.final.zero_mode)] * len(datasets))
            return fit_batch(datasets, design)

        monkeypatch.setattr(inference_mod, "fit_batch", recording_fit_batch)
        for link in (SIMPLE_LINK, LinkSpec(2, ModelKind.MIXED)):
            _, final = fit(ds, X, link)
            seen.clear()
            bootstrap_pvalue(final, ds, X, B=19, seed=5, t_observed=1.0)
            assert seen == [(final.link, final.zero_mode)] * 19
            seen.clear()
            bootstrap_bias(final, ds, X, B=19, seed=5)
            assert seen == [(final.link, final.zero_mode)] * 19

    def test_failures_counted_by_cause(self, small_dataset, monkeypatch):
        import zadr.inference as inference_mod

        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        fitted = []

        def every_fourth_fails(datasets, design):
            results = fit_batch(datasets, design)
            for k in range(len(datasets)):
                fitted.append(1)
                if len(fitted) % 4 == 0:
                    results[k] = NonFiniteObjective("injected")
            return results

        monkeypatch.setattr(inference_mod, "fit_batch", every_fourth_fails)
        result = bootstrap_bias(final, ds, X, B=28, seed=5)
        assert result.failure_causes == {"NonFiniteObjective": 7}
        assert result.failures == sum(result.failure_causes.values())
        assert result.B == 21
        with pytest.raises(TooFewSuccessfulReplicates, match="NonFiniteObjective"):
            bootstrap_bias(final, ds, X, B=19, seed=5)

    def test_replicates_without_T_counted_by_cause(self, small_dataset, monkeypatch):
        # Both stages converged, but the sum of their covariances is not
        # positive definite: the replicate counts under that cause.
        import zadr.inference as inference_mod

        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        real, calls = inference_mod.diagnostic_T, []

        def every_other_fails(initial, final):
            calls.append(1)
            if len(calls) % 2 == 0:
                raise NotPositiveDefinite("injected")
            return real(initial, final)

        monkeypatch.setattr(inference_mod, "diagnostic_T", every_other_fails)
        result = bootstrap_pvalue(final, ds, X, B=38, seed=5, t_observed=1.0)
        assert result.failure_causes == {"NotPositiveDefinite": 19}
        assert result.B == 19 and len(calls) == 38

    def test_bias_replicates_pass_the_positive_definiteness_check(self, small_dataset,
                                                                  monkeypatch):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        monkeypatch.setenv("ZADR_THREADS", "1")
        negate_stage_information(monkeypatch)
        every_replicate = r"out of 19; failures by cause: \{'NotPositiveDefinite': 19\}$"
        with pytest.raises(TooFewSuccessfulReplicates, match=every_replicate):
            bootstrap_bias(final, ds, X, B=19, seed=5)

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_replicate_alone_equals_its_row_of_the_bootstrap(self, monkeypatch, link):
        # Replicate k draws from the k-th generator spawned from the master
        # seed; refitted alone, from the covariates rather than the design the
        # bootstrap prepares once and outside any batch, it must give the
        # bootstrap's row k exactly. A bootstrap cut into chunks of 7
        # replicates, or of one when a replicate exceeds the chunks' budget,
        # must give the same outputs as one batch.
        import zadr.inference as inference_mod

        for seed in range(1, 21):
            ds, X = simulate_dataset(n=30, seed=seed, n_zero=5)
            _, final = fit(ds, X, link)
            pvalue = assert_bootstrap_equals_the_fits_alone(final, ds, X, 19, seed)
            for cells in (zero_pattern(ds).size - 1, 7 * zero_pattern(ds).size):
                monkeypatch.setattr(inference_mod, "_BATCH_CELLS", cells)
                chunked = bootstrap_pvalue(final, ds, X, B=19, seed=seed, t_observed=1.0)
                assert bootstrap_outputs(chunked) == bootstrap_outputs(pvalue), (seed, cells)
            monkeypatch.undo()

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    @pytest.mark.parametrize("n, B", [(30, 199), (2000, 19)])
    def test_one_chunk_equals_the_fits_alone(self, monkeypatch, n, B, link):
        # Every stacked product, Cholesky and solve spans up to B problems
        # here: 199 of 30 rows, which the default budget cuts into chunks of
        # 68, or 19 of 2000 rows, which it cuts into one replicate a chunk.
        import zadr.inference as inference_mod

        ds, X = simulate_dataset(n=n, seed=1, n_zero=n // 6)
        _, final = fit(ds, X, link)
        monkeypatch.setattr(inference_mod, "_BATCH_CELLS", B * zero_pattern(ds).size)
        chunks = []
        real = inference_mod._replicate_batch
        monkeypatch.setattr(inference_mod, "_replicate_batch",
                            lambda args: chunks.append(len(args[3])) or real(args))
        assert_bootstrap_equals_the_fits_alone(final, ds, X, B, 1)
        assert chunks == [B, B]  # one chunk for the bias and one for the p-value

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_batches_go_through_the_pool(self, small_dataset, monkeypatch, link):
        # A bootstrap cut into three batches runs them in this process at one
        # worker and maps them over the pool at two, and the outputs do not
        # change: they equal those of one batch.
        import zadr.inference as inference_mod

        ds, X = small_dataset
        _, final = fit(ds, X, link)
        batched = bootstrap_pvalue(final, ds, X, B=19, seed=5, t_observed=1.0)
        mapped = []

        class RecordingPool(inference_mod.ProcessPoolExecutor):
            def map(self, func, tasks, **kwargs):
                mapped.append((func, len(tasks)))
                return super().map(func, tasks, **kwargs)

        monkeypatch.setattr(inference_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(inference_mod.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setattr(inference_mod, "_BATCH_CELLS", 7 * zero_pattern(ds).size)
        for threads, pools in (("1", []), ("2", [(inference_mod._replicate_batch, 3)])):
            monkeypatch.setenv("ZADR_THREADS", threads)
            mapped.clear()
            chunked = bootstrap_pvalue(final, ds, X, B=19, seed=5, t_observed=1.0)
            assert bootstrap_outputs(chunked) == bootstrap_outputs(batched), threads
            assert mapped == pools, threads

    def test_every_restart_ends_where_its_batch_stage_ended(self, monkeypatch):
        # Each replicate stage is reported through `minimize`, restarted at
        # the batch's optimum: no iteration where the batch converged, one
        # where it stalled and stalls again. At phi = 1e7 some stages stall.
        import zadr.model as model_mod

        real, restarts = model_mod.minimize, []

        def recording(*args, **kwargs):
            restarts.append(real(*args, **kwargs))
            return restarts[-1]

        monkeypatch.setattr(model_mod, "minimize", recording)
        ds, X = simulate_dataset(n=30, seed=3, n_zero=5, phi=1e7)
        _, final = fit(ds, X, SIMPLE_LINK)
        U = zero_pattern(ds)
        design = prepare_design(X, U, final.link, final.zero_mode)
        restarts.clear()
        _replicate_batch((final, design, U, _replicate_rngs(5, 19)))
        reasons = Counter((res.termination_reason, res.iterations) for res in restarts)
        assert sum(reasons.values()) == 38
        assert set(reasons) == {(TerminationReason.GRADIENT_TOL, 0),
                                (TerminationReason.STEP_TOL, 1)}

    def test_restarts_differentiate_no_response_again(self, monkeypatch):
        # Each restart at the batch's optimum is answered there from the
        # batch's result: no restart differentiates a response row again, and
        # one after GradientTol evaluates none either. One after StepTol
        # repeats its failed line search. At phi = 1e7 both occur.
        import zadr.model as model_mod

        ds, X = simulate_dataset(n=30, seed=3, n_zero=5, phi=1e7)
        _, final = fit(ds, X, SIMPLE_LINK)
        U = zero_pattern(ds)
        design = prepare_design(X, U, final.link, final.zero_mode)
        real_derivatives, real_value = model_mod._derivatives, model_mod._dirichlet_value
        real_minimize, rows, restarts = model_mod.minimize, Counter(), []

        def counted(name, real):
            def call(work, logY, *stage):
                rows[name] += len(logY)
                return real(work, logY, *stage)
            return call

        def restart(*args, **kwargs):
            before = rows.copy()
            res = real_minimize(*args, **kwargs)
            restarts.append((res.termination_reason, rows - before))
            return res

        monkeypatch.setattr(model_mod, "_derivatives", counted("derivatives", real_derivatives))
        monkeypatch.setattr(model_mod, "_dirichlet_value", counted("value", real_value))
        monkeypatch.setattr(model_mod, "minimize", restart)
        _replicate_batch((final, design, U, _replicate_rngs(5, 19)))
        assert len(restarts) == 38 and rows["derivatives"] > 0
        assert {reason for reason, _ in restarts} == {TerminationReason.GRADIENT_TOL,
                                                      TerminationReason.STEP_TOL}
        for reason, done in restarts:
            assert done["derivatives"] == 0
            assert (done["value"] == 0) == (reason is TerminationReason.GRADIENT_TOL)

    @pytest.mark.parametrize("B", [68, 69])
    def test_no_chunk_is_fitted_alone(self, monkeypatch, B):
        # B is cut into near-equal chunks, 69 into 34 and 35, not 68 and 1: a
        # chunk of one replicate would be fitted alone from its start, and the
        # restarts of the batched ones run no iteration at this seed. The
        # chunks run in this process, where the recorder sees every restart.
        import zadr.model as model_mod

        monkeypatch.setenv("ZADR_THREADS", "1")
        ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
        _, final = fit(ds, X, SIMPLE_LINK)
        real, runs = model_mod.minimize, []
        monkeypatch.setattr(model_mod, "minimize",
                            lambda *a, **k: runs.append(real(*a, **k)) or runs[-1])
        bootstrap_pvalue(final, ds, X, B=B, seed=5, t_observed=1.0)
        assert len(runs) == 2 * B and sum(res.iterations for res in runs) == 0

    def test_stage_out_of_iterations_is_refitted_alone(self, small_dataset, monkeypatch):
        # A stage that the batch ends on MaxIter is refitted alone from its
        # start, and the replicate still equals its fit outside the batch.
        import zadr.model as model_mod

        real, runs = model_mod.minimize, []

        def recording(*args, **kwargs):
            runs.append(real(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(model_mod, "_stage_options",
                            lambda n: OptimizerOptions(max_iterations=4,
                                                       gradient_tolerance=1e-6 * n))
        monkeypatch.setattr(model_mod, "minimize", recording)
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        U = zero_pattern(ds)
        responses = [simulate_response(final, X, U, rng) for rng in _replicate_rngs(5, 19)]
        runs.clear()
        batch = fit_batch(responses, prepare_design(X, U, final.link, final.zero_mode))
        maxed = [res for res in runs if res.termination_reason is TerminationReason.MAX_ITER]
        assert maxed and all(res.iterations == 4 for res in maxed)
        for ds_k, fitted in zip(responses, batch):
            for one, other in zip(fit(ds_k, X, final.link, final.zero_mode), fitted):
                assert model_outputs(one) == model_outputs(other)

    def test_stage_failures_match_the_fits_alone(self, small_dataset):
        # As written, the zero-adjusted likelihood of data with zeros has no
        # MLE: stage two's precision runs away until the information is no
        # longer finite, in the batch as in each fit alone.
        ds, X = small_dataset
        final = replace(fit(ds, X, SIMPLE_LINK)[1], zero_mode=ZeroMode.AS_WRITTEN)
        U = zero_pattern(ds)
        design = prepare_design(X, U, final.link, final.zero_mode)
        alone = [_replicate_one((final, X, U, rng)) for rng in _replicate_rngs(5, 6)]
        batch = _replicate_batch((final, design, U, _replicate_rngs(5, 6)))
        assert [cause for cause, _, _ in batch] == [cause for cause, _, _ in alone]
        assert "NonFiniteObjective" in [cause for cause, _, _ in alone]

    def test_draw_failures_counted_by_cause(self, small_dataset, monkeypatch):
        # A replicate whose draw fails is counted under its cause and never
        # fitted, also when it leaves its chunk with nothing to fit.
        import zadr.inference as inference_mod

        monkeypatch.setenv("ZADR_THREADS", "1")
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        real, draws = inference_mod.simulate_response, []

        def every_third_fails(*args):
            draws.append(1)
            if len(draws) % 3 == 0:
                raise ShapeMismatch("injected")
            return real(*args)

        monkeypatch.setattr(inference_mod, "simulate_response", every_third_fails)
        monkeypatch.setattr(inference_mod, "_BATCH_CELLS", zero_pattern(ds).size)
        result = bootstrap_bias(final, ds, X, B=30, seed=5)
        assert result.failure_causes == {"ShapeMismatch": 10}
        assert result.B == 20 and len(draws) == 30

    @pytest.mark.parametrize("zero_free, cause", [(0, "NoZeroFreeRows"), (2, "InsufficientRows")])
    def test_design_failure_counted_per_replicate(self, small_dataset, monkeypatch, zero_free,
                                                  cause):
        # Data whose design half cannot be prepared: every replicate's fit
        # would meet the error, so it counts once per replicate under its
        # cause, and no replicate's response is drawn.
        import zadr.inference as inference_mod

        monkeypatch.setenv("ZADR_THREADS", "1")
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        values = ds.values.copy()
        values[zero_free:, 1] = 0.0
        ds_few = load_dataset(values / values.sum(axis=1, keepdims=True))
        assert int(ds_few.zero_free_mask().sum()) == zero_free
        real, drawn = inference_mod.simulate_response, []
        monkeypatch.setattr(inference_mod, "simulate_response",
                            lambda *args: drawn.append(1) or real(*args))
        message = f"only 0 converged replicates out of 19; failures by cause: {{'{cause}': 19}}"
        with pytest.raises(TooFewSuccessfulReplicates, match=f"^{re.escape(message)}$"):
            bootstrap_bias(final, ds_few, X, B=19, seed=5)
        assert drawn == []

    def test_replicates_preserve_zero_pattern(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        U = zero_pattern(ds)
        rng = np.random.default_rng(3)
        rep = simulate_response(final, X, U, rng)
        assert np.array_equal(zero_pattern(rep), U)

    @pytest.mark.parametrize("phi", [1e16, 1e20])
    def test_replicates_preserve_zero_pattern_at_any_precision(self, phi):
        # Column 2's mean is about e^-690, so its gamma draws are floored at
        # the smallest normal double, and a row sum near phi divides that
        # floor below the smallest subnormal.
        B = TRUE_B.copy()
        B[1, 0] = -690.0
        model = replace(truth_model(), B=B, precision=phi)
        U = np.ones((30, 4), dtype=np.int8)
        U[::6, 2] = 0
        for seed in range(100):
            rep = simulate_response(model, depth_design(30), U, np.random.default_rng(seed))
            assert np.array_equal(zero_pattern(rep), U), seed

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_replicate_draws_cells_in_row_major_order(self, small_dataset, link):
        # The engine keeps its means component-major; the draw must still take
        # the generator's variates cell by cell along each row.
        ds, X = small_dataset
        _, final = fit(ds, X, link)
        U = zero_pattern(ds)
        A = alpha_matrix(X.design, final.B, final.link.ref_index)
        phis = (np.full(ds.n, final.precision) if link is SIMPLE_LINK
                else phi_rows(X.design, final.precision))
        g = np.random.default_rng(3).standard_gamma(phis[:, None] * A)
        g = np.where(U.astype(bool), np.maximum(g, np.finfo(float).tiny), 0.0)
        expected = load_dataset(g / g.sum(axis=1, keepdims=True)).values
        rep = simulate_response(final, X, U, np.random.default_rng(3))
        assert np.array_equal(rep.values, expected)


def assert_bootstrap_equals_the_fits_alone(final, ds, X, B: int, seed: int) -> BootstrapResult:
    """Assert that `bootstrap_bias` and `bootstrap_pvalue` keep, row for row
    and byte for byte, what `_replicate_one` gives each replicate alone, and
    count its failures by the same causes; returns the p-value pass."""
    U = zero_pattern(ds)
    alone = [_replicate_one((final, X, U, rng)) for rng in _replicate_rngs(seed, B)]
    kept = [(T, params) for cause, T, params in alone if cause is None]
    causes = dict(Counter(cause for cause, _, _ in alone if cause is not None))
    bias = bootstrap_bias(final, ds, X, B=B, seed=seed)
    pvalue = bootstrap_pvalue(final, ds, X, B=B, seed=seed, t_observed=1.0)
    assert bias.failure_causes == pvalue.failure_causes == causes, seed
    assert bias.replicate_stats.tobytes() == np.array([p for _, p in kept]).tobytes()
    assert pvalue.replicate_stats.tobytes() == np.array([T for T, _ in kept]).tobytes()
    return pvalue


def bootstrap_outputs(result: BootstrapResult) -> tuple:
    """Every output of a bootstrap, its floats as bytes."""
    return (result.replicate_stats.tobytes(), result.bias.tobytes(), result.pvalue, result.B,
            result.failures, result.failure_causes)


def model_outputs(model) -> tuple:
    """Every number of a fitted stage as bytes, with its convergence."""
    return (model.parameter_vector().tobytes(), model.covariance.tobytes(),
            np.float64(model.loglik).tobytes(), model.converged)


class TestChi2AndLrt:
    def test_chi2_sf_matches_scipy(self):
        for df in [1, 2, 5]:
            for x in [0.1, 1.0, 3.84, 10.0]:
                assert abs(chi2_sf(x, df) - stats.chi2.sf(x, df)) < 1e-10

    def test_lrt_basic(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK)
        _, mixed = fit(ds, X, MIXED_LINK)
        stat, df, pvalue = lrt(simple, mixed)
        assert stat >= 0.0
        assert df == 1
        assert 0.0 <= pvalue <= 1.0
        assert abs(stat - 2.0 * (mixed.loglik - simple.loglik)) < 1e-12

    def test_lrt_invariant_to_reference_choice(self, small_dataset):
        ds, X = small_dataset
        stats_by_ref = []
        for ref in [0, 1]:
            s_link = LinkSpec(ref_index=ref, model_kind=ModelKind.SIMPLE)
            m_link = LinkSpec(ref_index=ref, model_kind=ModelKind.MIXED)
            _, simple = fit(ds, X, s_link)
            _, mixed = fit(ds, X, m_link)
            stats_by_ref.append(lrt(simple, mixed)[0])
        assert abs(stats_by_ref[0] - stats_by_ref[1]) < 1e-3

    def test_lrt_kind_checks(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK)
        with pytest.raises(KindMismatch):
            lrt(simple, simple)
        _, mixed = fit(ds, X, LinkSpec(ref_index=1, model_kind=ModelKind.MIXED))
        with pytest.raises(KindMismatch, match="reference component"):
            lrt(simple, mixed)

    def test_lrt_without_covariates_has_no_degrees_of_freedom(self, small_dataset):
        ds, _ = small_dataset
        X = make_design(np.empty((ds.n, 0)))
        _, simple = fit(ds, X, SIMPLE_LINK)
        _, mixed = fit(ds, X, MIXED_LINK)
        stat, df, pvalue = lrt(simple, mixed)
        assert df == 0 and pvalue == 1.0
        assert stat == pytest.approx(0.0, abs=1e-6)

    def test_negative_stat_raises(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK)
        _, mixed = fit(ds, X, MIXED_LINK)
        broken = replace(mixed, loglik=simple.loglik - 1.0)
        with pytest.raises(NegativeStat):
            lrt(simple, broken)


@pytest.fixture
def serial_pool(monkeypatch):
    """Replace the process pool with an in-process one on a 64-core machine.

    Returns the list of worker counts the pools were asked for, one per pool.
    """
    import zadr.inference as inference_mod

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, args, chunksize=1):
            return map(func, args)

    monkeypatch.setattr(inference_mod, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(inference_mod.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(inference_mod.os, "sched_getaffinity", lambda pid: set(range(64)),
                        raising=False)
    return asked


class TestWorkerCount:
    def test_non_integer_threads_named_in_error(self, serial_pool, monkeypatch):
        import zadr.inference as inference_mod

        monkeypatch.setenv("ZADR_THREADS", "two")
        with pytest.raises(ValueError, match="ZADR_THREADS.*'two'"):
            inference_mod._map_indexed(abs, [-1, -2, -3, -4])
        monkeypatch.setenv("ZADR_THREADS", "3")
        assert inference_mod._map_indexed(abs, [-1, -2, -3, -4]) == [1, 2, 3, 4]
        assert serial_pool == [3]

    def test_pool_never_larger_than_task_count(self, serial_pool, monkeypatch):
        import zadr.inference as inference_mod

        monkeypatch.setenv("ZADR_THREADS", "64")
        assert inference_mod._map_indexed(abs, [-1, -2, -3]) == [1, 2, 3]
        assert serial_pool == [3]

    def test_chunked_pool_returns_tasks_in_order(self, monkeypatch):
        import zadr.inference as inference_mod

        chunks = []

        class RecordingPool(inference_mod.ProcessPoolExecutor):
            def map(self, func, *iterables, **kwargs):
                chunks.append(kwargs["chunksize"])
                return super().map(func, *iterables, **kwargs)

        monkeypatch.setattr(inference_mod, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(inference_mod.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        monkeypatch.setenv("ZADR_THREADS", "2")
        assert inference_mod._map_indexed(abs, [-k for k in range(199)]) == list(range(199))
        assert chunks == [13]  # ceil(199 / (8 * 2))

    def test_pool_never_larger_than_the_process_cpu_set(self, serial_pool, monkeypatch):
        import zadr.inference as inference_mod

        monkeypatch.setattr(inference_mod.os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setenv("ZADR_THREADS", "4")
        assert inference_mod._map_indexed(abs, [-1, -2, -3]) == [1, 2, 3]
        assert serial_pool == []


class TestFitMetrics:
    def test_zero_for_identical_matrices(self, small_dataset):
        ds, _ = small_dataset
        m = fit_metrics(ds, ds)
        assert m.kl == 0.0 and m.l2 == 0.0

    def test_kl_nonnegative(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        m = fit_metrics(ds, fitted_values(final, X))
        assert m.kl >= 0.0 and m.l2 >= 0.0

    def test_zero_entries_contribute_zero(self):
        obs = load_dataset([[0.5, 0.5, 0.0]])
        fitted = load_dataset([[0.4, 0.3, 0.3]])
        m = fit_metrics(obs, fitted)
        expected_kl = 0.5 * np.log(0.5 / 0.4) + 0.5 * np.log(0.5 / 0.3)
        assert abs(m.kl - expected_kl) < 1e-12

    def test_kl_is_infinite_where_a_fitted_mean_underflows(self, small_dataset):
        # Linear predictors of 800 and -800, clamped to 700 and -700, put
        # the third component's mean at exactly 0 below positive observed
        # parts; KL is then +inf, without a RuntimeWarning (an error in
        # this suite).
        ds, X = small_dataset
        model = replace(truth_model(), B=np.array([[800.0, 0.0], [-800.0, 0.0], [0.0, 0.0]]))
        fitted = fitted_values(model, X)
        assert (fitted.values[:, 2] == 0.0).all() and (ds.values[:, 2] > 0).any()
        m = fit_metrics(ds, fitted)
        assert m.kl == np.inf and m.l2 == np.sum((ds.values - fitted.values) ** 2)

    def test_shape_mismatch(self):
        a = load_dataset([[0.5, 0.5]])
        b = load_dataset([[0.4, 0.3, 0.3]])
        with pytest.raises(ShapeMismatch):
            fit_metrics(a, b)


class TestSimulationStudy:
    def test_report_structure_and_csv(self, tmp_path):
        model = truth_model()
        report = run_simulation_study(model, depth_design(), sizes=[30], reps=3,
                                      zero_fraction=1.0 / 6.0, seed=2)
        assert report.sizes == [30]
        assert report.successes[30] <= 3
        assert sum(report.failure_causes[30].values()) == 3 - report.successes[30]
        assert report.mse[30].shape == model.parameter_vector().shape
        assert np.all(report.mse[30] >= 0.0)
        path = tmp_path / "mse.csv"
        report.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,parameter,MSE,successes"
        assert len(lines) == 1 + len(report.parameter_names)

    def test_rejects_bad_arguments(self):
        model = truth_model()
        with pytest.raises(ValueError):
            run_simulation_study(model, depth_design(), sizes=[], reps=3,
                                 zero_fraction=0.1, seed=1)
        with pytest.raises(ValueError):
            run_simulation_study(model, depth_design(), sizes=[30], reps=3,
                                 zero_fraction=1.5, seed=1)
        for sizes, named in (([30, 30], "30"), ([-5], "-5"), ([0], "0")):
            with pytest.raises(ValueError, match=f"got {named}$"):
                run_simulation_study(model, depth_design(), sizes=sizes, reps=3,
                                     zero_fraction=0.1, seed=1)

    def test_one_pool_for_all_sizes(self, serial_pool, monkeypatch):
        monkeypatch.setenv("ZADR_THREADS", "2")
        report = run_simulation_study(truth_model(), depth_design(), sizes=[20, 30, 40],
                                      reps=2, zero_fraction=1.0 / 6.0, seed=3)
        assert serial_pool == [2]
        assert sorted(report.mse) == [20, 30, 40]

    def test_pool_takes_largest_samples_first_and_records_return_home(self, monkeypatch):
        import zadr.inference as inference_mod

        monkeypatch.setenv("ZADR_THREADS", "1")
        handed = []
        truth = truth_model().parameter_vector()

        def sized_replicate(args):
            # A stand-in fit whose estimates are the replicate's sample size.
            handed.append(args[1].n)
            return None, None, np.full(truth.size, float(args[1].n))

        monkeypatch.setattr(inference_mod, "_replicate_one", sized_replicate)
        report = run_simulation_study(truth_model(), depth_design(), sizes=[20, 40, 30],
                                      reps=2, zero_fraction=1.0 / 6.0, seed=3)
        assert handed == [40, 40, 30, 30, 20, 20]
        for n in (20, 30, 40):
            assert np.array_equal(report.mse[n], (float(n) - truth) ** 2)

    def test_report_does_not_depend_on_worker_count(self, monkeypatch):
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("ZADR_THREADS", threads)
            reports.append(run_simulation_study(truth_model(), depth_design(), sizes=[20, 30],
                                                reps=2, zero_fraction=1.0 / 6.0, seed=3))
        one, two = reports
        assert one.successes == two.successes
        assert one.failure_causes == two.failure_causes
        for n in (20, 30):
            assert np.array_equal(one.mse[n], two.mse[n])

    def test_replicate_needs_positive_definite_information(self, monkeypatch):
        monkeypatch.setenv("ZADR_THREADS", "1")
        negate_stage_information(monkeypatch)
        report = run_simulation_study(truth_model(), depth_design(), sizes=[30], reps=2,
                                      zero_fraction=1.0 / 6.0, seed=3)
        assert report.successes == {30: 0}
        assert report.failure_causes == {30: {"NotPositiveDefinite": 2}}
        assert np.all(np.isnan(report.mse[30]))

    def test_replicate_needs_both_stages_converged(self, monkeypatch):
        import zadr.inference as inference_mod

        def zero_free_stage_unconverged(*args):
            initial, final = fit(*args)
            return replace(initial, converged=False), final

        monkeypatch.setenv("ZADR_THREADS", "1")
        monkeypatch.setattr(inference_mod, "fit", zero_free_stage_unconverged)
        report = run_simulation_study(truth_model(), depth_design(), sizes=[30], reps=2,
                                      zero_fraction=1.0 / 6.0, seed=3)
        assert report.successes == {30: 0}
        assert report.failure_causes == {30: {"NotConverged": 2}}
        assert np.all(np.isnan(report.mse[30]))
