import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from conftest import (
    COMPONENTS,
    TRUE_B,
    TRUE_PHI,
    negate_stage_information,
    simulate_dataset,
    tiny_component_dataset,
)
from oracle import finite_diff_gradient, oracle_loglik, rowkron_information

from zadr.compositions import CovariateMatrix, estimate_p, load_dataset, make_design, zero_pattern
from zadr.dirichlet import ZeroMode
from zadr.errors import (
    DomainError,
    InsufficientRows,
    NonFiniteObjective,
    NoZeroFreeRows,
    NotPositiveDefinite,
    ShapeMismatch,
    SingularDesign,
)
from zadr.model import (
    FitStage,
    LinkSpec,
    ModelKind,
    _answered_at,
    _derivatives,
    _log_response,
    _Objective,
    _objective_pair,
    _row_work,
    _stage_design,
    analytic_gradient,
    binary_log_prob,
    fit,
    fit_aitchison,
    fit_batch,
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
    prepare_design,
    save_model,
    unpack_params,
)
from zadr.numerics import (
    OptimizerOptions,
    OptimResult,
    TerminationReason,
    minimize,
    numerical_hessian,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
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


class TestShapeErrors:
    """A zero pattern, p, parameter or reference that does not fit the data
    is a named error in the public likelihood calls, not a numpy broadcast
    or index error."""

    CALLS = {
        "loglik_zadr_simple": lambda ds, X, zp, p: loglik_zadr_simple(
            TRUE_B, TRUE_PHI, p, ds, X, zp, SIMPLE_LINK),
        "loglik_zadr_mixed": lambda ds, X, zp, p: loglik_zadr_mixed(
            TRUE_B, np.array([2.0, 0.1]), p, ds, X, zp, MIXED_LINK),
        "analytic_gradient": lambda ds, X, zp, p: analytic_gradient(
            pack_params(TRUE_B, TRUE_PHI, ModelKind.SIMPLE), ds, X, zp, SIMPLE_LINK),
    }

    @pytest.mark.parametrize("call", list(CALLS))
    def test_zero_pattern_with_a_row_too_few(self, small_dataset, call):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        with pytest.raises(DomainError, match="row counts differ"):
            self.CALLS[call](ds, X, zp[:-1], estimate_p(zp))

    @pytest.mark.parametrize("call", list(CALLS))
    def test_dataset_with_a_row_too_few(self, small_dataset, call):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        short = load_dataset(ds.values[:-1], names=ds.component_names)
        with pytest.raises(DomainError, match="row counts differ"):
            self.CALLS[call](short, X, zp, estimate_p(zp))

    @pytest.mark.parametrize("phi", [0.0, -1.0])
    def test_precision_must_be_positive(self, small_dataset, phi):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        with pytest.raises(DomainError, match="phi must be > 0"):
            loglik_zadr_simple(TRUE_B, phi, estimate_p(zp), ds, X, zp, SIMPLE_LINK)

    @pytest.mark.parametrize("call", list(CALLS))
    def test_zero_pattern_with_a_column_too_few(self, small_dataset, call):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        with pytest.raises(ShapeMismatch):
            self.CALLS[call](ds, X, zp[:, :-1], estimate_p(zp))

    @pytest.mark.parametrize("call", ["loglik_zadr_simple", "loglik_zadr_mixed"])
    def test_p_with_a_component_too_few(self, small_dataset, call):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        with pytest.raises(ShapeMismatch):
            self.CALLS[call](ds, X, zp, estimate_p(zp)[:-1])

    @pytest.mark.parametrize("B", [TRUE_B[:2], np.column_stack([TRUE_B, TRUE_B[:, 0]])],
                             ids=["a_row_too_few", "a_column_too_many"])
    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_B_that_does_not_fit(self, small_dataset, link, B):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        precision = TRUE_PHI if link is SIMPLE_LINK else np.array([2.0, 0.1])
        call = loglik_zadr_simple if link is SIMPLE_LINK else loglik_zadr_mixed
        with pytest.raises(ShapeMismatch, match=r"^B has shape .* need \(3, 2\)$"):
            call(B, precision, estimate_p(zp), ds, X, zp, link)

    def test_gamma_that_does_not_fit(self, small_dataset):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        for gamma in (np.array([2.0]), np.array([2.0, 0.1, 0.0])):
            with pytest.raises(ShapeMismatch, match="precision"):
                loglik_zadr_mixed(TRUE_B, gamma, estimate_p(zp), ds, X, zp, MIXED_LINK)

    @pytest.mark.parametrize("extra", [-1, 1])
    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_theta_that_does_not_fit(self, small_dataset, link, extra):
        ds, X = small_dataset
        size = 7 if link is SIMPLE_LINK else 8
        theta = np.ones(size + extra)
        with pytest.raises(ShapeMismatch, match=f"has {size} parameters$"):
            analytic_gradient(theta, ds, X, None, link)

    REFERENCE_CALLS = {
        "loglik_zadr_simple": lambda ds, X, link: loglik_zadr_simple(
            TRUE_B, TRUE_PHI, estimate_p(zero_pattern(ds)), ds, X, None, link),
        "loglik_simple": lambda ds, X, link: loglik_simple(TRUE_B, TRUE_PHI, ds, X, link),
        "analytic_gradient": lambda ds, X, link: analytic_gradient(
            pack_params(TRUE_B, TRUE_PHI, ModelKind.SIMPLE), ds, X, None, link),
        "prepare_design": lambda ds, X, link: prepare_design(
            X, zero_pattern(ds), link, ZeroMode.RENORMALIZED),
        "fit": lambda ds, X, link: fit(ds, X, link),
        "fit_aitchison": lambda ds, X, link: fit_aitchison(ds, X, link, ZeroMode.RENORMALIZED),
        "ols_init": lambda ds, X, link: ols_init(ds, X, link),
    }

    @pytest.mark.parametrize("ref_index", [7, 4, -1])
    @pytest.mark.parametrize("call", list(REFERENCE_CALLS))
    def test_reference_outside_the_components(self, zero_free_dataset, call, ref_index):
        ds, X = zero_free_dataset
        with pytest.raises(DomainError, match=f"reference component {ref_index} is outside 0..3"):
            self.REFERENCE_CALLS[call](ds, X, LinkSpec(ref_index=ref_index))


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


def random_theta(rng, kind):
    B = TRUE_B + rng.normal(scale=0.3, size=TRUE_B.shape)
    if kind is ModelKind.SIMPLE:
        return pack_params(B, math.exp(rng.normal(2.5, 0.3)), kind)
    return pack_params(B, rng.normal([2.5, 0.0], 0.2), kind)


class TestInformation:
    """The information handed to the optimizer is minus the Hessian of the
    log-likelihood: the symmetrized Jacobian of the analytic gradient."""

    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_information_matches_differenced_gradient(self, small_dataset, kind, mode):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        link = LinkSpec(ref_index=0, model_kind=kind)
        derivatives = _objective_pair(ds, X, zp, link, mode)[1]
        rng = np.random.default_rng(4)
        for _ in range(10):
            theta = random_theta(rng, kind)
            info = derivatives(theta)[1]
            J = finite_diff_gradient(lambda t: analytic_gradient(t, ds, X, zp, link, mode), theta)
            expected = -0.5 * (J + J.T)
            assert np.array_equal(info, info.T)
            assert np.max(np.abs(info - expected)) <= 1e-7 * np.max(np.abs(expected))


class TestRowWorkReuse:
    """The objective and the derivatives share one point's row work; the
    derivatives reuse it only at a theta of the same bytes."""

    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_derivatives_do_not_depend_on_earlier_objective_calls(self, small_dataset, kind,
                                                                   mode, monkeypatch):
        import zadr.model as model_mod

        ds, X = small_dataset
        link = LinkSpec(ref_index=0, model_kind=kind)
        rng = np.random.default_rng(8)
        theta, other = random_theta(rng, kind), random_theta(rng, kind)
        fresh = _objective_pair(ds, X, zero_pattern(ds), link, mode)[1](theta)
        real, built = model_mod._row_work, []
        monkeypatch.setattr(model_mod, "_row_work", lambda *a: built.append(1) or real(*a))
        objective, derivatives = _objective_pair(ds, X, zero_pattern(ds), link, mode)
        objective(theta)
        after_same = derivatives(theta.copy())
        assert len(built) == 1  # an equal theta reuses the objective's row work
        objective(other)
        after_other = derivatives(theta)
        assert len(built) == 3  # the row work kept at other is not taken for theta
        for grad, info in (after_same, after_other):
            assert grad.tobytes() == fresh[0].tobytes() and info.tobytes() == fresh[1].tobytes()

    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_nothing_is_reused_at_a_theta_that_is_not_finite(self, small_dataset, kind):
        # Before a response has a kept point its keys are NaN, which a NaN
        # theta matches byte for byte; its derivatives there are still NaN,
        # on a new objective and on a row of a stack that has none kept.
        ds, X = small_dataset
        link = LinkSpec(ref_index=0, model_kind=kind)
        stage = _stage_design(X.design, zero_pattern(ds), link, ZeroMode.RENORMALIZED)
        objective = _Objective(np.stack([_log_response(ds.values, stage.U)] * 2), stage)
        theta = random_theta(np.random.default_rng(8), kind)
        nan = np.full((1, len(theta)), np.nan)
        assert all(np.isnan(a).all() for a in objective.derivatives(nan, np.array([0])))
        objective.value(theta[None], np.array([0]))
        assert all(np.isnan(a).all() for a in objective.derivatives(nan, np.array([1])))

    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_objective_and_loglik_agree_bit_for_bit(self, small_dataset, kind, mode):
        ds, X = small_dataset
        zp = zero_pattern(ds)
        p = estimate_p(zp)
        link = LinkSpec(ref_index=0, model_kind=kind)
        loglik = loglik_zadr_simple if kind is ModelKind.SIMPLE else loglik_zadr_mixed
        objective = _objective_pair(ds, X, zp, link, mode)[0]
        rng = np.random.default_rng(9)
        for _ in range(20):
            theta = random_theta(rng, kind)
            expected = -objective(theta) + binary_log_prob(zp, p)
            assert loglik(*unpack_params(theta, 3, 2, kind), p, ds, X, zp, link, mode) == expected


    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_batch_objective_equals_the_objective_row_by_row(self, small_dataset, kind):
        # `_Objective` evaluates each of its responses at its own theta: +inf
        # where theta is not finite or the simple model's phi is not
        # positive, and elsewhere the bits of the one-response objective,
        # also for derivatives from the row work it kept.
        ds, X = small_dataset
        link = LinkSpec(ref_index=0, model_kind=kind)
        stage = _stage_design(X.design, zero_pattern(ds), link, ZeroMode.RENORMALIZED)
        logY = _log_response(ds.values, stage.U)
        rng = np.random.default_rng(4)
        thetas = np.array([random_theta(rng, kind) for _ in range(4)])
        thetas[1, 0] = np.nan
        thetas[2, -1] = -1.0 if kind is ModelKind.SIMPLE else thetas[2, -1]
        rows = np.array([0, 2, 3, 4])
        batch = _Objective(np.stack([logY] * 5), stage)
        objective, derivatives = _objective_pair(ds, X, zero_pattern(ds), link,
                                                 ZeroMode.RENORMALIZED)
        values = batch.value(thetas, rows)
        assert values.tobytes() == np.array([objective(theta) for theta in thetas]).tobytes()
        ok = np.isfinite(values)
        assert ok.sum() == (2 if kind is ModelKind.SIMPLE else 3)
        for theta, grad, info in zip(thetas[ok], *batch.derivatives(thetas[ok], rows[ok])):
            expected = derivatives(theta)
            assert grad.tobytes() == expected[0].tobytes()
            assert info.tobytes() == expected[1].tobytes()


class TestAnsweredRestart:
    """A replicate stage restarted where its batch stopped (`_answered_at`)
    is answered at the batch's argmin with the batch's value, gradient and
    information, and computes afresh anywhere else."""

    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_answers_the_argmin_and_computes_one_bit_away(self, small_dataset, kind,
                                                          monkeypatch):
        import zadr.model as model_mod

        ds, X = small_dataset
        link = LinkSpec(ref_index=0, model_kind=kind)
        theta = random_theta(np.random.default_rng(8), kind)
        nudged = theta.copy()
        nudged[-1] = np.nextafter(nudged[-1], np.inf)
        negloglik, negderivatives = _objective_pair(ds, X, zero_pattern(ds), link,
                                                    ZeroMode.RENORMALIZED)
        fresh = negloglik(nudged), negderivatives(nudged)
        # Answers that no objective gives, so that only the batch's come back.
        m = len(theta)
        stopped = OptimResult(argmin=theta.copy(), value=-1.5, gradient=np.arange(m, dtype=float),
                              iterations=3, termination_reason=TerminationReason.STEP_TOL,
                              hessian=np.eye(m))
        real, built = model_mod._row_work, []
        monkeypatch.setattr(model_mod, "_row_work", lambda *a: built.append(1) or real(*a))
        value, derivatives = _answered_at(stopped, *_objective_pair(ds, X, zero_pattern(ds), link,
                                                                    ZeroMode.RENORMALIZED))
        for _ in range(2):
            assert value(theta.copy()) == -1.5
            grad, info = derivatives(theta.copy())
            assert grad.tobytes() == np.arange(m, dtype=float).tobytes()
            assert info.tobytes() == np.eye(m).tobytes()
            grad[...] = info[...] = 7.0  # the caller's copies, not the batch's arrays
        assert not built
        assert value(nudged) == fresh[0]
        grad, info = derivatives(nudged)
        assert grad.tobytes() == fresh[1][0].tobytes() and info.tobytes() == fresh[1][1].tobytes()
        assert len(built) == 1  # the derivatives reuse the row work of the value call


class TestStackedDerivatives:
    """`_derivatives` of a stack of points on their responses gives each
    point, to the bit, its own one-response call: a replicate's fit restarted
    at its batch's optimum reports the information the batch computed there
    in its stack. n = 1024 is the largest replicate that a bootstrap batches
    with another at D = 4 (`inference._BATCH_CELLS`)."""

    @pytest.mark.parametrize("n", [30, 128, 1024])
    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_stack_equals_each_point_alone(self, kind, mode, n):
        ds, X = simulate_dataset(n=n, seed=3, n_zero=n // 6)
        stage = _stage_design(X.design, zero_pattern(ds), LinkSpec(0, kind), mode)
        rng = np.random.default_rng(11)
        R = 19
        # R responses with the zero pattern of ds, and a point for each.
        Y = ds.values * np.exp(rng.normal(scale=0.3, size=(R,) + ds.values.shape))
        logY = np.stack([_log_response(y / y.sum(axis=1, keepdims=True), stage.U) for y in Y])
        thetas = np.array([random_theta(rng, kind) for _ in range(R)])
        B = thetas[:, :6].reshape(R, 3, 2)
        precision = thetas[:, 6] if kind is ModelKind.SIMPLE else thetas[:, 6:]
        grads, infos = _derivatives(_row_work(stage, B, precision), logY, stage)
        for k in range(R):
            one = slice(k, k + 1)
            grad, info = _derivatives(_row_work(stage, B[one], precision[one]), logY[one], stage)
            assert grads[k].tobytes() == grad[0].tobytes()
            assert infos[k].tobytes() == info[0].tobytes()


class TestInformationAssembly:
    """The one-product information against the row-wise Kronecker assembly
    kept in tests/oracle.py."""

    @pytest.mark.parametrize("n", [30, 600])
    @pytest.mark.parametrize("ref_index", [0, 2])
    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_matches_rowkron_assembly(self, kind, mode, ref_index, n):
        ds, X = simulate_dataset(n=n, seed=3, n_zero=n // 6)
        zp = zero_pattern(ds)
        link = LinkSpec(ref_index=ref_index, model_kind=kind)
        derivatives = _objective_pair(ds, X, zp, link, mode)[1]
        U = _stage_design(X.design, zp, link, mode).U  # component-major; the oracle takes rows
        logY = _log_response(ds.values, U)
        rng = np.random.default_rng(10)
        for _ in range(5):
            theta = random_theta(rng, kind)
            info = derivatives(theta)[1]
            expected = rowkron_information(theta, logY.T, X.design, U.T, ref_index,
                                           kind is ModelKind.MIXED, mode is ZeroMode.RENORMALIZED)
            assert np.max(np.abs(info - expected)) <= 1e-12 * np.max(np.abs(expected))


class TestTrigammaKernel:
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_derivatives_agree_with_hurwitz_zeta(self, kind, monkeypatch):
        import zadr.model as model_mod

        ds, X = simulate_dataset(n=600, seed=7, n_zero=100)
        link = LinkSpec(ref_index=0, model_kind=kind)
        derivatives = _objective_pair(ds, X, zero_pattern(ds), link, ZeroMode.AS_WRITTEN)[1]
        precision = 12.0 if kind is ModelKind.SIMPLE else np.array([2.5, 0.1])
        theta = pack_params(TRUE_B + 0.1, precision, kind)
        g, info = derivatives(theta)
        zeta_calls = []
        monkeypatch.setattr(model_mod, "trigamma",
                            lambda x: zeta_calls.append(1) or special.zeta(2.0, x))
        g_zeta, info_zeta = derivatives(theta)
        assert zeta_calls
        assert np.array_equal(g, g_zeta)
        assert np.max(np.abs(info - info_zeta) / np.abs(info_zeta)) <= 1e-12


class TestLargePrecisionConvergence:
    """Both stages reach the gradient test at precisions of 1e4 to 1e6, where
    the objective's round-off exceeds the decrease of a final Newton step."""

    @pytest.mark.parametrize("seed", [3, 4, 5, 12])
    @pytest.mark.parametrize("phi", [1e4, 1e5, 1e6])
    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_both_stages_converge(self, link, phi, seed):
        ds, X = simulate_dataset(n=30, seed=seed, n_zero=5, phi=phi)
        initial, final = fit(ds, X, link)
        assert initial.converged and final.converged

    @pytest.mark.parametrize("seed", [3, 5, 12])
    @pytest.mark.parametrize("phi", [1e7, 1e8])
    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK], ids=["simple", "mixed"])
    def test_null_steps_end_the_final_stage(self, link, phi, seed):
        # At phi >= 1e7 round-off hides the last decreases of the final
        # stage's objective, and the line search then accepts a step that
        # leaves theta unchanged. Restarted at the stage's optimum with a
        # gradient tolerance no run can meet, Newton must stop on that null
        # step (StepTol) within a bounded number of objective calls, not run
        # to MaxIter. At phi = 1e6 the restart still finds decreases and does
        # run to MaxIter, so that precision is not a case of this test.
        ds, X = simulate_dataset(n=30, seed=seed, n_zero=5, phi=phi)
        final = fit(ds, X, link)[1]
        objective, derivatives = _objective_pair(ds, X, zero_pattern(ds), link, final.zero_mode)
        calls = []
        res = minimize(lambda x: calls.append(1) or objective(x), final.parameter_vector(),
                       gradient=derivatives, opts=OptimizerOptions(gradient_tolerance=1e-300))
        assert res.termination_reason is TerminationReason.STEP_TOL
        assert len(calls) <= 1000


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
        initial, final = fit(ds, X, SIMPLE_LINK)
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
        _, final = fit(ds, X, SIMPLE_LINK)
        assert np.max(np.abs(final.B - TRUE_B)) < 0.25
        assert abs(final.precision - TRUE_PHI) / TRUE_PHI < 0.15

    def test_both_stages_meet_the_row_scaled_gradient_test(self, monkeypatch):
        # The fit-large benchmark input at seed 14, where a function-change
        # stop once left the final stage 2.7e-5 * n from a zero gradient.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import inputs

        Y, design = inputs.simulate_rows(5000, 833, 14)
        ds = load_dataset(Y, names=list(COMPONENTS))
        X = make_design(design[:, 1:], names=["logdepth"])
        initial, final = fit(ds, X, SIMPLE_LINK)
        mask = ds.zero_free_mask()
        stages = [
            (initial, load_dataset(Y[mask]), make_design(design[mask, 1:]), ZeroMode.AS_WRITTEN),
            (final, ds, X, final.zero_mode),
        ]
        for model, rows, Xs, mode in stages:
            assert model.converged
            grad = analytic_gradient(model.parameter_vector(), rows, Xs, None, SIMPLE_LINK, mode)
            assert np.max(np.abs(grad)) <= 1e-6 * rows.n

    def test_mixed_fit(self, small_dataset):
        ds, X = small_dataset
        initial, final = fit(ds, X, MIXED_LINK)
        assert final.kind is ModelKind.MIXED
        assert final.precision.shape == (2,)
        assert final.converged

    def test_mixed_nests_simple_in_loglik(self, small_dataset):
        ds, X = small_dataset
        _, simple = fit(ds, X, SIMPLE_LINK)
        _, mixed = fit(ds, X, MIXED_LINK)
        assert mixed.loglik >= simple.loglik - 1e-6

    def test_no_zero_free_rows(self):
        rows = [[0.5, 0.5, 0.0], [0.0, 0.4, 0.6], [0.7, 0.0, 0.3],
                [0.2, 0.8, 0.0], [0.0, 0.1, 0.9]]
        ds = load_dataset(rows)
        X = make_design(np.arange(5.0)[:, None], names=["x"])
        with pytest.raises(NoZeroFreeRows):
            fit(ds, X, SIMPLE_LINK)

    def test_too_few_zero_free_rows(self):
        rows = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5], [0.7, 0.0, 0.3], [0.1, 0.6, 0.3]]
        ds = load_dataset(rows)
        X = make_design(np.arange(4.0)[:, None], names=["x"])
        with pytest.raises(InsufficientRows, match="need at least p\\+2=3 zero-free rows, have 2"):
            fit(ds, X, SIMPLE_LINK)

    def test_deterministic(self, small_dataset):
        ds, X = small_dataset
        _, a = fit(ds, X, SIMPLE_LINK)
        _, b = fit(ds, X, SIMPLE_LINK)
        assert np.array_equal(a.B, b.B)
        assert a.loglik == b.loglik

    def test_p_hat_is_nonzero_proportion(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        assert np.array_equal(final.p_hat, estimate_p(zero_pattern(ds)))

    def test_fitted_values_on_simplex(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        F = fitted_values(final, X)
        assert np.all(F.values > 0)
        assert np.max(np.abs(F.values.sum(axis=1) - 1.0)) < 1e-12

    def test_permuting_components_permutes_fit(self, small_dataset):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        perm = [0, 1, 3, 2]
        ds_p = load_dataset(ds.values[:, perm], names=[ds.component_names[j] for j in perm])
        _, final_p = fit(ds_p, X, SIMPLE_LINK)
        F = fitted_values(final, X).values
        F_p = fitted_values(final_p, X).values
        assert np.max(np.abs(F[:, perm] - F_p)) < 1e-4

    def test_mixed_start_anchors_intercept_and_zeroes_slopes(self, small_dataset, monkeypatch):
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
                fit(ds, X2, link)
        simple0, mixed0 = starts
        dq = (ds.D - 1) * X2.design.shape[1]
        phi0 = simple0[dq]
        assert phi0 == 10.0
        assert np.array_equal(mixed0[:dq], simple0[:dq])
        assert mixed0[dq] == np.log(phi0)
        assert np.array_equal(mixed0[dq + 1:], [0.0, 0.0])

    def test_fit_extracts_the_zero_pattern_once(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        calls = []
        real = model_mod.zero_pattern

        def counted(ds):
            calls.append(ds.n)
            return real(ds)

        monkeypatch.setattr(model_mod, "zero_pattern", counted)
        ds, X = small_dataset
        fit(ds, X, SIMPLE_LINK)
        assert calls == [ds.n]


def with_zeros_of(ds, seed: int):
    """Another draw from the truth model, with the zero pattern of ds."""
    Y = np.where(zero_pattern(ds), simulate_dataset(n=ds.n, seed=seed, n_zero=0)[0].values, 0.0)
    return load_dataset(Y / Y.sum(axis=1, keepdims=True), names=ds.component_names)


def stacked(datasets):
    """The datasets' values behind a leading axis, as `fit_batch` takes them."""
    return np.stack([ds.values for ds in datasets])


def model_bytes(model):
    """Every number of a fitted model as bytes, with its flags and names."""
    return (model.parameter_vector().tobytes(), model.covariance.tobytes(), model.p_hat.tobytes(),
            float.hex(model.loglik), model.converged, model.stage, model.link, model.zero_mode,
            model.component_names, model.covariate_names)


class TestFitDesign:
    """A design prepared once fits every response on it bit for bit as
    `fit` does, and `fit` prepares the design half of every call itself."""

    @pytest.mark.parametrize("ref_index", [0, 2])
    @pytest.mark.parametrize("mode", list(ZeroMode))
    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    def test_prepared_design_fits_bit_for_bit(self, kind, mode, ref_index):
        # Each row of a batch of three responses with one zero pattern is
        # its response's fit alone. As written, zero-adjusted data have no
        # MLE (see `fit`), so that mode fits zero-free data.
        n_zero = 5 if mode is ZeroMode.RENORMALIZED else 0
        ds, X = simulate_dataset(n=30, seed=12, n_zero=n_zero)
        datasets = [ds] + [with_zeros_of(ds, seed) for seed in (13, 14)]
        link = LinkSpec(ref_index=ref_index, model_kind=kind)
        design = prepare_design(X, zero_pattern(ds), link, mode)
        expected = [[model_bytes(m) for m in fit(d, X, link, mode)] for d in datasets]
        for _ in range(2):  # a design is not changed by the fits it serves
            batch = fit_batch(stacked(datasets), design, ds.component_names)
            assert [[model_bytes(m) for m in fitted] for fitted in batch] == expected

    def test_only_a_batch_of_several_runs_the_batched_loop(self, small_dataset, monkeypatch):
        # A lone dataset, as `fit` has, runs `minimize` from its start; a
        # batch of two runs one `minimize_batch` per stage.
        import zadr.model as model_mod

        ds, X = small_dataset
        design = prepare_design(X, zero_pattern(ds), SIMPLE_LINK, ZeroMode.RENORMALIZED)
        expected = [model_bytes(m) for m in fit(ds, X, SIMPLE_LINK)]
        real, calls = model_mod.minimize_batch, []

        def refused(*args):
            raise AssertionError("minimize_batch ran for one dataset")

        monkeypatch.setattr(model_mod, "minimize_batch", refused)
        assert [model_bytes(m) for m in fit(ds, X, SIMPLE_LINK)] == expected
        [fitted] = fit_batch(ds.values[None], design, ds.component_names)
        assert [model_bytes(m) for m in fitted] == expected
        monkeypatch.setattr(model_mod, "minimize_batch",
                            lambda *args: calls.append(len(args[1])) or real(*args))
        fit_batch(stacked([ds, with_zeros_of(ds, 13)]), design, ds.component_names)
        assert calls == [2, 2]

    def test_fit_prepares_the_design_half_of_every_call(self, small_dataset, monkeypatch):
        # Given a prepared design as X, `fit` reads only its covariates, also
        # when it was prepared for this very call.
        import zadr.model as model_mod

        ds, X = small_dataset
        u = zero_pattern(ds)
        other_u = zero_pattern(simulate_dataset(n=30, seed=13, n_zero=5)[0])
        assert not np.array_equal(u, other_u)
        designs = [
            prepare_design(X, other_u, SIMPLE_LINK, ZeroMode.RENORMALIZED),
            prepare_design(X, u, LinkSpec(ref_index=2), ZeroMode.RENORMALIZED),
            prepare_design(X, u, MIXED_LINK, ZeroMode.RENORMALIZED),
            prepare_design(X, u, SIMPLE_LINK, ZeroMode.AS_WRITTEN),
            prepare_design(X, u, SIMPLE_LINK, ZeroMode.RENORMALIZED),
        ]
        expected = [model_bytes(m) for m in fit(ds, X, SIMPLE_LINK)]
        prepared = []
        real = model_mod.prepare_design
        monkeypatch.setattr(model_mod, "prepare_design",
                            lambda *args: prepared.append(args) or real(*args))
        for design in designs:
            prepared.clear()
            assert [model_bytes(m) for m in fit(ds, design, SIMPLE_LINK)] == expected
            assert len(prepared) == 1 and prepared[0][0].design is X.design

    def test_batch_starts_are_the_starts_alone_at_large_n(self, monkeypatch):
        # At n of about 2000 and more, one product of the design with 99
        # responses side by side differs in the last bits from the product
        # with one response; each batched start must be its response's own.
        import zadr.model as model_mod
        from zadr.compositions import alr

        class Started(Exception):
            pass

        starts = []

        def capture(objective, x0, gradient, opts):
            starts.append(x0)
            raise Started

        datasets = [simulate_dataset(n=2000, seed=seed, n_zero=0)[0] for seed in range(99)]
        X = simulate_dataset(n=2000, seed=0, n_zero=0)[1]
        design = prepare_design(X, zero_pattern(datasets[0]), SIMPLE_LINK, ZeroMode.RENORMALIZED)
        monkeypatch.setattr(model_mod, "minimize_batch", capture)
        with pytest.raises(Started):
            fit_batch(stacked(datasets), design, datasets[0].component_names)
        for ds, start in zip(datasets, starts[0], strict=True):
            alone = model_mod._least_squares(design.XtX, design.initial.Xd, alr(ds, 0))
            assert start[:-1].tobytes() == alone.ravel().tobytes()

    def test_design_errors_come_before_the_response(self, small_dataset):
        ds, X = small_dataset
        u = zero_pattern(ds)
        with pytest.raises(DomainError, match="row counts differ"):
            prepare_design(X, u[:-1], SIMPLE_LINK, ZeroMode.RENORMALIZED)
        with pytest.raises(NoZeroFreeRows):
            prepare_design(X, np.zeros_like(u), SIMPLE_LINK, ZeroMode.RENORMALIZED)


class TestCovariance:
    """inv(covariance) is the observed information: the finite-difference
    Hessian of the stage's negative log-likelihood at its optimum."""

    LOGLIKS = {ModelKind.SIMPLE: (loglik_zadr_simple, loglik_simple),
               ModelKind.MIXED: (loglik_zadr_mixed, loglik_mixed)}

    @staticmethod
    def information_error(model, loglik):
        """Max-abs gap between inv(covariance) and the objective's Hessian,
        relative to its largest entry."""
        d, q = model.B.shape
        H = numerical_hessian(lambda t: -loglik(*unpack_params(t, d, q, model.kind)),
                              model.parameter_vector())
        return np.max(np.abs(np.linalg.inv(model.covariance) - H)) / np.max(np.abs(H))

    @pytest.mark.parametrize("kind", [ModelKind.SIMPLE, ModelKind.MIXED])
    @pytest.mark.parametrize("mode, n_zero", [(ZeroMode.RENORMALIZED, 5),
                                              (ZeroMode.AS_WRITTEN, 0)])
    def test_inverse_covariance_is_observed_information(self, kind, mode, n_zero):
        ds, X = simulate_dataset(n=30, seed=12, n_zero=n_zero)
        link = LinkSpec(ref_index=0, model_kind=kind)
        initial, final = fit(ds, X, link, mode)
        zadr_loglik, plain_loglik = self.LOGLIKS[kind]
        zp = zero_pattern(ds)
        mask = ds.zero_free_mask()
        ds_free = load_dataset(ds.values[mask], names=list(COMPONENTS))
        X_free = CovariateMatrix(design=X.design[mask], covariate_names=X.covariate_names)
        final_err = self.information_error(
            final, lambda B, prec: zadr_loglik(B, prec, final.p_hat, ds, X, zp, link, mode))
        initial_err = self.information_error(
            initial, lambda B, prec: plain_loglik(B, prec, ds_free, X_free, link))
        assert final_err < 1e-5 and initial_err < 1e-5

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK])
    def test_fit_takes_no_hessian_of_the_objective(self, small_dataset, monkeypatch, link):
        def no_hessian(*args):
            raise AssertionError("the fit took a finite-difference Hessian of the objective")

        monkeypatch.setattr("zadr.model.numerical_hessian", no_hessian)
        initial, final = fit(*small_dataset, link)
        assert initial.covariance is not None and final.covariance is not None

    def test_large_precision_gets_true_standard_errors(self):
        # The raw condition number of this information is about 1e18 (phi is
        # fitted on its raw scale); after diagonal scaling it is about 56.
        ds, X = simulate_dataset(n=30, seed=3, n_zero=5, phi=1e6)
        initial, final = fit(ds, X, SIMPLE_LINK)
        assert initial.converged and final.converged
        se_phi = math.sqrt(final.covariance[-1, -1])
        assert 0.05 <= se_phi / final.precision <= 0.5

    def test_large_precision_mixed_fit_has_positive_definite_information(self):
        ds, X = simulate_dataset(n=30, seed=3, n_zero=5, phi=1e6)
        initial, final = fit(ds, X, MIXED_LINK)
        assert initial.converged and final.converged
        for model in (initial, final):
            assert np.all(np.linalg.eigvalsh(model.covariance) > 0)

    def test_indefinite_information_is_named(self, monkeypatch):
        negate_stage_information(monkeypatch)
        ds, X = simulate_dataset(n=30, seed=3, n_zero=5, phi=1e6)
        with pytest.raises(NotPositiveDefinite,
                           match="zero-free-initial stage's observed information"):
            fit(ds, X, MIXED_LINK)


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
        fit(ds, X, MIXED_LINK)
        assert len(calls) <= 1

    def test_large_mixed_fit_raises_no_runtime_warning(self):
        ds, X = simulate_dataset(n=5000, seed=3, n_zero=833)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            _, final = fit(ds, X, MIXED_LINK)
        assert final.converged

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK])
    @pytest.mark.parametrize("tiny", [1e-200, 1e-300])
    def test_underflowing_component_is_a_named_error_without_warning(self, link, tiny):
        # A mean of that component underflows to 0 while its trigamma
        # overflows; the suite turns any RuntimeWarning into an error.
        ds, X = tiny_component_dataset(tiny)
        with pytest.raises(NonFiniteObjective):
            fit(ds, X, link)

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK])
    def test_small_component_still_converges(self, link):
        initial, final = fit(*tiny_component_dataset(1e-100), link)
        assert initial.converged and final.converged

    @pytest.mark.parametrize("link", [SIMPLE_LINK, MIXED_LINK])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_as_written_fit_of_zeros_is_a_named_error_without_warning(self, link, seed):
        # No MLE exists: the final stage's phi runs away until phi**2 times
        # trigamma overflows or the information stops being positive definite.
        ds, X = simulate_dataset(n=30, seed=seed, n_zero=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((NonFiniteObjective, NotPositiveDefinite)):
                fit(ds, X, link, ZeroMode.AS_WRITTEN)

    def test_aitchison_baseline_is_ols_on_zero_free_rows(self, small_dataset):
        ds, X = small_dataset
        model = fit_aitchison(ds, X, SIMPLE_LINK, ZeroMode.RENORMALIZED)
        mask = ds.zero_free_mask()
        free = load_dataset(ds.values[mask], names=ds.component_names)
        X_free = make_design(X.design[mask, 1:], names=X.covariate_names[1:])
        assert model.kind is ModelKind.AITCHISON
        assert np.array_equal(model.B, ols_init(free, X_free, SIMPLE_LINK))
        assert model.loglik is None
        assert model.covariance.shape == (model.B.size, model.B.size)

    def test_aitchison_standard_errors_are_ols_standard_errors(self, small_dataset):
        ds, X = small_dataset
        model = fit_aitchison(ds, X, SIMPLE_LINK, ZeroMode.RENORMALIZED)
        mask = ds.zero_free_mask()
        Xd = X.design[mask]
        logs = np.log(ds.values[mask])
        Z = logs[:, 1:] - logs[:, :1]
        _, rss, _, _ = np.linalg.lstsq(Xd, Z, rcond=None)
        n_free, q = Xd.shape
        sigma2 = rss / (n_free - q)
        expected = np.outer(sigma2, np.diag(np.linalg.inv(Xd.T @ Xd))).ravel()
        assert np.max(np.abs(np.diag(model.covariance) / expected - 1)) <= 1e-12

    def test_aitchison_baseline_solves_ols_once(self, small_dataset, monkeypatch):
        import zadr.model as model_mod

        calls = []
        real = model_mod._normal_matrix

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(model_mod, "_normal_matrix", counted)
        ds, X = small_dataset
        fit_aitchison(ds, X, SIMPLE_LINK, ZeroMode.RENORMALIZED)
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
        _, final = fit(ds, X, SIMPLE_LINK)
        names = final.parameter_names()
        assert len(names) == final.parameter_vector().size
        assert names[0] == "Obesa:intercept"
        assert names[-1] == "phi"


class TestPersistence:
    def test_save_load_round_trip_is_bit_exact(self, small_dataset, tmp_path):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
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
        _, final = fit(ds, X, MIXED_LINK)
        back = model_from_dict(model_to_dict(final))
        assert np.array_equal(back.precision, final.precision)

    def test_predictions_survive_round_trip(self, small_dataset, tmp_path):
        ds, X = small_dataset
        _, final = fit(ds, X, SIMPLE_LINK)
        path = tmp_path / "m.json"
        save_model(final, path)
        F1 = fitted_values(final, X).values
        F2 = fitted_values(load_model(path), X).values
        assert np.array_equal(F1, F2)
