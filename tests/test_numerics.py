import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from oracle import finite_diff_gradient, oracle_minimize

from zadr.errors import NonFiniteObjective
from zadr.numerics import (
    _BERNOULLI_EVEN,
    OptimizerOptions,
    TerminationReason,
    _newton_steps,
    minimize,
    minimize_batch,
    numerical_hessian,
    trigamma,
)


class TestTrigamma:
    """The series kernel against scipy's Hurwitz zeta(2, x), the oracle."""

    def test_matches_hurwitz_zeta_on_log_grid(self):
        x = np.logspace(-6, 10, 20001)
        assert np.max(np.abs(trigamma(x) / special.zeta(2.0, x) - 1.0)) <= 4e-15

    @pytest.mark.parametrize("size", [150, 25_000])
    def test_series_is_bit_identical_to_polyval(self, size):
        x = np.logspace(-6, 10, size)
        z = x + np.arange(10.0)[:, None]
        w = 1.0 / (x + 10.0)
        series = np.polyval(_BERNOULLI_EVEN[::-1], w * w)
        expected = np.sum(1.0 / (z * z), axis=0) + w * (1.0 + w * (0.5 + w * series))
        assert np.array_equal(trigamma(x), expected)

    def test_recurrence(self):
        # psi_1(x) - psi_1(x + 1) = 1/x^2; the difference cancels to the
        # rounding of psi_1(x) itself, so the bound scales with it.
        x = np.logspace(-3, 4, 701)
        gap = trigamma(x) - trigamma(x + 1.0) - 1.0 / x**2
        assert np.all(np.abs(gap) <= 8 * np.finfo(float).eps * trigamma(x))

    def test_shape_is_kept(self):
        assert np.shape(trigamma(2.0)) == ()
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, rel=1e-15)
        x = np.linspace(0.5, 50.0, 24).reshape(2, 3, 4)
        values = trigamma(x)
        assert values.shape == (2, 3, 4)
        assert np.array_equal(values.ravel(), trigamma(x.ravel()))

    def test_overflow_is_inf_without_warning(self):
        # pyproject.toml makes every RuntimeWarning in the suite an error.
        assert trigamma(1e-200) == np.inf
        assert np.array_equal(trigamma(np.array([1e-160, 1.0])), [np.inf, trigamma(1.0)])


class TestDerivativeHelpers:
    def test_gradient_of_polynomial(self):
        f = lambda x: x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2
        x = np.array([1.3, -0.7])
        g = finite_diff_gradient(f, x)
        expected = np.array([3 * x[0] ** 2 + 2 * x[1], 2 * x[0] + 2 * x[1]])
        assert np.max(np.abs(g - expected)) < 1e-7

    def test_hessian_symmetric_and_accurate(self):
        f = lambda x: x[0] ** 3 + 2.0 * x[0] * x[1] + x[1] ** 2 + x[2] ** 4
        x = np.array([1.1, -0.4, 0.8])
        H = numerical_hessian(f, x)
        assert np.array_equal(H, H.T)
        expected = np.array([
            [6 * x[0], 2.0, 0.0],
            [2.0, 2.0, 0.0],
            [0.0, 0.0, 12 * x[2] ** 2],
        ])
        assert np.max(np.abs(H - expected)) < 1e-4

    @pytest.mark.parametrize("bad, match", [
        (lambda x: True, "at expansion point"),
        (lambda x: x[0] > 1.0, "near component 0$"),
        (lambda x: x[0] > 1.0 and x[2] < -1.0, "near components 0,2"),
    ], ids=["at_the_point", "near_a_component", "near_a_pair"])
    def test_hessian_of_non_finite_objective_raises(self, bad, match):
        # finite everywhere except where `bad` holds, probed around x = (1, 1, -1)
        f = lambda x: np.inf if bad(x) else float(np.sum(x**2))
        with pytest.raises(NonFiniteObjective, match=match):
            numerical_hessian(f, np.array([1.0, 1.0, -1.0]))

    def test_jacobian_of_linear_map_is_its_matrix(self):
        # row i holds the derivative along x[i], so x -> x @ M has Jacobian M
        M = np.array([[1.0, -2.0], [0.5, 3.0], [4.0, 0.25]])
        J = finite_diff_gradient(lambda x: x @ M, np.array([0.3, -1.2, 2.0]))
        assert J.shape == (3, 2)
        assert np.max(np.abs(J - M)) < 1e-8

    def test_nonfinite_component_of_vector_output_raises(self):
        f = lambda x: np.array([x[0], np.inf if x[1] > 0 else 0.0])
        with pytest.raises(NonFiniteObjective):
            finite_diff_gradient(f, np.zeros(2))

    def test_steps_scale_with_magnitude(self):
        # a quadratic with a huge coordinate still differentiates cleanly
        f = lambda x: 0.5 * np.sum(x**2)
        x = np.array([1e6, 1.0])
        g = finite_diff_gradient(f, x)
        assert abs(g[0] - x[0]) / x[0] < 1e-7


def rosenbrock(x):
    return (1 - x[0]) ** 2 + 100 * (x[1] - x[0] ** 2) ** 2


def rosenbrock_derivatives(x):
    gradient = np.array([-2 * (1 - x[0]) - 400 * x[0] * (x[1] - x[0] ** 2),
                         200 * (x[1] - x[0] ** 2)])
    hessian = np.array([[2 - 400 * (x[1] - 3 * x[0] ** 2), -400 * x[0]],
                        [-400 * x[0], 200.0]])
    return gradient, hessian


class TestMinimize:
    def test_quadratic_within_dim_plus_five(self):
        rng = np.random.default_rng(42)
        for dim in [2, 4, 8, 15]:
            for _ in range(10):
                M = rng.normal(size=(dim, dim))
                Q = M @ M.T + dim * np.eye(dim)
                b = rng.normal(size=dim)
                f = lambda x: 0.5 * x @ Q @ x - b @ x
                g = lambda x: (Q @ x - b, Q)
                res = minimize(f, rng.normal(size=dim), gradient=g)
                assert res.converged
                assert res.termination_reason is TerminationReason.GRADIENT_TOL
                assert res.iterations <= dim + 5
                assert np.max(np.abs(res.argmin - np.linalg.solve(Q, b))) < 1e-5

    def test_rosenbrock(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), gradient=rosenbrock_derivatives,
                       opts=OptimizerOptions(max_iterations=2000))
        assert res.converged
        assert np.max(np.abs(res.argmin - 1.0)) < 1e-6

    def test_max_iterations_means_not_converged(self):
        res = minimize(rosenbrock, np.array([-1.2, 1.0]), gradient=rosenbrock_derivatives,
                       opts=OptimizerOptions(max_iterations=3))
        assert not res.converged
        assert res.termination_reason is TerminationReason.MAX_ITER

    def test_infinite_objective_outside_domain(self):
        # barrier objective: +inf for x <= 0, minimized at x = 1
        def f(x):
            if x[0] <= 0:
                return np.inf
            return x[0] - math.log(x[0])

        res = minimize(f, np.array([5.0]),
                       gradient=lambda x: (1.0 - 1.0 / x, np.array([[1.0 / x[0] ** 2]])))
        assert res.converged
        assert abs(res.argmin[0] - 1.0) < 1e-5

    def test_stalled_line_search_is_not_converged(self):
        # a flat objective with a nonzero gradient: no step gives an Armijo decrease
        res = minimize(lambda x: 0.0, np.zeros(2), gradient=lambda x: (np.ones(2), np.eye(2)))
        assert res.termination_reason is TerminationReason.STEP_TOL
        assert res.termination_reason.value == "StepTol"
        assert res.converged is False

    def test_null_step_ends_on_step_tol(self):
        # a unit step is lost to rounding at 1e20, and only the round-off
        # allowance accepts it: the run must end instead of repeating it
        res = minimize(lambda x: 1.0, np.array([1e20]),
                       gradient=lambda x: (np.ones(1), np.eye(1)))
        assert res.termination_reason is TerminationReason.STEP_TOL
        assert res.iterations == 1
        assert res.argmin[0] == 1e20

    def test_derivatives_only_at_accepted_points(self):
        # f = sqrt(1 + x^2) from x = 3: the full Newton step, -x (1 + x^2) = -30,
        # lands at -27 and is rejected; backtracking accepts x = -0.75.
        objective_args, derivative_args = [], []

        def f(x):
            objective_args.append(x)
            return math.sqrt(1.0 + x[0] ** 2)

        def derivatives(x):
            derivative_args.append(x)
            s = 1.0 + x[0] ** 2
            return np.array([x[0] / math.sqrt(s)]), np.array([[s**-1.5]])

        minimize(f, np.array([3.0]), gradient=derivatives, opts=OptimizerOptions(max_iterations=1))
        assert [x[0] for x in objective_args] == [3.0, -27.0, -12.0, -4.5, -0.75]
        assert [x[0] for x in derivative_args] == [3.0, -0.75]
        # the accepted trial point, with the bytes the objective saw
        assert derivative_args[1].tobytes() == objective_args[-1].tobytes()

    def test_line_search_without_a_finite_trial_raises(self):
        # finite only at the start: every trial step, however short, is +inf
        f = lambda x: 0.0 if x[0] == 0.0 else np.inf
        with pytest.raises(NonFiniteObjective, match="line search"):
            minimize(f, np.zeros(1), gradient=lambda x: (np.ones(1), np.eye(1)))

    def test_nonfinite_start_raises(self):
        f = lambda x: np.inf
        with pytest.raises(NonFiniteObjective):
            minimize(f, np.zeros(2), gradient=lambda x: (np.zeros(2), np.eye(2)))

    def test_option_validation(self):
        with pytest.raises(ValueError):
            OptimizerOptions(max_iterations=0)
        with pytest.raises(ValueError):
            OptimizerOptions(gradient_tolerance=-1.0)


def sqrt_bowl(center):
    """sum sqrt(1 + (x - center)^2): convex, and far from its minimum the
    full Newton step overshoots, so the line search backtracks."""
    def f(x):
        return float(np.sum(np.sqrt(1.0 + (x - center) ** 2)))

    def derivatives(x):
        s = 1.0 + (x - center) ** 2
        return (x - center) / np.sqrt(s), np.diag(s**-1.5)

    return f, derivatives


def double_well(x):
    return x[0] ** 4 / 4 - x[0] ** 2 / 2 + x[1] ** 2 / 2


def double_well_derivatives(x):
    return np.array([x[0] ** 3 - x[0], x[1]]), np.diag([3 * x[0] ** 2 - 1, 1.0])


class TestMinimizeBatch:
    """Each problem of a batch runs as the scalar loop `oracle_minimize` runs
    it alone, to the last bit, whatever the other problems in the batch do."""

    PROBLEMS = {
        "bowl-1": (*sqrt_bowl(np.array([1.0, -2.0])), np.array([4.0, 3.0])),
        "bowl-2": (*sqrt_bowl(np.array([-0.5, 0.25])), np.array([-6.0, 2.0])),
        "bowl-3": (*sqrt_bowl(np.array([2.0, 2.0])), np.array([2.5, 1.5])),
        # indefinite at the start: its first step needs the Levenberg shift
        "shifted": (double_well, double_well_derivatives, np.array([0.1, 1.0])),
        # flat with a nonzero gradient: the line search finds no decrease
        "stalled": (lambda x: 0.0, lambda x: (np.ones(2), np.eye(2)), np.zeros(2)),
        # an information 1e6 times too large: steps of a millionth of the way
        "crawling": (lambda x: 0.5 * float(x @ x), lambda x: (x, 1e6 * np.eye(2)),
                     np.ones(2)),
        "infinite": (lambda x: np.inf, lambda x: (np.ones(2), np.eye(2)), np.zeros(2)),
        # finite only at the start
        "lost": (lambda x: 0.0 if not x.any() else np.inf,
                 lambda x: (np.ones(2), np.eye(2)), np.zeros(2)),
    }
    OPTS = OptimizerOptions(max_iterations=30)

    def _batch(self, names):
        problems = [self.PROBLEMS[name] for name in names]
        seen = []  # every array the objective was called with, and its bytes then

        def objective(x, rows):
            seen.append((x, x.tobytes()))
            return [problems[k][0](point) for point, k in zip(x, rows)]

        def gradient(x, rows):
            pairs = [problems[k][1](point) for point, k in zip(x, rows)]
            return np.array([g for g, _ in pairs]), np.array([H for _, H in pairs])

        results = minimize_batch(objective, np.array([x0 for _, _, x0 in problems]), gradient,
                                 self.OPTS)
        assert all(x.tobytes() == before for x, before in seen)
        return results

    def _end_as_the_oracle(self, name, res):
        """How problem `name` ended, once its batch result `res` is checked
        byte for byte against the oracle's run of it alone."""
        f, derivatives, x0 = self.PROBLEMS[name]
        if isinstance(res, NonFiniteObjective):
            with pytest.raises(NonFiniteObjective, match=re.escape(str(res))):
                oracle_minimize(f, x0, derivatives, self.OPTS)
            return str(res)
        alone = oracle_minimize(f, x0, derivatives, self.OPTS)
        assert res.argmin.tobytes() == alone.argmin.tobytes(), name
        assert res.gradient.tobytes() == alone.gradient.tobytes(), name
        assert res.hessian.tobytes() == alone.hessian.tobytes(), name
        assert (res.value, res.gradient_norm, res.iterations, res.termination_reason) == (
            alone.value, alone.gradient_norm, alone.iterations, alone.termination_reason)
        return res.termination_reason

    def test_each_problem_runs_as_alone(self):
        names = list(self.PROBLEMS)
        ends = {name: self._end_as_the_oracle(name, res)
                for name, res in zip(names, self._batch(names))}
        assert ends == {
            "bowl-1": TerminationReason.GRADIENT_TOL, "bowl-2": TerminationReason.GRADIENT_TOL,
            "bowl-3": TerminationReason.GRADIENT_TOL, "shifted": TerminationReason.GRADIENT_TOL,
            "stalled": TerminationReason.STEP_TOL, "crawling": TerminationReason.MAX_ITER,
            "infinite": "objective not finite at starting point",
            "lost": "line search could not recover a finite objective",
        }

    def test_rows_do_not_depend_on_their_company(self):
        for names in (["bowl-2"], ["bowl-1", "bowl-2"],
                      ["shifted", "bowl-1", "infinite", "bowl-2", "crawling"]):
            for name, res in zip(names, self._batch(names), strict=True):
                self._end_as_the_oracle(name, res)


def step_alone(g, H):
    """One problem's Newton step and shift, computed on its own: scale H by
    |diag H|^(-1/2) (1 where the diagonal is 0), take the first shift of 0,
    1e-8, 1e-7, ... at which Cholesky succeeds, and solve that one matrix."""
    diag = np.abs(np.diag(H))
    scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
    Hs = H * scale[None, :] * scale[:, None]
    shift = 0.0
    while True:
        A = Hs + shift * np.eye(len(g)) if shift else Hs
        try:
            np.linalg.cholesky(A)
        except np.linalg.LinAlgError:
            shift = 10.0 * shift if shift else 1e-8
        else:
            return -scale * np.linalg.solve(A, (scale * g)[:, None])[:, 0], shift


class TestNewtonSteps:
    """`_newton_steps` gives each problem of a stack the step, to the last
    bit, that it has computed alone, whichever problems need a shift."""

    @staticmethod
    def _definite(rng, m):
        A = rng.normal(size=(m, m))
        return A @ A.T + np.diag(rng.uniform(0.5, 50.0, size=m))

    @staticmethod
    def _indefinite(rng, m):
        A = rng.normal(size=(m, m))
        return A + A.T - np.diag(rng.uniform(1.0, 5.0, size=m))

    def _stack(self, kinds, seed, m=3):
        rng = np.random.default_rng(seed)
        H = []
        for kind in kinds:
            if kind == "definite":
                H.append(self._definite(rng, m))
            elif kind == "indefinite":
                H.append(self._indefinite(rng, m))
            else:  # a zero on the diagonal, with the rest of its row and column
                Hk = self._definite(rng, m)
                Hk[0, :] = Hk[:, 0] = 0.0
                H.append(Hk)
        return rng.normal(size=(len(kinds), m)), np.array(H)

    @pytest.mark.parametrize("kinds", [
        ["definite"] * 4,
        ["definite", "indefinite", "definite", "definite"],
        ["indefinite", "zero-diagonal", "indefinite", "zero-diagonal"],
    ], ids=["no-shift", "one-shift", "every-shift"])
    @pytest.mark.parametrize("seed", range(5))
    def test_each_step_is_its_step_alone(self, kinds, seed):
        g, H = self._stack(kinds, seed)
        before = H.tobytes()
        steps = _newton_steps(g, H)
        assert H.tobytes() == before
        alone = [step_alone(gk, Hk) for gk, Hk in zip(g, H)]
        assert [shift > 0.0 for _, shift in alone] == [k != "definite" for k in kinds]
        for k, (step, _) in enumerate(alone):
            assert steps[k].tobytes() == step.tobytes(), k
