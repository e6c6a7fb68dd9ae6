"""Acceptance suite: ten numbered criteria, one printed verdict line each.

Criterion 10 needs the external foraminiferal dataset and is skipped when
data/foraminiferal.csv is absent.
"""

import math
import os

import numpy as np
import pytest

from conftest import COMPONENTS, TRUE_B, TRUE_PHI, depth_design, simulate_dataset, truth_model
from oracle import finite_diff_gradient, oracle_loglik

from zadr.compositions import (
    alr,
    alr_inv,
    estimate_p,
    load_dataset,
    make_design,
    read_csv,
    zero_pattern,
)
from zadr.dirichlet import DirichletParams, ZeroMode, sample
from zadr.errors import SchemaMismatch
from zadr.inference import (
    _batches,
    bootstrap_pvalue,
    chi2_sf,
    diagnostic_T,
    lrt,
    pvalue_from_replicates,
    run_simulation_study,
    simulate_response,
)
from zadr.model import (
    LinkSpec,
    ModelKind,
    analytic_gradient,
    binary_log_prob,
    fit,
    fit_batch,
    loglik_mixed,
    loglik_simple,
    loglik_zadr_mixed,
    loglik_zadr_simple,
    pack_params,
    prepare_design,
    stack_designs,
    unpack_params,
)

SIMPLE_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.SIMPLE)
MIXED_LINK = LinkSpec(ref_index=0, model_kind=ModelKind.MIXED)

FORAM_PATH = os.path.join(os.path.dirname(__file__), "..", "data", "foraminiferal.csv")


def verdict(number, ok, detail):
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def random_instance(rng, with_zeros):
    n = int(rng.integers(4, 11))
    D = int(rng.integers(3, 5))
    p = int(rng.integers(0, 3))
    X = make_design(rng.normal(size=(n, p)), names=[f"x{k}" for k in range(p)])
    B = rng.normal(scale=0.5, size=(D - 1, p + 1))
    phi = float(np.exp(rng.normal(2.0, 0.4)))
    gamma = np.concatenate([[rng.normal(2.0, 0.3)], rng.normal(0.0, 0.1, size=p)])
    Y = rng.dirichlet(np.full(D, 2.0), size=n)
    Y = np.maximum(Y, 1e-4)
    if with_zeros:
        # a couple of rows lose one random component each
        for i in rng.choice(n, size=min(2, n), replace=False):
            Y[i, rng.integers(0, D)] = 0.0
    Y = Y / Y.sum(axis=1, keepdims=True)
    ds = load_dataset(Y)
    return ds, X, B, phi, gamma


def test_criterion_1_binary_probability_golden():
    val = binary_log_prob((1, 1, 1, 0), (1.0, 0.9, 1.0, 0.95))
    err = abs(val - math.log(0.045))
    verdict(1, err < 1e-12, f"binary log-probability golden, |err| = {err:.2e}")


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        ds0, X, B, phi, gamma = random_instance(rng, with_zeros=False)
        dsz, Xz, Bz, phiz, gammaz = random_instance(rng, with_zeros=True)
        zp = zero_pattern(dsz)
        p_hat = estimate_p(zp)
        d = ds0.D - 1
        link_s = SIMPLE_LINK
        link_m = MIXED_LINK
        pairs = [
            (loglik_simple(B, phi, ds0, X, link_s),
             oracle_loglik(B, phi, ds0, X, 0, mixed=False)),
            (loglik_mixed(B, gamma, ds0, X, link_m),
             oracle_loglik(B, gamma, ds0, X, 0, mixed=True)),
        ]
        for mode in ZeroMode:
            pairs.append((
                loglik_zadr_simple(Bz, phiz, p_hat, dsz, Xz, zp, link_s, mode),
                oracle_loglik(Bz, phiz, dsz, Xz, 0, mixed=False, p=p_hat, zero_mode=mode),
            ))
            pairs.append((
                loglik_zadr_mixed(Bz, gammaz, p_hat, dsz, Xz, zp, link_m, mode),
                oracle_loglik(Bz, gammaz, dsz, Xz, 0, mixed=True, p=p_hat, zero_mode=mode),
            ))
        worst = max(worst, max(abs(a - b) for a, b in pairs))
    verdict(2, worst < 1e-10,
            f"four log-likelihoods vs row-by-row oracle, worst |err| = {worst:.2e}")


def test_criterion_3_gradient_correctness():
    ds, X = simulate_dataset(n=20, seed=77, n_zero=4)
    zp = zero_pattern(ds)
    p_hat = estimate_p(zp)
    rng = np.random.default_rng(55)
    worst = 0.0
    for kind in (ModelKind.SIMPLE, ModelKind.MIXED):
        link = LinkSpec(ref_index=0, model_kind=kind)
        for mode in ZeroMode:
            for _ in range(25):
                B = TRUE_B + rng.normal(scale=0.3, size=TRUE_B.shape)
                if kind is ModelKind.SIMPLE:
                    theta = pack_params(B, math.exp(rng.normal(2.5, 0.3)), kind)
                    f = lambda t: loglik_zadr_simple(
                        *unpack_params(t, 3, 2, kind), p_hat, ds, X, zp, link, mode)
                else:
                    theta = pack_params(B, rng.normal([2.5, 0.0], 0.2), kind)
                    f = lambda t: loglik_zadr_mixed(
                        *unpack_params(t, 3, 2, kind), p_hat, ds, X, zp, link, mode)
                ga = analytic_gradient(theta, ds, X, zp, link, mode)
                gf = finite_diff_gradient(f, theta)
                worst = max(worst, float(np.max(np.abs(ga - gf) / (1.0 + np.abs(ga)))))
    verdict(3, worst < 1e-6,
            f"analytic vs finite-difference gradients at 100 points, worst rel err = {worst:.2e}")


def test_criterion_4_transform_round_trip():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        D = int(rng.integers(3, 6))
        ref = int(rng.integers(0, D))
        y = rng.dirichlet(np.full(D, 2.0))
        y = np.maximum(y, 1e-6)
        y = y / y.sum()
        back = alr_inv(alr(y[None, :], ref), ref).values[0]
        worst = max(worst, float(np.max(np.abs(back - y))))
        z = rng.normal(size=D - 1) * 3.0
        z_back = alr(alr_inv(z, ref).values, ref)[0]
        worst = max(worst, float(np.max(np.abs(z_back - z))))
    verdict(4, worst < 1e-12, f"alr round-trips over 1000 compositions, worst |err| = {worst:.2e}")


def test_criterion_5_sampler_moments():
    N = 100_000
    sets = [
        DirichletParams(3.0, np.array([1 / 3, 1 / 3, 1 / 3])),
        DirichletParams(15.889, np.array([0.6, 0.3, 0.1])),
        DirichletParams(0.9, np.array([0.05, 0.15, 0.8])),
    ]
    ok = True
    worst_z = 0.0
    for k, params in enumerate(sets):
        draws = sample(params, N, seed=100 + k)
        a = params.a_star
        mean_se = draws.std(axis=0, ddof=1) / math.sqrt(N)
        z_mean = np.max(np.abs(draws.mean(axis=0) - a) / mean_se)
        var_theory = a * (1.0 - a) / (params.phi + 1.0)
        sq_dev = (draws - a) ** 2
        var_se = sq_dev.std(axis=0, ddof=1) / math.sqrt(N)
        z_var = np.max(np.abs(sq_dev.mean(axis=0) - var_theory) / var_se)
        worst_z = max(worst_z, float(z_mean), float(z_var))
        ok = ok and z_mean < 4.0 and z_var < 4.0
    # marginality: aggregated, renormalized subcomposition keeps Dirichlet means
    params = DirichletParams(8.0, np.array([0.45, 0.25, 0.2, 0.1]))
    C = [0, 2, 3]
    sub = sample(params, N, seed=222)[:, C]
    sub = sub / sub.sum(axis=1, keepdims=True)
    target = params.a_star[C] / params.a_star[C].sum()
    se = sub.std(axis=0, ddof=1) / math.sqrt(N)
    z_sub = float(np.max(np.abs(sub.mean(axis=0) - target) / se))
    worst_z = max(worst_z, z_sub)
    ok = ok and z_sub < 4.0
    verdict(5, ok, f"sampler moments and marginality at 1e5 draws, worst z = {worst_z:.2f}")


def test_criterion_6_parameter_recovery_mse():
    # reference MSE values for the three non-reference constants
    reference = {60: [0.059, 0.131, 0.125], 240: [0.014, 0.032, 0.028], 600: [0.013, 0.014, 0.014]}
    report = run_simulation_study(truth_model(), depth_design(), sizes=[60, 240, 600],
                                  reps=200, zero_fraction=1.0 / 6.0, seed=20260823)
    const_idx = [report.parameter_names.index(f"{c}:intercept") for c in COMPONENTS[1:]]
    ok = True
    lines = []
    prev = None
    for n in [60, 240, 600]:
        got = report.mse[n][const_idx]
        for g, target in zip(got, reference[n]):
            ok = ok and g <= 2.0 * target
            if n < 600:
                # the n=600 reference value contradicts the 1/n trend of the
                # smaller sizes, so only the upper bound is enforced there
                ok = ok and g >= 0.5 * target
        if prev is not None:
            ok = ok and bool(np.all(got < prev))
        prev = got
        lines.append(f"n={n}: " + "/".join(f"{g:.4f}" for g in got))
    verdict(6, ok, "constant-coefficient MSE vs reference values, " + "; ".join(lines))


def test_criterion_7_bootstrap_pvalue_mechanics():
    ok = abs(pvalue_from_replicates(np.zeros(99), 1.0) - 0.01) < 1e-15
    ok = ok and pvalue_from_replicates(np.full(99, 5.0), 1.0) == 1.0
    ds, X = simulate_dataset(n=30, seed=12, n_zero=5)
    _, final = fit(ds, X, SIMPLE_LINK)
    r1 = bootstrap_pvalue(final, ds, X, B=19, seed=9)
    r2 = bootstrap_pvalue(final, ds, X, B=19, seed=9)
    identical = (r1.pvalue == r2.pvalue
                 and np.array_equal(r1.replicate_stats, r2.replicate_stats))
    ok = ok and identical
    verdict(7, ok, f"exact p-value formula and seed-identical reruns (p = {r1.pvalue:.4f})")


def fit_in_batches(data, link):
    """`fit` of each (dataset, covariates, zero pattern) in `data` under
    `link`, or the error it raises, as `fit_batch` gives it on the stacked
    designs of batches of at most `_BATCH_CELLS` cells: the datasets share
    their size and number of zero-free rows."""
    results, prepared = [None] * len(data), []
    for k, (_, X, U) in enumerate(data):
        try:
            prepared.append((k, prepare_design(X, U, link, ZeroMode.RENORMALIZED)))
        except Exception as exc:
            results[k] = exc
    for part in _batches(len(prepared), data[0][2].size):
        ks, designs = zip(*prepared[part])
        values = np.stack([data[k][0].values for k in ks])
        names = data[0][0].component_names
        for k, fitted in zip(ks, fit_batch(values, stack_designs(designs), names)):
            results[k] = fitted
    return results


def test_criterion_8_lrt_calibration():
    model = truth_model()
    design = depth_design()
    n = 240
    reps = 500
    rng_master = np.random.SeedSequence(314159).spawn(reps)
    data = []
    for seed_seq in rng_master:
        rng = np.random.default_rng(seed_seq)
        rows = rng.integers(0, design.design.shape[0], size=n)
        X = make_design(design.design[rows, 1:], names=["logdepth"])
        U = np.ones((n, 4), dtype=np.int8)
        zero_rows = rng.choice(n, size=n // 6, replace=False)
        U[zero_rows, rng.integers(0, 4, size=n // 6)] = 0
        try:
            data.append((simulate_response(model, X, U, rng), X, U))
        except Exception:
            continue
    # Every zero row holds one zero, so the null datasets' designs stack.
    rejections = 0
    used = 0
    for simple, mixed in zip(fit_in_batches(data, SIMPLE_LINK), fit_in_batches(data, MIXED_LINK)):
        if isinstance(simple, Exception) or isinstance(mixed, Exception):
            continue
        try:
            stat, df, pvalue = lrt(simple[1], mixed[1])
        except Exception:
            continue
        used += 1
        if pvalue < 0.05:
            rejections += 1
    rate = rejections / used
    ok = used >= 450 and 0.02 <= rate <= 0.08
    verdict(8, ok, f"LRT nominal-5% rejection rate = {rate:.3f} over {used} null datasets")


def test_criterion_9_degenerate_zero_equivalence():
    ds, X = simulate_dataset(n=30, seed=12, n_zero=0)
    zp = zero_pattern(ds)
    p_ones = np.ones(ds.D)
    plain = loglik_simple(TRUE_B, TRUE_PHI, ds, X, SIMPLE_LINK)
    exact = all(
        loglik_zadr_simple(TRUE_B, TRUE_PHI, p_ones, ds, X, zp, SIMPLE_LINK, mode) == plain
        for mode in ZeroMode
    )
    initial, final = fit(ds, X, SIMPLE_LINK)
    T = diagnostic_T(initial, final).T
    coincide = float(np.max(np.abs(initial.parameter_vector() - final.parameter_vector())))
    ok = exact and T < 1e-8 and coincide < 1e-8
    verdict(9, ok,
            f"zero-free data: adjusted = plain exactly, T = {T:.2e}, "
            f"max fit gap = {coincide:.2e}")


@pytest.mark.skipif(not os.path.exists(FORAM_PATH),
                    reason="foraminiferal dataset not supplied")
def test_criterion_10_dataset_goldens():
    try:
        ds, X = read_csv(FORAM_PATH)
    except SchemaMismatch:
        import csv as _csv

        with open(FORAM_PATH, newline="") as fh:
            header = next(_csv.reader(fh))
        ds, X = read_csv(FORAM_PATH, components=header[:4], covariates=header[4:])
    initial_s, final_s = fit(ds, X, SIMPLE_LINK, ZeroMode.AS_WRITTEN)
    initial_m, final_m = fit(ds, X, MIXED_LINK, ZeroMode.AS_WRITTEN)
    T_s = diagnostic_T(initial_s, final_s).T
    T_m = diagnostic_T(initial_m, final_m).T
    est = np.concatenate([final_s.B.T.ravel(), [final_s.precision]])
    published = np.array([-1.225, -2.392, -2.298, 0.117, 0.087, -0.046, 15.889])
    point_err = float(np.max(np.abs(est[:6] - published[:6])))
    ok = (abs(final_s.loglik - 124.040) < 0.05
          and abs(final_m.loglik - 125.877) < 0.05
          and point_err < 0.02
          and abs(T_s - 0.850) < 0.05
          and abs(T_m - 0.743) < 0.05)
    verdict(10, ok,
            f"real-data goldens: loglik {final_s.loglik:.3f}/{final_m.loglik:.3f}, "
            f"T {T_s:.3f}/{T_m:.3f}, max point err {point_err:.3f}")
