"""zadr's benchmark: one workload per run, checked, with end-to-end or per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fit-large --seed 1 --seconds 20 --trace 0

`--trace 0` repeats the workload's commands for `--seconds` seconds and
reports the end-to-end metrics (mean seconds of one round of commands,
set-up seconds, peak resident memory). `--trace 1` runs the commands once per
pass instead: two traced passes at ZADR_THREADS=1, whose exact counts must
agree, an untraced pass at ZADR_THREADS=1 and an untraced pass at nproc
workers, and reports the per-layer metrics. Every pass's outputs go through
the workload's correctness gate; any failure makes the run exit 1. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench"
SETUP_SAMPLES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-layer counts that must repeat exactly for the same seed and code.
EXACT = {
    "compositions.zero_pattern_calls", "model.fit_calls", "model.binary_log_prob_calls",
    "model.runtime_warnings", "numerics.minimize_calls", "numerics.iterations",
    "numerics.objective_evals", "numerics.gradient_evals", "numerics.hessian_calls",
    "numerics.hessian_objective_evals", "numerics.termination.GradientTol",
    "numerics.termination.FunctionTol", "numerics.termination.StepTol",
    "numerics.termination.MaxIter", "inference.bootstrap_replicates",
    "inference.bootstrap_failures", "inference.simulate_response_calls",
    "inference.pool_starts",
}


def _import_zadr():
    """Import zadr from this checkout's `src`, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "zadr" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'zadr'} not found; run from a zadr checkout")
    sys.path.insert(0, str(src))
    import zadr

    if Path(zadr.__file__).resolve().parent != (src / "zadr").resolve():
        sys.exit(f"error: imported zadr from {zadr.__file__}, not {src}")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _peak_rss_mb() -> float:
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def _load_reference(workload: str, seed: int):
    with open(HERE / "reference.json") as fh:
        doc = json.load(fh)
    return doc["tolerances"], doc["workloads"].get(workload, {}).get(str(seed))


def _make(name, seed, work):
    from workloads import WORKLOADS

    tol, ref = _load_reference(name, seed)
    return WORKLOADS[name](work, seed, tol, ref)


class Gate:
    """Counts operations attempted and failed, and keeps the failure messages."""

    def __init__(self, wl):
        self.wl, self.attempted, self.failed, self.errors = wl, 0, 0, []
        self.first = None

    def record(self, outputs) -> None:
        """Check one round's outputs; rounds after the first must repeat it exactly."""
        self.attempted += self.wl.ops_per_round
        if self.first is None:
            self.first = outputs
            errs = self.wl.check(outputs)
        else:
            errs = [] if outputs == self.first else ["outputs differ from the first round"]
        if errs:
            self.failed += self.wl.ops_per_round
            self.errors += errs

    def compare(self, outputs, what: str) -> None:
        """Another pass of the same inputs: outputs must equal the first round's."""
        self.attempted += self.wl.ops_per_round
        if outputs != self.first:
            self.failed += self.wl.ops_per_round
            self.errors.append(f"outputs differ under {what}")


def _time_setup(args) -> float:
    """Wall seconds of a fresh process that imports zadr, writes inputs and warms up."""
    t0 = perf_counter()
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-only",
                    "--workload", args.workload, "--seed", str(args.seed)],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def run_untraced(args, wl, env) -> tuple[dict, Gate]:
    gate = Gate(wl)
    rounds, parts = [], {}
    t_start = perf_counter()
    while True:
        times, outputs = wl.round()
        gate.record(outputs)
        rounds.append(sum(times.values()))
        for k, v in times.items():
            parts.setdefault(k, []).append(v)
        if perf_counter() - t_start >= args.seconds:
            break
    env["rounds"] = len(rounds)
    env["round_s"] = rounds
    env["round_median_s"] = statistics.median(rounds)
    env["parts_mean_s"] = {k: statistics.fmean(v) for k, v in parts.items()}
    # Rounds repeat identical work, so their spread is the machine's; with
    # four to six rounds the mean is the steadier estimate of one round.
    metrics = {
        "command_s": (statistics.fmean(rounds), "s"),
        "setup_s": (statistics.median(env["setup_samples_s"]), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    return metrics, gate


def _median_time(fn, min_calls=5, budget_s=0.5, max_calls=200) -> float:
    times = []
    t_end = perf_counter() + budget_s
    while len(times) < min_calls or (perf_counter() < t_end and len(times) < max_calls):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _probes(wl, tracer) -> dict:
    """Median seconds of one likelihood, gradient and Hessian at the workload's model."""
    import zadr.compositions as comp
    import zadr.model as model
    import zadr.numerics as numerics
    import inputs

    data, model_path = wl.probe_files()
    ds, X = comp.read_csv(data, components=inputs.COMPONENTS, covariates=[inputs.COVARIATE])
    m = model.load_model(model_path)
    zp = comp.zero_pattern(ds)
    p = comp.estimate_p(zp)
    loglik = model.loglik_zadr_simple if m.kind is model.ModelKind.SIMPLE else model.loglik_zadr_mixed
    theta = m.parameter_vector()
    objective, argmin = tracer.last_minimize
    return {
        "model.loglik_eval_s": _median_time(
            lambda: loglik(m.B, m.precision, p, ds, X, zp, m.link, m.zero_mode)),
        "model.gradient_eval_s": _median_time(
            lambda: model.analytic_gradient(theta, ds, X, zp, m.link, m.zero_mode)),
        "numerics.hessian_probe_s": _median_time(
            lambda: numerics.numerical_hessian(objective, argmin), min_calls=3),
    }


def _layer_metrics(tracers, probes, t_traced, t_one, t_n, nproc, pool_starts) -> dict:
    sums = [t.summary() for t in tracers]
    counts = tracers[0].counts

    def total(name, field="total_s"):
        return statistics.fmean(s.get(name, {}).get(field, 0.0) for s in sums)

    def calls(name):
        return sums[0].get(name, {}).get("calls", 0)

    inference_self = statistics.fmean(
        sum(row["self_s"] for name, row in s.items() if name.startswith("inference.")) for s in sums)
    covered = statistics.fmean(sum(row["self_s"] for row in s.values()) for s in sums)
    values = {
        "compositions.read_csv_s": total("compositions.read_csv"),
        "compositions.zero_pattern_calls": calls("compositions.zero_pattern"),
        "compositions.zero_pattern_s": total("compositions.zero_pattern"),
        "compositions.load_dataset_s": total("compositions.load_dataset"),
        "model.fit_calls": calls("model.fit"),
        "model.fit_s": total("model.fit"),
        "model.fit_self_s": total("model.fit", "self_s"),
        "model.binary_log_prob_calls": counts["model.binary_log_prob"],
        "model.loglik_eval_s": probes["model.loglik_eval_s"],
        "model.gradient_eval_s": probes["model.gradient_eval_s"],
        "model.runtime_warnings": counts["model.runtime_warnings"],
        "numerics.minimize_calls": calls("numerics.minimize"),
        "numerics.minimize_s": total("numerics.minimize"),
        "numerics.iterations": counts["numerics.iterations"],
        "numerics.objective_evals": counts["numerics.objective"],
        "numerics.gradient_evals": counts["numerics.gradient"],
        "numerics.objective_s": total("numerics.objective"),
        "numerics.gradient_s": total("numerics.gradient"),
        "numerics.optimizer_self_s": total("numerics.minimize", "self_s"),
        "numerics.hessian_calls": calls("numerics.hessian"),
        "numerics.hessian_objective_evals": counts["numerics.hessian_objective"],
        "numerics.hessian_s": total("numerics.hessian"),
        "numerics.hessian_probe_s": probes["numerics.hessian_probe_s"],
        **{f"numerics.termination.{r}": counts[f"numerics.termination.{r}"]
           for r in ("GradientTol", "FunctionTol", "StepTol", "MaxIter")},
        "inference.bootstrap_s": total("inference.bootstrap_pvalue") + total("inference.bootstrap_bias"),
        "inference.bootstrap_replicates": counts["inference.bootstrap_replicates"],
        "inference.bootstrap_failures": counts["inference.bootstrap_failures"],
        "inference.simulate_response_calls": calls("inference.simulate_response"),
        "inference.simulate_response_s": total("inference.simulate_response"),
        "inference.pool_starts": pool_starts,
        "inference.parallel_efficiency": t_one / (nproc * t_n),
        "inference.pool_overhead_s": t_n - t_one / nproc,
        "inference.self_s": inference_self,
        "cli.main_s": total("cli.main"),
        "cli.self_s": total("cli.main", "self_s"),
        "cli.save_model_s": total("cli.save_model"),
        "cli.load_model_s": total("cli.load_model"),
        "trace.overhead_s": t_traced - t_one,
        "trace.self_share": covered / t_traced,
    }
    return {k: (v, _unit(k)) for k, v in values.items()}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("inference.parallel_efficiency", "trace.self_share"):
        return "ratio"
    return "count"


def run_traced(wl, env, nproc) -> tuple[dict, Gate]:
    from collections import Counter

    from tracing import Tracer, count_pool_starts

    gate = Gate(wl)
    os.environ["ZADR_THREADS"] = "1"
    tracers, traced_s = [], []
    for _ in range(2):
        tracer = Tracer()
        with tracer.active():
            times, outputs = wl.round()
        tracers.append(tracer)
        traced_s.append(sum(times.values()))
        if gate.first is None:
            gate.record(outputs)
        else:
            gate.compare(outputs, "a second traced pass")
    if tracers[0].exact_counts() != tracers[1].exact_counts():
        gate.failed += 1
        gate.errors.append("exact counts differ between the two traced passes")
    times, outputs = wl.round()
    t_one = sum(times.values())
    gate.compare(outputs, "tracing off at ZADR_THREADS=1")
    os.environ["ZADR_THREADS"] = str(nproc)
    pools = Counter()
    with count_pool_starts(pools):
        times, outputs = wl.round()
    t_n = sum(times.values())
    gate.compare(outputs, f"ZADR_THREADS={nproc}")
    env["zadr_threads"] = {"traced": 1, "untraced": [1, nproc]}
    env["pass_s"] = {"traced": traced_s, "untraced_1": t_one, f"untraced_{nproc}": t_n}
    env["exact_counts"] = tracers[0].exact_counts()
    env["spans"] = tracers[0].records()
    probes = _probes(wl, tracers[0])
    metrics = _layer_metrics(tracers, probes, statistics.fmean(traced_s), t_one, t_n, nproc,
                             pools["inference.pool_starts"])
    return metrics, gate


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-large", "diagnose-small", "simulate-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_zadr()
    nproc = _nproc()
    os.environ["ZADR_THREADS"] = str(nproc)
    work = WORK_ROOT / f"{args.workload}-{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    if args.setup_only:
        _make(args.workload, args.seed, work).setup()
        return 0

    import numpy
    import scipy

    env = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "zadr_threads": nproc, "blas_env": {k: os.environ[k] for k in BLAS_VARS if k in os.environ},
    }
    wl = _make(args.workload, args.seed, work)
    env["sizing"] = wl.sizing
    env["reference_seed"] = wl.ref is not None
    if args.trace:
        wl.setup()
        metrics, gate = run_traced(wl, env, nproc)
    else:
        env["setup_samples_s"] = [_time_setup(args) for _ in range(SETUP_SAMPLES)]
        wl.setup()
        metrics, gate = run_untraced(args, wl, env)
    shutil.rmtree(work)

    env["errors"] = gate.errors
    with open(WORK_ROOT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"env": env, "metrics": metrics}, fh, indent=1)
    for name, (value, unit) in metrics.items():
        mark = " (exact)" if name in EXACT else ""
        print(f"{name:40s} {value:14.6g} {unit}{mark}")
    for err in gate.errors:
        print(f"FAILED: {err}")
    env.pop("spans", None)
    print("env " + json.dumps(env))
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if gate.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
