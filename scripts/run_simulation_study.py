#!/usr/bin/env python3
"""Parameter-recovery MSE study for the simple zero-adjusted model.

Simulates datasets of increasing size from known coefficients (with 1/6 of
rows carrying one structural zero), refits each one, and reports the
per-coefficient mean squared error across all six sample sizes.
"""

import argparse

import numpy as np

from zadr.compositions import make_design
from zadr.dirichlet import ZeroMode
from zadr.inference import run_simulation_study
from zadr.model import FitStage, LinkSpec, ModelKind, ZadrModel

TRUE_B = np.array([
    [-1.225, 0.117],
    [-2.392, 0.087],
    [-2.298, -0.046],
])
TRUE_PHI = 15.889
COMPONENTS = ["Triloba", "Obesa", "Pachyderma", "Atlantica"]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="60,120,240,360,480,600")
    parser.add_argument("--reps", type=int, default=200)
    parser.add_argument("--zero-fraction", type=float, default=1.0 / 6.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="mse.csv")
    args = parser.parse_args()

    model = ZadrModel(
        B=TRUE_B, precision=TRUE_PHI, p_hat=np.ones(4), covariance=None,
        loglik=0.0, converged=True, stage=FitStage.FINAL,
        link=LinkSpec(ref_index=0, model_kind=ModelKind.SIMPLE),
        zero_mode=ZeroMode.RENORMALIZED, component_names=COMPONENTS,
        covariate_names=["intercept", "logdepth"],
    )
    design = make_design(np.log(np.arange(1, 31, dtype=float))[:, None], names=["logdepth"])
    sizes = [int(s) for s in args.sizes.split(",")]
    report = run_simulation_study(model, design, sizes=sizes, reps=args.reps,
                                  zero_fraction=args.zero_fraction, seed=args.seed)
    report.to_csv(args.out)

    width = max(len(name) for name in report.parameter_names)
    print(f"{'parameter':>{width}}  " + "  ".join(f"n={n:>4}" for n in sizes))
    for k, name in enumerate(report.parameter_names):
        cells = "  ".join(f"{report.mse[n][k]:6.4f}" for n in sizes)
        print(f"{name:>{width}}  {cells}")
    print(f"successes: " + ", ".join(f"n={n}: {report.successes[n]}/{args.reps}" for n in sizes))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
