#!/usr/bin/env python3
"""End-to-end diagnostic walkthrough on a dataset CSV.

Fits the simple and mixed zero-adjusted models, prints estimates, the
zero-effect diagnostic T with its parametric-bootstrap p-value, bootstrap
bias, and the simple-vs-mixed likelihood-ratio test. Run
scripts/make_example_data.py first if you have no dataset at hand.
"""

import argparse

from zadr.compositions import read_csv
from zadr.inference import bootstrap_pvalue, diagnostic_T, fit_metrics, lrt
from zadr.model import LinkSpec, ModelKind, fit, fitted_values


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", default="example_data.csv")
    parser.add_argument("--components", default="Triloba,Obesa,Pachyderma,Atlantica")
    parser.add_argument("--covariates", default="logdepth")
    parser.add_argument("--B", type=int, default=299)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    ds, X = read_csv(args.input, components=args.components.split(","),
                     covariates=args.covariates.split(","))

    results = {}
    for kind in (ModelKind.SIMPLE, ModelKind.MIXED):
        link = LinkSpec(ref_index=0, model_kind=kind)
        initial, final = fit(ds, X, link)
        diag = diagnostic_T(initial, final)
        boot = bootstrap_pvalue(final, ds, X, B=args.B, seed=args.seed, t_observed=diag.T)
        print(f"\n== {kind.value} model ==")
        for name, est in zip(final.parameter_names(), final.parameter_vector()):
            print(f"  {name:>24} {est:10.3f}")
        print(f"  log-likelihood {final.loglik:.3f}  converged {final.converged}")
        print(f"  T = {diag.T:.3f}  p-value = {boot.pvalue:.4f} "
              f"({boot.B} replicates, {boot.failures} failures)")
        worst = max(abs(b) for b in boot.bias)
        print(f"  max |bootstrap bias| = {worst:.3f}")
        metrics = fit_metrics(ds, fitted_values(final, X))
        print(f"  KL = {metrics.kl:.3f}  L2 = {metrics.l2:.3f}")
        results[kind] = final

    stat, df, pvalue = lrt(results[ModelKind.SIMPLE], results[ModelKind.MIXED])
    print(f"\nLRT simple vs mixed: stat = {stat:.3f}, df = {df}, p = {pvalue:.4f}")


if __name__ == "__main__":
    main()
