"""Command-line front end.

Subcommands: fit, predict, diagnose, simulate, plot. Exit codes are a
stable contract: 0 success, 1 I/O error, 2 validation/schema error,
3 fit did not converge (outputs are still written). `diagnose` reads the
two stage files that `fit` wrote and refits only bootstrap replicates.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import replace

import numpy as np

from .compositions import make_design, read_covariates, read_csv
from .dirichlet import ZeroMode
from .errors import SchemaMismatch, TernaryRequiresThree, ZadrError
from .inference import (
    MIN_REPLICATES,
    bootstrap_bias,  # noqa: F401  perfbench/tracing.py patches zadr.cli.bootstrap_bias by name
    bootstrap_pvalue,
    diagnostic_T,
    fit_metrics,
    run_simulation_study,
    save_diagnostic,
)
from .model import (
    FitOptions,
    LinkSpec,
    ModelKind,
    ZadrModel,
    check_fitted_to,
    fit,
    fit_aitchison,
    fitted_values,
    load_model,
    save_model,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_VALIDATION = 2
EXIT_NOT_CONVERGED = 3


def _fmt(x: float) -> str:
    """Shortest-round-trip decimal representation."""
    return repr(float(x))


def _split_csv_list(text: str | None) -> list[str] | None:
    if text is None:
        return None
    return [item.strip() for item in text.split(",") if item.strip()]


def _resolve_ref(components: list[str], ref: str | None) -> int:
    if ref is None:
        return 0
    if ref not in components:
        raise ZadrError(f"reference component {ref!r} not among {components}")
    return components.index(ref)


def _print_estimate_table(model: ZadrModel, out=None) -> None:
    """Constant/slope rows per non-reference component, then the precision."""
    if out is None:
        out = sys.stdout
    q = len(model.covariate_names)
    se = None
    if model.covariance is not None:
        se = np.sqrt(np.maximum(np.diag(model.covariance), 0.0))
    comp = [c for j, c in enumerate(model.component_names) if j != model.link.ref_index]
    header = ["Response"] + [model.covariate_names[0].capitalize()] + model.covariate_names[1:]
    print("  ".join(f"{h:>16}" for h in header), file=out)

    def cell(value, idx):
        if se is None:
            return f"{value:.3f}"
        return f"{value:.3f} ({se[idx]:.3f})"

    for i, name in enumerate(comp):
        cells = [cell(model.B[i, k], i * q + k) for k in range(q)]
        print("  ".join([f"{name:>16}"] + [f"{c:>16}" for c in cells]), file=out)
    if model.kind is ModelKind.SIMPLE:
        print("  ".join([f"{'phi':>16}", f"{cell(model.precision, model.B.size):>16}"]), file=out)
    elif model.kind is ModelKind.MIXED:
        cells = [cell(model.precision[k], model.B.size + k) for k in range(q)]
        print("  ".join([f"{'phi':>16}"] + [f"{c:>16}" for c in cells]), file=out)


def _read_data(args):
    return read_csv(
        args.input,
        components=_split_csv_list(args.components),
        covariates=_split_csv_list(getattr(args, "covariates", None)),
    )


def cmd_fit(args) -> int:
    ds, X = _read_data(args)
    ref = _resolve_ref(ds.component_names, args.ref)

    if args.kind == "aitchison-ols":
        link = LinkSpec(ref_index=ref, model_kind=ModelKind.AITCHISON)
        model = fit_aitchison(ds, X, link, ZeroMode(args.zero_mode), args.seed)
        save_model(model, args.out)
        _print_estimate_table(model)
        return EXIT_OK

    kind = ModelKind(args.kind)
    link = LinkSpec(ref_index=ref, model_kind=kind)
    opts = FitOptions(zero_mode=ZeroMode(args.zero_mode), random_seed=args.seed)
    initial, final = fit(ds, X, link, opts)
    save_model(final, args.out)
    save_model(initial, _initial_path(args.out))
    _print_estimate_table(final)
    print(f"log-likelihood: {final.loglik:.3f}  converged: {final.converged}")
    return EXIT_OK if (initial.converged and final.converged) else EXIT_NOT_CONVERGED


def _initial_path(out_path: str) -> str:
    if out_path.endswith(".json"):
        return out_path[: -len(".json")] + ".initial.json"
    return out_path + ".initial"


def cmd_predict(args) -> int:
    model = load_model(args.model)
    X = read_covariates(args.input, model.covariate_names[1:])
    fitted = fitted_values(model, X)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fitted.component_names)
        for row in fitted.values:
            writer.writerow([_fmt(v) for v in row])
    return EXIT_OK


def cmd_diagnose(args) -> int:
    if args.B < MIN_REPLICATES:
        print(f"error: B must be >= {MIN_REPLICATES}", file=sys.stderr)
        return EXIT_VALIDATION
    final = load_model(args.model)
    if final.kind is ModelKind.AITCHISON:
        print("error: diagnose requires a simple or mixed ZADR model", file=sys.stderr)
        return EXIT_VALIDATION
    initial = load_model(_initial_path(args.model))
    ds, X = read_csv(args.input, components=final.component_names,
                     covariates=final.covariate_names[1:])
    check_fitted_to(initial, final, ds, X)
    diag = diagnostic_T(initial, final)
    boot = bootstrap_pvalue(final, ds, X, B=args.B, seed=args.seed, t_observed=diag.T)
    print(f"T = {diag.T:.3f}")
    causes = ", ".join(f"{name}: {count}" for name, count in boot.failure_causes.items())
    print(f"replicates = {boot.B}  failures = {boot.failures}" + (f" ({causes})" if causes else ""))
    print(f"p-value = {boot.pvalue:.4f}")
    if args.out:
        save_diagnostic(replace(diag, pvalue=boot.pvalue, B_reps=boot.B, seed=args.seed,
                                failures=boot.failures, failure_causes=boot.failure_causes),
                        args.out)
    if args.bias:
        print(f"{'parameter':>24}  {'estimate':>12}  {'bias':>12}")
        for name, est, b in zip(final.parameter_names(), final.parameter_vector(), boot.bias):
            print(f"{name:>24}  {est:12.3f}  {b:12.3f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    model = load_model(args.model)
    covariates = model.covariate_names[1:]
    if args.input:
        X = read_covariates(args.input, covariates)
    elif len(covariates) > 1:
        print(f"error: a model with {len(covariates)} covariates needs a design CSV; "
              "pass --input", file=sys.stderr)
        return EXIT_VALIDATION
    else:
        # Default design: log water depth 1..30 metres, or the intercept alone.
        depth = np.log(np.arange(1, 31, dtype=float))
        X = make_design(depth if covariates else np.empty((30, 0)), names=covariates)
    sizes = [int(s) for s in args.sizes.split(",")]
    report = run_simulation_study(model, X, sizes=sizes, reps=args.reps,
                                  zero_fraction=args.zero_fraction, seed=args.seed)
    report.to_csv(args.out)
    return EXIT_NOT_CONVERGED if 0 in report.successes.values() else EXIT_OK


_TRI_V = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])


def barycentric_xy(rows: np.ndarray) -> np.ndarray:
    """Project 3-part compositions onto the plane triangle."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[1] != 3:
        raise TernaryRequiresThree(f"ternary projection needs D=3, got D={rows.shape[1]}")
    return rows @ _TRI_V


def _svg_header(w, h):
    return (f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">')


def _ternary_svg(obs_xy, fit_xy, labels, path):
    w, h, pad = 520, 480, 40
    scale = w - 2 * pad

    def to_px(pt):
        return pad + pt[0] * scale, h - pad - pt[1] * scale

    parts = [_svg_header(w, h)]
    tri = [to_px(v) for v in _TRI_V]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in tri)
    parts.append(f'<polygon points="{pts}" fill="none" stroke="black"/>')
    corners = [(tri[0], labels[0], "end"), (tri[1], labels[1], "start"), (tri[2], labels[2], "middle")]
    for (x, y), label, anchor in corners:
        parts.append(f'<text x="{x:.2f}" y="{y + 16:.2f}" text-anchor="{anchor}" '
                     f'font-size="12">{label}</text>')
    for pt in obs_xy:
        x, y = to_px(pt)
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3" fill="steelblue"/>')
    if fit_xy is not None and len(fit_xy):
        pts = " ".join("{:.2f},{:.2f}".format(*to_px(pt)) for pt in fit_xy)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _bar_svg(observed, names, path):
    n, D = observed.shape
    w, h, pad = max(480, 12 * n + 80), 360, 40
    bar_w = (w - 2 * pad) / n
    palette = ["black", "crimson", "seagreen", "steelblue", "darkorange", "purple"]
    parts = [_svg_header(w, h)]
    for i in range(n):
        y0 = h - pad
        for j in range(D):
            seg = observed[i, j] * (h - 2 * pad)
            y0 -= seg
            color = palette[j % len(palette)]
            parts.append(f'<rect x="{pad + i * bar_w:.2f}" y="{y0:.2f}" '
                         f'width="{bar_w * 0.9:.2f}" height="{seg:.2f}" fill="{color}"/>')
    for j, name in enumerate(names):
        color = palette[j % len(palette)]
        parts.append(f'<text x="{pad + 80 * j}" y="{pad / 2:.2f}" fill="{color}" '
                     f'font-size="12">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    ds, X = _read_data(args)
    model = load_model(args.model) if args.model else None
    fitted = fitted_values(model, X) if model is not None else None

    if args.order_by:
        if args.order_by not in X.covariate_names:
            raise SchemaMismatch(f"--order-by column {args.order_by!r} not a covariate")
        order_vals = X.design[:, X.covariate_names.index(args.order_by)]
    else:
        order_vals = np.arange(ds.n, dtype=float)
    order = np.argsort(order_vals, kind="stable")

    if args.ternary:
        obs_xy = barycentric_xy(ds.values)
        fit_xy = barycentric_xy(fitted.values[order]) if fitted is not None else None
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kind", "x", "y"])
            for pt in obs_xy:
                writer.writerow(["observed", _fmt(pt[0]), _fmt(pt[1])])
            if fit_xy is not None:
                for pt in fit_xy:
                    writer.writerow(["fitted", _fmt(pt[0]), _fmt(pt[1])])
        if args.svg:
            _ternary_svg(obs_xy, fit_xy, ds.component_names, args.svg)
    else:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = ["row_id", args.order_by or "index"]
            header += [f"observed:{c}" for c in ds.component_names]
            if fitted is not None:
                header += [f"fitted:{c}" for c in ds.component_names]
            writer.writerow(header)
            for i in order:
                row = [ds.row_ids[i], _fmt(order_vals[i])]
                row += [_fmt(v) for v in ds.values[i]]
                if fitted is not None:
                    row += [_fmt(v) for v in fitted.values[i]]
                writer.writerow(row)
        if args.svg:
            _bar_svg(ds.values[order], ds.component_names, args.svg)

    if fitted is not None:
        metrics = fit_metrics(ds, fitted)
        print(f"KL = {metrics.kl:.3f}  L2 = {metrics.l2:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="zadr",
                                     description="Zero-adjusted Dirichlet regression toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_fit = sub.add_parser("fit", help="fit a model to a dataset CSV")
    p_fit.add_argument("--input", required=True)
    p_fit.add_argument("--components", help="comma-separated composition column names")
    p_fit.add_argument("--covariates", help="comma-separated covariate column names")
    p_fit.add_argument("--kind", choices=["simple", "mixed", "aitchison-ols"], default="simple")
    p_fit.add_argument("--ref", help="reference component name (default: first)")
    p_fit.add_argument("--zero-mode", choices=[m.value for m in ZeroMode],
                       default=ZeroMode.RENORMALIZED.value)
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--out", required=True)
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="write fitted compositions for a covariate CSV")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--input", required=True)
    p_pred.add_argument("--out", required=True)
    p_pred.set_defaults(func=cmd_predict)

    p_diag = sub.add_parser(
        "diagnose", help="zero-effect diagnostic with bootstrap p-value",
        description="Diagnose a saved fit: read --model and the <model>.initial.json next to "
                    "it and check both against --input. Exit 1 if a file is missing, exit 2 "
                    "(ModelDataMismatch) if they were fitted to other data.")
    p_diag.add_argument("--input", required=True)
    p_diag.add_argument("--model", required=True)
    p_diag.add_argument("--B", type=int, default=99)
    p_diag.add_argument("--seed", type=int, default=0)
    p_diag.add_argument("--bias", action="store_true")
    p_diag.add_argument("--out")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sim = sub.add_parser("simulate", help="parameter-recovery MSE study",
                           description="Parameter-recovery MSE study. Exit 3, with the CSV "
                                       "written, if a size has no successful replicate.")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--input", help="design CSV; required for two or more covariates "
                                       "(default: log-depth 1..30)")
    p_sim.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    p_sim.add_argument("--reps", type=int, required=True)
    p_sim.add_argument("--zero-fraction", type=float, default=1.0 / 6.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_plot = sub.add_parser("plot", help="emit plot-data CSV and optional SVG")
    p_plot.add_argument("--input", required=True)
    p_plot.add_argument("--components")
    p_plot.add_argument("--covariates")
    p_plot.add_argument("--model")
    p_plot.add_argument("--ternary", action="store_true")
    p_plot.add_argument("--order-by")
    p_plot.add_argument("--svg")
    p_plot.add_argument("--out", required=True)
    p_plot.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: cannot open {exc.filename}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ZadrError, ValueError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
