"""The three benchmark workloads, each driving the `zadr` CLI in process.

A workload writes its seeded inputs in `setup`, runs its timed commands in
`round` and checks their outputs in `check`. Rounds of one run use the same
inputs, so every round must produce identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import os
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import zadr.cli

import checks
import inputs

COMPONENTS_ARG = ",".join(inputs.COMPONENTS)


def run_cli(argv: list[str]) -> tuple[int, float, str]:
    """Call `zadr.cli.main` in process; returns (exit code, seconds, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        t0 = perf_counter()
        rc = zadr.cli.main([str(a) for a in argv])
        dt = perf_counter() - t0
    return rc, dt, buf.getvalue()


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _fit_argv(data, kind, seed, out) -> list:
    return ["fit", "--input", data, "--components", COMPONENTS_ARG, "--covariates",
            inputs.COVARIATE, "--kind", kind, "--seed", seed, "--out", out]


def _initial_path(out: Path) -> Path:
    return out.with_name(out.stem + ".initial.json")


class SetupError(RuntimeError):
    pass


class Workload:
    name = ""
    sizing: dict = {}
    ops_per_round = 1

    def __init__(self, work: Path, seed: int, tolerances: dict, reference: dict | None):
        self.work, self.seed, self.tol, self.ref = work, seed, tolerances, reference

    def _fit(self, data, kind, out: Path) -> None:
        rc, _, _ = run_cli(_fit_argv(data, kind, self.seed, out))
        if rc != 0:
            raise SetupError(f"setup fit {kind} of {data} exited {rc}")


class FitLarge(Workload):
    """`zadr fit --kind simple` then `--kind mixed`, both with covariance, on n=5000."""

    name = "fit-large"
    sizing = {"n": 5000, "zero_rows": 833, "kinds": ["simple", "mixed"]}
    ops_per_round = 2

    def setup(self) -> None:
        self.Y, self.X = inputs.simulate_rows(5000, 833, self.seed)
        self.data = self.work / "large.csv"
        inputs.write_dataset_csv(self.data, self.Y, self.X)
        # Warm-up: both model kinds once on a small dataset.
        Ys, Xs = inputs.simulate_rows(30, 5, self.seed)
        inputs.write_dataset_csv(self.work / "warm.csv", Ys, Xs)
        for kind in ("simple", "mixed"):
            self._fit(self.work / "warm.csv", kind, self.work / f"warm-{kind}.json")

    def round(self):
        times, outputs = {}, {}
        for kind in ("simple", "mixed"):
            out = self.work / f"{kind}.json"
            for stale in (out, _initial_path(out)):
                stale.unlink(missing_ok=True)
            rc, times[f"fit_{kind}_s"], _ = run_cli(_fit_argv(self.data, kind, self.seed, out))
            outputs[kind] = {"rc": rc}
            if out.exists():
                outputs[kind].update(final=_read_json(out), initial=_read_json(_initial_path(out)))
        return times, outputs

    def check(self, outputs) -> list[str]:
        errs = []
        for kind in ("simple", "mixed"):
            ref = None if self.ref is None else self.ref[kind]
            errs += checks.check_fit(kind, outputs[kind], self.Y, self.X, self.tol, ref)
        if errs:
            return errs
        return checks.check_nested(outputs["simple"]["final"], outputs["mixed"]["final"], self.tol)

    def reference(self, outputs) -> dict:
        return {kind: {"loglik": outputs[kind]["final"]["loglik"],
                       "params": checks.model_params(outputs[kind]["final"]).tolist(),
                       "se": checks.model_se(outputs[kind]["final"]).tolist()}
                for kind in ("simple", "mixed")}

    def probe_files(self):
        return self.data, self.work / "mixed.json"


class DiagnoseSmall(Workload):
    """`zadr diagnose --B 199 --bias` of a simple fit to 30 rows, 5 with a zero."""

    name = "diagnose-small"
    B = 199
    sizing = {"n": 30, "zero_rows": 5, "B": B, "bias": True}

    def setup(self) -> None:
        Y, X = inputs.simulate_rows(30, 5, self.seed)
        self.data = self.work / "small.csv"
        inputs.write_dataset_csv(self.data, Y, X)
        self.model_path = self.work / "model.json"
        self._fit(self.data, "simple", self.model_path)
        self.model = _read_json(self.model_path)
        self.initial = _read_json(_initial_path(self.model_path))

    def round(self):
        out = self.work / "diag.json"
        rc, dt, text = run_cli(["diagnose", "--input", self.data, "--model", self.model_path,
                                "--B", self.B, "--seed", self.seed, "--bias", "--out", out])
        result = {"rc": rc}
        if rc == 0:
            result.update(_parse_diagnose(text), json=_read_json(out))
        return {"diagnose_s": dt}, result

    def check(self, outputs) -> list[str]:
        return checks.check_diagnose(outputs, self.B, self.model, self.initial, self.tol, self.ref)

    def reference(self, outputs) -> dict:
        diag = outputs["json"]
        return {"T": diag["T"], "pvalue": diag["pvalue"], "bias": outputs["bias"]}

    def probe_files(self):
        return self.data, self.model_path


def _parse_diagnose(text: str) -> dict:
    """Pull T, p-value, replicate count and the bias table from diagnose's stdout."""
    out = {"estimates": [], "bias": []}
    in_table = False
    for line in text.splitlines():
        fields = line.split()
        if line.startswith("T = "):
            out["T"] = fields[2]
        elif line.startswith("replicates = "):
            out["replicates"] = int(fields[2])
        elif line.startswith("p-value = "):
            out["pvalue"] = fields[2]
        elif fields[:3] == ["parameter", "estimate", "bias"]:
            in_table = True
        elif in_table and len(fields) == 3:
            out["estimates"].append(float(fields[1]))
            out["bias"].append(float(fields[2]))
    return out


class SimulateMixed(Workload):
    """`zadr simulate` from a mixed-precision truth model at n = 60, 240, 600."""

    name = "simulate-mixed"
    sizes = [60, 240, 600]
    reps = 10
    zero_fraction = 1.0 / 6.0
    sizing = {"sizes": sizes, "reps": reps, "zero_fraction": "1/6",
              "gamma": inputs.TRUE_GAMMA.tolist(), "design_rows": 30}

    def setup(self) -> None:
        Y, X = inputs.simulate_rows(30, 5, self.seed, gamma=inputs.TRUE_GAMMA)
        self.design = self.work / "design.csv"
        inputs.write_dataset_csv(self.design, Y, X)
        self.truth = self.work / "truth.json"
        inputs.write_mixed_truth_json(self.truth, self.seed)
        # Warm-up: a tiny study kept in process.
        threads = os.environ["ZADR_THREADS"]
        os.environ["ZADR_THREADS"] = "1"
        try:
            rc, _, _ = run_cli(self._argv([30], 2, self.work / "warm.csv"))
        finally:
            os.environ["ZADR_THREADS"] = threads
        if rc != 0:
            raise SetupError(f"setup simulate exited {rc}")

    def _argv(self, sizes, reps, out) -> list:
        return ["simulate", "--model", self.truth, "--input", self.design,
                "--sizes", ",".join(map(str, sizes)), "--reps", reps,
                "--zero-fraction", repr(self.zero_fraction), "--seed", self.seed, "--out", out]

    def round(self):
        out = self.work / "mse.csv"
        rc, dt, _ = run_cli(self._argv(self.sizes, self.reps, out))
        result = {"rc": rc, "mse": {}, "successes": {}}
        if rc == 0:
            with open(out, newline="") as fh:
                for row in csv.DictReader(fh):
                    n = int(row["n"])
                    result["mse"].setdefault(n, []).append(float(row["MSE"]))
                    result["successes"][n] = int(row["successes"])
        return {"simulate_s": dt}, result

    def check(self, outputs) -> list[str]:
        m = len(checks.truth_params("mixed"))
        return checks.check_simulate(outputs, self.sizes, self.reps, m, self.tol, self.ref)

    def reference(self, outputs) -> dict:
        return {str(n): {"successes": outputs["successes"][n], "mse": outputs["mse"][n]}
                for n in self.sizes}

    def probe_files(self):
        path = self.work / "probe.csv"
        Y, X = inputs.simulate_rows(600, 100, self.seed, gamma=inputs.TRUE_GAMMA)
        inputs.write_dataset_csv(path, Y, X)
        return path, self.truth


WORKLOADS = {w.name: w for w in (FitLarge, DiagnoseSmall, SimulateMixed)}
