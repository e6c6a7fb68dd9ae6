"""Spans and counters recorded around calls into zadr's public functions.

A `Tracer` patches each traced function where its caller looks it up (for
example `zadr.model.minimize`, not `zadr.numerics.minimize`) and restores
the originals on exit. Spans (name, parent, start, end) are kept in memory.
Very frequent calls (objective and gradient evaluations) are recorded as
leaf timings instead of spans: they add to a per-name count and total, and
to their enclosing span's child time, so self times stay exact.
"""

from __future__ import annotations

import warnings
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

import zadr.cli
import zadr.inference
import zadr.model

# (module, attribute, span name): where each public function is looked up.
SPAN_PATCHES = [
    (zadr.cli, "main", "cli.main"),
    (zadr.cli, "save_model", "cli.save_model"),
    (zadr.cli, "load_model", "cli.load_model"),
    (zadr.cli, "read_csv", "compositions.read_csv"),
    (zadr.model, "zero_pattern", "compositions.zero_pattern"),
    (zadr.inference, "zero_pattern", "compositions.zero_pattern"),
    (zadr.inference, "load_dataset", "compositions.load_dataset"),
    (zadr.cli, "fit", "model.fit"),
    (zadr.inference, "fit", "model.fit"),
    (zadr.cli, "diagnostic_T", "inference.diagnostic_T"),
    (zadr.inference, "diagnostic_T", "inference.diagnostic_T"),
    (zadr.inference, "simulate_response", "inference.simulate_response"),
    (zadr.cli, "run_simulation_study", "inference.run_simulation_study"),
]


@contextmanager
def _patched(replacements):
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in replacements]
    try:
        for mod, attr, new in replacements:
            setattr(mod, attr, new)
        yield
    finally:
        for mod, attr, old in saved:
            setattr(mod, attr, old)


@contextmanager
def count_pool_starts(counts: Counter):
    """Count process pools zadr.inference creates (in this process only)."""

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["inference.pool_starts"] += 1
            super().__init__(*args, **kwargs)

    with _patched([(zadr.inference, "ProcessPoolExecutor", CountingPool)]):
        yield


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.child_s: list[float] = []  # time covered by each span's children
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.leaf_s: defaultdict = defaultdict(float)
        self.last_minimize = None  # (objective, argmin) of the latest minimize call

    def _span(self, name, func, *args, **kwargs):
        idx, parent = len(self.spans), (self.stack[-1] if self.stack else -1)
        self.spans.append([name, parent, 0.0, 0.0])
        self.child_s.append(0.0)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.spans[idx][2:] = [t0, t1]
            if parent >= 0:
                self.child_s[parent] += t1 - t0

    def _leaf(self, name, func):
        def timed(*args):
            t0 = perf_counter()
            try:
                return func(*args)
            finally:
                dt = perf_counter() - t0
                self.counts[name] += 1
                self.leaf_s[name] += dt
                if self.stack:
                    self.child_s[self.stack[-1]] += dt
        return timed

    def _spanned(self, name, func):
        def wrapper(*args, **kwargs):
            return self._span(name, func, *args, **kwargs)
        return wrapper

    def _minimize(self, real):
        def minimize(objective, x0, gradient=None, opts=None):
            obj = self._leaf("numerics.objective", objective)
            grad = None if gradient is None else self._leaf("numerics.gradient", gradient)
            res = self._span("numerics.minimize", real, obj, x0, gradient=grad, opts=opts)
            self.counts["numerics.iterations"] += res.iterations
            self.counts[f"numerics.termination.{res.termination_reason.value}"] += 1
            self.last_minimize = (objective, res.argmin)
            return res
        return minimize

    def _bootstrap(self, name, real):
        def bootstrap(*args, **kwargs):
            res = self._span(name, real, *args, **kwargs)
            self.counts["inference.bootstrap_replicates"] += res.B + res.failures
            self.counts["inference.bootstrap_failures"] += res.failures
            return res
        return bootstrap

    def _hessian(self, real):
        def numerical_hessian(f, x):
            return self._span("numerics.hessian", real, self._leaf("numerics.hessian_objective", f), x)
        return numerical_hessian

    def _counted(self, name, func):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _warning_counter(self, show):
        def showwarning(message, category, *rest):
            if issubclass(category, RuntimeWarning) and any(
                    self.spans[i][0] == "model.fit" for i in self.stack):
                self.counts["model.runtime_warnings"] += 1
            else:
                show(message, category, *rest)
        return showwarning

    @contextmanager
    def active(self):
        """Install every wrapper; RuntimeWarnings inside fits are counted, not shown."""
        replacements = [(mod, attr, self._spanned(name, getattr(mod, attr)))
                        for mod, attr, name in SPAN_PATCHES]
        replacements += [
            (zadr.model, "minimize", self._minimize(zadr.model.minimize)),
            (zadr.model, "numerical_hessian", self._hessian(zadr.model.numerical_hessian)),
            (zadr.model, "binary_log_prob",
             self._counted("model.binary_log_prob", zadr.model.binary_log_prob)),
        ]
        replacements += [(zadr.cli, attr, self._bootstrap(f"inference.{attr}", getattr(zadr.cli, attr)))
                         for attr in ("bootstrap_pvalue", "bootstrap_bias")]
        with warnings.catch_warnings():
            warnings.simplefilter("always", RuntimeWarning)
            warnings.showwarning = self._warning_counter(warnings.showwarning)
            with _patched(replacements), count_pool_starts(self.counts):
                yield

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; leaf totals."""
        out: dict = {}
        for (name, _, t0, t1), child in zip(self.spans, self.child_s):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child
        for name, total in self.leaf_s.items():
            out[name] = {"calls": self.counts[name], "total_s": total, "self_s": total}
        return out

    def exact_counts(self) -> dict:
        """Counts that must repeat exactly for the same inputs and code."""
        counts = dict(self.counts)
        for name, row in self.summary().items():
            counts[f"{name}.calls"] = row["calls"]
        return dict(sorted(counts.items()))

    def records(self) -> list[dict]:
        return [{"name": n, "parent": p, "start": t0, "end": t1}
                for n, p, t0, t1 in self.spans]
