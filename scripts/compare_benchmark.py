"""Compare the benchmark's end-to-end metrics between a parent checkout and this one.

Runs `perfbench/run.py --trace 0` in the parent checkout and in this one,
N pairs per workload, alternating which side runs first, with one seed per
pair that both sides share. For each end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the pairs the change wins and
whether a gain may be claimed: at least ten pairs ran, the change wins at
least nine tenths of them (ties count for neither), and the medians differ,
in the metric's better direction, by more than the parent's quartile spread.
Every run must pass the benchmark's correctness gate.

    python scripts/compare_benchmark.py --parent ../zadr-parent \\
        --workload diagnose-small --pairs 10 --seeds 21-30 --seconds 30

The parent checkout is any other zadr tree, for example one made with
`git clone . ../zadr-parent && git -C ../zadr-parent checkout HEAD~1`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), interpolated between the
    sorted values as numpy's default percentile does."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs (parent[i] and change[i] ran as pair i):
    each side's quartiles, the change's wins, the parent's quartile spread,
    and whether the gain rule holds."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair, and at least one pair")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p_q, c_q = quartiles(parent), quartiles(change)
    spread = p_q[2] - p_q[0]
    pairs = len(parent)
    return {
        "parent": p_q, "change": c_q, "wins": wins, "pairs": pairs, "spread": spread,
        "gain": (pairs >= MIN_PAIRS and wins >= WIN_SHARE * pairs
                 and sign * (p_q[1] - c_q[1]) > spread),
    }


def format_summary(name: str, s: dict) -> str:
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"

    change = (s["change"][1] - s["parent"][1]) / s["parent"][1] if s["parent"][1] else 0.0
    return (f"{name:12s} parent {side(s['parent']):30s} change {side(s['change']):30s} "
            f"{change:+7.1%}  wins {s['wins']}/{s['pairs']}  spread {s['spread']:.4g}  "
            f"gain {'holds' if s['gain'] else 'not shown'}")


def parse_seeds(text: str) -> list[int]:
    """"21-30" or "1,2,5" as a list of seeds."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values of one untraced benchmark run in `checkout`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{checkout} {workload} seed {seed} failed:\n"
                           f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seeds", type=parse_seeds, default=[1], help='e.g. "21-30" or "1,4"')
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    metrics = [(m["name"], m["better"]) for m in bench["end_to_end"]]
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            seed = args.seeds[i % len(args.seeds)]
            order = [("parent", args.parent), ("change", ROOT)]
            for side, checkout in order if i % 2 == 0 else order[::-1]:
                runs[side].append(run_once(checkout.resolve(), workload, seed, args.seconds))
        print(f"{workload}: {args.pairs} pairs, seeds {args.seeds}, {args.seconds:g} s each, "
              f"parent first in even pairs")
        for name, better in metrics:
            print("  " + format_summary(name, summarize([r[name] for r in runs["parent"]],
                                                         [r[name] for r in runs["change"]],
                                                         better)))
        for side in runs:
            values = " ".join(f"{r['command_s']:.4g}" for r in runs[side])
            print(f"  {side} command_s by pair: {values}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
