"""Record reference outputs for the correctness gate into reference.json.

    python3 perfbench/record_reference.py --workload fit-large --seeds 1-20

Run it on the commit whose outputs are the reference. Each seed's inputs go
through one round of the workload; the outputs must pass the gate's
seed-independent checks before they are stored. Existing entries for other
seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["fit-large", "diagnose-small", "simulate-mixed"])
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range such as 1-20")
    args = parser.parse_args()

    run._import_zadr()
    os.environ["ZADR_THREADS"] = str(run._nproc())
    from workloads import WORKLOADS

    path = run.HERE / "reference.json"
    with open(path) as fh:
        doc = json.load(fh)
    table = doc["workloads"].setdefault(args.workload, {})
    for seed in _seeds(args.seeds):
        work = run.WORK_ROOT / f"{args.workload}-{seed}"
        work.mkdir(parents=True, exist_ok=True)
        wl = WORKLOADS[args.workload](work, seed, doc["tolerances"], None)
        wl.setup()
        _, outputs = wl.round()
        errs = wl.check(outputs)
        if errs:
            print(f"seed {seed}: not recorded: {errs}", file=sys.stderr)
            continue
        table[str(seed)] = wl.reference(outputs)
        print(f"seed {seed}: recorded", flush=True)
    doc["workloads"][args.workload] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(path, "w") as fh:
        fh.write(dumps(doc))
    return 0


def dumps(doc: dict) -> str:
    """reference.json with one line per tolerance and per recorded seed."""
    lines = ['{', '  "tolerances": {']
    lines += [f'    {json.dumps(k)}: {json.dumps(v)},' for k, v in doc["tolerances"].items()]
    lines[-1] = lines[-1].rstrip(",")
    lines += ['  },', '  "workloads": {']
    for name, table in doc["workloads"].items():
        lines.append(f'    {json.dumps(name)}: {{')
        lines += [f'      {json.dumps(seed)}: {json.dumps(entry)},' for seed, entry in table.items()]
        lines[-1] = lines[-1].rstrip(",")
        lines.append('    },')
    lines[-1] = lines[-1].rstrip(",")
    lines += ['  }', '}']
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
