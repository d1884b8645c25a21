#!/usr/bin/env python3
"""Compare two sets of benchmark records written by ``run.py --out``.

    python3 perfbench/compare.py --base parent.jsonl --new change.jsonl

For each workload and end-to-end metric of ``BENCHMARK.json``: each
side's median and quartiles over its runs, the change in the median as a
share of the base, and a verdict against the metric's bound.  Refuses
(exit 1) when the records ran different kernel backends.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parent.parent


def load(paths: list[str]) -> list[dict]:
    records = []
    for path in paths:
        with open(path) as fh:
            records += [json.loads(line) for line in fh if line.strip()]
    return [r for r in records if not r["trace"]]


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Regressed past the bound, unresolved (base spread wider than it), or within."""
    q1, med, q3 = quartiles(base)
    sign = 1 if better == "lower" else -1
    if sign * (statistics.median(new) - med) / med > bound:
        return "regressed"
    every_run_better = max(sign * x for x in new) < min(sign * x for x in base)
    if (q3 - q1) / med > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)
    backends = {side: {r["env"]["backend"] for r in recs} for side, recs in
                (("base", base), ("new", new))}
    if len(backends["base"] | backends["new"]) != 1:
        print(f"refused: kernel backends differ: {backends}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for record_env in {json.dumps(r["env"], sort_keys=True) for r in base + new}:
        print(f"env: {record_env}")
    for workload in sorted({r["workload"] for r in base} & {r["workload"] for r in new}):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            b = [r["result"]["metrics"][name]["value"] for r in base if r["workload"] == workload]
            n = [r["result"]["metrics"][name]["value"] for r in new if r["workload"] == workload]
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / bq[1]
            print(
                f"{workload:<11}{name:<13} base {bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] n={len(b)}"
                f"  new {nq[1]:.4g} [{nq[0]:.4g}, {nq[2]:.4g}] n={len(n)}"
                f"  change {change:+.1%}  bound {bound:.0%}  {verdict(b, n, metric['better'], bound)}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
