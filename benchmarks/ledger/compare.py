"""Repeatability helper: compare two sets of runs of the ledger.

    python3 benchmarks/ledger/run.py compare A.json B.json

Each file is what ``run.py --all --repeat N --out FILE`` writes.  For
every workload x end-to-end metric the table shows both medians with
their quartiles, each set's spread (interquartile distance as a share
of its median), the relative gap of B against A in the direction that
is worse, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``ok`` — B is no worse than A by more than the bound;
* ``regressed`` — it is;
* ``unresolved`` — a set's own spread exceeds the bound, so the gap
  cannot be told from noise (never read this as "unchanged").

Exits non-zero unless every row is ``ok``.
"""

from __future__ import annotations

import json
import statistics
import sys

import harness


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4)
    return first, median, third


def load(path: str) -> dict:
    """``{workload: {metric: [values]}}`` of the correct runs."""
    with open(path) as handle:
        runs = json.load(handle)["runs"]
    table: dict = {}
    for run in runs:
        if not run["correct"] or run["failed"]:
            raise SystemExit(f"{path}: a {run['workload']} run failed "
                             f"its checks; fix that before comparing")
        for name, entry in run["metrics"].items():
            table.setdefault(run["workload"], {}).setdefault(
                name, []).append(entry["value"])
    return table


def main(argv) -> int:
    if len(argv) != 2:
        raise SystemExit(__doc__)
    first, second = load(argv[0]), load(argv[1])
    metrics = harness.declared()["end_to_end"]
    print(f"{'workload':24s} {'metric':17s} {'A q1/median/q3':>32s} "
          f"{'B q1/median/q3':>32s} {'spreadA':>8s} {'spreadB':>8s} "
          f"{'gap':>8s} {'bound':>6s}  verdict")
    clean = True
    for workload in first:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            a = quartiles(first[workload][name])
            b = quartiles(second[workload][name])
            spread_a = (a[2] - a[0]) / a[1]
            spread_b = (b[2] - b[0]) / b[1]
            gap = (b[1] - a[1]) / a[1]
            if metric["better"] == "higher":
                gap = -gap
            # set-up time is checked on its medians only: it is a
            # single sample per run, so its spread is not a gate
            noisy = name != "setup_s" and max(spread_a, spread_b) > bound
            verdict = ("regressed" if gap > bound
                       else "unresolved" if noisy else "ok")
            clean = clean and verdict == "ok"
            print(f"{workload:24s} {name:17s} "
                  f"{a[0]:10.4f}/{a[1]:10.4f}/{a[2]:10.4f} "
                  f"{b[0]:10.4f}/{b[1]:10.4f}/{b[2]:10.4f} "
                  f"{spread_a:8.2%} {spread_b:8.2%} {gap:+8.2%} "
                  f"{bound:6.0%}  {verdict}")
    return 0 if clean else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
