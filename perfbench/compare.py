"""Compare two sets of benchmark results (parent vs change).

Usage (from the repository root)::

    python3 perfbench/compare.py parent.jsonl change.jsonl
    python3 perfbench/compare.py runs.jsonl            # spread of one set

Each file holds the JSON lines ``run.py --out`` appends.  For every
workload and end-to-end metric the table shows each side's median and
quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With two files it flags
the change's median, using the metric's ``bound`` from ``BENCHMARK.json``:

* ``worse``      -- the median moved the wrong way by more than the bound;
* ``better``     -- the change won at least 9 of 10 seed-paired runs and the
  medians differ by more than the parent's own quartile distance;
* ``unresolved`` -- the parent's spread exceeds the bound, so "no worse"
  cannot be shown (unless every change run beats every parent run);
* ``unchanged``  -- otherwise.

Exit status 1 when any metric is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path, trace: int = 0) -> dict[str, dict[str, dict[int, float]]]:
    """workload -> metric -> seed -> value, for runs with ``trace``."""
    table: dict[str, dict[str, dict[int, float]]] = defaultdict(lambda: defaultdict(dict))
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("trace", 0) != trace:
            continue
        for name, metric in record["metrics"].items():
            table[record["workload"]][name][record["seed"]] = metric["value"]
    return table


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def verdict(parent: dict[int, float], change: dict[int, float], spec: dict) -> str:
    lower = spec["better"] == "lower"
    p_med, p_q1, p_q3, p_spread = summary(list(parent.values()))
    c_med = statistics.median(change.values())
    sign = 1.0 if lower else -1.0
    # positive = the change is worse, as a share of the parent's median
    worsening = sign * (c_med - p_med) / p_med if p_med else 0.0
    if worsening > spec["bound"]:
        return "worse"
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    if seeds and wins >= 0.9 * len(seeds) and abs(c_med - p_med) > p_q3 - p_q1:
        return "better"
    every_better = all(
        sign * (c - p) < 0 for c in change.values() for p in parent.values()
    )
    if p_spread > spec["bound"] and not every_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?")
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    specs = {m["name"]: m for m in json.loads(args.benchmark.read_text())["end_to_end"]}
    parent = load(args.parent)
    change = load(args.change) if args.change else None

    header = f"{'workload':18s} {'metric':22s} {'parent median [q1, q3]':>36s} {'spread':>7s}"
    if change is not None:
        header += f" {'change median [q1, q3]':>36s} {'spread':>7s}  verdict"
    print(header)
    worse = False
    for workload in sorted(parent):
        for name, spec in specs.items():
            if name not in parent[workload]:
                continue
            med, q1, q3, spread = summary(list(parent[workload][name].values()))
            row = f"{workload:18s} {name:22s} {med:12.6g} [{q1:10.6g}, {q3:10.6g}] {spread:7.1%}"
            if change is not None:
                theirs = change.get(workload, {}).get(name)
                if not theirs:
                    row += f" {'(no runs)':>36s}"
                else:
                    c_med, c_q1, c_q3, c_spread = summary(list(theirs.values()))
                    flag = verdict(parent[workload][name], theirs, spec)
                    worse = worse or flag == "worse"
                    row += (
                        f" {c_med:12.6g} [{c_q1:10.6g}, {c_q3:10.6g}] {c_spread:7.1%}  {flag}"
                    )
            print(row)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
