"""Compare two result files of ``run.py --repeat K --out FILE``.

    python benchmarks/load/compare.py A.json B.json

One row per workload x end-to-end metric: both medians, the change of B
against A, the bound from ``BENCHMARK.json`` and a verdict.  A metric whose
own run-to-run spread (interquartile range over median, on either side) is
wider than its bound is ``unresolved`` — never ``unchanged`` — because the
runs cannot tell a change of that size from noise; so is one with fewer than
two runs a side.  Exits 1 when any metric is ``worse`` beyond its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(runs) -> float:
    """Interquartile range of ``runs`` as a share of their median."""
    q1, _, q3 = statistics.quantiles(runs, n=4)
    return (q3 - q1) / statistics.median(runs)


def verdict(entry_a: dict, entry_b: dict, metric: dict) -> tuple:
    """``(change, verdict)``; ``change`` > 0 means B is worse than A."""
    a, b = entry_a["value"], entry_b["value"]
    change = (b - a) / a if metric["better"] == "lower" else (a - b) / a
    runs_a, runs_b = entry_a["runs"], entry_b["runs"]
    if min(len(runs_a), len(runs_b)) < 2:
        return change, "unresolved (single run)"
    noise = max(spread(runs_a), spread(runs_b))
    if noise > metric["bound"]:
        return change, f"unresolved (spread {noise:.1%} > bound)"
    if change > metric["bound"]:
        return change, "worse"
    if change < -noise:
        return change, "better"
    return change, "unchanged"


def compare(document_a: dict, document_b: dict, spec: dict) -> list:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        side_a = document_a["workloads"].get(workload)
        side_b = document_b["workloads"].get(workload)
        if side_a is None or side_b is None:
            continue
        for metric in spec["end_to_end"]:
            entry_a = side_a["end_to_end"][metric["name"]]
            entry_b = side_b["end_to_end"][metric["name"]]
            change, outcome = verdict(entry_a, entry_b, metric)
            rows.append((workload, metric, entry_a, entry_b, change, outcome))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), spec)
    print(
        f"{'workload':18s} {'metric':22s} {'unit':5s} {'A':>10s} {'B':>10s}"
        f" {'B vs A':>8s} {'bound':>6s}  verdict   (+ = B worse)"
    )
    for workload, metric, entry_a, entry_b, change, outcome in rows:
        print(
            f"{workload:18s} {metric['name']:22s} {metric['unit']:5s}"
            f" {entry_a['value']:10.4g} {entry_b['value']:10.4g}"
            f" {change:+8.1%} {metric['bound']:6.0%}  {outcome}"
        )
    return 1 if any(outcome == "worse" for *_, outcome in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
