"""Render experiment results in the same shape as the paper's figures."""

from __future__ import annotations

from typing import Dict, List

from repro.simulation.cluster import SimulationResult

#: values reported by the paper, used for side-by-side comparison in the
#: benchmark output and in EXPERIMENTS.md
PAPER_TPCW_THROUGHPUT = {
    "browsing": {"single": 129, "full_6": 628, "partial_6": 785, "full_speedup": 4.9},
    "shopping": {"single": 235, "full_6": 1188, "partial_6": 1367, "full_speedup": 5.05},
    "ordering": {"single": 495, "full_6": 2623, "partial_6": 2839, "full_speedup": 5.3},
}


def format_scalability_table(
    mix_name: str, series: Dict[str, List[SimulationResult]]
) -> str:
    """Figure 10/11/12 as a text table: throughput per backend count."""
    lines = [
        f"TPC-W {mix_name} mix — maximum throughput (SQL requests/minute)",
        f"{'backends':>8} | {'single DB':>10} | {'full repl.':>10} | {'partial repl.':>13}",
        "-" * 52,
    ]
    single = series["single"][0].sql_requests_per_minute if series.get("single") else 0.0
    by_backend = {}
    for replication in ("full", "partial"):
        for result in series.get(replication, []):
            by_backend.setdefault(result.backends, {})[replication] = result
    for backends in sorted(by_backend):
        row = by_backend[backends]
        single_cell = f"{single:10.0f}" if backends == 1 else " " * 10
        full_cell = (
            f"{row['full'].sql_requests_per_minute:10.0f}" if "full" in row else " " * 10
        )
        partial_cell = (
            f"{row['partial'].sql_requests_per_minute:13.0f}" if "partial" in row else " " * 13
        )
        lines.append(f"{backends:>8} | {single_cell} | {full_cell} | {partial_cell}")
    paper = PAPER_TPCW_THROUGHPUT.get(mix_name, {})
    if paper and series.get("full") and series.get("partial"):
        measured_full = series["full"][-1].sql_requests_per_minute
        measured_partial = series["partial"][-1].sql_requests_per_minute
        lines.append("")
        lines.append(
            "paper @6 backends: "
            f"single={paper['single']}, full={paper['full_6']}, partial={paper['partial_6']} "
            f"(full speedup {paper['full_speedup']}x)"
        )
        lines.append(
            "measured speedups: "
            f"full={measured_full / single:.2f}x, partial={measured_partial / single:.2f}x, "
            f"partial/full={measured_partial / measured_full:.2f}"
        )
    return "\n".join(lines)
