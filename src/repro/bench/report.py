"""Render experiment results in the same shape as the paper's figures/table."""

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

PAPER_RUBIS_TABLE = {
    "none": {"throughput": 3892, "response_ms": 801, "db_cpu": 1.00, "controller_cpu": 0.0},
    "coherent": {"throughput": 4184, "response_ms": 284, "db_cpu": 0.85, "controller_cpu": 0.15},
    "relaxed": {"throughput": 4215, "response_ms": 134, "db_cpu": 0.20, "controller_cpu": 0.07},
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


def format_rubis_table(results: Dict[str, SimulationResult]) -> str:
    """Table 1 layout: one column per cache configuration."""
    order = ("none", "coherent", "relaxed")
    headers = {"none": "No cache", "coherent": "Coherent cache", "relaxed": "Relaxed cache"}
    lines = [
        "RUBiS bidding mix with 450 clients (single backend)",
        f"{'':28}" + "".join(f"{headers[k]:>18}" for k in order if k in results),
    ]

    def row(label: str, fmt: str, getter) -> str:
        cells = "".join(
            f"{fmt.format(getter(results[k])):>18}" for k in order if k in results
        )
        return f"{label:28}" + cells

    lines.append(row("Throughput (rq/min)", "{:.0f}", lambda r: r.sql_requests_per_minute))
    lines.append(row("Avg response time (ms)", "{:.0f}", lambda r: r.avg_response_time_ms))
    lines.append(row("Database CPU load", "{:.0%}", lambda r: r.backend_cpu_utilization))
    lines.append(row("C-JDBC CPU load", "{:.0%}", lambda r: r.controller_cpu_utilization))
    lines.append(row("Cache hit ratio", "{:.0%}", lambda r: r.cache_hit_ratio))
    lines.append("")
    lines.append(
        "paper: throughput 3892/4184/4215 rq/min, response 801/284/134 ms, "
        "database CPU 100%/85%/20%, C-JDBC CPU -/15%/7%"
    )
    return "\n".join(lines)
