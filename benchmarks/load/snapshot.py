"""Counter snapshots of a booted cluster, taken through its public API only.

:func:`snapshot` is what the server child answers to ``stats`` and what the
traced run samples in-process; :func:`counters` flattens one snapshot into
the per-layer counts, summed over controllers, and :func:`delta` subtracts
two of them, so that every count is per measured window.
"""

from __future__ import annotations

import re
import resource
import time
from pathlib import Path
from typing import Dict

from workloads import VDB


def peak_rss_kb() -> int:
    """This process's own peak resident set, in kB.

    ``ru_maxrss`` survives ``exec``: a child forked from a 200 MB parent
    reports 200 MB however small it is, so the server child's figure would
    follow the generator's heap.  ``VmHWM`` belongs to the new image alone.
    """
    try:
        status = Path("/proc/self/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
    except (OSError, AttributeError):  # no procfs: the inherited figure is all there is
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def snapshot(cluster) -> dict:
    """Everything the benchmark reads off a live cluster, JSON-ready."""
    cpu_before = time.process_time()
    recovery: Dict[str, int] = {}
    cache_entries: Dict[str, int] = {}
    for controller in cluster.controllers_for(VDB):
        manager = cluster.virtual_database(VDB, controller.name).request_manager
        if manager.recovery_log is not None:
            recovery[controller.name] = len(manager.recovery_log)
        if manager.result_cache is not None:
            cache_entries[controller.name] = len(manager.result_cache)
    return {
        "cpu_before": cpu_before,
        "cluster": cluster.statistics(),
        "group": {
            controller: replica.group_status()
            for (controller, _vdb), replica in cluster.replicas.items()
        },
        "recovery_entries": recovery,
        "cache_entries": cache_entries,
        "rss_kb": peak_rss_kb(),
        # read last: the CPU this call itself burns must not land in a window
        "cpu_after": time.process_time(),
    }


def counters(snap: dict) -> dict:
    """Flatten one snapshot into summed counts (floats for seconds)."""
    flat = {
        "requests": 0,
        "reads": 0,
        "writes": 0,
        "read_wait_s": 0.0,
        "write_wait_s": 0.0,
        "cache_hits": 0,
        "cache_misses": 0,
        "cache_invalidations": 0,
        "parse_misses": 0,
        "net_requests": 0,
        "group_messages": 0,
        "recovery_entries": sum(snap["recovery_entries"].values()),
        "cache_entries": sum(snap["cache_entries"].values()),
        "cache_enabled": bool(snap["cache_entries"]),
        "backend_reads": {},
        "disabled_backends": [],
    }
    for controller, stats in snap["cluster"]["controllers"].items():
        vdb = stats["virtual_databases"][VDB]
        flat["requests"] += vdb["requests"]["total"]
        scheduler = vdb["scheduler"]
        flat["reads"] += scheduler["reads_scheduled"]
        flat["writes"] += scheduler["writes_scheduled"]
        flat["read_wait_s"] += scheduler["read_wait"]["total_seconds"]
        flat["write_wait_s"] += scheduler["write_wait"]["total_seconds"]
        cache = vdb.get("cache")
        if cache is not None:
            flat["cache_hits"] += cache["hits"]
            flat["cache_misses"] += cache["misses"]
            flat["cache_invalidations"] += cache["invalidations"]
        flat["parse_misses"] += vdb.get("parsing_cache", {}).get("misses", 0)
        flat["net_requests"] += stats.get("network", {}).get("requests", 0)
        for backend in vdb["backends"]:
            name = f"{controller}/{backend['name']}"
            flat["backend_reads"][name] = backend["total_reads"]
            if backend["state"].upper() != "ENABLED":
                flat["disabled_backends"].append(name)
    for status in snap["group"].values():
        flat["group_messages"] += status.get("transport", {}).get("messages_sent", 0)
    return flat


def delta(start: dict, end: dict) -> dict:
    """``end - start`` for every count; gauges and lists keep the end value."""
    out = {}
    for key, value in end.items():
        if isinstance(value, bool) or isinstance(value, list) or key == "cache_entries":
            out[key] = value
        elif isinstance(value, dict):
            out[key] = {name: count - start[key].get(name, 0) for name, count in value.items()}
        else:
            out[key] = value - start[key]
    return out
