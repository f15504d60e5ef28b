"""Disposable clusters for the chaos, isolation and bench suites.

Every suite that needs a live cluster stands it up the way a deployment
does (paper §2.2): it writes a descriptor and boots it through
:class:`repro.cluster.facade.Cluster`.  :func:`descriptor` builds the
one-virtual-database document those suites share — a unique label per
call, so controller and group names never collide across scenarios or test
sessions — and :func:`boot` boots it into a private controller registry,
keeping the suite's controllers out of the process-wide one.

The replica invariants the suites assert live here too, so there is one
definition of each: :func:`table_digests` / :func:`digest_mismatches`
(replica convergence) and :func:`check_acked` (no acknowledged write lost).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from typing import Callable, Dict, List, Mapping

from repro.cluster.facade import Cluster
from repro.cluster.registry import ControllerRegistry
from repro.sql.engine import DatabaseEngine
from repro.sql.metadata import DatabaseMetaData

#: distinguishes fixture cluster names across scenarios and test sessions
_LABELS = itertools.count(1)


def descriptor(
    prefix: str, backends: int, controllers: int = 1, listen: bool = False, **vdb_keys
) -> dict:
    """A one-vdb cluster document named ``<prefix><n>`` (also the vdb's name).

    Backends are ``b0..b<backends-1>``.  A single controller carries the
    cluster's name; several are ``<name>-a``, ``<name>-b``, ... and all host
    the vdb — sharing it, or each with a private replica of it when
    ``vdb_keys`` has a ``group_name``.  ``listen`` gives every controller a
    TCP front-end on an ephemeral port (``Cluster.start_servers`` binds it).
    """
    label = f"{prefix}{next(_LABELS)}"
    names = [label] if controllers == 1 else [
        f"{label}-{chr(97 + index)}" for index in range(controllers)
    ]
    return {
        "name": label,
        "virtual_databases": [
            {"name": label, "backends": [f"b{i}" for i in range(backends)], **vdb_keys}
        ],
        "controllers": [
            {"name": name, **({"listen": {"port": 0}} if listen else {})} for name in names
        ],
    }


def boot(document: Mapping, **cluster_options) -> Cluster:
    """Boot ``document`` into a private controller registry."""
    return Cluster(document, registry=ControllerRegistry(), **cluster_options)


def seed_kv(execute: Callable, rows: int, table: str = "kv") -> Dict[int, str]:
    """Create ``table (k, v)`` with ``rows`` seed rows; returns what it wrote."""
    execute(f"CREATE TABLE {table} (k INT PRIMARY KEY, v VARCHAR(40))")
    seeded = {key: f"seed-{key}" for key in range(rows)}
    for key, value in seeded.items():
        execute(f"INSERT INTO {table} (k, v) VALUES (?, ?)", (key, value))
    return seeded


def wait_until(predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


def table_digests(engine: DatabaseEngine) -> Dict[str, str]:
    """Order-independent per-table content digest of one engine."""
    digests: Dict[str, str] = {}
    for table in sorted(DatabaseMetaData(engine).get_table_names()):
        rows = engine.dump_table_rows(table)
        canonical = sorted(
            json.dumps(row, sort_keys=True, default=str) for row in rows
        )
        digests[table] = hashlib.sha256("\n".join(canonical).encode()).hexdigest()
    return digests


def digest_mismatches(engines: Mapping[str, DatabaseEngine]) -> List[str]:
    """Human-readable divergences between the given engines (empty = equal)."""
    if len(engines) < 2:
        return []
    names = sorted(engines)
    reference_name = names[0]
    reference = table_digests(engines[reference_name])
    problems: List[str] = []
    for name in names[1:]:
        digests = table_digests(engines[name])
        tables = set(reference) | set(digests)
        for table in sorted(tables):
            if reference.get(table) != digests.get(table):
                problems.append(
                    f"table {table!r} diverged between {reference_name!r} and {name!r}"
                )
    return problems


def check_acked(
    engines: Mapping[str, DatabaseEngine], acked: Mapping[int, str], violations: List[str]
) -> None:
    """Every acknowledged ``kv`` write must be visible on every given engine."""
    for name, engine in engines.items():
        rows = {row["k"]: row["v"] for row in engine.dump_table_rows("kv")}
        for key, value in sorted(acked.items()):
            if rows.get(key) != value:
                violations.append(
                    f"committed write k={key} (v={value!r}) lost on engine"
                    f" {name!r} (found {rows.get(key)!r})"
                )
