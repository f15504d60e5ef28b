"""Route plans: the explicit plan representation between parsing and balancing.

The planner's output is a :class:`RoutePlan` — a small, inspectable value
object describing *where* a request will execute and *why*:

* ``single``          — a co-located read: one backend out of the capable
  candidate set executes it (chosen per execution from live cost estimates
  or by the configured read policy);
* ``scatter_gather``  — a multi-table read spanning disjoint RAIDb-2
  partitions: per-table fragments fan out to the cheapest host of each
  table and a merge operator (union / ordered merge / aggregate
  recombination) recombines them;
* ``broadcast``       — a write: the minimal set of backends hosting the
  written tables.

Plans carry their per-candidate cost estimates so ``explain`` output (the
console command and the driver-level ``EXPLAIN ROUTE`` prefix) can show the
decision, not just the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: plan kinds
SINGLE = "single"
SCATTER_GATHER = "scatter_gather"
BROADCAST = "broadcast"

#: merge strategies for scatter-gather plans
MERGE_UNION = "union"
MERGE_ORDERED = "ordered_merge"
MERGE_AGGREGATE = "aggregate_recombination"

#: statement classes used for per-backend service-time tracking; few and
#: coarse, because the live EWMA needs enough samples per bucket to converge
#: quickly
READ_SIMPLE = "read_simple"
READ_COMPLEX = "read_complex"
WRITE = "write"
BATCH = "batch"

STATEMENT_CLASSES = (READ_SIMPLE, READ_COMPLEX, WRITE, BATCH)


@dataclass(frozen=True)
class CandidateCost:
    """One backend's estimated cost of serving the planned statement."""

    backend_name: str
    #: combined cost (seconds, service time inflated by queue/pool pressure)
    cost: float
    #: estimated service time for the statement class (seconds)
    service_time: float
    #: pending requests on the backend when the plan was built
    pending: int
    #: connection-pool pressure in [0, 1] (0 = idle pool, 1 = exhausted)
    pool_pressure: float
    #: "ewma" when the estimate comes from measured service times,
    #: "seed" when it is still the cost-model prior
    source: str

    def describe(self) -> str:
        return (
            f"cost={self.cost * 1000.0:.4f}ms"
            f" service={self.service_time * 1000.0:.4f}ms"
            f" pending={self.pending}"
            f" pool={self.pool_pressure:.2f}"
            f" [{self.source}]"
        )


@dataclass(frozen=True)
class Fragment:
    """One scatter leg: a per-table sub-select bound to a backend."""

    backend_name: str
    table: str
    sql: str


@dataclass
class RoutePlan:
    """Where one request executes, and the estimates behind the decision."""

    kind: str                              # single | scatter_gather | broadcast
    category: str                          # read | write | batch
    policy: str                            # cost | policy
    tables: Tuple[str, ...]
    #: capable candidates (single), scatter hosts, or broadcast targets
    backend_names: Tuple[str, ...]
    statement_class: str
    #: per-candidate estimates, sorted cheapest first (always populated so
    #: explain can audit the decision even in policy mode)
    candidates: Tuple[CandidateCost, ...] = ()
    #: merge operator for scatter-gather plans
    merge: Optional[str] = None
    fragments: Tuple[Fragment, ...] = ()
    #: cheapest candidate now, or None when the read policy decides per
    #: execution (policy mode) / the plan broadcasts
    chosen: Optional[str] = None
    reason: str = ""
    #: planner version the plan was built against (cache invalidation token)
    version: int = 0
    _name_set: Optional[frozenset] = field(default=None, repr=False, compare=False)

    @property
    def backend_name_set(self) -> frozenset:
        names = self._name_set
        if names is None:
            names = frozenset(self.backend_names)
            self._name_set = names
        return names

    def as_dict(self) -> dict:
        document = {
            "kind": self.kind,
            "category": self.category,
            "policy": self.policy,
            "tables": list(self.tables),
            "backends": list(self.backend_names),
            "statement_class": self.statement_class,
            "chosen": self.chosen,
            "reason": self.reason,
            "candidates": [
                {
                    "backend": candidate.backend_name,
                    "cost_ms": round(candidate.cost * 1000.0, 4),
                    "service_ms": round(candidate.service_time * 1000.0, 4),
                    "pending": candidate.pending,
                    "pool_pressure": round(candidate.pool_pressure, 3),
                    "source": candidate.source,
                }
                for candidate in self.candidates
            ],
        }
        if self.kind == SCATTER_GATHER:
            document["merge"] = self.merge
            document["fragments"] = [
                {"backend": f.backend_name, "table": f.table, "sql": f.sql}
                for f in self.fragments
            ]
        return document

    def explain_rows(self) -> List[Tuple[str, str]]:
        """(field, value) rows for the console / EXPLAIN ROUTE result set."""
        rows: List[Tuple[str, str]] = [
            ("kind", self.kind),
            ("category", self.category),
            ("policy", self.policy),
            ("statement_class", self.statement_class),
            ("tables", ", ".join(self.tables) or "(none)"),
            ("backends", ", ".join(self.backend_names) or "(none)"),
        ]
        if self.kind == SINGLE:
            rows.append(
                (
                    "chosen",
                    self.chosen
                    if self.chosen is not None
                    else "(read policy decides per execution)",
                )
            )
        elif self.kind == SCATTER_GATHER:
            rows.append(("merge", self.merge or MERGE_UNION))
            for fragment in self.fragments:
                rows.append(
                    (f"fragment {fragment.table}", f"{fragment.backend_name}: {fragment.sql}")
                )
        for candidate in self.candidates:
            rows.append((f"candidate {candidate.backend_name}", candidate.describe()))
        if self.reason:
            rows.append(("reason", self.reason))
        return rows


__all__ = [
    "BATCH",
    "BROADCAST",
    "CandidateCost",
    "Fragment",
    "MERGE_AGGREGATE",
    "MERGE_ORDERED",
    "MERGE_UNION",
    "READ_COMPLEX",
    "READ_SIMPLE",
    "RoutePlan",
    "SCATTER_GATHER",
    "SINGLE",
    "STATEMENT_CLASSES",
    "WRITE",
]
