"""Read-selection policies.

"Among the backends that can treat a read request (all of them with full
replication), one is selected according to the load balancing algorithm.
Currently implemented algorithms are round robin, weighted round robin and
least pending requests first" (paper §2.4.3).  A policy can also be
user-defined: anything implementing :class:`ReadPolicy` works.
"""

from __future__ import annotations

import threading
from typing import List, Sequence

from repro.core.backend import DatabaseBackend
from repro.errors import NoMoreBackendError


class ReadPolicy:
    """Strategy choosing one backend among the candidates able to serve a read."""

    name = "abstract"

    def choose(self, candidates: Sequence[DatabaseBackend]) -> DatabaseBackend:
        raise NotImplementedError  # pragma: no cover - interface

    def _require_candidates(self, candidates: Sequence[DatabaseBackend]) -> None:
        if not candidates:
            raise NoMoreBackendError("no enabled backend can serve this read")


class RoundRobinPolicy(ReadPolicy):
    """Cycle through the candidate backends in order."""

    name = "round_robin"

    def __init__(self):
        self._counter = 0
        self._lock = threading.Lock()

    def choose(self, candidates: Sequence[DatabaseBackend]) -> DatabaseBackend:
        self._require_candidates(candidates)
        with self._lock:
            index = self._counter % len(candidates)
            self._counter += 1
        return candidates[index]


class WeightedRoundRobinPolicy(ReadPolicy):
    """Round robin where a backend with weight *w* receives *w* consecutive slots.

    The schedule is recomputed lazily whenever the candidate set changes, so
    enabling/disabling backends or changing weights is picked up on the next
    read.
    """

    name = "weighted_round_robin"

    def __init__(self):
        self._lock = threading.Lock()
        self._schedule: List[str] = []
        self._schedule_key: tuple = ()
        self._position = 0

    def choose(self, candidates: Sequence[DatabaseBackend]) -> DatabaseBackend:
        self._require_candidates(candidates)
        by_name = {backend.name: backend for backend in candidates}
        key = tuple(sorted((backend.name, backend.weight) for backend in candidates))
        with self._lock:
            if key != self._schedule_key:
                self._schedule = [
                    name
                    for name, weight in sorted(
                        ((b.name, max(1, b.weight)) for b in candidates)
                    )
                    for _ in range(weight)
                ]
                self._schedule_key = key
                self._position = 0
            name = self._schedule[self._position % len(self._schedule)]
            self._position += 1
        return by_name[name]


class LeastPendingRequestsFirst(ReadPolicy):
    """Send the read to the backend with the fewest in-flight requests.

    This is the policy used in the paper's TPC-W evaluation ("The load
    balancing policy is Least Pending Requests First", §6.2).
    """

    name = "least_pending_requests_first"

    def __init__(self):
        self._tie_breaker = 0
        self._lock = threading.Lock()

    def choose(self, candidates: Sequence[DatabaseBackend]) -> DatabaseBackend:
        self._require_candidates(candidates)
        # each count is read once: other threads move them, and a second read
        # could leave no backend at the minimum the first read found
        pending = [backend.pending_requests for backend in candidates]
        least_pending = min(pending)
        tied = [
            backend for backend, count in zip(candidates, pending) if count == least_pending
        ]
        # Rotate among equally loaded backends so an idle cluster still spreads
        # reads instead of always hitting the first backend.
        with self._lock:
            choice = tied[self._tie_breaker % len(tied)]
            self._tie_breaker += 1
        return choice


def policy_from_name(name: str) -> ReadPolicy:
    """Factory used by the configuration layer."""
    lowered = name.strip().lower().replace("-", "_").replace(" ", "_")
    if lowered in ("round_robin", "rr"):
        return RoundRobinPolicy()
    if lowered in ("weighted_round_robin", "wrr"):
        return WeightedRoundRobinPolicy()
    if lowered in ("least_pending_requests_first", "lprf"):
        return LeastPendingRequestsFirst()
    raise ValueError(f"unknown load balancing policy {name!r}")
