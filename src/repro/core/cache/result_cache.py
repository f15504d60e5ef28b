"""The query result cache itself.

Entries are keyed by ``(sql, parameters)``.  A bounded number of entries is
kept with LRU eviction.  Invalidation is delegated to a
:class:`repro.core.cache.granularity.CacheGranularity`; relaxed-consistency
rules may keep an entry alive for a staleness window after an invalidating
write (the entry is then flagged stale and dropped once the window closes).

Invalidation is indexed: the cache maintains an inverted ``table name →
entry keys`` map so a write only visits the entries that actually reference
one of the written tables (plus a small fallback bucket of entries whose
SELECT had no parsed tables, which table granularity must treat
conservatively).  Granularities that are not table-based — e.g. database
granularity, or custom strategies — advertise ``uses_table_index = False``
and fall back to the full scan.  Expired (stale-window) entries are dropped
lazily, when a lookup or an invalidation touches them, rather than by
scanning the whole cache on every write.

The cache accepts an injectable ``clock`` so that tests can control time
deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.cache.granularity import CacheGranularity, TableGranularity
from repro.core.cache.rules import RelaxationRule, first_matching_rule
from repro.core.request import AbstractRequest, RequestResult


@dataclass
class CacheEntry:
    """One cached SELECT result."""

    sql: str
    parameters: Tuple
    tables: Tuple[str, ...]
    result: RequestResult
    created_at: float
    #: lower-cased columns the SELECT references; None means every column
    columns: Optional[FrozenSet[str]] = None
    #: the first relaxation rule matching the SELECT, resolved when stored
    rule: Optional[RelaxationRule] = None
    #: when set, the entry has been invalidated by a write but survives until
    #: this deadline thanks to a relaxation rule
    stale_deadline: Optional[float] = None
    hits: int = 0

    def is_expired(self, now: float) -> bool:
        return self.stale_deadline is not None and now >= self.stale_deadline


@dataclass
class CacheStatistics:
    hits: int = 0
    misses: int = 0
    inserts: int = 0
    invalidations: int = 0
    stale_hits: int = 0
    evictions: int = 0
    #: entries dropped because their staleness window closed (distinct from
    #: ``invalidations``, which only counts entries dropped by a write)
    expirations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "inserts": self.inserts,
            "invalidations": self.invalidations,
            "stale_hits": self.stale_hits,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class ResultCache:
    """LRU query-result cache with pluggable invalidation granularity."""

    def __init__(
        self,
        granularity: Optional[CacheGranularity] = None,
        max_entries: int = 10000,
        relaxation_rules: Iterable[RelaxationRule] = (),
        clock: Optional[Callable[[], float]] = None,
    ):
        self.granularity = granularity or TableGranularity()
        self.max_entries = max_entries
        self.relaxation_rules: List[RelaxationRule] = list(relaxation_rules)
        self._clock = clock or time.monotonic
        self._entries: "OrderedDict[Tuple[str, Tuple], CacheEntry]" = OrderedDict()
        #: inverted index: lower-cased table name -> keys of entries reading it
        self._table_index: Dict[str, Set[Tuple[str, Tuple]]] = {}
        #: entries whose SELECT had no parsed tables (always candidates)
        self._untabled_keys: Set[Tuple[str, Tuple]] = set()
        self._lock = threading.RLock()
        self.statistics = CacheStatistics()

    # -- lookup / store ------------------------------------------------------------

    def get(self, request: AbstractRequest) -> Optional[RequestResult]:
        """Return a cached result for this SELECT, or None on miss."""
        key = request.cache_key()
        now = self._clock()
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.statistics.misses += 1
                return None
            if entry.is_expired(now):
                self._remove_entry(key, entry)
                self.statistics.expirations += 1
                self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            entry.hits += 1
            self.statistics.hits += 1
            if entry.stale_deadline is not None:
                self.statistics.stale_hits += 1
            # each client gets its own row list; the tuple rows are shared
            result = entry.result.checkout()
            result.from_cache = True
            return result

    def put(self, request: AbstractRequest, result: RequestResult) -> RequestResult:
        """Cache the result of a SELECT request; ``result`` becomes the stored master.

        Returns a checkout of it for the caller, as a later hit would get,
        so no client ever holds the master's own row list.
        """
        key = request.cache_key()
        rules = self.relaxation_rules
        entry = CacheEntry(
            sql=request.sql,
            parameters=tuple(request.parameters),
            tables=tuple(request.tables),
            result=result,
            created_at=self._clock(),
            columns=request.template.read_columns if request.template is not None else None,
            rule=first_matching_rule(rules, request) if rules else None,
        )
        with self._lock:
            previous = self._entries.get(key)
            if previous is not None:
                self._deindex_entry(key, previous)
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._index_entry(key, entry)
            self.statistics.inserts += 1
            while len(self._entries) > self.max_entries:
                evicted_key, evicted = self._entries.popitem(last=False)
                self._deindex_entry(evicted_key, evicted)
                self.statistics.evictions += 1
        return result.checkout()

    # -- invalidation -----------------------------------------------------------------

    def invalidate(self, write: AbstractRequest) -> int:
        """Process a write: drop or mark-stale every affected entry.

        Only entries referencing one of the written tables are visited (via
        the inverted index) when the granularity is table-based; otherwise
        every entry is scanned.  Returns the number of entries dropped by
        this write; entries whose staleness window had already closed are
        dropped too but counted as ``expirations``, not ``invalidations``.
        """
        now = self._clock()
        dropped = 0
        with self._lock:
            for key in self._candidate_keys(write):
                entry = self._entries.get(key)
                if entry is None:
                    continue
                if entry.is_expired(now):
                    self._remove_entry(key, entry)
                    self.statistics.expirations += 1
                    continue
                if not self.granularity.invalidates(write, entry):
                    continue
                rule = entry.rule
                if rule is not None and rule.keep_on_write:
                    if entry.stale_deadline is None:
                        entry.stale_deadline = now + rule.staleness_seconds
                    continue
                self._remove_entry(key, entry)
                dropped += 1
            self.statistics.invalidations += dropped
        return dropped

    def _candidate_keys(self, write: AbstractRequest) -> List[Tuple[str, Tuple]]:
        """Keys a write may invalidate.  Callers must hold the lock.

        A superset of the affected entries: the granularity still decides
        entry by entry.  Falls back to the full key list when the write names
        no tables (conservative) or the granularity is not table-based.
        """
        if not getattr(self.granularity, "uses_table_index", False) or not write.tables:
            return list(self._entries)
        candidates = set(self._untabled_keys)
        for table in write.tables:
            candidates.update(self._table_index.get(table.lower(), ()))
        return list(candidates)

    def _index_entry(self, key: Tuple[str, Tuple], entry: CacheEntry) -> None:
        if not entry.tables:
            self._untabled_keys.add(key)
            return
        for table in entry.tables:
            self._table_index.setdefault(table.lower(), set()).add(key)

    def _deindex_entry(self, key: Tuple[str, Tuple], entry: CacheEntry) -> None:
        if not entry.tables:
            self._untabled_keys.discard(key)
            return
        for table in entry.tables:
            keys = self._table_index.get(table.lower())
            if keys is not None:
                keys.discard(key)
                if not keys:
                    del self._table_index[table.lower()]

    def _remove_entry(self, key: Tuple[str, Tuple], entry: CacheEntry) -> None:
        del self._entries[key]
        self._deindex_entry(key, entry)

    def flush(self) -> None:
        with self._lock:
            self._entries.clear()
            self._table_index.clear()
            self._untabled_keys.clear()

    # -- introspection ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def entries(self) -> List[CacheEntry]:
        with self._lock:
            return list(self._entries.values())

    def indexed_tables(self) -> List[str]:
        """Tables currently present in the inverted index (for monitoring)."""
        with self._lock:
            return sorted(self._table_index)

