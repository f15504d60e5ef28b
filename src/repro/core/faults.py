"""Deterministic fault injection for database backends.

C-JDBC's headline claim is availability, not raw speed: a backend may fail
mid-write, be disabled, and later be re-integrated from the recovery log
while the cluster keeps serving traffic (paper §2.4.1, §3).  Exercising
that story needs *controllable* failures.  A :class:`FaultInjector` wraps a
:class:`repro.core.backend.DatabaseBackend`'s connection layer: every
operation the backend is about to run on one of its native connections
(statement execute, batch, begin/commit/rollback) first passes through the
injector, which may delay it, fail it, or crash the whole backend according
to armed :class:`FaultRule` schedules.

Everything is seeded and deterministic: probabilistic rules draw from a
``random.Random(seed)`` owned by the injector, and ``after_n_ops`` triggers
count operations exactly, so a chaos scenario replays identically for a
given seed (the HISTEX-style reproducibility requirement).

Fault kinds:

* ``latency`` — sleep ``latency_ms`` before the operation proceeds;
* ``error``   — raise a transient :class:`~repro.errors.OperationalError`
  (the operation does *not* reach the backend);
* ``crash``   — put the backend in a crashed state: this operation and every
  later one fails until :meth:`FaultInjector.recover` is called;
* ``hang``    — sleep ``latency_ms`` and then proceed (hang-then-recover: the
  operation eventually succeeds, modelling a stalled-but-alive backend);
* ``disconnect`` — raise :class:`ConnectionDropError`.  Meaningful on the
  network front-end (:class:`repro.net.server.ControllerServer` consults an
  injector before dispatching each client frame and severs the client socket
  when this fires); on a backend injector it behaves like a transient error.

Triggers (combinable; a rule fires when *all* its configured triggers
agree):

* ``after_n_ops=N`` — fire on the Nth matching operation seen by the rule
  (and on every later one, unless ``one_shot``);
* ``probability=p`` — fire with probability ``p`` per operation, drawn from
  the injector's seeded RNG;
* ``one_shot=True`` — disarm the rule after its first firing;
* ``match_sql`` — only consider operations whose SQL contains the substring;
* ``operations`` — restrict to a subset of ``execute``/``executemany``/
  ``begin``/``commit``/``rollback``.

Rules are armed and disarmed at runtime (admin console ``fault`` command,
:meth:`repro.cluster.facade.Cluster.fault_injector`), or declared in a
cluster descriptor's per-backend ``faults:`` section (validated by
``check-config``).
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.schema import Key, key, parse_section
from repro.errors import ConfigurationError, OperationalError


#: every operation category the injector can intercept
FAULT_OPERATIONS = ("execute", "executemany", "begin", "commit", "rollback")

#: supported fault kinds
FAULT_KINDS = ("latency", "error", "crash", "hang", "disconnect")


class InjectedFaultError(OperationalError):
    """Transient backend error raised by an ``error`` fault rule."""


class ConnectionDropError(OperationalError):
    """Raised by a ``disconnect`` fault rule: sever the client connection.

    The network front-end catches this and closes the client socket without
    an error frame — from the driver's point of view the controller just
    died mid-session, which is exactly what the chaos suite wants to test.
    """


class BackendCrashedError(OperationalError):
    """Raised for every operation while a backend is in the crashed state."""


@dataclass
class FaultRule:
    """One armed fault: a kind plus the schedule deciding when it fires."""

    # the key() fields are the keys of a descriptor ``faults.rules[i]`` entry;
    # their ranges are checked once, in __post_init__
    kind: str = key(str)
    #: fire starting at the Nth matching operation (1-based); None = always
    after_n_ops: Optional[int] = key(int, None)
    #: per-operation firing probability from the injector's seeded RNG
    probability: Optional[float] = key(float, None)
    #: disarm the rule after its first firing
    one_shot: bool = key(bool, False)
    #: sleep duration for ``latency`` / ``hang`` faults
    latency_ms: float = key(float, 0.0)
    #: only operations whose SQL contains this substring are considered
    match_sql: Optional[str] = key(str, None)
    #: operation categories this rule applies to
    operations: Tuple[str, ...] = key(tuple, FAULT_OPERATIONS, item=Key(str))
    #: free-text label surfaced in status output
    label: str = key(str, "", empty=True)
    # internal counters (per rule, guarded by the injector's lock)
    seen_ops: int = field(default=0, repr=False)
    fired: int = field(default=0, repr=False)
    armed: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (kinds: {', '.join(FAULT_KINDS)})"
            )
        if self.probability is not None and not (0.0 <= self.probability <= 1.0):
            raise ConfigurationError(
                f"fault probability must be in [0, 1], got {self.probability!r}"
            )
        if self.after_n_ops is not None and self.after_n_ops < 1:
            raise ConfigurationError(
                f"after_n_ops must be >= 1, got {self.after_n_ops!r}"
            )
        if self.latency_ms < 0:
            raise ConfigurationError(f"latency_ms must be >= 0, got {self.latency_ms!r}")
        unknown = sorted(set(self.operations) - set(FAULT_OPERATIONS))
        if unknown:
            raise ConfigurationError(
                f"unknown fault operation{'s' if len(unknown) > 1 else ''}"
                f" {', '.join(map(repr, unknown))}"
                f" (operations: {', '.join(FAULT_OPERATIONS)})"
            )
        self.operations = tuple(self.operations)

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "after_n_ops": self.after_n_ops,
            "probability": self.probability,
            "one_shot": self.one_shot,
            "latency_ms": self.latency_ms,
            "match_sql": self.match_sql,
            "operations": list(self.operations),
            "seen_ops": self.seen_ops,
            "fired": self.fired,
            "armed": self.armed,
        }


class FaultInjector:
    """Seeded, deterministic fault source for one backend's connection layer.

    The backend calls :meth:`invoke` immediately before running an operation
    on one of its native connections; the injector evaluates every armed
    rule in arming order and applies the first one that fires.  With no
    armed rules and no crash state the call is a cheap early return, so an
    installed-but-idle injector costs nothing measurable on the hot path.
    """

    def __init__(self, seed: int = 0, clock_sleep=time.sleep):
        self.seed = seed
        self._random = Random(seed)
        self._sleep = clock_sleep
        self._lock = threading.Lock()
        self._rules: List[FaultRule] = []
        self._rule_ids = itertools.count(1)
        self._rules_by_id: Dict[int, FaultRule] = {}
        self._crashed = False
        self._crash_reason = ""
        # statistics
        self.operations_seen = 0
        self.faults_injected = 0
        self.injected_by_kind: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # -- arming / disarming ----------------------------------------------------------

    def add_rule(self, rule: FaultRule) -> int:
        """Arm a rule; returns an id usable with :meth:`remove_rule`."""
        with self._lock:
            rule_id = next(self._rule_ids)
            self._rules.append(rule)
            self._rules_by_id[rule_id] = rule
        return rule_id

    def inject(self, kind: str, **options) -> int:
        """Shorthand: build and arm a :class:`FaultRule` in one call."""
        return self.add_rule(FaultRule(kind=kind, **options))

    def remove_rule(self, rule_id: int) -> None:
        with self._lock:
            rule = self._rules_by_id.pop(rule_id, None)
            if rule is not None and rule in self._rules:
                self._rules.remove(rule)

    def clear(self) -> None:
        """Disarm every rule (the crash state, if any, stays until recover)."""
        with self._lock:
            self._rules.clear()
            self._rules_by_id.clear()

    def crash(self, reason: str = "injected crash") -> None:
        """Hard-crash the backend immediately: every later operation fails."""
        with self._lock:
            self._crashed = True
            self._crash_reason = reason

    def recover(self) -> None:
        """Clear the crashed state so operations reach the backend again."""
        with self._lock:
            self._crashed = False
            self._crash_reason = ""

    @property
    def crashed(self) -> bool:
        return self._crashed

    @property
    def rules(self) -> List[FaultRule]:
        with self._lock:
            return list(self._rules)

    # -- the injection point -----------------------------------------------------------

    def invoke(self, operation: str, sql: str = "") -> None:
        """Called by the backend right before an operation hits a connection.

        Raises to fail the operation, sleeps to delay it, or returns to let
        it proceed untouched.
        """
        # unlocked fast path: no crash, no rules -> nothing can fire
        if not self._crashed and not self._rules:
            return
        fire: Optional[FaultRule] = None
        with self._lock:
            self.operations_seen += 1
            if self._crashed:
                self.faults_injected += 1
                self.injected_by_kind["crash"] += 1
                raise BackendCrashedError(self._crash_reason)
            for rule in self._rules:
                if not rule.armed or operation not in rule.operations:
                    continue
                if rule.match_sql is not None and rule.match_sql not in sql:
                    continue
                rule.seen_ops += 1
                if rule.after_n_ops is not None and rule.seen_ops < rule.after_n_ops:
                    continue
                if rule.probability is not None and (
                    self._random.random() >= rule.probability
                ):
                    continue
                rule.fired += 1
                if rule.one_shot:
                    rule.armed = False
                self.faults_injected += 1
                self.injected_by_kind[rule.kind] += 1
                if rule.kind == "crash":
                    # a crash is a state transition, not a repeating event:
                    # the rule disarms itself so recover() actually recovers
                    rule.armed = False
                    self._crashed = True
                    self._crash_reason = (
                        rule.label or f"injected crash ({rule.fired} fired)"
                    )
                fire = rule
                break
        if fire is None:
            return
        if fire.kind == "crash":
            raise BackendCrashedError(self._crash_reason or "injected crash")
        if fire.kind == "error":
            raise InjectedFaultError(
                fire.label or "injected transient error"
            )
        if fire.kind == "disconnect":
            raise ConnectionDropError(
                fire.label or "injected connection drop"
            )
        # latency and hang both sleep, then let the operation proceed;
        # the sleep happens outside the lock so concurrent operations on
        # other connections are not serialized by the injector
        if fire.latency_ms > 0:
            self._sleep(fire.latency_ms / 1000.0)

    # -- monitoring -----------------------------------------------------------------------

    def statistics(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "crashed": self._crashed,
                "operations_seen": self.operations_seen,
                "faults_injected": self.faults_injected,
                "injected_by_kind": dict(self.injected_by_kind),
                "rules": [rule.as_dict() for rule in self._rules],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self._crashed else f"{len(self._rules)} rules"
        return f"FaultInjector(seed={self.seed}, {state})"


# ---------------------------------------------------------------------------
# descriptor `faults:` section
# ---------------------------------------------------------------------------


def _rule_entry(entry: Any, where: str) -> dict:
    parse_section(FaultRule, entry, where)  # constructing validates everything
    return dict(entry)


@dataclass
class _FaultsSection:
    seed: int = key(int, 0)
    rules: List[dict] = key(list, factory=list, item=Key(_rule_entry))


def parse_faults_section(section: Any, where: str) -> dict:
    """Validate one backend's ``faults:`` descriptor section.

    Returns a normalized ``{"seed": int, "rules": [rule-mapping, ...]}``
    document (plain data, so descriptors stay serializable); use
    :func:`build_fault_injector` to materialize it.  Raises
    :class:`~repro.errors.ConfigurationError` naming ``where`` for every
    problem, like every other descriptor section.
    """
    return dataclasses.asdict(parse_section(_FaultsSection, section, where))


def build_fault_injector(document: Optional[dict]) -> Optional[FaultInjector]:
    """Materialize a :class:`FaultInjector` from a validated ``faults:`` doc."""
    if not document:
        return None
    injector = FaultInjector(seed=document.get("seed", 0))
    for index, entry in enumerate(document.get("rules", ())):
        injector.add_rule(parse_section(FaultRule, entry, f"faults.rules[{index}]"))
    return injector


__all__ = [
    "FAULT_KINDS",
    "FAULT_OPERATIONS",
    "BackendCrashedError",
    "ConnectionDropError",
    "FaultInjector",
    "FaultRule",
    "InjectedFaultError",
    "build_fault_injector",
    "parse_faults_section",
]
