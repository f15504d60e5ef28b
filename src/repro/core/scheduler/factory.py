"""Build schedulers from configuration values (string name or options mapping).

The ``scheduler:`` knob of a virtual database accepts either a plain name::

    scheduler: mvcc

or a mapping with per-variant options::

    scheduler:
      name: table_lock
      lock_timeout: 2.0        # seconds; table_lock only

    scheduler:
      name: mvcc
      conflict_policy: detect_only   # mvcc only

Unknown names, unknown keys and options applied to the wrong variant are
all :class:`~repro.errors.ConfigurationError`\\ s, raised at build time so a
bad descriptor fails validation instead of booting.
"""

from __future__ import annotations

from typing import Any, Mapping, Union

from repro.core.scheduler.base import (
    AbstractScheduler,
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
)
from repro.core.scheduler.locking import TableLockScheduler
from repro.core.scheduler.mvcc import CONFLICT_POLICIES, MVCCScheduler
from repro.errors import ConfigurationError

#: accepted name/alias -> canonical scheduler name
_ALIASES = {
    "passthrough": "passthrough",
    "pass_through": "passthrough",
    "singledb": "passthrough",
    "optimistic": "optimistic",
    "pessimistic": "pessimistic",
    "table_lock": "table_lock",
    "tablelock": "table_lock",
    "table-lock": "table_lock",
    "mvcc": "mvcc",
    "snapshot": "mvcc",
}

#: the canonical scheduler names, for error messages and iteration
SCHEDULER_NAMES = ("mvcc", "optimistic", "passthrough", "pessimistic", "table_lock")

_OPTION_KEYS = {"name", "lock_timeout", "conflict_policy"}

SchedulerSpec = Union[str, Mapping[str, Any]]


def canonical_scheduler_name(name: str) -> str:
    """Resolve a name/alias to its canonical form, or raise."""
    if not isinstance(name, str):
        raise ConfigurationError(
            f"scheduler name must be a string, got {type(name).__name__}"
        )
    canonical = _ALIASES.get(name.lower())
    if canonical is None:
        raise ConfigurationError(
            f"unknown scheduler {name!r}"
            f" (expected one of: {', '.join(SCHEDULER_NAMES)})"
        )
    return canonical


def build_scheduler(spec: SchedulerSpec = "optimistic") -> AbstractScheduler:
    """Instantiate a scheduler from a name or an options mapping."""
    if isinstance(spec, str):
        name, options = spec, {}
    elif isinstance(spec, Mapping):
        unknown = sorted(set(spec) - _OPTION_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown key{'s' if len(unknown) > 1 else ''}"
                f" {', '.join(map(repr, unknown))}"
                f" (expected one of: {', '.join(sorted(_OPTION_KEYS))})"
            )
        if "name" not in spec:
            raise ConfigurationError("a scheduler mapping needs a 'name' key")
        name, options = spec["name"], {k: v for k, v in spec.items() if k != "name"}
    else:
        raise ConfigurationError(
            f"expected a scheduler name or an options mapping,"
            f" got {type(spec).__name__}"
        )
    canonical = canonical_scheduler_name(name)

    lock_timeout = options.get("lock_timeout")
    if lock_timeout is not None:
        if canonical != "table_lock":
            raise ConfigurationError(
                f"lock_timeout only applies to the table_lock scheduler,"
                f" not {canonical!r}"
            )
        if (
            isinstance(lock_timeout, bool)
            or not isinstance(lock_timeout, (int, float))
            or lock_timeout <= 0
        ):
            raise ConfigurationError(
                f"lock_timeout must be a positive number of seconds,"
                f" got {lock_timeout!r}"
            )
    conflict_policy = options.get("conflict_policy")
    if conflict_policy is not None:
        if canonical != "mvcc":
            raise ConfigurationError(
                f"conflict_policy only applies to the mvcc scheduler,"
                f" not {canonical!r}"
            )
        if conflict_policy not in CONFLICT_POLICIES:
            raise ConfigurationError(
                f"unknown conflict_policy {conflict_policy!r}"
                f" (expected one of: {', '.join(CONFLICT_POLICIES)})"
            )

    if canonical == "passthrough":
        return PassThroughScheduler()
    if canonical == "optimistic":
        return OptimisticTransactionLevelScheduler()
    if canonical == "pessimistic":
        return PessimisticTransactionLevelScheduler()
    if canonical == "table_lock":
        return TableLockScheduler(
            lock_timeout=float(lock_timeout) if lock_timeout is not None else None
        )
    return MVCCScheduler(
        conflict_policy=conflict_policy or "first_committer_wins"
    )


def describe_scheduler(spec: SchedulerSpec) -> str:
    """One human-readable line for check-config output (validates the spec)."""
    if isinstance(spec, str):
        return canonical_scheduler_name(spec)
    build_scheduler(spec)  # full validation
    name = canonical_scheduler_name(spec["name"])
    options = ", ".join(
        f"{key}: {spec[key]}"
        for key in sorted(spec)
        if key != "name" and spec[key] is not None
    )
    return f"{name} ({options})" if options else name
