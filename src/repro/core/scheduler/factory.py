"""Build schedulers from configuration values (string name or options mapping).

The ``scheduler:`` knob of a virtual database accepts either a plain name::

    scheduler: mvcc

or a mapping with options::

    scheduler:
      name: table_lock
      lock_timeout: 2.0        # seconds; table_lock only

The knob is one :mod:`repro.core.schema` section, :class:`SchedulerSpec`, a
bare string standing for its ``name``.  Unknown names, unknown keys and an
option applied to the wrong variant are all
:class:`~repro.errors.ConfigurationError`\\ s naming their path, raised at
parse time so a bad descriptor fails validation instead of booting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Optional, Union

from repro.core.scheduler.base import (
    AbstractScheduler,
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
    TableLockScheduler,
)
from repro.core.scheduler.mvcc import MVCCScheduler
from repro.core.schema import Key, key, parse_value
from repro.errors import ConfigurationError

#: canonical name -> variant, in the order the isolation matrix and the
#: contention ablation compare them
_CLASSES = {
    "passthrough": PassThroughScheduler,
    "optimistic": OptimisticTransactionLevelScheduler,
    "pessimistic": PessimisticTransactionLevelScheduler,
    "table_lock": TableLockScheduler,
    "mvcc": MVCCScheduler,
}

#: the canonical scheduler names, in that order
SCHEDULER_NAMES = tuple(_CLASSES)

#: accepted alias -> canonical scheduler name
_ALIASES = {
    "pass_through": "passthrough",
    "singledb": "passthrough",
    "tablelock": "table_lock",
    "table-lock": "table_lock",
    "snapshot": "mvcc",
}

SchedulerValue = Union[str, Mapping[str, Any]]


def canonical_scheduler_name(name: str) -> str:
    """Resolve a name/alias (any case) to its canonical form, or raise."""
    lowered = name.lower() if isinstance(name, str) else None
    canonical = _ALIASES.get(lowered, lowered)
    if canonical not in _CLASSES:
        raise ConfigurationError(
            f"unknown scheduler {name!r} (expected one of: {', '.join(SCHEDULER_NAMES)})"
        )
    return canonical


@dataclass
class SchedulerSpec:
    """The parsed ``scheduler:`` knob."""

    name: str = key(str, choices=SCHEDULER_NAMES, resolve=canonical_scheduler_name)
    #: seconds a table_lock request may wait for its whole lock plan
    #: (None: forever)
    lock_timeout: Optional[float] = key(float, None, exclusive_minimum=0)

    def __post_init__(self):
        self.name = canonical_scheduler_name(self.name)
        if self.lock_timeout is not None and self.name != "table_lock":
            raise ConfigurationError(
                f"lock_timeout only applies to the table_lock scheduler, not {self.name!r}"
            )


_SPEC = Key(SchedulerSpec, shorthand="name")


def parse_scheduler(value: SchedulerValue, where: str = "scheduler") -> SchedulerSpec:
    """Parse the ``scheduler:`` knob; ``lock_timeout: null`` means no timeout."""
    if isinstance(value, Mapping) and value.get("lock_timeout", 0) is None:
        value = {name: option for name, option in value.items() if name != "lock_timeout"}
    return parse_value(_SPEC, value, where)


def build_scheduler(spec: SchedulerValue = "optimistic") -> AbstractScheduler:
    """Instantiate a scheduler from a name or an options mapping."""
    parsed = parse_scheduler(spec)
    if parsed.lock_timeout is None:
        return _CLASSES[parsed.name]()
    return TableLockScheduler(lock_timeout=parsed.lock_timeout)


def describe_scheduler(spec: SchedulerValue) -> str:
    """One human-readable line for check-config output (validates the spec)."""
    parsed = parse_scheduler(spec)
    if parsed.lock_timeout is None:
        return parsed.name
    return f"{parsed.name} (lock_timeout: {parsed.lock_timeout})"
