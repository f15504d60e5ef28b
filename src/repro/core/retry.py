"""Client retry/backoff policy for controller failover.

The C-JDBC driver transparently fails over to another controller when the
one it is talking to dies.  A :class:`RetryPolicy` makes that behaviour
tunable per connection: how many attempts, how long to back off between
them (exponential with jitter, capped), and an overall per-operation
timeout after which the driver gives up even if attempts remain.

Two error families are retryable: *controller* failures
(:class:`repro.errors.ControllerError` — the controller is unreachable,
dead, or cannot serve the database) and *serialization conflicts*
(:class:`repro.errors.SerializationConflictError` — the MVCC scheduler
aborted the transaction before the conflicting statement reached any
backend, so re-running it is safe).  Other database errors (bad SQL,
constraint violations) and protocol errors are not: retrying them would at
best repeat the failure and at worst double-apply a write.

Policies are plain frozen dataclasses so they can live in cluster
descriptors and URL options:

    repro://host1:port1,host2:port2/db?retry_attempts=5&retry_backoff=0.1
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.errors import CJDBCError, ControllerError, SerializationConflictError

#: URL option / descriptor keys understood by :meth:`RetryPolicy.from_options`
RETRY_OPTION_KEYS = (
    "retry_attempts",
    "retry_backoff",
    "retry_backoff_multiplier",
    "retry_backoff_max",
    "retry_jitter",
    "retry_timeout",
    "retry_seed",
)


@dataclass(frozen=True)
class RetryPolicy:
    """How a client connection retries failed-over operations."""

    #: total attempts per operation (first try included)
    max_attempts: int = 3
    #: base delay before the second attempt, in seconds
    backoff: float = 0.05
    #: growth factor applied per attempt (exponential backoff)
    backoff_multiplier: float = 2.0
    #: cap on any single delay, in seconds
    backoff_max: float = 2.0
    #: fraction of the delay randomized away (0.5 -> +/-50%)
    jitter: float = 0.5
    #: overall wall-clock budget per operation, in seconds (None = no cap)
    operation_timeout: Optional[float] = None
    #: seed for the jitter RNG (deterministic retries in tests/chaos)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise CJDBCError(f"retry max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0 or self.backoff_max < 0:
            raise CJDBCError("retry backoff delays cannot be negative")
        if not 0 <= self.jitter <= 1:
            raise CJDBCError(f"retry jitter must be within [0, 1], got {self.jitter}")
        if self.operation_timeout is not None and self.operation_timeout <= 0:
            raise CJDBCError("retry operation_timeout must be positive")

    # -- behaviour ------------------------------------------------------------------

    @staticmethod
    def is_retryable(exc: BaseException) -> bool:
        """Controller failures and serialization conflicts are safe to retry."""
        return isinstance(exc, (ControllerError, SerializationConflictError))

    def rng(self) -> random.Random:
        """A jitter RNG for one connection's lifetime."""
        return random.Random(self.seed)

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Delay before the given attempt (attempt 1 is the first retry)."""
        if attempt < 1 or self.backoff == 0:
            return 0.0
        base = min(
            self.backoff * (self.backoff_multiplier ** (attempt - 1)),
            self.backoff_max,
        )
        if not self.jitter:
            return base
        spread = (rng or self.rng()).uniform(-self.jitter, self.jitter)
        return max(0.0, base * (1.0 + spread))

    # -- construction ---------------------------------------------------------------

    @classmethod
    def from_options(cls, options: Mapping[str, Any]) -> Optional["RetryPolicy"]:
        """Build a policy from URL options / a descriptor ``retry:`` section.

        Returns None when no ``retry_*`` key is present, so connections
        without retry options keep the legacy single-pass failover.
        """
        if not any(key in options for key in RETRY_OPTION_KEYS):
            return None
        try:
            return cls(
                max_attempts=int(options.get("retry_attempts", cls.max_attempts)),
                backoff=float(options.get("retry_backoff", cls.backoff)),
                backoff_multiplier=float(
                    options.get("retry_backoff_multiplier", cls.backoff_multiplier)
                ),
                backoff_max=float(options.get("retry_backoff_max", cls.backoff_max)),
                jitter=float(options.get("retry_jitter", cls.jitter)),
                operation_timeout=(
                    float(options["retry_timeout"])
                    if options.get("retry_timeout") not in (None, "")
                    else None
                ),
                seed=(
                    int(options["retry_seed"])
                    if options.get("retry_seed") not in (None, "")
                    else None
                ),
            )
        except (TypeError, ValueError) as exc:
            raise CJDBCError(f"invalid retry option: {exc}") from exc


__all__ = ["RETRY_OPTION_KEYS", "RetryPolicy"]
