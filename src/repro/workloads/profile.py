"""Statement profiles: the workload representation used by the simulator.

A *statement profile* describes one SQL statement abstractly: whether it is
a read or a write, which tables it touches, and its cost class (the service
time bucket used by the performance model).  An *interaction profile* is the
ordered list of statements one benchmark interaction issues, plus whether
the interaction runs in a transaction.

Keeping this small abstract representation separate from the concrete SQL
lets the same workload drive both the functional middleware (real SQL on
real backends) and the discrete-event cluster model (service times only).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Sequence, Tuple


class StatementClass(Enum):
    """Cost buckets for the performance model."""

    #: primary-key or small index lookup
    READ_SIMPLE = "read_simple"
    #: multi-row scan / join / search
    READ_COMPLEX = "read_complex"
    #: the TPC-W best-seller query: requires creating, filling and dropping a
    #: temporary table on the executing backend(s), then a select on one
    READ_BESTSELLER = "read_bestseller"
    #: single-row insert/update/delete
    WRITE_SIMPLE = "write_simple"
    #: multi-row update (cart flush, stock updates at buy confirm)
    WRITE_COMPLEX = "write_complex"

    @property
    def is_read(self) -> bool:
        return self in (
            StatementClass.READ_SIMPLE,
            StatementClass.READ_COMPLEX,
            StatementClass.READ_BESTSELLER,
        )

    @property
    def is_write(self) -> bool:
        return not self.is_read


@dataclass(frozen=True)
class StatementProfile:
    """One abstract SQL statement."""

    statement_class: StatementClass
    tables: Tuple[str, ...] = ()
    #: relative weight multiplying the base cost of the class (e.g. a search
    #: over a bigger table can cost 2x a standard complex read)
    cost_factor: float = 1.0

    @property
    def is_read(self) -> bool:
        return self.statement_class.is_read


@dataclass(frozen=True)
class InteractionProfile:
    """One benchmark interaction: a named, ordered list of statements."""

    name: str
    statements: Tuple[StatementProfile, ...]
    #: read-only interactions never issue a write statement
    read_only: bool = field(default=False)

    def __post_init__(self):
        computed_read_only = all(statement.is_read for statement in self.statements)
        object.__setattr__(self, "read_only", computed_read_only)

    @property
    def read_statements(self) -> int:
        return sum(1 for statement in self.statements if statement.is_read)

    @property
    def write_statements(self) -> int:
        return len(self.statements) - self.read_statements


def read_write_statement_ratio(
    interactions: Sequence[Tuple[InteractionProfile, float]]
) -> Tuple[float, float]:
    """Weighted (reads, writes) statement fractions of a mix.

    ``interactions`` is a list of (interaction, probability) pairs; the
    result is normalised to sum to 1.0 and is used by tests to check that the
    mixes reproduce the read-only ratios quoted in the paper.
    """
    reads = 0.0
    writes = 0.0
    for interaction, probability in interactions:
        reads += probability * interaction.read_statements
        writes += probability * interaction.write_statements
    total = reads + writes
    if total == 0:
        return 0.0, 0.0
    return reads / total, writes / total
