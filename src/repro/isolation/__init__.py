"""Isolation exerciser: seeded interleavings, history checking, anomaly matrix.

HISTEX-style validation of the scheduler variants: drive seeded
multi-client interleavings against live clusters
(:mod:`repro.isolation.exerciser`), record what every client observed, and
classify the histories (:mod:`repro.isolation.checker`) into a
scheduler×anomaly ``observed``/``prevented`` matrix.

Run it from the command line::

    python -m repro isolation                    # the full matrix
    python -m repro isolation --scheduler mvcc --scheduler pessimistic
"""

from repro.isolation.checker import (
    History,
    HistoryEvent,
    backward_transitions,
    cell,
    dirty_reads,
    format_isolation_matrix,
)
from repro.isolation.exerciser import (
    ANOMALIES,
    PROBES,
    run_isolation_matrix,
    run_isolation_probe,
    run_random_mix,
)

__all__ = [
    "ANOMALIES",
    "PROBES",
    "History",
    "HistoryEvent",
    "backward_transitions",
    "cell",
    "dirty_reads",
    "format_isolation_matrix",
    "run_isolation_matrix",
    "run_isolation_probe",
    "run_random_mix",
]
