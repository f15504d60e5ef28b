"""Fault tolerance: recovery log, checkpointing and backend recovery (paper §3)."""

from repro.core.recovery.octopus import Octopus, PortableDump
from repro.core.recovery.recovery_log import (
    FileRecoveryLog,
    LogEntry,
    MemoryRecoveryLog,
    RecoveryLog,
)
from repro.core.recovery.checkpoint import CheckpointingService

__all__ = [
    "CheckpointingService",
    "FileRecoveryLog",
    "LogEntry",
    "MemoryRecoveryLog",
    "Octopus",
    "PortableDump",
    "RecoveryLog",
]
