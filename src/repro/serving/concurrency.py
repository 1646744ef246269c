"""Thread-safe profiling primitive.

:class:`AtomicSolverProfile` wraps the append-only
:class:`~repro.analysis.runtime.SolverProfile` so that recording an
EXPAND timing and snapshotting the summary are mutually exclusive; a
``summary()`` taken mid-append can otherwise observe a half-updated
record list.
"""

from __future__ import annotations

import threading
from typing import Dict, List

from repro.analysis.runtime import SolverProfile, SolverTiming

__all__ = ["AtomicSolverProfile"]


class AtomicSolverProfile:
    """A :class:`SolverProfile` safe to share across request threads.

    Exposes the same duck-typed surface sessions feed
    (``record(node, seconds, reduced_size)``) plus the read side the
    stats endpoint consumes, with every operation serialized on one
    lock.  ``summary()`` therefore always describes a consistent prefix
    of the recording stream.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._profile = SolverProfile()

    def record(self, node: int, seconds: float, reduced_size: int) -> None:
        """Append one EXPAND decision's timing (thread-safe)."""
        with self._lock:
            self._profile.record(node=node, seconds=seconds, reduced_size=reduced_size)

    def __len__(self) -> int:
        with self._lock:
            return len(self._profile)

    def summary(self) -> Dict[str, float]:
        """Aggregate statistics (see :meth:`SolverProfile.summary`)."""
        with self._lock:
            return self._profile.summary()

    def records(self) -> List[SolverTiming]:
        """A point-in-time copy of every recorded timing."""
        with self._lock:
            return list(self._profile.records)
