"""The cross-process L2: a file-backed, content-addressed artifact store.

The pipeline's stage artifacts already carry deterministic 40-hex
content keys (sha-256, chained down the dataflow — see
:mod:`repro.pipeline.artifacts`), which makes a shared store trivial to
address: the key *is* the filename, and equal keys mean interchangeable
values by construction.  :class:`ClusterStageCache` turns a directory
into that store so N worker processes share stage work — a navigation
tree built by one worker is unpickled, not rebuilt, by every other.

Protocol (all of it ordinary POSIX file semantics, no server):

* **Publish** — values are pickled to a temporary file in the entry's
  directory and ``os.replace``-d into place.  Rename is atomic on one
  filesystem, so readers only ever see complete entries; double
  publishes of the same key are idempotent overwrites of equal bytes.
* **Single-flight** — builders take a ``<key>.lock`` file
  (``O_CREAT | O_EXCL``) before building.  Losers of the race either
  poll for the winner's publish (:meth:`wait_for`) or rebuild locally
  if the winner dies — locks older than ``stale_after`` are broken, so
  a crashed worker never wedges the key it was building.
* **Eviction** — LRU by mtime: reads touch their entry, and a publish
  that pushes the store past ``max_entries``/``max_bytes`` deletes the
  oldest entries until back under both bounds.

Trust model: the directory is owned by one deployment's worker fleet —
the same trust domain as the process memory the L1 caches live in — so
pickle is an appropriate wire format.  Corrupt or truncated entries
(a reader racing eviction, a torn disk) are treated as misses and
deleted, never raised.

Counting: the store counts only what it alone sees, ``l2.errors`` and
``l2.evictions``, in its own :class:`~repro.obs.Metrics` registry
(``metrics``).  L2 hits, misses and publishes are counted once per stage
lookup by the consumer (:class:`~repro.pipeline.cache.StageCache`), so
a lookup that waits for another worker's build is one hit however
often :meth:`ClusterStageCache.wait_for` polls.
"""

from __future__ import annotations

import os
import pickle
import time
from pathlib import Path
from typing import Dict, List, Tuple

from repro.obs import Metrics
from repro.pipeline.artifacts import KEY_FORMAT_VERSION
from repro.pipeline.cache import L2_MISS as MISS

__all__ = ["MISS", "ClusterStageCache"]


class _BuildLock:
    """Context manager for one key's build lock (see ``build_lock``)."""

    def __init__(self, path: Path, stale_after: float):
        self._path = path
        self._stale_after = stale_after
        self.acquired = False

    def __enter__(self) -> "_BuildLock":
        """Try to take the lock file; ``acquired`` records the outcome."""
        self.acquired = self._try_acquire()
        if not self.acquired and self._is_stale():
            # The previous builder died mid-build: break its lock and
            # race to rebuild the value.  At worst two workers build the
            # same value and the publishes overwrite idempotently.
            self._path.unlink(missing_ok=True)
            self.acquired = self._try_acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        """Release the lock file when this process holds it."""
        if self.acquired:
            self._path.unlink(missing_ok=True)

    def _try_acquire(self) -> bool:
        try:
            fd = os.open(self._path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w") as handle:
            handle.write("%d\n" % os.getpid())
        return True

    def _is_stale(self) -> bool:
        try:
            age = time.time() - self._path.stat().st_mtime
        except OSError:
            return False  # released between our attempt and the check
        return age > self._stale_after


class ClusterStageCache:
    """Content-addressed stage artifacts shared across worker processes.

    Args:
        root: directory holding the store (created if missing).
        max_entries: LRU bound on stored artifacts.
        max_bytes: LRU bound on total stored bytes.
        stale_after: seconds after which another worker's build lock is
            considered abandoned and broken.

    Thread safety: file operations are atomic per entry; the registry
    locks itself.
    """

    def __init__(
        self,
        root: "str | os.PathLike[str]",
        max_entries: int = 2048,
        max_bytes: int = 256 * 1024 * 1024,
        stale_after: float = 30.0,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.stale_after = stale_after
        self.metrics = Metrics()

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def _entry_path(self, stage: str, key: str) -> Path:
        """Canonical entry path: ``root/<stage>.v<N>/<key[:2]>/<key>.pkl``.

        ``N`` is :data:`~repro.pipeline.artifacts.KEY_FORMAT_VERSION`, so
        entries written under another key or layout version are never
        read back (they age out through eviction).
        """
        directory = "%s.v%d" % (stage, KEY_FORMAT_VERSION)
        return self.root / directory / key[:2] / (key + ".pkl")

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def get(self, stage: str, key: str) -> object:
        """The stored value for ``(stage, key)``, or :data:`MISS`.

        A hit touches the entry's mtime (the LRU clock).  Unreadable or
        corrupt entries are deleted and reported as misses.
        """
        path = self._entry_path(stage, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return MISS
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError):
            # Torn write, or a stale class layout or module path from an
            # older build: drop the entry and let the caller rebuild it.
            path.unlink(missing_ok=True)
            self.metrics.add("l2.errors")
            return MISS
        try:
            os.utime(path)
        except OSError:
            pass  # evicted between read and touch; the value is still good
        return value

    def wait_for(
        self, stage: str, key: str, timeout: float, interval: float = 0.005
    ) -> object:
        """Poll for another worker's publish of ``(stage, key)``.

        Returns the value once it appears, or :data:`MISS` after
        ``timeout`` seconds (the caller then builds locally).
        """
        deadline = time.monotonic() + timeout
        while True:
            value = self.get(stage, key)
            if value is not MISS:
                return value
            if time.monotonic() >= deadline:
                return MISS
            time.sleep(interval)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, stage: str, key: str, value: object) -> bool:
        """Publish ``value`` under ``(stage, key)``; False when skipped.

        The pickle is written to a sibling temporary file and renamed
        into place, so concurrent readers never observe a partial
        entry.  Values that fail to pickle are skipped (the L1 still
        holds them; only cross-process sharing is lost).
        """
        path = self._entry_path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (".tmp-%d-%s" % (os.getpid(), path.name))
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except (OSError, pickle.PicklingError, TypeError, ValueError, AttributeError):
            tmp.unlink(missing_ok=True)
            self.metrics.add("l2.errors")
            return False
        self._evict_over_budget()
        return True

    def build_lock(self, stage: str, key: str) -> _BuildLock:
        """Single-flight lock for building ``(stage, key)``.

        Use as ``with cache.build_lock(stage, key) as lock:`` — when
        ``lock.acquired`` is False another worker is building; call
        :meth:`wait_for` instead of duplicating the work.
        """
        path = self._entry_path(stage, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        return _BuildLock(path.with_suffix(".lock"), self.stale_after)

    # ------------------------------------------------------------------
    # Eviction
    # ------------------------------------------------------------------
    def _scan(self) -> List[Tuple[float, int, Path]]:
        """Every entry as (mtime, bytes, path), oldest first."""
        rows: List[Tuple[float, int, Path]] = []
        for path in self.root.glob("*/*/*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue  # concurrently evicted
            rows.append((stat.st_mtime, stat.st_size, path))
        rows.sort()
        return rows

    def _evict_over_budget(self) -> None:
        """Delete oldest entries until under both LRU bounds."""
        rows = self._scan()
        total_bytes = sum(size for _, size, _ in rows)
        excess = 0
        while rows[excess:] and (
            len(rows) - excess > self.max_entries or total_bytes > self.max_bytes
        ):
            _, size, path = rows[excess]
            path.unlink(missing_ok=True)
            total_bytes -= size
            excess += 1
        if excess:
            self.metrics.add("l2.evictions", excess)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def census(self) -> Dict[str, int]:
        """A live reading of the directory: stored ``entries`` and ``bytes``."""
        rows = self._scan()
        return {"entries": len(rows), "bytes": sum(size for _, size, _ in rows)}

    def clear(self) -> None:
        """Delete every stored entry."""
        for _, _, path in self._scan():
            path.unlink(missing_ok=True)
