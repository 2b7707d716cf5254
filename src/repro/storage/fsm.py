"""A small free-space map so heap inserts don't scan the whole relation.

The map is an in-memory, best-effort hint: it remembers the approximate
free bytes of pages that recently gained space (deletes, vacuum) plus the
current insertion target.  Losing it is harmless — inserts fall back to
"try the last page, else extend", which is also what keeps bulk loads
appending sequentially (important for the paper's sequential-write numbers).
"""

from __future__ import annotations


class FreeSpaceMap:
    """Per-relation page free-space hints."""

    def __init__(self) -> None:
        self._free: dict[int, int] = {}
        self._last_insert: int | None = None
        #: Stale upper bound on ``max(self._free.values())``.  Sequential
        #: bulk loads call :meth:`find` once per insert with a request no
        #: page can satisfy; the watermark answers those in O(1) instead of
        #: scanning every known page, and is recomputed lazily only when a
        #: scan actually runs.  It never changes *which* page ``find``
        #: returns — only whether the losing scan is skipped.
        self._max_free = 0

    def record(self, blockno: int, free_bytes: int) -> None:
        """Remember that *blockno* has about *free_bytes* available."""
        if free_bytes <= 0:
            self._free.pop(blockno, None)
        else:
            self._free[blockno] = free_bytes
            if free_bytes > self._max_free:
                self._max_free = free_bytes

    def note_insert_target(self, blockno: int) -> None:
        """Remember the page the relation last inserted into."""
        self._last_insert = blockno

    def find(self, needed: int) -> int | None:
        """A page believed to fit *needed* bytes, or ``None``.

        Prefers the current insertion target (keeps inserts clustered and
        sequential), then the lowest-numbered known page with room.
        """
        target = self._last_insert
        if target is not None and self._free.get(target, 0) >= needed:
            return target
        if needed > self._max_free:
            return None
        best = None
        actual_max = 0
        for blockno, free in self._free.items():
            if free > actual_max:
                actual_max = free
            if free >= needed and (best is None or blockno < best):
                best = blockno
        self._max_free = actual_max  # tighten the stale bound for free
        return best

    def known_insufficient(self, blockno: int, needed: int) -> bool:
        """True when the hints affirmatively say *blockno* cannot fit *needed*.

        Only claims knowledge about the current insertion target — its
        hint is refreshed on every placement, so it can only understate
        free space (deletes free bytes without a ``record``).  Callers
        may use this to skip a probe where a false "insufficient" merely
        costs a fresh page, never correctness.
        """
        return (blockno == self._last_insert
                and self._free.get(blockno, 0) < needed)

    def forget(self) -> None:
        """Drop all hints (after truncate or drop)."""
        self._free.clear()
        self._last_insert = None
        self._max_free = 0
