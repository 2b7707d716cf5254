"""A small free-space map so heap inserts don't scan the whole relation.

The map is an in-memory, best-effort hint: it remembers the approximate
free bytes of pages that recently gained space (deletes, vacuum) plus the
current insertion target.  Losing it is harmless — inserts fall back to
"try the last page, else extend", which is also what keeps bulk loads
appending sequentially (important for the paper's sequential-write numbers).
"""

from __future__ import annotations

from itertools import compress


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

    def note_insert(self, blockno: int, free_bytes: int) -> None:
        """:meth:`record` the page the relation just inserted into, which
        becomes the insertion target."""
        self._last_insert = blockno
        if free_bytes <= 0:
            self._free.pop(blockno, None)
        else:
            self._free[blockno] = free_bytes
            if free_bytes > self._max_free:
                self._max_free = free_bytes

    def find(self, needed: int, tail: int = -1) -> int | None:
        """A page believed to fit *needed* bytes, or ``None`` (extend).

        Prefers the current insertion target (keeps inserts clustered and
        sequential), then the lowest-numbered known page with room, then
        *tail* (the relation's last page, ``-1`` for none) — unless the
        tail is the target: its hint is refreshed by every placement, so
        it can only understate free space (deletes free bytes without a
        ``record``), and a false "no room" merely costs a fresh page.
        Bulk loads (one 8000 B chunk per page) skip a dead probe per row.
        """
        target = self._last_insert
        if target is not None and self._free.get(target, 0) >= needed:
            return target
        if needed <= self._max_free:
            free = self._free
            self._max_free = max(free.values(), default=0)  # tighten it
            found = min(compress(free, map(needed.__le__, free.values())),
                        default=None)
            if found is not None:
                return found
        return None if tail < 0 or tail == target else tail

    def forget(self) -> None:
        """Drop all hints (after truncate or drop)."""
        self._free.clear()
        self._last_insert = None
        self._max_free = 0
