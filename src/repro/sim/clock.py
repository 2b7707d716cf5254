"""Simulated elapsed-time clock.

A :class:`SimClock` is a monotone accumulator of simulated seconds, split by
named category so benchmark reports can break elapsed time into I/O versus
CPU.  Storage managers and the compression layer share one clock per
:class:`~repro.db.Database`; the benchmark harness snapshots it around each
operation.

The clock also doubles as the *logical* time source for time travel:
transaction commit times are drawn from :meth:`SimClock.now`, which always
moves forward even if no device work happened (a tiny epsilon per call), so
two successive commits never share a timestamp.
"""

from __future__ import annotations

from collections import defaultdict

from repro.txn.lockdep import LockdepMutex

#: Minimum advance per ``now()`` call, so timestamps are strictly monotone.
_TICK = 1e-9


class SimClock:
    """Accumulates simulated seconds, broken down by category.

    Categories are free-form strings; the conventional ones are
    ``"io.read"``, ``"io.write"``, ``"io.seek"``, and ``"cpu"``.
    """

    def __init__(self) -> None:
        self._elapsed = 0.0
        self._by_category: dict[str, float] = defaultdict(float)
        self._now_calls = 0
        #: Concurrent sessions share one clock; charges must not be lost
        #: and two commits must never draw the same timestamp.  Innermost
        #: lock in the engine: devices charge it under the buffer and
        #: smgr locks, so nothing may be acquired while holding it.
        self._mutex = LockdepMutex("mutex:clock")

    def advance(self, seconds: float, category: str = "other") -> None:
        """Charge *seconds* of simulated time to *category*.

        Negative charges are rejected: simulated time only moves forward.
        """
        self.advance_run(seconds, category)

    def advance_run(self, seconds: float, category: str, count: int = 1,
                    seek: float | None = None) -> None:
        """Charge *seek* to ``"io.seek"`` (if given), then *seconds* to
        *category* *count* times: the float additions of that many
        :meth:`advance` calls, in order, under one mutex hold."""
        if seconds < 0 or (seek is not None and seek < 0):
            raise ValueError(f"cannot advance clock by "
                             f"{min(seconds, seek or 0.0)!r} seconds")
        with self._mutex:
            by_category = self._by_category
            if seek is not None:
                self._elapsed += seek
                by_category["io.seek"] += seek
            elapsed, charged = self._elapsed, by_category[category]
            for _ in range(count):
                elapsed += seconds
                charged += seconds
            self._elapsed = elapsed
            by_category[category] = charged

    def now(self) -> float:
        """Current simulated time in seconds, strictly monotone."""
        with self._mutex:
            self._now_calls += 1
            return self._elapsed + self._now_calls * _TICK

    @property
    def elapsed(self) -> float:
        """Total simulated seconds accumulated so far."""
        return self._elapsed

    def elapsed_in(self, category: str) -> float:
        """Simulated seconds charged to *category* (0.0 if never charged)."""
        return self._by_category.get(category, 0.0)

    def breakdown(self) -> dict[str, float]:
        """A copy of the per-category accumulator."""
        return dict(self._by_category)

    def snapshot(self) -> "ClockSnapshot":
        """Capture the current totals; subtract later with ``since``."""
        return ClockSnapshot(self._elapsed, dict(self._by_category))

    def reset(self) -> None:
        """Zero the clock.  Timestamps handed out earlier stay valid only
        relative to each other, so reset between independent benchmark runs,
        never mid-database-lifetime when time travel matters."""
        with self._mutex:
            self._elapsed = 0.0
            self._by_category.clear()
            self._now_calls = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(elapsed={self._elapsed:.6f}s)"


class ClockSnapshot:
    """Immutable capture of a :class:`SimClock` at one instant."""

    __slots__ = ("elapsed", "by_category")

    def __init__(self, elapsed: float, by_category: dict[str, float]):
        self.elapsed = elapsed
        self.by_category = by_category

    def since(self, clock: SimClock) -> "ClockSnapshot":
        """Delta between this snapshot and *clock*'s current state."""
        delta = {
            cat: clock.elapsed_in(cat) - self.by_category.get(cat, 0.0)
            for cat in set(clock.breakdown()) | set(self.by_category)
        }
        return ClockSnapshot(clock.elapsed - self.elapsed, delta)
