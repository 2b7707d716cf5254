"""Simulated elapsed-time clock.

A :class:`SimClock`, one per :class:`~repro.db.Database`, derives
simulated seconds per category (I/O versus CPU) from counts: each
:class:`~repro.sim.devices.DevicePort` built on it counts accesses, bytes,
seeks and platter switches, and CPU work is counted in instructions.
Seconds are counts × model costs when the clock is read, added with ``+``
in a fixed order (never a float ``sum``, which Python 3.12 compensates),
so the same accesses give the same bits in any order.  :meth:`advance`
keeps the explicit float charges (a slow node's penalty, think time).

The clock also doubles as the *logical* time source for time travel:
transaction commit times are drawn from :meth:`SimClock.now`, which always
moves forward even if no device work happened (a tiny epsilon per call), so
two successive commits never share a timestamp.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.txn.lockdep import LockdepMutex

if TYPE_CHECKING:
    from repro.sim.devices import CpuModel, DevicePort

#: Minimum advance per ``now()`` call, so timestamps are strictly monotone.
_TICK = 1e-9


class SimClock:
    """Derives simulated seconds per category: ``"io.read"``,
    ``"io.write"``, ``"io.seek"``, ``"cpu"`` and :meth:`advance`'s own."""

    def __init__(self) -> None:
        #: Every device port built on this clock, in construction order.
        self.ports: list[DevicePort] = []
        #: Instructions counted per CPU model.
        self._instructions: dict[CpuModel, float] = {}
        #: Explicit float charges per category, in first-charge order.
        self._charged: dict[str, float] = {}
        self._now_calls = 0
        #: Where :meth:`now` starts counting from (:meth:`resume_after`).
        self._origin = 0.0
        #: Guards the CPU counts, the charges and the ``now`` ticks; the
        #: engine's innermost lock (taken under the buffer lock).
        self._mutex = LockdepMutex("mutex:clock")

    def advance(self, seconds: float, category: str = "other") -> None:
        """Charge *seconds* (never negative) to *category*."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        with self._mutex:
            charged = self._charged
            charged[category] = charged.get(category, 0.0) + seconds

    def count_instructions(self, cpu: CpuModel, instructions: float) -> None:
        """Count *instructions* retired by *cpu*."""
        with self._mutex:
            counts = self._instructions
            counts[cpu] = counts.get(cpu, 0) + instructions

    def _breakdown(self) -> dict[str, float]:
        derived: dict[str, float] = {}
        for port in self.ports:
            read, write, seek = port.costs()
            for category, counted, seconds in (
                    ("io.read", port.reads, read),
                    ("io.write", port.writes, write),
                    ("io.seek", port.seeks or port.platter_switches, seek)):
                if counted:
                    derived[category] = derived.get(category, 0.0) + seconds
        for cpu, instructions in self._instructions.items():
            derived["cpu"] = (derived.get("cpu", 0.0)
                              + cpu.seconds_for(instructions))
        for category, seconds in self._charged.items():
            derived[category] = derived.get(category, 0.0) + seconds
        return derived

    def _elapsed(self) -> float:
        total = 0.0
        for port in self.ports:
            read, write, seek = port.costs()
            total += read + write + seek
        for cpu, instructions in self._instructions.items():
            total += cpu.seconds_for(instructions)
        for seconds in self._charged.values():
            total += seconds
        return total

    def now(self) -> float:
        """Current simulated time in seconds, strictly monotone."""
        with self._mutex:
            self._now_calls += 1
            return self._origin + self._elapsed() + self._now_calls * _TICK

    def resume_after(self, instant: float) -> None:
        """Make every later :meth:`now` exceed *instant* (a reopened
        database's last commit time), charging no category."""
        with self._mutex:
            self._origin = max(self._origin, instant)

    @property
    def elapsed(self) -> float:
        """Total simulated seconds so far."""
        with self._mutex:
            return self._elapsed()

    def elapsed_in(self, category: str) -> float:
        """Simulated seconds charged to *category* (0.0 if never charged)."""
        return self.breakdown().get(category, 0.0)

    def breakdown(self) -> dict[str, float]:
        """Simulated seconds per category charged so far."""
        with self._mutex:
            return self._breakdown()

    def snapshot(self) -> "ClockSnapshot":
        """Capture the current totals; subtract later with ``since``."""
        with self._mutex:
            return ClockSnapshot(self._elapsed(), self._breakdown())


class ClockSnapshot:
    """Immutable capture of a :class:`SimClock` at one instant."""

    __slots__ = ("elapsed", "by_category")

    def __init__(self, elapsed: float, by_category: dict[str, float]):
        self.elapsed = elapsed
        self.by_category = by_category

    def since(self, clock: SimClock) -> "ClockSnapshot":
        """Delta between this snapshot and *clock*'s current state."""
        now = clock.snapshot()
        after, before = now.by_category, self.by_category
        delta = {cat: after.get(cat, 0.0) - before.get(cat, 0.0)
                 for cat in after.keys() | before.keys()}
        return ClockSnapshot(now.elapsed - self.elapsed, delta)
