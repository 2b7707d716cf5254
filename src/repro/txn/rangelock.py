"""Byte-range lock resources for large objects.

A :class:`RangeResource` names a half-open byte interval ``[start, stop)``
of one object (``stop=None`` means "to infinity").  The
:class:`~repro.txn.locks.LockManager` treats two range resources as
conflicting only when their intervals **overlap** (and their modes are
incompatible), so writers mutating disjoint regions of one large object
are granted in parallel, while truncate and unlink — which take the whole
``[0, inf)`` range — still conflict with every writer.

All ranges of one object share a *group* key ``(namespace, key)``; the
lock manager keeps one FIFO wait queue per group, which is what preserves
fairness and feeds the wait-for graph exactly as per-resource queues did
for plain keys.

The module also provides :class:`IntervalSet`, the small interval
arithmetic descriptors use to remember which spans they already locked
(re-locking a covered span must be a cheap no-op on the write hot path).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Hashable


class RangeResource(tuple):
    """A lockable half-open byte interval ``[start, stop)`` of one object.

    ``stop=None`` is the unbounded range end (truncate/unlink take
    ``[0, None)`` to conflict with every concurrent writer).  The fields
    are a tuple's ``(namespace, key, start, stop)``, so a resource hashes
    and compares in C: the grant table looks one up on every acquire.
    """

    __slots__ = ()

    def __new__(cls, namespace: str, key: Hashable, start: int,
                stop: int | None) -> "RangeResource":
        if start < 0:
            raise ValueError(f"range start {start} < 0")
        if stop is not None and stop <= start:
            raise ValueError(f"empty lock range [{start}, {stop})")
        return tuple.__new__(cls, (namespace, key, start, stop))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    namespace = property(itemgetter(0))
    key = property(itemgetter(1))
    start = property(itemgetter(2))
    stop = property(itemgetter(3))
    #: ``(namespace, key)``: the wait-queue / conflict-scan key shared by
    #: an object's ranges.
    group = property(itemgetter(slice(0, 2)))

    def overlaps(self, other: "RangeResource") -> bool:
        """Whether the two intervals share at least one byte."""
        if self.namespace != other.namespace or self.key != other.key:
            return False
        if self.stop is not None and self.stop <= other.start:
            return False
        if other.stop is not None and other.stop <= self.start:
            return False
        return True

    def contains(self, other: "RangeResource") -> bool:
        """Whether *other* lies entirely inside this interval."""
        if self.namespace != other.namespace or self.key != other.key:
            return False
        if other.start < self.start:
            return False
        if self.stop is None:
            return True
        return other.stop is not None and other.stop <= self.stop

    def __repr__(self) -> str:
        stop = "inf" if self.stop is None else self.stop
        return (f"RangeResource({self.namespace!r}, {self.key!r}, "
                f"[{self.start}, {stop}))")


def lo_range(oid: int, start: int, stop: int | None) -> RangeResource:
    """The byte-range lock resource for large object *oid*."""
    return RangeResource("largeobject", oid, start, stop)


def lo_whole(oid: int) -> RangeResource:
    """The whole-object ``[0, inf)`` range (truncate / unlink)."""
    return RangeResource("largeobject", oid, 0, None)


class IntervalSet:
    """A mutable set of disjoint half-open intervals over the naturals.

    Descriptors use one per open writable object to remember the spans
    they already hold range locks on: ``covers`` answers the hot-path
    "do I need to go to the lock manager at all?" question, ``add``
    merges a newly locked span in.  ``stop=None`` again means infinity.
    """

    __slots__ = ("_spans",)

    def __init__(self) -> None:
        #: sorted, disjoint, non-adjacent (start, stop) pairs.
        self._spans: list[tuple[int, int | None]] = []

    def covers(self, start: int, stop: int | None) -> bool:
        """Whether ``[start, stop)`` lies inside one recorded interval.

        (Recorded intervals are merged when adjacent or overlapping, so
        a span covered by the union is always covered by one member.)
        """
        for lo, hi in self._spans:
            if lo > start:
                return False
            if hi is None:
                return True
            if start < hi:
                return stop is not None and stop <= hi
        return False

    def add(self, start: int, stop: int | None) -> None:
        """Merge ``[start, stop)`` into the set."""
        merged: list[tuple[int, int | None]] = []
        for lo, hi in self._spans:
            disjoint = (stop is not None and stop < lo) or (
                hi is not None and hi < start)
            if disjoint:
                merged.append((lo, hi))
                continue
            start = min(start, lo)
            if stop is not None:
                stop = None if hi is None else max(stop, hi)
        merged.append((start, stop))
        merged.sort()
        self._spans = merged

    def __bool__(self) -> bool:
        return bool(self._spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        spans = ", ".join(
            f"[{lo}, {'inf' if hi is None else hi})"
            for lo, hi in self._spans)
        return f"IntervalSet({spans})"
