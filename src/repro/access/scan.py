"""Unified access-path layer: scan descriptors owning latching,
visibility, and prefetch.

Every construct the paper layers over the storage system — f-chunk's
chunk class (§6.3), v-segment's segment index (§6.4), Inversion's
metadata classes (§8) — reduces to the same pattern: B-tree probe or
range scan, heap fetch, snapshot-visibility filter.  Before this module
existed, that pattern (plus the engine-latch discipline around raw page
reads) was hand-rolled at eight call sites, and getting the latch wrong
at any one of them was a silent race.  The descriptors here are the one
place that pattern lives:

* :class:`IndexRangeScan` — the one index scan over ``[lo, hi]``: a
  leaf-chain walk up from ``lo`` with batched heap prefetch, or a floor
  walk down from ``hi``, both through one entry filter and one batched
  heap fetch;
* :class:`IndexProbe` — that scan over ``[key, key]``, counted as a
  probe; its ``first`` stops the floor walk at the newest visible version;
* :class:`SeqScan` — full-relation scan with visibility filtering.

All three take the engine latch (``db.latch``) internally (see
DESIGN.md §"Locking discipline": heavyweight locks are always acquired
*before* the latch, never under it), apply the snapshot, and count what
they did into the shared :class:`AccessStats`, surfaced as
``db.statistics()["access"]``.

This layer is also the only reader of a class's **archive** (``a_<class>``,
filled by the sweep in :mod:`repro.access.archive`).  A travelling snapshot
merges in its visible versions (:func:`_archived_versions` — one
sequential filter: the archive is write-once and unindexed; every index
scan merges them through ``IndexRangeScan._with_archive``), so time
travel reads one history through every descriptor, swept or not; a
current-state one pays a ``snapshot.as_of is None`` test and nothing else.

``unique=True`` enforces the "exactly one visible version per key"
invariant that a no-overwrite heap owes its readers: if a snapshot ever
sees two versions of the same chunk or segment, something upstream
violated snapshot isolation, and the scan raises the caller-supplied
snapshot-anomaly error instead of silently letting one version shadow
the other.

The layer is backed by a debug tripwire: when a :class:`~repro.db.Database`
is constructed while the lockdep validator is armed (``REPRO_LOCKDEP=1``,
the default under pytest — see ``tests/conftest.py``), the raw access methods
(``HeapRelation.fetch``/``fetch_many``,
``BTree.search``/``range_scan``/``range_scan_desc``)
verify the engine latch is held, so any future call site that bypasses
this layer fails loudly in CI instead of racing in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, takewhile
from operator import itemgetter
from typing import TYPE_CHECKING, Callable

from repro.access.tuples import TID, HeapTuple
from repro.errors import ReproError
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.access.btree import BTree
    from repro.access.heap import HeapRelation
    from repro.db import Database
    from repro.txn.manager import Transaction

#: Builds the error raised when ``unique=True`` finds several visible
#: versions of one key: ``(key, visible_count) -> Exception``.
AnomalyFactory = Callable[[int, int], Exception]

_KEY, _TID = itemgetter(0), itemgetter(1)    # of a (key, TID) index entry


@dataclass
class AccessStats:
    """Counters for every access path executed through this layer."""

    probes: int = 0            # IndexProbe executions
    range_scans: int = 0       # IndexRangeScan executions
    seq_scans: int = 0         # SeqScan executions
    tuples_scanned: int = 0    # versions fetched (pinned) from the heap
    tuples_visible: int = 0    # of those, visible to the scan's snapshot
    prefetch_batches: int = 0  # range scans that issued heap readahead


def _outside(key: int | None, lo: int | None, hi: int | None) -> bool:
    """Whether *key* is null or outside ``[lo, hi]`` (``None`` bounds
    are open)."""
    return (key is None or (lo is not None and key < lo)
            or (hi is not None and key > hi))


def _archived_versions(db: "Database", relation: "HeapRelation",
                       snapshot: Snapshot, found: "list[HeapTuple]",
                       index: "BTree | None" = None,
                       lo: int | None = None, hi: int | None = None,
                       wanted: set[int] | None = None
                       ) -> list[tuple[int | None, HeapTuple]]:
    """``(key, version)`` for each version of *relation* in its archive
    that the travelling *snapshot* sees (latch held; ``[]`` without an
    archive).  With *index*, ``key`` is the version's key under it and must
    lie inside ``[lo, hi]`` and *wanted*; else ``None``.  Versions in
    *found* — what the relation itself returned — are skipped by their
    ``(oid, xmin, xmax)`` identity: a crash between the archive's flush
    and the relation's leaves a version in both places.
    """
    archive = db.archiver.archive_relation(relation.name)
    if archive is None:
        return []
    position = None if index is None else relation.schema.position(
        db.catalog.indexes[index.name].attribute)
    seen = {(tup.oid, tup.xmin, tup.xmax) for tup in found}
    out = []
    for tup in archive.scan_versions():
        db.access_stats.tuples_scanned += 1
        key = None
        if position is not None:
            key = tup.values[position]
            if _outside(key, lo, hi) or (wanted is not None
                                         and key not in wanted):
                continue
        identity = (tup.oid, tup.xmin, tup.xmax)
        if identity not in seen and snapshot.is_visible(
                tup.xmin, tup.xmax, relation.clog):
            seen.add(identity)
            out.append((key, tup))
    db.access_stats.tuples_visible += len(out)
    return out


class IndexRangeScan:
    """The one index scan: the visible versions under keys in ``[lo, hi]``.

    :meth:`visible` walks the leaf chain up from ``lo`` (one descent, then
    right-sibling pointers: O(entries / leaf fanout) node reads) and reads
    the entries' heap blocks ahead in contiguous runs;
    :meth:`visible_from_floor` walks down from ``hi``.  Both pass the
    entries through one deleter-map filter (:meth:`_live`) and resolve
    them by one batched heap fetch (:meth:`_fetch`).

    ``None`` bounds are open.  ``unique=True`` raises the ``anomaly``
    error (a :class:`ReproError` without one) when any single key in the
    scan has several visible versions.  ``recheck_position`` drops a
    fetched version whose attribute at that position lies outside
    ``[lo, hi]`` — the defence against index entries that went stale
    between a deletion and the vacuum that prunes them (a freed slot may
    be reused by an unrelated tuple).
    """

    #: Whether the heap blocks of the entries are read ahead.
    readahead = True

    def __init__(self, db: "Database", index: "BTree",
                 relation: "HeapRelation", lo: int | None,
                 hi: int | None, *, unique: bool = False,
                 anomaly: AnomalyFactory | None = None,
                 recheck_position: int | None = None):
        self.db = db
        self.index = index
        self.relation = relation
        self.lo = lo
        self.hi = hi
        self.unique = unique
        self.anomaly = anomaly
        self.recheck_position = recheck_position

    @staticmethod
    def _count(stats: AccessStats) -> None:
        stats.range_scans += 1

    def visible(self, snapshot: Snapshot,
                wanted: set[int] | None = None
                ) -> list[tuple[int, HeapTuple]]:
        """Visible ``(key, tuple)`` pairs in index-key order.

        *wanted* restricts the scan to those keys (the f-chunk read path
        scans ``[min, max]`` of a chunk window but only needs the chunks
        the caller is missing, and passes none when it needs them all).
        """
        with self.db.latch:
            out = self._fetch(self._read_ahead(snapshot, wanted), snapshot)
            if snapshot.as_of is not None:
                out = self._with_archive(snapshot, out, wanted)
        self._check_unique(out)
        return out

    def delete(self, txn: "Transaction", snapshot: Snapshot) -> list[int]:
        """Stamp *txn*'s deletion on the versions under keys in ``[lo,
        hi]`` the current *snapshot* sees, and return their keys: one
        latch hold, one ``HeapRelation.delete`` over the live entries'
        TIDs, no version decoded.  The relation lock comes first."""
        self.db.share_relation(txn, self.relation.name)
        with self.db.latch:
            pairs = self._read_ahead(snapshot)
            oids = self.relation.delete(txn, [*map(_TID, pairs)], snapshot)
        stamped = [pair for pair, oid in zip(pairs, oids) if oid is not None]
        stats = self.db.access_stats
        stats.tuples_scanned += len(pairs)
        stats.tuples_visible += len(stamped)
        self._check_unique(stamped)
        return [key for key, _tid in stamped]

    def _read_ahead(self, snapshot: Snapshot, wanted: set[int] | None = None
                    ) -> list[tuple[int, TID]]:
        """The ascending walk: ``[lo, hi]``'s entries as one batch through
        :meth:`_live`, then the survivors' heap blocks read ahead."""
        stats = self.db.access_stats
        self._count(stats)
        pairs = self._live([*self.index.range_scan(self.lo, self.hi)],
                           snapshot, wanted)
        if self.readahead and self.relation.prefetch_tids(map(_TID, pairs)):
            stats.prefetch_batches += 1
        return pairs

    def visible_from_floor(self, snapshot: Snapshot, pivot: int
                           ) -> list[tuple[int, HeapTuple]]:
        """Visible pairs from the *floor* of *pivot* — the greatest key
        at or below it with a visible version — up to ``hi``, in key
        order: all that can intersect ``[pivot, hi]`` when records are
        disjoint intervals keyed by their start (docs/invariants.md)."""
        return self._floor(snapshot, pivot, first=False)

    def _floor(self, snapshot: Snapshot, pivot: int, first: bool
               ) -> list[tuple[int, HeapTuple]]:
        """The descending floor walk from ``hi``, newest entry first:
        entries above *pivot* are fetched as one batch; those at or below
        it one by one until one is visible.  With *first*, the walk ends
        there and a travelling snapshot reads the archive only if nothing
        was found; else that key's run is finished (so ``unique`` sees a
        second version) and the archive is merged in."""
        above: list[tuple[int, TID]] = []
        found: list[tuple[int, HeapTuple]] = []
        with self.db.latch:
            self._count(self.db.access_stats)
            entries = self.index.range_scan_desc(self.hi, self.lo)
            for pair in entries:
                if pair[0] > pivot:
                    above.append(pair)
                elif self._live([pair], snapshot):
                    found = self._fetch([pair], snapshot)
                    if found:
                        break
            rest = above[::-1]
            if found and not first:    # the floor key's run, then above
                floor = found[0][0]
                rest[:0] = takewhile(lambda entry: entry[0] == floor, entries)
            if rest:
                found += self._fetch(self._live(rest, snapshot), snapshot)
            if snapshot.as_of is not None and not (first and found):
                found = self._with_archive(snapshot, found, pivot=pivot)
        self._check_unique(found)
        return found

    def _live(self, entries: list[tuple[int, TID]], snapshot: Snapshot,
              wanted: set[int] | None = None) -> list[tuple[int, TID]]:
        """Index *entries* (``(key, TID)`` pairs) less those outside
        *wanted* and those whose deleter the snapshot sees (by the
        relation's deleter map): the scan layer's one entry filter, a
        batch of C-level passes."""
        if wanted is not None:
            entries = [*compress(entries, map(wanted.__contains__,
                                              map(_KEY, entries)))]
        return self.relation.known_dead(entries, snapshot)

    def _fetch(self, pairs: list[tuple[int, TID]], snapshot: Snapshot
               ) -> list[tuple[int, HeapTuple]]:
        """The visible versions *pairs* point at, as pairs in input order
        (latch held): the one loop that resolves index entries — one
        batched heap fetch, pins shared across same-block runs, only
        visible tuples decoded, the recheck applied."""
        stats = self.db.access_stats
        stats.tuples_scanned += len(pairs)
        if not pairs:
            return []
        keys, tids = zip(*pairs)
        found = self.relation.fetch_many(tids, snapshot)
        if len(found) == len(tids):     # all visible: keys line up
            out = list(zip(keys, found))
        else:
            key_by_tid = dict(zip(tids, keys))
            out = [(key_by_tid[tup.tid], tup) for tup in found]
        position = self.recheck_position
        if position is not None:
            out = [pair for pair in out if not _outside(
                pair[1].values[position], self.lo, self.hi)]
        stats.tuples_visible += len(out)
        return out

    def _with_archive(self, snapshot: Snapshot,
                      found: list[tuple[int, HeapTuple]],
                      wanted: set[int] | None = None,
                      pivot: int | None = None
                      ) -> list[tuple[int, HeapTuple]]:
        """*found* plus the archive's visible pairs inside the bounds, in
        key order (latch held) — from the floor of *pivot*, if given."""
        extra = _archived_versions(
            self.db, self.relation, snapshot, [tup for _key, tup in found],
            self.index, self.lo, self.hi, wanted)
        if not extra:
            return found
        found = sorted(found + extra, key=lambda pair: pair[0])
        if pivot is not None:
            # The floor may have been swept: keep the greatest key at or
            # below the pivot of the two relations together.
            floor = max((key for key, _tup in found if key <= pivot),
                        default=pivot)
            found = [pair for pair in found if pair[0] >= floor]
        return found

    def _check_unique(self, found: list[tuple[int, object]]) -> None:
        if self.unique and len(found) > 1:
            keys = [key for key, _tup in found]  # key order: runs adjacent
            for key, following in zip(keys, keys[1:]):
                if key == following:
                    count = keys.count(key)
                    if self.anomaly is not None:
                        raise self.anomaly(key, count)
                    raise ReproError(
                        f"relation {self.relation.name!r}: {count} visible "
                        f"versions of key {key} (snapshot anomaly)")

    def tuples(self, snapshot: Snapshot) -> list[HeapTuple]:
        """Visible tuples in index-key order."""
        return [tup for _key, tup in self.visible(snapshot)]

    def first(self, snapshot: Snapshot) -> HeapTuple | None:
        """A visible version under the greatest key that has one,
        stopping at the first hit.

        This is the floor walk from ``hi``, so each key's run is visited
        newest entry first: the current version costs one descent and
        one heap fetch however many superseded versions share its key.
        Meant for keys with exactly one visible version per snapshot —
        the ``pg_largeobject`` size row over ``[key, key]``, a byte
        store's last chunk over all seqnos (docs/invariants.md) — where
        visiting order cannot change the answer, only how many dead
        versions are fetched on the way to it.  An ``as_of`` snapshot
        walks back only as far as its own version, and reads the archive
        only when the relation holds none, so over a range of keys it
        wants a current snapshot.  Use :meth:`tuples` when every version
        matters.
        """
        found = self._floor(snapshot, self.hi, first=not self.unique)
        return found[0][1] if found else None


class IndexProbe(IndexRangeScan):
    """Equality probe: the scan over ``[key, key]``, counted as a probe
    and reading nothing ahead (one key's versions lie by time, not key)."""

    readahead = False

    def __init__(self, db: "Database", index: "BTree",
                 relation: "HeapRelation", key: int, **options):
        super().__init__(db, index, relation, key, key, **options)

    @staticmethod
    def _count(stats: AccessStats) -> None:
        stats.probes += 1


class SeqScan:
    """Full-relation scan: every version examined, visible ones returned
    — for a travelling snapshot, the archive's after the relation's own.

    Materializes under the engine latch, so the result is a consistent
    cut even while other sessions write.
    """

    def __init__(self, db: "Database", relation: "HeapRelation"):
        self.db = db
        self.relation = relation

    def tuples(self, snapshot: Snapshot) -> list[HeapTuple]:
        with self.db.latch:
            out = list(self.each(snapshot))
            if snapshot.as_of is not None:
                out += [tup for _key, tup in _archived_versions(
                    self.db, self.relation, snapshot, out)]
        return out

    def each(self, snapshot: Snapshot):
        """The relation's own visible versions one at a time, for a caller
        that holds the latch across its loop and keeps none of them."""
        stats = self.db.access_stats
        stats.seq_scans += 1
        for tup in self.relation.scan_versions():
            stats.tuples_scanned += 1
            if snapshot.is_visible(tup.xmin, tup.xmax, self.relation.clog):
                stats.tuples_visible += 1
                yield tup


def fetch_visible(db: "Database", relation: "HeapRelation", tid: TID,
                  snapshot: Snapshot) -> HeapTuple | None:
    """Point fetch: the visible tuple at *tid*, latched, or ``None``.

    The TID analogue of :class:`IndexProbe` — the one sanctioned way to
    resolve a caller-supplied TID outside this module (the ``Database``
    facade's ``fetch`` routes through here).
    """
    with db.latch:
        db.access_stats.probes += 1
        if not relation.known_dead([(None, tid)], snapshot):
            return None
        db.access_stats.tuples_scanned += 1
        tup = relation.fetch(tid, snapshot)
        if tup is not None:
            db.access_stats.tuples_visible += 1
        return tup


# -- structural checks (integrity sweep) -------------------------------------

def check_index(db: "Database", index: "BTree") -> None:
    """Run the index's structural invariant check under the engine latch."""
    with db.latch:
        index.check_invariants()


def dangling_index_entries(db: "Database", index: "BTree",
                           relation: "HeapRelation"
                           ) -> list[tuple[int, TID]]:
    """Index entries whose TID no longer resolves to a decodable tuple."""
    out = []
    with db.latch:
        db.access_stats.range_scans += 1
        for entry in index.range_scan():
            try:
                relation.fetch_any_version(entry[1])
            except ReproError:
                out.append(entry)
    return out
