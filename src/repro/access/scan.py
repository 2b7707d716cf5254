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

* :class:`IndexProbe` — equality probe: one key, all visible versions;
* :class:`IndexRangeScan` — leaf-chain walk over ``[lo, hi]`` with
  batched heap prefetch, or a floor probe walking down from ``hi``;
* :class:`SeqScan` — full-relation scan with visibility filtering.

All three take the engine latch (``db.latch``) internally (see
DESIGN.md §"Locking discipline": heavyweight locks are always acquired
*before* the latch, never under it), apply the snapshot, and count what
they did into the shared :class:`AccessStats`, surfaced as
``db.statistics()["access"]``.

This layer is also the only reader of a class's **archive** (``a_<class>``,
filled by the sweep in :mod:`repro.access.archive`).  A travelling snapshot
merges in its visible versions (:func:`_archived_versions` — one
sequential filter: the archive is write-once and unindexed), so time
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
``BTree.search``/``search_newest``/``range_scan``/``range_scan_desc``)
verify the engine latch is held, so any future call site that bypasses
this layer fails loudly in CI instead of racing in production.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.access.tuples import TID, HeapTuple
from repro.errors import ReproError
from repro.txn.snapshot import Snapshot

if TYPE_CHECKING:
    from repro.access.btree import BTree, Key
    from repro.access.heap import HeapRelation
    from repro.db import Database

#: Builds the error raised when ``unique=True`` finds several visible
#: versions of one key: ``(key, visible_count) -> Exception``.
AnomalyFactory = Callable[["Key", int], Exception]


@dataclass
class AccessStats:
    """Counters for every access path executed through this layer."""

    probes: int = 0            # IndexProbe executions
    range_scans: int = 0       # IndexRangeScan executions
    seq_scans: int = 0         # SeqScan executions
    tuples_scanned: int = 0    # versions fetched (pinned) from the heap
    tuples_visible: int = 0    # of those, visible to the scan's snapshot
    prefetch_batches: int = 0  # range scans that issued heap readahead


def _default_anomaly(relation_name: str) -> AnomalyFactory:
    def build(key: "Key", count: int) -> Exception:
        return ReproError(
            f"relation {relation_name!r}: {count} visible versions of "
            f"key {key} (snapshot anomaly)")
    return build


def _archived_versions(db: "Database", relation: "HeapRelation",
                       snapshot: Snapshot, found: "list[HeapTuple]",
                       index: "BTree | None" = None,
                       lo: "Key | None" = None, hi: "Key | None" = None,
                       wanted: "set[Key] | None" = None
                       ) -> "list[tuple[Key | None, HeapTuple]]":
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
            key = (tup.values[position],)
            if (key[0] is None or (lo is not None and key < lo)
                    or (hi is not None and key > hi)
                    or (wanted is not None and key not in wanted)):
                continue
        identity = (tup.oid, tup.xmin, tup.xmax)
        if identity not in seen and snapshot.is_visible(
                tup.xmin, tup.xmax, relation.clog):
            seen.add(identity)
            out.append((key, tup))
    db.access_stats.tuples_visible += len(out)
    return out


class IndexProbe:
    """Equality probe: all visible versions stored under one key.

    ``recheck_position`` re-verifies the fetched tuple's attribute at
    that position against the probe key — the defence against index
    entries that went stale between a deletion and the vacuum that
    prunes them (a freed slot may be reused by an unrelated tuple).

    ``unique=True`` raises the ``anomaly`` error if more than one
    version is visible.
    """

    def __init__(self, db: "Database", index: "BTree",
                 relation: "HeapRelation", key: "Key", *,
                 unique: bool = False,
                 anomaly: AnomalyFactory | None = None,
                 recheck_position: int | None = None):
        self.db = db
        self.index = index
        self.relation = relation
        self.key = tuple(key)
        self.unique = unique
        self.anomaly = anomaly or _default_anomaly(relation.name)
        self.recheck_position = recheck_position

    def tuples(self, snapshot: Snapshot) -> list[HeapTuple]:
        """All visible versions under the key, in index order."""
        stats = self.db.access_stats
        out: list[HeapTuple] = []
        with self.db.latch:
            stats.probes += 1
            for blockno, slot in self.index.search(self.key):
                if self.relation.known_dead(blockno, slot, snapshot):
                    continue
                stats.tuples_scanned += 1
                tup = self.relation.fetch(TID(blockno, slot), snapshot)
                if tup is None:
                    continue
                if (self.recheck_position is not None
                        and tup.values[self.recheck_position]
                        != self.key[0]):
                    continue
                out.append(tup)
            stats.tuples_visible += len(out)
            if snapshot.as_of is not None:
                out += self._from_archive(snapshot, out)
        if self.unique and len(out) > 1:
            raise self.anomaly(self.key, len(out))
        return out

    def first(self, snapshot: Snapshot) -> HeapTuple | None:
        """One visible version, stopping at the first hit.

        Meant for keys with exactly one visible version per snapshot
        (the ``pg_largeobject`` size row — docs/invariants.md), where
        visiting order cannot change the answer, only how many dead
        versions are fetched on the way to it.  The run is visited
        newest entry first, so the current version costs one descent
        and one heap fetch however many superseded versions share the
        key; an ``as_of`` snapshot walks back only as far as its own
        version.  Use :meth:`tuples` when every version matters.
        """
        stats = self.db.access_stats
        with self.db.latch:
            stats.probes += 1
            for blockno, slot in self.index.search_newest(self.key):
                if self.relation.known_dead(blockno, slot, snapshot):
                    continue
                stats.tuples_scanned += 1
                tup = self.relation.fetch(TID(blockno, slot), snapshot)
                if tup is None:
                    continue
                if (self.recheck_position is not None
                        and tup.values[self.recheck_position]
                        != self.key[0]):
                    continue
                stats.tuples_visible += 1
                return tup
            if snapshot.as_of is not None:
                return next(iter(self._from_archive(snapshot, [])), None)
        return None

    def _from_archive(self, snapshot: Snapshot,
                      found: list[HeapTuple]) -> list[HeapTuple]:
        return [tup for _key, tup in _archived_versions(
            self.db, self.relation, snapshot, found, self.index,
            self.key, self.key)]


class IndexRangeScan:
    """Leaf-chain scan over ``[lo, hi]`` with batched heap prefetch.

    One root-to-leaf descent finds the first leaf; the scan then walks
    right-sibling pointers, so a long read costs O(entries / leaf
    fanout) node reads.  The heap blocks the entries resolve to are read
    ahead in contiguous runs before the fetch loop pins them.

    ``None`` bounds are open.  ``unique=True`` raises the ``anomaly``
    error when any single key in the scan has several visible versions.
    """

    def __init__(self, db: "Database", index: "BTree",
                 relation: "HeapRelation", lo: "Key | None",
                 hi: "Key | None", *, unique: bool = False,
                 anomaly: AnomalyFactory | None = None):
        self.db = db
        self.index = index
        self.relation = relation
        self.lo = None if lo is None else tuple(lo)
        self.hi = None if hi is None else tuple(hi)
        self.unique = unique
        self.anomaly = anomaly or _default_anomaly(relation.name)

    def visible(self, snapshot: Snapshot,
                wanted: "set[Key] | None" = None
                ) -> "list[tuple[Key, HeapTuple]]":
        """Visible ``(key, tuple)`` pairs in index-key order.

        *wanted* restricts the scan to those keys (the f-chunk read path
        scans ``[min, max]`` of a chunk window but only needs the chunks
        the caller is missing).  Entries the deleter map rules out are
        dropped before the readahead.
        """
        stats = self.db.access_stats
        known_dead = self.relation.known_dead
        with self.db.latch:
            stats.range_scans += 1
            pairs = [(key, TID(blockno, slot)) for key, (blockno, slot)
                     in self.index.range_scan(self.lo, self.hi)
                     if (wanted is None or key in wanted)
                     and not known_dead(blockno, slot, snapshot)]
            if self.relation.prefetch_tids(tid for _key, tid in pairs):
                stats.prefetch_batches += 1
            out = self._fetch(pairs, snapshot)
            if snapshot.as_of is not None:
                out = self._with_archive(snapshot, out, wanted)
        self._check_unique(out)
        return out

    def visible_from_floor(self, snapshot: Snapshot, pivot: "Key"
                           ) -> "list[tuple[Key, HeapTuple]]":
        """Visible pairs from the *floor* of *pivot* — the greatest key
        at or below it with a visible version — up to ``hi``, in key
        order: all that can intersect ``[pivot, hi]`` when records are
        disjoint intervals keyed by their start (docs/invariants.md).
        One descending walk from ``hi``: entries above the pivot are
        fetched as one batch, those at or below it one by one until one
        is visible; its key's run is finished (so ``unique`` sees a
        second version) and the walk ends there, or at ``lo``."""
        stats = self.db.access_stats
        known_dead = self.relation.known_dead
        above: list[tuple["Key", TID]] = []
        found: list[tuple["Key", HeapTuple]] = []
        with self.db.latch:
            stats.range_scans += 1
            for key, (blockno, slot) in self.index.range_scan_desc(
                    self.hi, self.lo):
                if key > pivot:
                    if not known_dead(blockno, slot, snapshot):
                        above.append((key, TID(blockno, slot)))
                    continue
                if found and key != found[0][0]:
                    break
                if known_dead(blockno, slot, snapshot):
                    continue
                stats.tuples_scanned += 1
                tup = self.relation.fetch(TID(blockno, slot), snapshot)
                if tup is not None:
                    found.append((key, tup))
            stats.tuples_visible += len(found)
            if above:
                found += self._fetch(above[::-1], snapshot)
            if snapshot.as_of is not None:
                found = self._with_archive(snapshot, found, pivot=pivot)
        self._check_unique(found)
        return found

    def _with_archive(self, snapshot: Snapshot,
                      found: "list[tuple[Key, HeapTuple]]",
                      wanted: "set[Key] | None" = None,
                      pivot: "Key | None" = None
                      ) -> "list[tuple[Key, HeapTuple]]":
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

    def _fetch(self, pairs: "list[tuple[Key, TID]]", snapshot: Snapshot
               ) -> "list[tuple[Key, HeapTuple]]":
        """One batched heap fetch (latch held): pins shared across
        same-block runs, only visible tuples decoded, input order kept."""
        stats = self.db.access_stats
        stats.tuples_scanned += len(pairs)
        key_by_tid = {tid: key for key, tid in pairs}
        out = [(key_by_tid[tup.tid], tup)
               for tup in self.relation.fetch_many(
                   [tid for _key, tid in pairs], snapshot, prefetch=False)]
        stats.tuples_visible += len(out)
        return out

    def _check_unique(self, found: "list[tuple[Key, HeapTuple]]") -> None:
        if self.unique and len(found) > 1:
            keys = [key for key, _tup in found]  # key order: runs adjacent
            for key, following in zip(keys, keys[1:]):
                if key == following:
                    raise self.anomaly(key, keys.count(key))

    def tuples(self, snapshot: Snapshot) -> list[HeapTuple]:
        """Visible tuples in index-key order."""
        return [tup for _key, tup in self.visible(snapshot)]


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
        if relation.known_dead(tid.blockno, tid.slot, snapshot):
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
                           ) -> "list[tuple[Key, TID]]":
    """Index entries whose TID no longer resolves to a decodable tuple."""
    out = []
    with db.latch:
        db.access_stats.range_scans += 1
        for key, (blockno, slot) in index.range_scan():
            tid = TID(blockno, slot)
            try:
                relation.fetch_any_version(tid)
            except ReproError:
                out.append((key, tid))
    return out
