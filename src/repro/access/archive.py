"""The vacuum cleaner: one sweep, and history migrating to slower storage.

The POSTGRES storage system [STON87B] pairs no-overwrite versioning with a
*vacuum cleaner* that sweeps superseded tuple versions out of the current
relation and into an **archive** relation — typically placed on the WORM
jukebox, whose write-once semantics suit data that will never change
again.  The paper leans on this design twice: time travel over large
objects (§6.3/§6.4) and the WORM storage manager (§7) are two halves of
one archival story.

Mechanics:

* :meth:`Archiver.sweep` is the one sweep behind ``Database.vacuum`` (dead
  versions are discarded) and ``Database.archive_class`` (versions whose
  deleter committed move to the archive, stamps preserved byte-for-byte;
  an aborted inserter's are discarded either way).  The page walk and the
  dead-version test are :meth:`HeapRelation.vacuum
  <repro.access.heap.HeapRelation.vacuum>`;
* each class ``X`` gets, on first archive, a companion class ``a_X`` with
  the same schema, on the archive storage manager — write-once, so the
  sweep never descends into an ``a_*`` class;
* current-state readers never look at the archive; **time-travel readers
  chain** the current relation and the archive in the scan layer
  (:mod:`repro.access.scan`, the only code that reads one), deduplicating
  versions that a crash between the copy and the delete may have left in
  both places.

The sweep is maintenance, not a user transaction: like vacuum in POSTGRES
(and PostgreSQL), it runs outside MVCC and is idempotent.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.access.heap import HeapRelation
from repro.errors import RelationError

if TYPE_CHECKING:
    from repro.db import Database


def archive_name(class_name: str) -> str:
    """Name of the archive companion class."""
    return f"a_{class_name}"


def is_archive_name(class_name: str) -> bool:
    return class_name.startswith("a_")


class Archiver:
    """Sweeps dead tuple versions out of classes, optionally into
    per-class archive relations."""

    def __init__(self, db: "Database", archive_smgr: str = "worm"):
        self.db = db
        self.archive_smgr = archive_smgr

    # -- archive relations -------------------------------------------------------

    def archive_relation(self, class_name: str,
                         create: bool = False) -> HeapRelation | None:
        """The companion archive class, optionally creating it."""
        name = archive_name(class_name)
        if self.db.class_exists(name):
            return self.db.get_class(name)
        if not create:
            return None
        source = self.db.get_class(class_name)
        return self.db.create_class(name, source.schema,
                                    smgr=self.archive_smgr)

    # -- the sweep ------------------------------------------------------------------

    def sweep(self, class_name: str, horizon: float | None = None,
              archive_sink: Callable[[bytes], None] | None = None) -> int:
        """Sweep *class_name*; returns how many versions were removed.

        One engine-latch hold covers the page mutation, the archive
        inserts, the index pruning (freed slots are reused: no entry may
        outlive its version) and one visibility-epoch bump, so no reader
        meets a freed slot through a stale index entry or an epoch-gated
        TID map.  Archive classes are not swept.
        """
        if is_archive_name(class_name):
            return 0
        db = self.db
        relation = db.get_class(class_name)
        removed: list = []
        with db.latch:
            relation.vacuum(horizon, removed, archive_sink)
            if removed:
                for entry in db.catalog.indexes_on(class_name):
                    index = db.get_index(entry.name)
                    position = relation.schema.position(entry.attribute)
                    for tup in removed:
                        if tup.values[position] is not None:
                            index.delete((tup.values[position],),
                                         (tup.tid.blockno, tup.tid.slot))
                db.clog.bump_visibility_epoch()
        return len(removed)

    def archive_class(self, class_name: str,
                      horizon: float | None = None) -> dict[str, int]:
        """Sweep *class_name* into its archive (created on the first
        version worth keeping); returns ``{"archived": n, "discarded": m}``
        — which versions go where is :meth:`HeapRelation.vacuum
        <repro.access.heap.HeapRelation.vacuum>`'s one dead-version test.
        """
        if is_archive_name(class_name):
            raise RelationError("archives are not themselves archived")
        relation = self.db.get_class(class_name)
        archive = None
        archived = 0

        def to_archive(image: bytes) -> None:
            nonlocal archive, archived
            if archive is None:
                archive = self.archive_relation(class_name, create=True)
            archive.insert_raw(image)
            archived += 1

        removed = self.sweep(class_name, horizon, to_archive)
        if archived:
            # Make the copies durable *before* the deletions can reach the
            # device: a crash in between leaves harmless duplicates, never
            # a hole in history.
            relation.bufmgr.flush_file(archive.smgr, archive.fileid)
        if removed:
            relation.bufmgr.flush_file(relation.smgr, relation.fileid)
        return {"archived": archived, "discarded": removed - archived}
