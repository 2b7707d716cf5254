#!/usr/bin/env python3
"""Archival storage on the WORM jukebox (paper §7 and §9.3).

Demonstrates the storage-manager switch: the same f-chunk large-object
code runs unchanged on write-once optical media, with a magnetic-disk
cache staging writes and absorbing read seeks.  Also registers a
user-defined storage manager, written from scratch, at runtime — the
paper's §7 extensibility claim ("any user can define a new storage
manager by writing and registering a small set of interface routines").

Run:  python examples/worm_archive.py
"""

from repro.db import Database
from repro.errors import StorageManagerError, WriteOnceViolation
from repro.sim.devices import DeviceModel, DevicePort
from repro.smgr.base import StorageManager
from repro.storage.constants import PAGE_SIZE


def main() -> None:
    db = Database(worm_cache_blocks=128)

    # -- archive a document set onto the jukebox ---------------------------
    documents = {
        f"doc-{i}": (f"Archive record {i}. ".encode() * 200 + bytes(2000))
        for i in range(8)
    }
    designators = {}
    txn = db.begin()
    for name, body in documents.items():
        designator = db.lo.create(txn, "fchunk", smgr="worm",
                                  compression="zero-rle")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(body)
        designators[name] = designator
    txn.commit()
    print(f"archived {len(documents)} documents "
          f"({sum(map(len, documents.values())):,} bytes) to the jukebox")

    # -- force the data onto the write-once media --------------------------
    worm = db.storage_manager("worm")
    db.checkpoint()
    worm.sync_all()
    stats = worm.stats()
    print(f"migrated {stats['migrations']} blocks to optical media")

    # -- write-once is enforced at the device -------------------------------
    try:
        worm.base.write_block(
            next(iter(worm.base._nblocks)), 0, bytes(8192))
    except WriteOnceViolation as exc:
        print(f"overwrite refused, as WORM media must: {exc}")

    # -- a cold read pays the jukebox; the disk cache absorbs the re-read --
    db.bufmgr.invalidate_all()
    for fileid in list(worm._nblocks):
        worm.invalidate(fileid)  # drop clean cached blocks: truly cold
    snap = db.clock.snapshot()
    with db.lo.open(designators["doc-3"]) as obj:
        body = obj.read()
    assert body == documents["doc-3"]
    first = snap.since(db.clock).elapsed
    db.bufmgr.invalidate_all()  # bypass the buffer pool, not the cache
    snap = db.clock.snapshot()
    with db.lo.open(designators["doc-3"]) as obj:
        obj.read()
    second = snap.since(db.clock).elapsed
    print(f"doc-3 read: cold {first * 1000:.1f} ms (simulated jukebox), "
          f"re-read {second * 1000:.2f} ms (disk cache) — "
          f"{first / second:.0f}x faster")

    # -- §7: register a brand-new storage manager at runtime ----------------
    tape_model = DeviceModel(name="tape", avg_seek_s=2.0,
                             rotational_s=0.0,
                             transfer_bytes_per_s=0.25e6)

    class TapeManager(StorageManager):
        """Written from scratch: a reel of blocks per file, and only the
        medium routines (a write is on the reel when it returns, so the
        default sync does).  The block contract (no holes, whole blocks,
        no read past the end) and fault injection come with the base."""

        name = "tape"

        def __init__(self, clock, model):
            super().__init__(clock)
            self.port = DevicePort(model, clock)  # the tape drive it charges
            self.reels: dict[str, list[bytes]] = {}

        def create(self, fileid):
            self.reels.setdefault(fileid, [])

        def exists(self, fileid):
            return fileid in self.reels

        def unlink(self, fileid):
            self.reels.pop(fileid, None)

        def nblocks(self, fileid):
            if fileid not in self.reels:
                raise StorageManagerError(f"no reel for {fileid!r}")
            return len(self.reels[fileid])

        def _read_run(self, fileid, first, count):
            self.port.charge_run(fileid, first * PAGE_SIZE, PAGE_SIZE,
                                 count, False)
            return [bytearray(image)
                    for image in self.reels[fileid][first:first + count]]

        def _write_runs(self, fileid, runs):
            for first, images in runs:
                self.port.charge_run(fileid, first * PAGE_SIZE, PAGE_SIZE,
                                     len(images), True)
                self.reels[fileid][first:first + len(images)] = \
                    map(bytes, images)

    db.switch.register("tape",
                       lambda: TapeManager(db.clock, model=tape_model))
    db.execute('create TAPE_LOG (entry = text) '
               'with storage manager "tape"')
    db.execute('append TAPE_LOG (entry = "stored via a user-defined '
               'storage manager")')
    print("user-defined 'tape' manager:",
          db.execute('retrieve (TAPE_LOG.entry)').scalar())

    # -- and Inversion files automatically work on it (§10) -----------------
    from repro.inversion.filesystem import InversionFileSystem
    tape_fs = InversionFileSystem(db, smgr="tape")
    with db.begin() as txn:
        tape_fs.write_file(txn, "/backup.img", b"bytes on tape")
    print("Inversion file on tape:",
          tape_fs.read_file("/backup.img"))

    db.close()


if __name__ == "__main__":
    main()
