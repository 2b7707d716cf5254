"""The performance pins: counts, never time.

Each function below drives one mechanism of ``benchmarks/pins.py::PINS``,
asserts what must hold between its results (the bytes read back, one
count against another), and returns ``(counts, bytecodes)``.
``test_counts`` holds the counts to the row's exact values on every
interpreter; ``test_ceiling`` holds the bytecode figures under the row's
ceilings on CPython 3.11.  Wall time is measured in one place,
``benchmarks/e2e``.
"""

import os
import random
import sys
import threading
import time
from collections import Counter
from contextlib import nullcontext
from statistics import median

import pytest
from pins import PINS, Bytecodes

from repro.bench.datasets import frame_bytes
from repro.db import Database
from repro.sim.devices import DevicePort

pytestmark = pytest.mark.perf

FRAME = 4000
CHUNK = 8000


def _same(values):
    """The one value all *values* share, or all of them when they differ
    (so a count that moved shows every reading)."""
    values = tuple(values)
    return values[0] if len(set(values)) == 1 else values


def _frames(db, impl, count):
    """A committed *impl* object of *count* 4,096-byte frames."""
    with db.begin() as txn:
        designator = db.lo.create(txn, impl)
        with db.lo.open(designator, txn, "rw") as obj:
            for number in range(count):
                obj.write(frame_bytes(number, 0.0))
    return designator


def _object(db, impl, data):
    """A committed *impl* object holding *data*."""
    with db.begin() as txn:
        designator = db.lo.create(txn, impl)
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(data)
    return designator


def _recording(calls, real, key=lambda *args: args):
    """*real*, appending ``key(*args)`` to *calls* on each call."""
    def wrapper(*args, **kwargs):
        calls.append(key(*args))
        return real(*args, **kwargs)
    return wrapper


def sequential_stream(tmp_path, monkeypatch):
    with Database(charge_cpu=False) as db:
        designator = _frames(db, "fchunk", 256)
        db.bufmgr.invalidate_all()
        before = db.bufmgr.stats.node_cache_misses
        with db.lo.open(designator) as obj:
            total = 0
            while data := obj.read(8192):
                total += len(data)
        assert total == 256 * 4096
        return {"index node reads":
                db.bufmgr.stats.node_cache_misses - before}, {}


def descriptor_caches(tmp_path, monkeypatch):
    counts = {}
    with Database(charge_cpu=False) as db:
        for impl, frames, kind in (("fchunk", 256, "chunk"),
                                   ("vsegment", 64, "segment")):
            designator = _frames(db, impl, frames)
            with db.lo.open(designator) as reader:
                reader.read(16384)            # fills the cache
                before = db.statistics()["largeobjects"]
                reader.seek(0)
                assert len(reader.read(16384)) == 16384
                after = db.statistics()["largeobjects"]
            prefix = "read" if kind == "chunk" else "segment"
            for outcome in ("hits", "misses"):
                key = f"{prefix}_cache_{outcome}"
                counts[f"{kind} cache {outcome}"] = after[key] - before[key]
    return counts, {}


def force_syscalls(tmp_path, monkeypatch):
    from repro.storage.constants import CHUNK_PAYLOAD, PAGE_SIZE
    database = Database(str(tmp_path / "db"), charge_cpu=False)
    txn = database.begin()
    designator = database.lo.create(txn, "fchunk")
    with database.lo.open(designator, txn, "rw") as obj:
        obj.write(b"\xa5" * (32 * CHUNK_PAYLOAD))
    stats, writes = [], []
    real_pwritev = os.pwritev

    def pwritev(fd, buffers, offset, *flags):
        assert offset % PAGE_SIZE == 0
        start = offset // PAGE_SIZE
        writes.append((fd, start, start + len(buffers)))
        return real_pwritev(fd, buffers, offset, *flags)

    for name in ("stat", "lstat", "fstat"):
        monkeypatch.setattr(os, name, _recording(stats, getattr(os, name)))
    monkeypatch.setattr(os, "pwritev", pwritev)
    txn.commit()
    monkeypatch.undo()
    database.close()
    # One system call per contiguous run: no call picks up where
    # another call on the same file left off (or overlaps it).
    writes.sort()
    for (fd, _start, end), (next_fd, next_start, _end) in zip(
            writes, writes[1:]):
        assert fd != next_fd or next_start > end, writes
    return {"stat calls": len(stats), "pwritev calls": len(writes),
            "pages written": sum(end - start
                                 for _fd, start, end in writes)}, {}


def _overwrite_commit(tmp_path, monkeypatch, impl, compression, zeros):
    """Counts of a two-frame overwrite commit of a warm 50-frame object,
    and the bytecodes of a second one's close + commit."""
    from repro.lo import metadata

    def frame(number, generation=0):
        return frame_bytes(number, zeros, frame_size=FRAME,
                           generation=generation)

    def overwrite_two_frames(generation):
        txn = database.begin()
        obj = database.lo.open(designator, txn, "rw")
        for number in (7, 31):
            obj.seek(number * FRAME)
            obj.write(frame(number, generation))
        return txn, obj

    database = Database(str(tmp_path / "db"), charge_cpu=False)
    with database.begin() as txn:
        designator = database.lo.create(txn, impl, compression=compression)
        with database.lo.open(designator, txn, "rw") as obj:
            for number in range(50):
                obj.write(frame(number))
    for generation in range(1, 4):       # warm: every page resident
        txn, obj = overwrite_two_frames(generation)
        obj.close()
        txn.commit()

    smgr = database.storage_manager("disk")
    probes, forced, syncing = [], Counter(), []
    real_force = smgr.force

    def force(batch, written=None):
        syncing.append(written is not None)
        forced.update(fileid for fileid, runs in batch if runs)
        return real_force(batch, written)

    txn, obj = overwrite_two_frames(4)
    monkeypatch.setattr(metadata, "size_row",
                        _recording(probes, metadata.size_row))
    monkeypatch.setattr(smgr, "force", force)
    obj.close()
    txn.commit()
    monkeypatch.undo()
    assert all(syncing), syncing                # no write-back call

    txn, obj = overwrite_two_frames(5)
    with Bytecodes() as executed:
        obj.close()
        txn.commit()
    with database.lo.open(designator) as fresh:
        fresh.seek(31 * FRAME)
        assert fresh.read(FRAME) == frame(31, 5)
    database.close()
    return {"size-row probes": len(probes), "force calls": len(syncing),
            "forced files": len(forced),
            "forces per file": _same(forced.values())}, \
        {"bytecodes": executed.count}


def overwrite_commit_fchunk(tmp_path, monkeypatch):
    return _overwrite_commit(tmp_path, monkeypatch, "fchunk", "none", 0.0)


def overwrite_commit_vsegment(tmp_path, monkeypatch):
    return _overwrite_commit(tmp_path, monkeypatch, "vsegment", "zero-rle",
                             0.5)


def history_flat(tmp_path, monkeypatch):
    """300 v-segment commits of two frame overwrites each; the opens and
    commits around the 10th and the 290th are watched."""
    early, late = range(6, 15), range(286, 295)
    database = Database(str(tmp_path / "db"), charge_cpu=False)
    with database.begin() as txn:
        designator = database.lo.create(txn, "vsegment",
                                        compression="zero-rle")
        with database.lo.open(designator, txn, "rw") as obj:
            for number in range(200):
                obj.write(frame_bytes(number, 0.5, frame_size=FRAME))
    rng = random.Random(1993)
    stats = database.access_stats
    opens, commits, counted = {}, {}, []
    for number in range(300):
        watched = number in early or number in late
        txn = database.begin()
        probes, scanned = stats.probes, stats.tuples_scanned
        with Bytecodes() if watched else nullcontext() as run:
            obj = database.lo.open(designator, txn, "rw")
        opened = (stats.probes - probes, stats.tuples_scanned - scanned)
        for _ in range(2):
            frame = rng.randrange(200)
            obj.seek(frame * FRAME)
            obj.write(frame_bytes(frame, 0.5, frame_size=FRAME,
                                  generation=number + 1))
        scanned = stats.tuples_scanned
        with Bytecodes() if watched else nullcontext() as committed:
            obj.close()
            txn.commit()
        if watched:
            opens[number], commits[number] = run.count, committed.count
            counted.append((*opened, stats.tuples_scanned - scanned))
    database.close()

    def growth(counts):
        first = median(counts[number] for number in early)
        assert first > 0
        return median(counts[number] for number in late) / first

    open_probes, open_reads, commit_reads = zip(*counted)
    # A commit also places the byte store's new tail chunk, and
    # FreeSpaceMap.find walks that relation's pages when the tail page
    # is full, at C speed: the commit's growth is that walk.
    return {"size-row probes per open": _same(open_probes),
            "versions read per open": _same(open_reads),
            "versions read per commit": _same(commit_reads)}, \
        {"open growth": growth(opens), "commit growth": growth(commits)}


def _calls(monkeypatch, database):
    """Record the relation locks, the B-tree meta reads and the leaf
    stores from here to ``monkeypatch.undo()``."""
    from repro.access.btree import BTree
    calls = []

    def lock_key(xid, resource, mode, *args):
        if isinstance(resource, tuple) and resource[0] == "relation":
            return "lock", resource[1]
        return None

    monkeypatch.setattr(database.locks, "acquire",
                        _recording(calls, database.locks.acquire, lock_key))
    for name in ("_read_meta", "_store_leaf"):
        monkeypatch.setattr(BTree, name, _recording(
            calls, getattr(BTree, name),
            lambda tree, *args, name=name: (name, tree.name)))
    return calls


def chunk_run(tmp_path, monkeypatch):
    """A 64 KB write (chunks 0-7 whole, 1,536 B of 8) as one run; then
    64,000 bytes written whole and in eight chunk-sized calls."""
    with Database(charge_cpu=False) as db:
        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        calls = _calls(monkeypatch, db)
        obj.write(b"\xa5" * 65536)
        monkeypatch.undo()
        calls = [call for call in calls if call is not None]
        index = obj.index.name
        assert {name for _call, name in calls} == {obj.relation.name,
                                                   index}, calls
        counts = {"relation locks": calls.count(("lock", obj.relation.name)),
                  "meta reads": calls.count(("_read_meta", index)),
                  "leaf stores": calls.count(("_store_leaf", index))}
        obj.close()
        txn.commit()
        assert db.check_integrity() == []
    with Database(charge_cpu=False) as db:
        data = bytes(range(256)) * 250           # 64,000 B: eight chunks
        bytecodes = []
        for pieces in ([data], [data[at:at + CHUNK] for at in
                                range(0, len(data), CHUNK)]):
            txn = db.begin()
            obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
            with Bytecodes() as executed:
                for piece in pieces:
                    obj.write(piece)
            bytecodes.append(executed.count)
            obj.seek(0)
            assert obj.read() == data
            obj.close()
            txn.commit()
    as_a_run, one_by_one = bytecodes
    return counts, {"run / eight chunk writes": as_a_run / one_by_one}


def truncate_scan(tmp_path, monkeypatch):
    with Database(charge_cpu=False) as db:
        designator = _object(db, "fchunk", b"\x5a" * (32 * CHUNK))
        txn = db.begin()
        obj = db.lo.open(designator, txn, "rw")
        calls = _calls(monkeypatch, db)
        scans, probes = db.access_stats.range_scans, db.access_stats.probes
        obj.truncate(0)
        monkeypatch.undo()
        counts = {"range scans": db.access_stats.range_scans - scans,
                  "probes": db.access_stats.probes - probes,
                  "relation locks": calls.count(("lock",
                                                 obj.relation.name))}
        obj.close()
        txn.commit()
        with db.lo.open(designator) as fresh:
            assert fresh.read() == b""
        assert db.check_integrity() == []
    return counts, {}


def unrelated_indexes(tmp_path, monkeypatch):
    """The cheapest of five inserts into a fresh class with one index
    (one in 128 also reserves an oid batch), and the index inserts of a
    sixth, before and after 300 indexes on another class."""
    from repro.access.btree import BTree

    def one_insert(name):
        db.create_class(name, [("k", "int4")])
        db.create_index(f"{name}_k", name, "k")
        bytecodes, inserts = [], []
        with db.begin() as txn:
            db.insert(txn, name, (0,))       # warm: pages, caches
            for key in range(1, 6):
                with Bytecodes() as executed:
                    db.insert(txn, name, (key,))
                bytecodes.append(executed.count)
            monkeypatch.setattr(BTree, "insert_run",
                                _recording(inserts, BTree.insert_run))
            db.insert(txn, name, (6,))
            monkeypatch.undo()
        return min(bytecodes), len(inserts)

    with Database(charge_cpu=False) as db:
        alone, inserts_alone = one_insert("before")
        db.create_class("U", [("k", "int4")])
        for number in range(300):
            db.create_index(f"u_{number}", "U", "k")
        beside, inserts_beside = one_insert("after")
    return {"index inserts per row": _same((inserts_alone, inserts_beside))}, \
        {"growth beside 300 indexes": beside - alone}


def fresh_run(tmp_path, monkeypatch):
    from repro.storage.buffer import BufferManager
    data = bytes(range(256)) * 250          # 64,000 B: eight chunks
    with Database(charge_cpu=False) as db:
        calls = []
        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        for name in ("extend", "allocate"):
            monkeypatch.setattr(BufferManager, name, _recording(
                calls, getattr(BufferManager, name),
                lambda pool, smgr, fileid, *args, name=name: (name, fileid)))
        obj.write(data)
        monkeypatch.undo()
        heap = obj.relation.fileid
        counts = {"extend calls": calls.count(("extend", heap)),
                  "allocate calls": calls.count(("allocate", heap))}
        obj.close()
        txn.commit()
        txn = db.begin()
        obj = db.lo.open(db.lo.create(txn, "fchunk"), txn, "rw")
        with Bytecodes() as executed:
            obj.write(data)
        obj.seek(0)
        assert obj.read() == data
        obj.close()
        txn.commit()
        assert db.check_integrity() == []
    return counts, {"bytecodes": executed.count}


def streamed_read(tmp_path, monkeypatch):
    """The second and third 64 KB reads of a cold 256 KB f-chunk object
    through one read-only descriptor, the first of which read the size
    row: eight cold pages each, one chunk already in the cache."""
    import zlib

    read = 64 * 1024
    data = bytes(range(256)) * 1024
    with Database(charge_cpu=False) as db:
        designator = _object(db, "fchunk", data)
        db.bufmgr.invalidate_all()
        stats, pool = db.access_stats, db.bufmgr.stats
        obj = db.lo.open(designator)
        probes = stats.probes
        assert obj.read(read) == data[:read]
        first_probes = stats.probes - probes
        hashes, runs, charges = [], [], []
        probes, scans = stats.probes, stats.range_scans
        misses, prefetched = pool.misses, pool.prefetched
        monkeypatch.setattr(zlib, "crc32", _recording(hashes, zlib.crc32))
        smgr = db.storage_manager()
        monkeypatch.setattr(smgr, "_read_run", _recording(
            runs, smgr._read_run, lambda fileid, first, count: count))
        monkeypatch.setattr(DevicePort, "charge_run",
                            _recording(charges, DevicePort.charge_run))
        got = obj.read(read)
        monkeypatch.undo()
        assert got == data[read:2 * read]
        # One store read for the prefetched run, one per demand miss.
        assert runs == [pool.prefetched - prefetched] + \
            [1] * (pool.misses - misses), runs
        counts = {"size-row probes, first read": first_probes,
                  "size-row probes, next read": stats.probes - probes,
                  "range scans": stats.range_scans - scans,
                  "cold pages": pool.misses - misses
                  + pool.prefetched - prefetched,
                  "checksums": len(hashes), "store reads": len(runs),
                  "device charges": len(charges)}
        with Bytecodes() as executed:
            got = obj.read(read)
        assert got == data[2 * read:3 * read]
        obj.close()
    return counts, {"bytecodes": executed.count}


def _rewritten_fchunk(db, size):
    """An f-chunk object of *size* bytes written, then rewritten whole by
    a second transaction: every chunk has a dead index entry beside its
    live one, and the heap's deleter map names each dead version."""
    data = bytes(range(256)) * (size // 256)
    designator = _object(db, "fchunk", data)
    with db.begin() as txn, db.lo.open(designator, txn, "rw") as obj:
        obj.write(data[::-1])
    return designator, data[::-1]


def window_read(tmp_path, monkeypatch):
    """The second and third 64 KB reads of a cold, rewritten 256 KB
    f-chunk object."""
    from repro.access.heap import HeapRelation
    from repro.storage import buffer
    from repro.txn.snapshot import Snapshot

    read = 64 * 1024
    with Database(charge_cpu=False) as db:
        designator, data = _rewritten_fchunk(db, 256 * 1024)
        db.bufmgr.invalidate_all()
        pool = db.bufmgr.stats
        obj = db.lo.open(designator)
        assert obj.read(read) == data[:read]
        asked, filtered, passes = [], [], []
        scans, misses = db.access_stats.range_scans, pool.misses
        prefetched = pool.prefetched
        monkeypatch.setattr(Snapshot, "sees_deletion",
                            _recording(asked, Snapshot.sees_deletion))
        monkeypatch.setattr(HeapRelation, "known_dead", _recording(
            filtered, HeapRelation.known_dead,
            lambda relation, entries, snapshot: [key for key, _ in entries]))
        monkeypatch.setattr(buffer, "intact_prefix", _recording(
            passes, buffer.intact_prefix, len))
        got = obj.read(read)
        monkeypatch.undo()
        assert got == data[read:2 * read]
        (keys,) = filtered                          # one batch
        assert len(keys) == 2 * len(set(keys)), keys
        assert passes == [pool.prefetched - prefetched] + \
            [1] * (pool.misses - misses), passes
        counts = {"range scans": db.access_stats.range_scans - scans,
                  "filter batches": len(filtered),
                  "entries filtered": len(keys),
                  "deleter questions": len(asked),
                  "checksum passes": len(passes),
                  "pages checksummed": sum(passes)}
        with Bytecodes() as executed:
            got = obj.read(read)
        assert got == data[2 * read:3 * read]
        obj.close()
    return counts, {"bytecodes": executed.count}


def window_read_resident(tmp_path, monkeypatch):
    """A resident one-chunk read (the ``frames_f`` shape) of a rewritten
    1 MB f-chunk object: a batch of one must not cost more than the
    walk."""
    with Database(charge_cpu=False) as db:
        designator, data = _rewritten_fchunk(db, 1024 * 1024)
        rng = random.Random(7)
        offsets = [rng.randrange(len(data) - FRAME) for _ in range(20)]
        with db.lo.open(designator) as obj:
            for offset in offsets:                  # all resident
                obj.pread(offset, FRAME)
            misses = db.bufmgr.stats.misses
            offset = offsets[3]
            with Bytecodes() as executed:
                got = obj.pread(offset, FRAME)
        assert got == data[offset:offset + FRAME]
        return {"pool misses": db.bufmgr.stats.misses - misses}, \
            {"bytecodes": executed.count}


def _resident_read(monkeypatch, impl):
    """One 4,000-byte point read of a pool-resident 1 MB *impl* object,
    its page pins recorded."""
    data = bytes(range(256)) * 4096
    with Database(charge_cpu=False) as db:
        designator = _object(db, impl, data)
        rng = random.Random(7)
        offsets = [rng.randrange(len(data) - FRAME) for _ in range(20)]
        with db.begin() as txn, db.lo.open(designator, txn) as obj:
            for offset in offsets:                      # all resident
                obj.pread(offset, FRAME)
            pins, pin = [], db.bufmgr.pin

            def recording(smgr, fileid, blockno):
                pins.append(fileid)
                return pin(smgr, fileid, blockno)

            monkeypatch.setattr(db.bufmgr, "pin", recording)
            misses = db.bufmgr.stats.misses
            offset = offsets[1]
            with Bytecodes() as executed:
                got = obj.pread(offset, FRAME)
            monkeypatch.undo()
        assert got == data[offset:offset + FRAME]
        return {"page pins": len(pins),
                "index page pins": sum(fileid.startswith("btree_")
                                       for fileid in pins),
                "pool misses": db.bufmgr.stats.misses - misses}, \
            {"bytecodes": executed.count}


def resident_read_fchunk(tmp_path, monkeypatch):
    return _resident_read(monkeypatch, "fchunk")


def resident_read_vsegment(tmp_path, monkeypatch):
    return _resident_read(monkeypatch, "vsegment")


def kept_snapshot(tmp_path, monkeypatch):
    """19 resident point reads after a transaction's first: no
    transaction ended between them."""
    from repro.txn import manager
    data = bytes(range(256)) * 4096                 # 1 MB
    counts = {}
    for impl, label in (("fchunk", "f-chunk"), ("vsegment", "v-segment")):
        with Database(charge_cpu=False) as db:
            designator = _object(db, impl, data)
            rng = random.Random(7)
            offsets = [rng.randrange(len(data) - FRAME) for _ in range(20)]
            for offset in offsets:                  # make all resident
                with db.lo.open(designator) as obj:
                    obj.pread(offset, FRAME)
            built = []
            with db.begin() as txn, db.lo.open(designator, txn) as obj:
                obj.pread(offsets[0], FRAME)
                monkeypatch.setattr(manager, "Snapshot", _recording(
                    built, manager.Snapshot))
                for offset in offsets[1:]:
                    assert obj.pread(offset, FRAME) \
                        == data[offset:offset + FRAME]
                monkeypatch.undo()
        counts[f"snapshots built, {label}"] = len(built)
    return counts, {}


def index_entry(tmp_path, monkeypatch):
    """A resident range scan of 512 single-version chunk keys of a
    chunk-shaped class (``seqno``, a few bytes of ``data``): the scan
    layer's and the heap's per-entry work and no I/O."""
    from repro.access.scan import IndexRangeScan
    keys = 512
    with Database(charge_cpu=False) as db:
        db.create_class("chunks", [("seqno", "int4"), ("data", "bytea")])
        db.create_index("chunks_seqno", "chunks", "seqno")
        with db.begin() as txn:
            db.insert_many(txn, "chunks",
                           [(seqno, bytes(16)) for seqno in range(keys)])
        scan = IndexRangeScan(db, db.get_index("chunks_seqno"),
                              db.get_class("chunks"), 0, keys - 1,
                              unique=True)
        snapshot = db.snapshot()
        scan.visible(snapshot)                  # warm the node cache
        misses = db.bufmgr.stats.misses
        scanned = db.access_stats.tuples_scanned
        with Bytecodes() as executed:
            found = scan.visible(snapshot)
        assert [key for key, _tup in found] == list(range(keys))
        return {"versions read": db.access_stats.tuples_scanned - scanned,
                "pool misses": db.bufmgr.stats.misses - misses}, \
            {"bytecodes": executed.count}


def demand_miss(tmp_path, monkeypatch):
    """A cold 4,000-byte point read of a 1 MB f-chunk object on disk
    (the pool emptied, roots included), measured; then one of the same
    shape, counted (the descriptor keeps the chunk the first one read)."""
    data = bytes(range(256)) * 4096
    measured, counted = 123_456, 400_000
    database = Database(str(tmp_path / "db"), charge_cpu=False)
    designator = _object(database, "fchunk", data)
    obj = database.lo.open(designator)
    obj.pread(0, FRAME)                       # the size row, once
    pool, smgr = database.bufmgr, database.storage_manager("disk")
    pool.invalidate_all()
    with Bytecodes(within=os.path.join("repro", "sim", "")) as executed:
        got = obj.pread(measured, FRAME)
    assert got == data[measured:measured + FRAME]

    pool.invalidate_all()
    demand, runs, charges = [], [], []
    misses, prefetched = pool.stats.misses, pool.stats.prefetched
    monkeypatch.setattr(smgr, "read_block",
                        _recording(demand, smgr.read_block))
    monkeypatch.setattr(smgr, "_read_run", _recording(
        runs, smgr._read_run, lambda fileid, first, count: count))
    monkeypatch.setattr(DevicePort, "charge_run",
                        _recording(charges, DevicePort.charge_run))
    got = obj.pread(counted, FRAME)
    monkeypatch.undo()
    assert got == data[counted:counted + FRAME]
    assert set(runs) == {1}, runs
    obj.close()
    database.close()
    return {"pool misses": pool.stats.misses - misses,
            "pages prefetched": pool.stats.prefetched - prefetched,
            "demand reads": len(demand), "store reads": len(runs),
            "device charges": len(charges)}, \
        {"bytecodes": executed.count, "device bytecodes": executed.within}


def _dirty_file(smgr, pool_size, pages):
    """A pool of *pool_size* frames over *smgr* holding *pages* dirty
    pages of a device file ``t``."""
    from repro.storage import BufferManager
    from repro.storage.page import SlottedPage
    smgr.create("t")
    smgr.write_runs("t", [(0, [bytes(SlottedPage().buf)] * pages)])
    pool = BufferManager(pool_size=pool_size)
    for blockno in range(pages):
        pool.unpin(pool.pin(smgr, "t", blockno), dirty=True)
    return pool


def pool_force(tmp_path, monkeypatch):
    """Forcing 64 dirty pages, one run the device holds, with the
    recorder of the manager's batch."""
    from repro.sim import SimClock
    from repro.smgr import MemoryStorageManager
    smgr = MemoryStorageManager(SimClock())
    pool = _dirty_file(smgr, 128, 64)
    batches, force = [], smgr.force

    def recording(batch, written):
        batches.append(batch)
        return force(batch, written)

    smgr.force = recording
    with Bytecodes() as executed:
        written = pool.force([(smgr, "t")])
    runs = [(fileid, first) for batch in batches for fileid, file_runs
            in batch for first, _images in file_runs]
    assert runs == [("t", 0)], runs
    return {"pages written": written, "force calls": len(batches),
            "runs": len(runs)}, {"bytecodes": executed.count}


def force_growth(tmp_path, monkeypatch):
    from repro.sim import SimClock
    from repro.smgr import MemoryStorageManager
    written, bytecodes = [], []
    for pages in (1, 64):
        smgr = MemoryStorageManager(SimClock())
        pool = _dirty_file(smgr, 128, pages)
        with Bytecodes() as executed:
            written.append(pool.force([(smgr, "t")]))
        bytecodes.append(executed.count)
    return {"pages written at 1": written[0],
            "pages written at 64": written[1]}, \
        {"growth from 1 to 64 pages": bytecodes[1] - bytecodes[0]}


def sharded_force(tmp_path, monkeypatch):
    """Forcing a 32-page file of a 4-node, R = 3 sharded manager, up to
    the manager's ``force``."""
    from repro.sim import SimClock
    from repro.smgr.sharded import sharded_memory_manager
    smgr = sharded_memory_manager(SimClock())
    pool = _dirty_file(smgr, 64, 32)
    batches = []

    def recording(batch, written):
        for fileid, file_runs in batch:
            batches.append(file_runs)
            written(smgr, fileid)

    smgr.force = recording
    with Bytecodes() as executed:
        written = pool.force([(smgr, "t")])
    runs = [(first, len(images)) for file_runs in batches
            for first, images in file_runs]
    assert runs == [(0, 32)], runs
    return {"pages written": written, "runs": len(runs)}, \
        {"bytecodes": executed.count}


def clock_sweep(tmp_path, monkeypatch):
    """The pin whose miss evicts one frame from a full 64-frame pool
    whose frames have usage 2: a sweep of 129 visits."""
    from repro.sim import SimClock
    from repro.smgr import MemoryStorageManager
    from repro.storage import BufferManager
    from repro.storage.page import SlottedPage
    smgr = MemoryStorageManager(SimClock())
    for fileid in ("t", "u"):
        smgr.create(fileid)
        smgr.write_runs(fileid, [(0, [bytes(SlottedPage().buf)] * 64)])
    pool = BufferManager(pool_size=64)
    for _usage in range(2):
        for blockno in range(64):
            pool.unpin(pool.pin(smgr, "t", blockno))
    evictions = pool.stats.evictions
    with Bytecodes() as executed:
        buf = pool.pin(smgr, "u", 0)
    pool.unpin(buf)
    assert (smgr.smgr_id, "t", 0) not in pool._frames
    return {"evictions": pool.stats.evictions - evictions}, \
        {"bytecodes": executed.count}


def segment_density(tmp_path, monkeypatch):
    """40 resident 1,000-byte reads of a zero-rle v-segment object
    written in 1,000-, 4,000- and 32,000-byte calls: 65, 16 and 2
    segments per 64 KB.  All-zero frames make every stored image the
    same six bytes, so the byte-store fetch beneath the lookup cannot
    differ and what is compared is the lookup."""
    records, bytecodes = [], []
    for write_size in (1_000, 4_000, 32_000):
        with Database(charge_cpu=False) as database:
            with database.begin() as txn:
                designator = database.lo.create(txn, "vsegment",
                                                compression="zero-rle")
                with database.lo.open(designator, txn, "rw") as obj:
                    for _ in range(400):
                        obj.write(bytes(write_size))
            rng = random.Random(20)
            offsets = [rng.randrange(400) * write_size for _ in range(40)]
            stats = database.access_stats
            with database.begin() as txn, \
                    database.lo.open(designator, txn) as obj:
                for offset in offsets:          # warm the node cache
                    obj.pread(offset, 1000)
                scanned = stats.tuples_scanned
                with Bytecodes() as run:
                    for offset in offsets:
                        assert obj.pread(offset, 1000) == bytes(1000)
                records.append(stats.tuples_scanned - scanned)
            bytecodes.append(run.count)
    return {"records read by 40 reads": _same(records)}, \
        {"spread over 2, 16 and 65 segments": max(bytecodes)
         / min(bytecodes)}


def wire_seek_read(tmp_path, monkeypatch):
    """100 seeks, each followed by a 4,000-byte read, over loopback."""
    from repro.server import ReproServer, ServerClient, protocol
    frames = {"send_message": 0, "recv_message": 0}
    with Database(charge_cpu=False) as db, ReproServer(db) as server, \
            ServerClient(*server.address) as client:
        client.begin()
        fd = client.lo_open(client.lo_create("fchunk"), "rw")
        client.lo_write(fd, bytes(100 * FRAME))

        def counted(name):
            real = getattr(protocol, name)

            def wrapper(sock, *args):
                if sock is client._sock:   # not the server's end
                    frames[name] += 1
                return real(sock, *args)
            return wrapper

        for name in frames:
            monkeypatch.setattr(protocol, name, counted(name))
        before = client.round_trips
        for number in reversed(range(100)):
            client.lo_seek(fd, number * FRAME)
            assert len(client.lo_read(fd, FRAME)) == FRAME
        monkeypatch.undo()
        round_trips = client.round_trips - before
        client.rollback()
    return {"round trips": round_trips,
            "frames sent": frames["send_message"],
            "frames received": frames["recv_message"]}, {}


def wire_header(tmp_path, monkeypatch):
    """The header lengths the frame prefixes of a ``lo_pread`` carry, as
    received: the request by the server thread, the reply by the client.
    Request: key mask 4 + fd, offset, nbytes 3 x 8 + "lo_pread" 4 + 8.
    Reply: key mask 4 + ok 1.  (As JSON: 50 and 11 bytes.)"""
    from repro.server import ReproServer, ServerClient, protocol
    main = threading.get_ident()
    lengths = {True: [], False: []}    # read by the client? → lengths
    real = protocol.recv_exact

    def recording(sock, nbytes):
        data = real(sock, nbytes)
        if nbytes == 8:                # a frame prefix
            lengths[threading.get_ident() == main].append(
                int.from_bytes(data[:4], "big"))
        return data

    # Installed before the server thread first waits for a frame.
    monkeypatch.setattr(protocol, "recv_exact", recording)
    with Database(charge_cpu=False) as db, ReproServer(db) as server, \
            ServerClient(*server.address) as client:
        client.begin()
        fd = client.lo_open(client.lo_create("fchunk"), "rw")
        client.lo_write(fd, bytes(FRAME))
        assert len(client.lo_pread(fd, 0, FRAME)) == FRAME
        request, reply = lengths[False][-1], lengths[True][-1]
        client.rollback()
    return {"request header bytes": request,
            "reply header bytes": reply}, {}


def wire_round_trip(tmp_path, monkeypatch):
    """The client's ``lo_pread`` plus one turn of the server thread's
    loop, from one wait for a frame prefix to the next, three times
    after a warming one.  Two threads are counted, so this is the one
    pin with its own tracer."""
    from repro.server import ReproServer, ServerClient, protocol
    main = threading.get_ident()
    counts = {main: 0}
    server_marks = []      # the server's count at each prefix wait

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        thread = threading.get_ident()
        if (thread != main and frame.f_code is protocol.recv_exact.__code__
                and frame.f_locals["nbytes"] == 8):
            server_marks.append(counts.get(thread, 0))
        return on_event

    def on_event(frame, event, arg):
        if event == "opcode":
            thread = threading.get_ident()
            counts[thread] = counts.get(thread, 0) + 1
        return on_event

    def server_waits():
        """Until the server waits for the next frame: one mark at its
        start and one after each request served."""
        deadline = time.monotonic() + 10.0
        while (len(server_marks) <= client.round_trips
               and time.monotonic() < deadline):
            time.sleep(0.001)

    def round_trip():
        server_waits()
        client_before = counts[main]
        sys.settrace(on_call)
        assert len(client.lo_pread(fd, 0, FRAME)) == FRAME
        sys.settrace(None)
        server_waits()
        return (counts[main] - client_before
                + server_marks[-1] - server_marks[-2])

    with Database(charge_cpu=False) as db, ReproServer(db) as server:
        threading.settrace(on_call)  # for the connection thread ...
        try:
            client = ServerClient(*server.address)
            client.ping()            # ... which has started once served
        finally:
            threading.settrace(None)
        with client:
            client.begin()
            fd = client.lo_open(client.lo_create("fchunk"), "rw")
            client.lo_write(fd, bytes(FRAME))
            round_trip()                   # warm the caches
            before = client.round_trips
            costs = [round_trip() for _ in range(3)]
            round_trips = client.round_trips - before
            client.rollback()
    return {"round trips": round_trips}, \
        {"bytecodes": max(costs), "spread": max(costs) - min(costs)}


def _inversion_tree(db):
    """Eight directories, 40 files, and history: every directory has
    seen renames in and out and an unlink."""
    fs = db.inversion
    with db.begin() as txn:
        for index in range(8):
            fs.mkdir(txn, f"/d{index}")
        for index in range(40):
            fs.write_file(txn, f"/d{index % 8}/f{index:02d}", b"x")
    for index in range(16):
        with db.begin() as txn:
            fs.rename(txn, f"/d{index % 8}/f{index:02d}",
                      f"/d{(index + 3) % 8}/r{index:02d}")
        with db.begin() as txn:
            fs.unlink(txn, f"/d{index % 8}/f{index + 16:02d}")
    return fs


def inversion_rename(tmp_path, monkeypatch):
    """A cross-directory rename in the tree, measured; then another,
    its directory reads counted."""
    with Database(charge_cpu=False) as db:
        fs = _inversion_tree(db)
        txn = db.begin()
        with Bytecodes() as executed:
            fs.rename(txn, "/d1/f33", "/d6/moved")
        txn.commit()
        assert fs.read_file("/d6/moved") == b"x"
        assert not fs.exists("/d1/f33")
        read = []
        monkeypatch.setattr(fs, "_children", _recording(read, fs._children))
        with db.begin() as txn:
            fs.rename(txn, "/d2/f34", "/d5/moved")
        monkeypatch.undo()
        assert len(set(read)) == len(read), read
        return {"directory reads": len(read)}, {"bytecodes": executed.count}


def inversion_truncate(tmp_path, monkeypatch):
    """``truncate(0)`` of a committed 256 KB file, measured; then of
    another, its decodes and heap pins counted."""
    from repro.access import heap
    data = bytes(range(256)) * 1024
    with Database(charge_cpu=False) as db:
        fs = db.inversion
        with db.begin() as txn:
            fs.write_file(txn, "/f", data)
        txn = db.begin()
        handle = fs.open("/f", txn, "rw")
        with Bytecodes() as executed:
            handle.truncate(0)
        handle.close()
        txn.commit()
        assert fs.read_file("/f") == b""
        with db.begin() as txn:
            fs.write_file(txn, "/g", data)
        txn = db.begin()
        handle = fs.open("/g", txn, "rw")
        decoded, pins = [], []
        monkeypatch.setattr(heap, "deserialize_tuple", _recording(
            decoded, heap.deserialize_tuple, lambda schema, *args: schema))
        monkeypatch.setattr(db.bufmgr, "pin", _recording(
            pins, db.bufmgr.pin, lambda smgr, fileid, blockno: fileid))
        handle.truncate(0)
        monkeypatch.undo()
        chunks = handle.inner.relation
        handle.close()
        txn.commit()
        assert fs.read_file("/g") == b""
        return {"chunk versions decoded": decoded.count(chunks.schema),
                "heap pins": pins.count(chunks.fileid)}, \
            {"bytecodes": executed.count}


def _disarmed_locks(monkeypatch):
    """A lock manager built with the order validator off: lock-manager
    calls only, no threads."""
    from repro.txn import lockdep
    from repro.txn.locks import LockManager
    monkeypatch.setattr(lockdep.VALIDATOR, "armed", False)
    return LockManager()


def range_acquire(tmp_path, monkeypatch):
    """Building one range and acquiring it EXCLUSIVE while the
    transaction holds two other ranges of the object."""
    from repro.txn.locks import LockMode
    from repro.txn.rangelock import lo_range
    locks = _disarmed_locks(monkeypatch)
    locks.acquire(7, lo_range(1, 0, 8192), LockMode.EXCLUSIVE)
    locks.acquire(7, lo_range(1, 16384, 24576), LockMode.EXCLUSIVE)
    with Bytecodes() as executed:
        locks.acquire(7, lo_range(1, 32768, 40960), LockMode.EXCLUSIVE)
    ranges = [lo_range(1, 0, 8192), lo_range(1, 16384, 24576),
              lo_range(1, 32768, 40960)]
    return {"lock waits": locks.stats.waits,
            "ranges held": sum(locks.holds(7, resource, LockMode.EXCLUSIVE)
                               for resource in ranges)}, \
        {"bytecodes": executed.count}


def release_all(tmp_path, monkeypatch):
    """``release_all`` of a transaction's three locks beside 200 and
    2,000 other holders."""
    from repro.txn.locks import LockMode
    from repro.txn.rangelock import lo_range
    released, bytecodes = [], []
    for others in (200, 2000):
        locks = _disarmed_locks(monkeypatch)
        for xid in range(100, 100 + others):
            locks.acquire(xid, ("relation", f"r{xid}"), LockMode.SHARED)
        locks.acquire(7, ("relation", "t"), LockMode.SHARED)
        locks.acquire(7, ("losize", 1), LockMode.EXCLUSIVE)
        locks.acquire(7, lo_range(1, 0, 8192), LockMode.EXCLUSIVE)
        with Bytecodes() as executed:
            released.append(locks.release_all(7))
        assert len(locks.holders(("relation", "r100"))) == 1
        bytecodes.append(executed.count)
    return {"locks released": _same(released)}, \
        {"bytecodes": bytecodes[0],
         "growth from 200 to 2,000 holders": bytecodes[1] - bytecodes[0]}


@pytest.mark.parametrize("name", PINS)
def test_counts(name, tmp_path, monkeypatch):
    counts, _bytecodes = globals()[PINS[name].test](tmp_path, monkeypatch)
    assert counts == PINS[name].counts


@pytest.mark.skipif(sys.implementation.name != "cpython"
                    or sys.version_info[:2] != (3, 11),
                    reason="a ceiling is a CPython 3.11 bytecode count")
@pytest.mark.parametrize("name", [name for name, pin in PINS.items()
                                  if pin.ceiling])
def test_ceiling(name, tmp_path, monkeypatch):
    _counts, measured = globals()[PINS[name].test](tmp_path, monkeypatch)
    over = {key: (measured[key], bound)
            for key, bound in PINS[name].ceiling.items()
            if measured[key] > bound}
    assert not over, over
