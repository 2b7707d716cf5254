"""Storage-manager abstraction, its block stores and nodes, and the switch.

A storage manager exposes block-oriented access to named relation files.
Blocks are exactly :data:`~repro.storage.constants.PAGE_SIZE` bytes.  The
abstraction is deliberately small — the paper calls it "a clean table-driven
interface … any user can define a new storage manager by writing and
registering a small set of interface routines."  :class:`StorageManager`
checks the block contract and consults the armed fault plan once, for
every manager; a manager supplies only its medium.

Physical storage is built from two pieces:

* a :class:`BlockStore` is a raw, *sparse* block container (process memory
  or one directory of OS files) with no cost model and no failure model;
* a :class:`StorageNode` pairs one store with its own
  :class:`~repro.sim.devices.DevicePort` (so each node has an independent
  disk head and busy-time accumulator) and an independent failure state
  (``up``/``down``/``slow``/``flaky``).

The classic ``disk`` and ``memory`` managers are a
:class:`SingleNodeManager`: one store behind one node.
:mod:`repro.smgr.sharded` places blocks over many nodes with banded,
replicated placement of its own.  Beside the stores, an
:class:`AppendLog` is the one append-only metadata file: ``pg_log`` and
the catalog journal.

Managers charge their physical accesses to a shared
:class:`~repro.sim.clock.SimClock` through the device ports they build
(their nodes', a jukebox's, a cache disk's), so benchmark elapsed times
reflect each device's cost model.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from itertools import chain, count
from operator import itemgetter
from typing import Callable, Iterator

from repro.errors import NodeDownError, StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort
from repro.sim.faults import NODE_ACTIONS, FaultPlan
from repro.storage.constants import PAGE_SIZE

#: Monotone source for per-instance manager identities (never reused, so a
#: replaced manager can never alias a live one the way ``id()`` could).
_SMGR_SEQ = count()

_IMAGES = itemgetter(1)   # of a ``(first, images)`` run

# ---------------------------------------------------------------------------
# Raw block containers
# ---------------------------------------------------------------------------

class BlockStore(ABC):
    """A raw block container: bytes at ``(fileid, blockno)``, nothing else.

    Stores charge no simulated cost and enforce no density: a write at any
    non-negative block number succeeds, and :meth:`nblocks` reports one
    past the highest block ever written.  The "no holes" contract of the
    manager API is enforced one level up, which is what lets a sharded
    manager keep only its own slice of a file on each node's store.

    The primitives move *runs* of consecutive blocks; one block is a run
    of one.
    """

    @abstractmethod
    def create(self, fileid: str) -> None:
        """Create an empty file.  Idempotent."""

    @abstractmethod
    def exists(self, fileid: str) -> bool:
        """Whether the file exists."""

    @abstractmethod
    def unlink(self, fileid: str) -> None:
        """Remove the file and its blocks."""

    @abstractmethod
    def nblocks(self, fileid: str) -> int:
        """One past the highest block written (0 for a fresh file)."""

    @abstractmethod
    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        """*count* blocks from *first*; holes in the store read as zeros."""

    @abstractmethod
    def write_runs(self, fileid: str, runs) -> None:
        """For each ``(first, images)`` of *runs*, in order, store the
        page-sized buffers *images* from block *first* (sparse: any
        non-negative *first*), keeping none."""

    def discard(self, fileid: str, blockno: int) -> None:
        """Forget one block if the medium supports it (rebalance cleanup)."""

    def sync(self, fileid: str) -> None:
        """Force the file to stable storage."""

    def files(self) -> list[str]:
        """File ids present on this store (best effort, for maintenance)."""
        return []

    def close(self) -> None:
        """Release OS resources (file handles)."""


class _Files(dict):
    """Per-file values keyed by file id: a missing key is a missing file."""

    def __missing__(self, fileid: str):
        raise StorageManagerError(f"relation file {fileid!r} does not exist")


class MemoryBlockStore(BlockStore):
    """Blocks in process memory: ``{fileid: {blockno: bytearray}}``."""

    def __init__(self) -> None:
        self._files: dict[str, dict[int, bytearray]] = _Files()
        #: Per-file :meth:`nblocks`, kept as a high-water mark so the
        #: once-per-block callers never pay a pass over the whole file.
        self._nblocks: dict[str, int] = _Files()

    def create(self, fileid: str) -> None:
        self._files.setdefault(fileid, {})
        self._nblocks.setdefault(fileid, 0)

    def exists(self, fileid: str) -> bool:
        return fileid in self._files

    def unlink(self, fileid: str) -> None:
        self._files.pop(fileid, None)
        self._nblocks.pop(fileid, None)

    def nblocks(self, fileid: str) -> int:
        return self._nblocks[fileid]

    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        blocks = self._files[fileid]  # a copy each; of an int: zeros
        return [bytearray(blocks.get(blockno, PAGE_SIZE))
                for blockno in range(first, first + count)]

    def write_runs(self, fileid: str, runs) -> None:
        blocks, end = self._files[fileid], self._nblocks[fileid]
        for first, images in runs:
            blocks.update(zip(range(first, first + len(images)),
                              map(bytearray, images)))
            end = max(end, first + len(images))
        self._nblocks[fileid] = end

    def discard(self, fileid: str, blockno: int) -> None:
        self._files.get(fileid, {}).pop(blockno, None)

    def sync(self, fileid: str) -> None:
        self._files[fileid]  # validate existence; memory is always durable

    def files(self) -> list[str]:
        return sorted(self._files)


def _safe_name(fileid: str) -> str:
    """Map a relation file id to a safe on-disk file name."""
    return "".join(c if c.isalnum() or c in "._-" else "_" for c in fileid)


#: Most buffers one ``preadv``/``pwritev`` takes; longer runs are split.
_IOV_MAX = os.sysconf("SC_IOV_MAX")


class _OpenFile:
    """What the disk store keeps of a file it has touched.  ``nblocks`` is
    a high-water mark — the length at first touch, advanced by every write
    — and authoritative while the store is open: nothing else writes its
    directory."""

    __slots__ = ("path", "fd", "nblocks")

    def __init__(self, path: str, fd: int):
        self.path, self.fd = path, fd
        self.nblocks = os.fstat(fd).st_size // PAGE_SIZE


class DiskBlockStore(BlockStore):
    """Blocks in ordinary OS files, one ``<safe_name>.rel`` per file.

    A file is opened once, on first touch, and the store keeps its path,
    an unbuffered descriptor and its block count from then on: a later
    :meth:`exists`/:meth:`nblocks` is a dict probe, a run of blocks one
    positioned vectored system call.

    Writes land at ``blockno * PAGE_SIZE`` unconditionally, so a store
    holding only a shard of a file is simply sparse — the OS materializes
    the holes as zeros and :meth:`nblocks` still lands on the true tail.
    """

    def __init__(self, directory: str):
        self._open: dict[str, _OpenFile] = {}
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def __del__(self) -> None:
        self.close()  # a descriptor, unlike a file object, never does

    def _file(self, fileid: str, flags: int = 0,
              missing_ok: bool = False) -> _OpenFile | None:
        """The file's record, opened with ``O_RDWR | flags`` on first touch."""
        entry = self._open.get(fileid)
        if entry is None:
            path = os.path.join(self.directory, _safe_name(fileid) + ".rel")
            try:
                fd = os.open(path, os.O_RDWR | flags, 0o666)
            except FileNotFoundError:
                if missing_ok:
                    return None
                raise StorageManagerError(
                    f"relation file {fileid!r} does not exist") from None
            entry = self._open[fileid] = _OpenFile(path, fd)
        return entry

    def create(self, fileid: str) -> None:
        self._file(fileid, os.O_CREAT)

    def exists(self, fileid: str) -> bool:
        return self._file(fileid, missing_ok=True) is not None

    def unlink(self, fileid: str) -> None:
        entry = self._file(fileid, missing_ok=True)
        if entry is not None:
            del self._open[fileid]
            os.close(entry.fd)
            os.remove(entry.path)

    def nblocks(self, fileid: str) -> int:
        return (self._open.get(fileid) or self._file(fileid)).nblocks

    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        fd = (self._open.get(fileid) or self._file(fileid)).fd
        # Zeros up front: what a read past a sparse tail leaves untouched.
        blocks = [bytearray(PAGE_SIZE) for _ in range(count)]
        for at in range(0, count, _IOV_MAX):
            os.preadv(fd, blocks[at:at + _IOV_MAX], (first + at) * PAGE_SIZE)
        return blocks

    def write_runs(self, fileid: str, runs) -> None:
        entry = self._open.get(fileid) or self._file(fileid)
        for first, images in runs:
            for at in range(0, len(images), _IOV_MAX):
                part = images[at:at + _IOV_MAX]
                written = os.pwritev(entry.fd, part,
                                     (first + at) * PAGE_SIZE)
                if written != len(part) * PAGE_SIZE:
                    raise StorageManagerError(
                        f"short write to {fileid!r}: {written} bytes of "
                        f"{len(part) * PAGE_SIZE} at block {first + at}")
                entry.nblocks = max(entry.nblocks, first + at + len(part))

    def sync(self, fileid: str) -> None:
        entry = self._open.get(fileid)
        if entry is not None:  # never touched: nothing of ours to force
            # By module attribute, at call time: the benchmark's flush
            # policy replaces ``os.fsync``.
            os.fsync(entry.fd)

    def files(self) -> list[str]:
        # Safe names are identical to the file id for every id the engine
        # generates (heap_*/btree_*/lo_*); ids needing escaping must be
        # passed to maintenance entry points explicitly.
        return sorted(entry[:-len(".rel")]
                      for entry in os.listdir(self.directory)
                      if entry.endswith(".rel"))

    def close(self) -> None:
        while self._open:
            os.close(self._open.popitem()[1].fd)


class AppendLog:
    """One append-only metadata file (``pg_log``, ``catalog.journal``)
    that does not know its record format.

    The owner parses :meth:`read`, names where its intact records end,
    and :meth:`open` cuts the file back there, so a torn tail left by a
    crash mid-append is gone before the first new record lands behind
    it.  Every :meth:`append` is forced before it returns and consults
    the armed plan's ``append`` rules under the file name.  With no
    *path*, nothing is kept and the plan is never consulted.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        #: What ``on append <pattern>`` rules match: the file name.
        self.name = os.path.basename(path) if path is not None else ""
        #: The armed fault plan, stamped like a storage manager's.
        self.fault_plan: FaultPlan | None = None
        self._handle = None

    def read(self) -> bytes:
        """The file's bytes, or ``b""`` when there is no file."""
        if self.path is None or not os.path.exists(self.path):
            return b""
        with open(self.path, "rb") as fh:
            return fh.read()

    def open(self, intact: int) -> None:
        """Cut the file back to its first *intact* bytes and open it for
        appends."""
        if self.path is not None:
            self._handle = open(self.path, "ab")
            self._handle.truncate(intact)

    def append(self, record: bytes) -> None:
        """Durably append *record*; a ``torn N`` rule first forces its
        first *N* bytes, as a crash mid-append leaves them."""
        if self._handle is None:
            return
        plan = self.fault_plan
        if plan is not None:
            rule = plan.check("append", self.name)
            if rule is not None:
                if rule.action == "torn":
                    self._force(record[:rule.keep_bytes])
                plan.fire(rule, f"append to {self.name!r}")
        self._force(record)

    def _force(self, data: bytes) -> None:
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the file (records already appended are durable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ---------------------------------------------------------------------------
# Storage nodes
# ---------------------------------------------------------------------------

class StorageNode:
    """One storage node: a block store, its own device, its own health.

    Each node owns a :class:`~repro.sim.devices.DevicePort`, so it has an
    independent head position (interleaving two nodes stays sequential on
    both) and an independent ``busy_s`` accumulator (the critical-path
    number a multi-node topology reports).  The failure state models what
    the fault DSL's ``on node <k>: …`` rules inject:

    * ``down``  — every access raises :class:`~repro.errors.NodeDownError`;
    * ``slow``  — accesses succeed but charge :attr:`slow_factor` × the
      cost;
    * ``flaky`` — every :attr:`flaky_every`-th access raises a device
      error;
    * ``up``    — healthy.
    """

    #: Cost multiplier of an access to a ``slow`` node.
    slow_factor = 4.0
    #: A ``flaky`` node drops every this-many-th access.
    flaky_every = 3

    def __init__(self, node_id: str, store: BlockStore, model: DeviceModel,
                 clock: SimClock):
        self.node_id = node_id
        self.store = store
        self.model = model
        self.clock = clock
        self.port = DevicePort(model, clock)
        self.state = "up"
        #: The armed fault plan, stamped by the owning manager; a firing
        #: ``node`` rule moves :attr:`state` just before an access is gated.
        self.fault_plan: FaultPlan | None = None
        self._ops = 0
        #: Accesses refused (down) or dropped (flaky) by this node.
        self.errors = 0

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Stamp *plan* (for its ``node`` rules); disarming also returns
        the node to healthy."""
        self.fault_plan = plan
        if plan is None:
            self.set_state("up")

    def set_state(self, state: str) -> bool:
        """Set the failure state; returns True when it actually changed."""
        if state not in NODE_ACTIONS:
            raise ValueError(
                f"unknown node state {state!r} (have: {NODE_ACTIONS})")
        changed = state != self.state
        self.state = state
        return changed

    def _gate(self, op: str, fileid: str, first: int,
              count: int) -> float | None:
        """Count an access to *count* blocks from *first* or refuse it
        whole (``down``: always; ``flaky``: when it holds the node's every
        :attr:`flaky_every`-th block access); a ``slow`` node returns its
        device's busy time so far, the base of its penalty."""
        plan = self.fault_plan
        if plan is not None:
            rule = plan.check("node", self.node_id)
            if rule is not None and self.set_state(rule.action):
                plan.fired.append(f"node {self.node_id}: {rule.action}")
        state = self.state
        if state == "up":
            self._ops += count
            return None
        if state == "down":
            self.errors += 1
            raise NodeDownError(
                f"node {self.node_id!r} is down "
                f"({op} {fileid!r} block {first})")
        before = self._ops
        self._ops = before + count
        if (state == "flaky" and self._ops // self.flaky_every
                != before // self.flaky_every):
            self.errors += 1
            raise StorageManagerError(
                f"flaky node {self.node_id!r} dropped {op} of "
                f"{fileid!r} block {first}")
        return self.port.busy_s if state == "slow" else None

    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        """Read *count* blocks from *first*: gated, then one store
        operation and one device charge."""
        slow_from = self._gate("read", fileid, first, count)
        blocks = self.store.read_run(fileid, first, count)
        self.port.charge_run(fileid, first * PAGE_SIZE, PAGE_SIZE, count,
                             False)
        if slow_from is not None:
            self._slow_penalty(slow_from, "io.read")
        return blocks

    def write_runs(self, fileid: str, runs) -> None:
        """Write each ``(first, images)`` of *runs* (one at least): gated
        as one access per block, then one store operation and one device
        charge per run, in write order."""
        slow_from = self._gate("write", fileid, runs[0][0],
                               sum(map(len, map(_IMAGES, runs))))
        self.store.write_runs(fileid, runs)
        port = self.port
        for first, images in runs:
            port.charge_run(fileid, first * PAGE_SIZE, PAGE_SIZE,
                            len(images), True)
        if slow_from is not None:
            self._slow_penalty(slow_from, "io.write")

    def _slow_penalty(self, busy_before: float, category: str) -> None:
        """Charge ``slow_factor - 1`` times the busy time since then."""
        port = self.port
        port.charge_extra((port.busy_s - busy_before)
                          * (self.slow_factor - 1.0), category)

    def read(self, fileid: str, blockno: int) -> bytearray:
        """Read one block: the run of one."""
        return self.read_run(fileid, blockno, 1)[0]

    def write(self, fileid: str, blockno: int, data: bytes) -> None:
        """Write one block: the run of one."""
        self.write_runs(fileid, ((blockno, (data,)),))

    def stats(self) -> dict:
        """Per-node counters for ``db.statistics()["storage"]``."""
        return {**self.port.stats(),
                "state": self.state,
                "errors": self.errors}


# ---------------------------------------------------------------------------
# Storage managers
# ---------------------------------------------------------------------------

class StorageManager(ABC):
    """Block-oriented access to named relation files.

    The public block I/O is implemented here, once: the only code that
    checks the block contract and consults the armed fault plan.  A
    manager implements its medium — :meth:`create`, :meth:`exists`,
    :meth:`unlink`, :meth:`nblocks`, :meth:`_read_run`,
    :meth:`_write_runs` and, unless its writes are stable when they
    return, :meth:`_sync` — and is handed only requests the contract
    admits."""

    #: Short name used in ``create ... with storage manager "<name>"``.
    name: str = "abstract"

    def __init__(self, clock: SimClock):
        self.clock = clock
        #: Stable identity for buffer-frame and transaction-touch keys.
        #: Unique per instance and never reused (unlike ``id()``), so a
        #: re-registered manager can never alias a predecessor's frames.
        #: The switch re-stamps it with the registration name on
        #: construction.
        self.smgr_id = f"{type(self).name}#{next(_SMGR_SEQ)}"
        #: The armed fault plan, stamped by the switch like ``smgr_id``;
        #: ``None`` (the default) sends every request to the medium whole.
        self.fault_plan: FaultPlan | None = None

    # -- fault injection ---------------------------------------------------

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Arm (or with ``None`` disarm) *plan* over this manager's I/O."""
        self.fault_plan = plan

    def _inject(self, op: str, fileid: str, blockno: int | None = None,
                data: bytes | None = None) -> None:
        """Consult the armed plan for one logical read/write/sync.

        Called only by the public block I/O below, before each block (or
        sync) reaches the medium.  A firing rule always raises; a ``torn``
        write first persists what stable storage would hold — the new
        prefix over the block's old bytes (zeros for a fresh block) —
        through the manager's own path, so a replicated manager tears
        every replica identically.
        """
        plan = self.fault_plan
        rule = plan.check(op, fileid)
        if rule is None:
            return
        if rule.action == "torn":
            keep = rule.keep_bytes
            self.fault_plan = None  # the tear itself is not a guarded op
            try:
                old = (bytes(self.read_block(fileid, blockno))
                       if 0 <= blockno < self.nblocks(fileid)
                       else bytes(PAGE_SIZE))
                self.write_block(fileid, blockno,
                                 bytes(data)[:keep] + old[keep:])
            finally:
                self.fault_plan = plan
        where = "" if blockno is None else f" block {blockno}"
        plan.fire(rule, f"{op} {fileid!r}{where}")

    # -- file lifecycle (the medium) ---------------------------------------

    @abstractmethod
    def create(self, fileid: str) -> None:
        """Create an empty relation file.  Idempotent."""

    @abstractmethod
    def exists(self, fileid: str) -> bool:
        """Whether the relation file exists."""

    @abstractmethod
    def unlink(self, fileid: str) -> None:
        """Remove the relation file and its blocks."""

    @abstractmethod
    def nblocks(self, fileid: str) -> int:
        """Number of blocks currently in the file (raises if none)."""

    # -- block I/O (the medium) ---------------------------------------------

    @abstractmethod
    def _read_run(self, fileid: str, first: int,
                  count: int) -> list[bytearray]:
        """*count* existing blocks from *first*, read and charged."""

    @abstractmethod
    def _write_runs(self, fileid: str, runs) -> None:
        """Store and charge each ``(first, images)`` of *runs*, in order."""

    def _sync(self, fileid: str) -> None:
        """Force the file's blocks to stable storage.  By default a write
        is stable when it returns, and only the file's existence is
        checked."""
        self.nblocks(fileid)

    # -- block I/O (the contract and the fault plan, applied once) ----------

    def read_block(self, fileid: str, blockno: int) -> bytearray:
        """Read block *blockno*; always returns ``PAGE_SIZE`` bytes."""
        return self.read_blocks(fileid, blockno, 1)[0]

    def write_block(self, fileid: str, blockno: int, data: bytes) -> None:
        """Write block *blockno* (must already exist or be the next block)."""
        self.write_runs(fileid, ((blockno, (data,)),))

    def extend(self, fileid: str, data: bytes) -> int:
        """Append a new block and return its block number."""
        blockno = self.nblocks(fileid)
        self.write_block(fileid, blockno, data)
        return blockno

    def read_blocks(self, fileid: str, first: int,
                    count: int) -> list[bytearray]:
        """*count* blocks from *first*; under a plan, block by block."""
        if self.fault_plan is None:
            self._check_read(fileid, first, count)
            return self._read_run(fileid, first, count)
        blocks = []
        for blockno in range(first, first + count):
            self._inject("read", fileid, blockno)
            self._check_read(fileid, blockno, 1)
            blocks += self._read_run(fileid, blockno, 1)
        return blocks

    def write_runs(self, fileid: str, runs) -> None:
        """For each ``(first, images)`` of *runs*, in order, write the
        sequence *images* at *first*, *first* + 1, …, syncing nothing:
        :meth:`force` of the one file, less the sync."""
        self.force(((fileid, runs),))

    def sync(self, fileid: str) -> None:
        """Force the file's blocks to stable storage."""
        if self.fault_plan is not None:
            self._inject("sync", fileid)
        self._sync(fileid)

    def force(self, batch, written: Callable[["StorageManager", str],
                                             object] | None = None) -> None:
        """For each ``(fileid, runs)`` of *batch*, in order, write *runs* —
        whole, or under a plan block by block, so a rule that fires finds
        the blocks before it written — then, given *written*, report the
        file (``written(self, fileid)``) and :meth:`sync` it, runs or no
        runs.  The one body that writes; a failure ends it at its file."""
        plan = self.fault_plan
        for fileid, runs in batch:
            if runs:
                if plan is None:
                    self._check_write(fileid, runs)
                    self._write_runs(fileid, runs)
                else:
                    for first, images in runs:
                        for blockno, image in enumerate(images, first):
                            run = ((blockno, (image,)),)
                            self._inject("write", fileid, blockno, image)
                            self._check_write(fileid, run)
                            self._write_runs(fileid, run)
            if written is not None:
                written(self, fileid)
                self.sync(fileid)

    # -- helpers -------------------------------------------------------------

    def _check_read(self, fileid: str, first: int, count: int) -> None:
        total = self.nblocks(fileid)
        if first < 0 or first + count > total:
            raise StorageManagerError(
                f"read past end of {fileid!r}: block "
                f"{first if first < 0 else max(first, total)} of {total}")

    def _check_write(self, fileid: str, runs) -> None:
        """Refuse *runs* (``(first, images)`` pairs, written in order)
        whole if an image is not one block or a run would leave a hole."""
        sizes = {*map(len, chain.from_iterable(map(_IMAGES, runs)))}
        if not sizes <= {PAGE_SIZE}:
            raise StorageManagerError(
                f"block must be {PAGE_SIZE} bytes, got {min(sizes - {PAGE_SIZE})}")
        current = self.nblocks(fileid)
        for first, images in runs:
            if first < 0 or first > current:
                raise StorageManagerError(
                    f"write would leave a hole in {fileid!r}: block "
                    f"{first} of {current}")
            current = max(current, first + len(images))

    def byte_size(self, fileid: str) -> int:
        """Total bytes occupied by the relation file."""
        return self.nblocks(fileid) * PAGE_SIZE

    def stats(self) -> dict:
        """Physical access counters (reads, writes, seeks, ...) of the
        device a manager that charges one keeps in ``port``."""
        return self.port.stats()


class SingleNodeManager(StorageManager):
    """One store behind one node whose port *is* the manager's port — the
    classic one-device manager (``disk``, ``memory``), with the historical
    cost accounting: a read run, or the runs of one write, is one store
    operation, counted per block and charged once per run.
    """

    #: The medium's routines are its store's and its node's own, bound per
    #: instance: a call goes there with no forwarding hop.
    create = exists = unlink = nblocks = _read_run = _write_runs = _sync = None

    def __init__(self, node_id: str, store: BlockStore, model: DeviceModel,
                 clock: SimClock):
        super().__init__(clock)
        self.node = StorageNode(node_id, store, model, clock)
        self.port = self.node.port
        self.create, self.exists, self.unlink, self.nblocks, self.close = (
            store.create, store.exists, store.unlink, store.nblocks,
            store.close)
        self._read_run, self._write_runs, self._sync = (
            self.node.read_run, self.node.write_runs, store.sync)
        #: The one node, listed the way a multi-node manager lists its own.
        self.nodes = [self.node]

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        super().set_fault_plan(plan)
        self.node.set_fault_plan(plan)


class StorageManagerSwitch:
    """Registry mapping manager names to live manager instances.

    The switch owns the instances so that every relation routed to, say,
    ``"worm"`` shares one device (and therefore one head position and one
    cache), just as in POSTGRES.  It is also the storage tier's one
    fault-injection point: the armed plan lives here.
    """

    def __init__(self) -> None:
        self._factories: dict[str, Callable[[], StorageManager]] = {}
        self._instances: dict[str, StorageManager] = {}
        self.fault_plan: FaultPlan | None = None

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Arm (or with ``None`` disarm) *plan* over every manager: live
        instances are re-stamped, later ones stamped by :meth:`get`."""
        self.fault_plan = plan
        for instance in self._instances.values():
            instance.set_fault_plan(plan)

    def register(self, name: str,
                 factory: Callable[[], StorageManager]) -> None:
        """Register (or replace) the manager construction routine *name*."""
        self._factories[name] = factory
        self._instances.pop(name, None)

    def get(self, name: str) -> StorageManager:
        """The live manager instance for *name* (constructed on first use)."""
        if name not in self._instances:
            if name not in self._factories:
                raise StorageManagerError(
                    f"no storage manager registered under {name!r} "
                    f"(have: {sorted(self._factories)})")
            instance = self._factories[name]()
            # Fresh, never-reused identity per construction: frames keyed
            # by a replaced instance can never be served to its successor.
            instance.smgr_id = f"{name}#{next(_SMGR_SEQ)}"
            instance.set_fault_plan(self.fault_plan)
            self._instances[name] = instance
        return self._instances[name]

    def names(self) -> list[str]:
        """Registered manager names, sorted."""
        return sorted(self._factories)

    def instances(self) -> Iterator[StorageManager]:
        """All managers constructed so far."""
        return iter(self._instances.values())

    def items(self) -> Iterator[tuple[str, StorageManager]]:
        """(registration name, instance) for managers constructed so far."""
        return iter(self._instances.items())
