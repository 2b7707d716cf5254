"""Storage-manager abstraction, the node-addressed layer, and the switch.

A storage manager exposes block-oriented access to named relation files.
Blocks are exactly :data:`~repro.storage.constants.PAGE_SIZE` bytes.  The
abstraction is deliberately small — the paper calls it "a clean table-driven
interface … any user can define a new storage manager by writing and
registering a small set of interface routines."

Physical placement is a first-class concern here, split across three
pieces:

* a :class:`BlockStore` is a raw, *sparse* block container (process memory
  or one directory of OS files) with no cost model and no failure model;
* a :class:`StorageNode` pairs one store with its own
  :class:`~repro.sim.devices.DeviceModel`/:class:`~repro.sim.devices.DevicePort`
  (so each node has an independent disk head and busy-time accumulator)
  and an independent failure state (``up``/``down``/``slow``/``flaky``);
* a :class:`PlacementPolicy` maps ``(fileid, blockno)`` to an R-of-N
  replica set of node positions — single-node, hash-banded, or
  range-banded sharding.

:class:`NodeAddressedManager` composes the three into a manager.  The
classic ``disk`` and ``memory`` managers are trivial single-node instances
of it; :mod:`repro.smgr.sharded` builds the replicated multi-node manager
on the same parts.

All managers charge their physical accesses to a shared
:class:`~repro.sim.clock.SimClock` through their nodes' ports, so benchmark
elapsed times reflect each device's cost model.
"""

from __future__ import annotations

import itertools
import os
import zlib
from abc import ABC, abstractmethod
from typing import Callable, Iterator

from repro.errors import NodeDownError, StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort
from repro.sim.faults import NODE_ACTIONS, FaultPlan
from repro.storage.constants import PAGE_SIZE

#: Monotone source for per-instance manager identities (never reused, so a
#: replaced manager can never alias a live one the way ``id()`` could).
_SMGR_SEQ = itertools.count()


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

    The primitives move a *run* of consecutive blocks; one block is a
    run of one.
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
    def write_run(self, fileid: str, first: int, images) -> None:
        """Store the sequence of page-sized buffers *images* from block
        *first* (sparse: any non-negative *first*), keeping none."""

    def read(self, fileid: str, blockno: int) -> bytearray:
        return self.read_run(fileid, blockno, 1)[0]

    def write(self, fileid: str, blockno: int, data: bytes) -> None:
        self.write_run(fileid, blockno, (data,))

    def discard(self, fileid: str, blockno: int) -> None:
        """Forget one block if the medium supports it (rebalance cleanup)."""

    def sync(self, fileid: str) -> None:
        """Force the file to stable storage."""

    def files(self) -> list[str]:
        """File ids present on this store (best effort, for maintenance)."""
        return []

    def close(self) -> None:
        """Release OS resources (file handles)."""


class MemoryBlockStore(BlockStore):
    """Blocks in process memory: ``{fileid: {blockno: bytearray}}``."""

    def __init__(self) -> None:
        self._files: dict[str, dict[int, bytearray]] = {}
        #: Per-file :meth:`nblocks`, kept as a high-water mark so the
        #: once-per-block callers never pay a pass over the whole file.
        self._nblocks: dict[str, int] = {}

    def _blocks(self, fileid: str) -> dict[int, bytearray]:
        if fileid not in self._files:
            raise StorageManagerError(
                f"relation file {fileid!r} does not exist")
        return self._files[fileid]

    def create(self, fileid: str) -> None:
        self._files.setdefault(fileid, {})
        self._nblocks.setdefault(fileid, 0)

    def exists(self, fileid: str) -> bool:
        return fileid in self._files

    def unlink(self, fileid: str) -> None:
        self._files.pop(fileid, None)
        self._nblocks.pop(fileid, None)

    def nblocks(self, fileid: str) -> int:
        self._blocks(fileid)  # validate existence
        return self._nblocks[fileid]

    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        blocks = self._blocks(fileid)  # a copy each; of an int: zeros
        return [bytearray(blocks.get(blockno, PAGE_SIZE))
                for blockno in range(first, first + count)]

    def write_run(self, fileid: str, first: int, images) -> None:
        blocks = self._blocks(fileid)
        for blockno, image in enumerate(images, first):
            blocks[blockno] = bytearray(image)
        if first + len(images) > self._nblocks[fileid]:
            self._nblocks[fileid] = first + len(images)

    def discard(self, fileid: str, blockno: int) -> None:
        self._files.get(fileid, {}).pop(blockno, None)

    def sync(self, fileid: str) -> None:
        self._blocks(fileid)  # validate existence; memory is always durable

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
        return self._file(fileid).nblocks

    def read_run(self, fileid: str, first: int,
                 count: int) -> list[bytearray]:
        fd = self._file(fileid).fd
        # Zeros up front: what a read past a sparse tail leaves untouched.
        blocks = [bytearray(PAGE_SIZE) for _ in range(count)]
        for at in range(0, count, _IOV_MAX):
            os.preadv(fd, blocks[at:at + _IOV_MAX], (first + at) * PAGE_SIZE)
        return blocks

    def write_run(self, fileid: str, first: int, images) -> None:
        entry = self._file(fileid)
        for at in range(first, first + len(images), _IOV_MAX):
            part = images[at - first:at - first + _IOV_MAX]
            written = os.pwritev(entry.fd, part, at * PAGE_SIZE)
            if written != len(part) * PAGE_SIZE:
                raise StorageManagerError(
                    f"short write to {fileid!r}: {written} bytes of "
                    f"{len(part) * PAGE_SIZE} at block {at}")
            entry.nblocks = max(entry.nblocks, at + len(part))

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
    * ``slow``  — accesses succeed but charge ``slow_factor×`` the cost;
    * ``flaky`` — every ``flaky_every``-th access raises a device error;
    * ``up``    — healthy.
    """

    def __init__(self, node_id: str, store: BlockStore, model: DeviceModel,
                 clock: SimClock, port: DevicePort | None = None,
                 slow_factor: float = 4.0, flaky_every: int = 3):
        self.node_id = node_id
        self.store = store
        self.model = model
        self.clock = clock
        self.port = port if port is not None else DevicePort(model, clock)
        self.state = "up"
        #: The armed fault plan, stamped by the owning manager; a firing
        #: ``node`` rule moves :attr:`state` just before an access is gated.
        self.fault_plan: FaultPlan | None = None
        self.slow_factor = slow_factor
        self.flaky_every = max(1, flaky_every)
        self._ops = 0
        #: Accesses refused (down) or dropped (flaky) by this node.
        self.errors = 0

    def set_state(self, state: str) -> bool:
        """Set the failure state; returns True when it actually changed."""
        if state not in NODE_ACTIONS:
            raise ValueError(
                f"unknown node state {state!r} (have: {NODE_ACTIONS})")
        changed = state != self.state
        self.state = state
        return changed

    def _gate(self, op: str, fileid: str, blockno: int) -> None:
        plan = self.fault_plan
        if plan is not None:
            rule = plan.check("node", self.node_id)
            if rule is not None and self.set_state(rule.action):
                plan.fired.append(f"node {self.node_id}: {rule.action}")
        if self.state == "down":
            self.errors += 1
            raise NodeDownError(
                f"node {self.node_id!r} is down "
                f"({op} {fileid!r} block {blockno})")
        self._ops += 1
        if self.state == "flaky" and self._ops % self.flaky_every == 0:
            self.errors += 1
            raise StorageManagerError(
                f"flaky node {self.node_id!r} dropped {op} of "
                f"{fileid!r} block {blockno}")

    def read(self, fileid: str, blockno: int) -> bytearray:
        """Read one block, charging this node's device."""
        self._gate("read", fileid, blockno)
        data = self.store.read(fileid, blockno)
        charged = self.port.charge_read(
            fileid, blockno * PAGE_SIZE, PAGE_SIZE)
        if self.state == "slow":
            self.port.charge_extra(
                charged * (self.slow_factor - 1.0), "io.read")
        return data

    def write(self, fileid: str, blockno: int, data: bytes) -> None:
        """Write one block, charging this node's device."""
        self._gate("write", fileid, blockno)
        self.store.write(fileid, blockno, data)
        charged = self.port.charge_write(
            fileid, blockno * PAGE_SIZE, PAGE_SIZE)
        if self.state == "slow":
            self.port.charge_extra(
                charged * (self.slow_factor - 1.0), "io.write")

    @property
    def healthy(self) -> bool:
        """Up, and no armed plan to change that mid-run: :meth:`_gate`
        would only count, so a run may go to the store whole."""
        return self.state == "up" and self.fault_plan is None

    def read_run(self, fileid: str, first: int,
                 count: int) -> Iterator[bytearray]:
        """:meth:`read` of a run on a :attr:`healthy` node: one store
        operation, then each block counted and charged *as it is yielded*,
        so a consumer charging other work between blocks keeps the
        per-block order of charges."""
        blocks = self.store.read_run(fileid, first, count)
        for blockno, data in enumerate(blocks, first):
            self._ops += 1
            self.port.charge_read(fileid, blockno * PAGE_SIZE, PAGE_SIZE)
            yield data

    def write_run(self, fileid: str, first: int, images) -> None:
        """:meth:`write` of a run on a :attr:`healthy` node: one store
        operation, every block counted and charged in block order."""
        self._ops += len(images)
        self.store.write_run(fileid, first, images)
        for blockno in range(first, first + len(images)):
            self.port.charge_write(fileid, blockno * PAGE_SIZE, PAGE_SIZE)

    def stats(self) -> dict:
        """Per-node counters for ``db.statistics()["storage"]``."""
        return {**self.port.stats(),
                "state": self.state,
                "errors": self.errors}


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------

def stable_hash(text: str) -> int:
    """A placement hash that survives process restarts.

    Python's builtin ``hash`` is salted per process, which would scatter a
    reopened database's blocks onto different nodes than the ones that
    hold them — placement must use a deterministic digest.
    """
    return zlib.crc32(text.encode("utf-8"))


class PlacementPolicy(ABC):
    """Maps ``(fileid, blockno)`` to an ordered replica set of nodes.

    Replicas are returned as *positions* into the manager's active-node
    list (position 0 is the primary), so policies stay oblivious to node
    identity and to retired nodes.
    """

    #: Copies kept of every block (R in R-of-N).
    replication = 1

    @abstractmethod
    def replicas(self, fileid: str, blockno: int,
                 n_nodes: int) -> tuple[int, ...]:
        """Ordered, duplicate-free node positions for this block."""

    def describe(self) -> str:
        return f"{type(self).__name__}(replication={self.replication})"


class SingleNodePlacement(PlacementPolicy):
    """Everything on node 0 — the classic one-device manager."""

    def replicas(self, fileid: str, blockno: int,
                 n_nodes: int) -> tuple[int, ...]:
        return (0,)


class _BandedPlacement(PlacementPolicy):
    """Shared machinery: place *bands* of consecutive blocks, not blocks.

    Scattering consecutive blocks across nodes round-robin would make
    every per-node access non-sequential (a seek per page), throwing away
    exactly the streaming performance sharding is meant to multiply.
    Banding keeps runs of ``band_blocks`` blocks on one node, so each node
    sees sequential I/O within a band while bands still spread across the
    cluster.
    """

    def __init__(self, replication: int = 1, band_blocks: int = 16):
        if replication < 1:
            raise ValueError(f"replication must be >= 1, got {replication}")
        if band_blocks < 1:
            raise ValueError(f"band_blocks must be >= 1, got {band_blocks}")
        self.replication = replication
        self.band_blocks = band_blocks

    def _spread(self, primary: int, n_nodes: int) -> tuple[int, ...]:
        count = min(self.replication, n_nodes)
        return tuple((primary + i) % n_nodes for i in range(count))

    def describe(self) -> str:
        return (f"{type(self).__name__}(replication={self.replication}, "
                f"band_blocks={self.band_blocks})")


class HashPlacement(_BandedPlacement):
    """Primary node = hash of ``(fileid, band)``: uniform, history-free."""

    def replicas(self, fileid: str, blockno: int,
                 n_nodes: int) -> tuple[int, ...]:
        band = blockno // self.band_blocks
        primary = stable_hash(f"{fileid}:{band}") % n_nodes
        return self._spread(primary, n_nodes)


class RangePlacement(_BandedPlacement):
    """Consecutive bands round-robin across nodes (range sharding).

    A file's bands land on ``start, start+1, …`` mod N, where ``start``
    hashes the file id so different files begin on different nodes.  A
    streaming scan therefore visits nodes in long runs, and disjoint-range
    writers to one big object naturally land on disjoint nodes.
    """

    def replicas(self, fileid: str, blockno: int,
                 n_nodes: int) -> tuple[int, ...]:
        band = blockno // self.band_blocks
        primary = (stable_hash(fileid) + band) % n_nodes
        return self._spread(primary, n_nodes)


# ---------------------------------------------------------------------------
# Storage managers
# ---------------------------------------------------------------------------

class StorageManager(ABC):
    """Block-oriented access to named relation files."""

    #: Short name used in ``create ... with storage manager "<name>"``.
    name: str = "abstract"

    def __init__(self, model: DeviceModel, clock: SimClock):
        self.model = model
        self.clock = clock
        self.port = DevicePort(model, clock)
        #: Stable identity for buffer-frame and transaction-touch keys.
        #: Unique per instance and never reused (unlike ``id()``), so a
        #: re-registered manager can never alias a predecessor's frames.
        #: The switch re-stamps it with the registration name on
        #: construction.
        self.smgr_id = f"{type(self).name}#{next(_SMGR_SEQ)}"
        #: The armed fault plan, stamped by the switch like ``smgr_id``;
        #: ``None`` (the default) makes every guard one attribute test.
        self.fault_plan: FaultPlan | None = None

    # -- fault injection ---------------------------------------------------

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Arm (or with ``None`` disarm) *plan* over this manager's I/O."""
        self.fault_plan = plan

    def _inject(self, op: str, fileid: str, blockno: int | None = None,
                data: bytes | None = None) -> None:
        """Consult the armed plan for one logical read/write/sync.

        Every concrete ``read_block``/``write_block``/``sync`` calls this
        first, behind ``if self.fault_plan is not None``.  A firing rule
        always raises; a ``torn`` write first persists what stable storage
        would hold — the new prefix over the block's old bytes (zeros for a
        fresh block) — through the manager's own path, so a replicated
        manager tears every replica identically.
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

    # -- file lifecycle ----------------------------------------------------

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
        """Number of blocks currently in the file."""

    # -- block I/O -----------------------------------------------------------

    @abstractmethod
    def read_block(self, fileid: str, blockno: int) -> bytearray:
        """Read block *blockno*; always returns ``PAGE_SIZE`` bytes."""

    @abstractmethod
    def write_block(self, fileid: str, blockno: int, data: bytes) -> None:
        """Write block *blockno* (must already exist or be the next block)."""

    def extend(self, fileid: str, data: bytes) -> int:
        """Append a new block and return its block number."""
        blockno = self.nblocks(fileid)
        self.write_block(fileid, blockno, data)
        return blockno

    def read_blocks(self, fileid: str, first: int,
                    count: int) -> Iterator[bytearray]:
        """*count* blocks from *first*, each charged as it is yielded.
        The default is the per-block loop; a manager overrides it (and
        :meth:`write_blocks`) only where one device operation can carry a
        whole run."""
        for blockno in range(first, first + count):
            yield self.read_block(fileid, blockno)

    def write_blocks(self, fileid: str, first: int, images) -> None:
        """Write the sequence *images* at *first*, *first* + 1, …."""
        for blockno, image in enumerate(images, first):
            self.write_block(fileid, blockno, image)

    @abstractmethod
    def sync(self, fileid: str) -> None:
        """Force the file's blocks to stable storage."""

    # -- placement ----------------------------------------------------------

    def placement_groups(self, fileid: str,
                         blocknos: list[int]) -> list[list[int]]:
        """Partition *blocknos* into per-device batches, each in block
        order.

        Batched callers (commit-time flush, prefetch) issue each returned
        group contiguously so that every physical device sees its blocks
        sequentially.  The default — one group, sorted — is exactly the
        historical single-device order; multi-node managers override it to
        group by primary node.
        """
        return [sorted(blocknos)] if blocknos else []

    # -- helpers -------------------------------------------------------------

    def _check_block(self, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise StorageManagerError(
                f"block must be {PAGE_SIZE} bytes, got {len(data)}")

    def _check_read(self, fileid: str, first: int, count: int = 1) -> None:
        total = self.nblocks(fileid)
        if first < 0 or first + count > total:
            raise StorageManagerError(
                f"read past end of {fileid!r}: block "
                f"{first if first < 0 else max(first, total)} of {total}")

    def _check_write(self, fileid: str, first: int, images) -> None:
        for image in images:
            self._check_block(image)
        current = self.nblocks(fileid)
        if first < 0 or first > current:
            raise StorageManagerError(
                f"write would leave a hole in {fileid!r}: block {first} "
                f"of {current}")

    def byte_size(self, fileid: str) -> int:
        """Total bytes occupied by the relation file."""
        return self.nblocks(fileid) * PAGE_SIZE

    def stats(self) -> dict:
        """Physical access counters (reads, writes, seeks, ...)."""
        return self.port.stats()


class NodeAddressedManager(StorageManager):
    """A storage manager routing block I/O through placed storage nodes.

    :class:`SingleNodeManager` (``disk``, ``memory``) is the one-node
    case; :class:`repro.smgr.sharded` overrides the block I/O for quorum
    replication.
    """

    def __init__(self, model: DeviceModel, clock: SimClock,
                 nodes: list[StorageNode] | None = None,
                 placement: PlacementPolicy | None = None):
        super().__init__(model, clock)
        self.nodes: list[StorageNode] = list(nodes or [])
        self.placement = placement or SingleNodePlacement()

    def node_replicas(self, fileid: str, blockno: int) -> tuple[int, ...]:
        """Indices into :attr:`nodes` holding this block, primary first."""
        return self.placement.replicas(fileid, blockno, len(self.nodes))

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        """Stamp *plan* on the manager and on every node (for ``node``
        rules); disarming also returns every node to healthy."""
        super().set_fault_plan(plan)
        for node in self.nodes:
            node.fault_plan = plan
            if plan is None:
                node.set_state("up")

    # -- file lifecycle (every node's store knows every file) ---------------

    def create(self, fileid: str) -> None:
        for node in self.nodes:
            node.store.create(fileid)

    def exists(self, fileid: str) -> bool:
        return any(node.store.exists(fileid) for node in self.nodes)

    def unlink(self, fileid: str) -> None:
        for node in self.nodes:
            node.store.unlink(fileid)

    def nblocks(self, fileid: str) -> int:
        best = None
        for node in self.nodes:
            if node.store.exists(fileid):
                size = node.store.nblocks(fileid)
                best = size if best is None else max(best, size)
        if best is None:
            raise StorageManagerError(
                f"relation file {fileid!r} does not exist")
        return best

    # -- block I/O ----------------------------------------------------------

    def read_block(self, fileid: str, blockno: int) -> bytearray:
        if self.fault_plan is not None:
            self._inject("read", fileid, blockno)
        self._check_read(fileid, blockno)
        replicas = self.node_replicas(fileid, blockno)
        return self.nodes[replicas[0]].read(fileid, blockno)

    def write_block(self, fileid: str, blockno: int, data: bytes) -> None:
        if self.fault_plan is not None:
            self._inject("write", fileid, blockno, data)
        self._check_write(fileid, blockno, (data,))
        for idx in self.node_replicas(fileid, blockno):
            self.nodes[idx].write(fileid, blockno, data)

    def sync(self, fileid: str) -> None:
        if self.fault_plan is not None:
            self._inject("sync", fileid)
        for node in self.nodes:
            node.store.sync(fileid)

    def close(self) -> None:
        for node in self.nodes:
            node.store.close()


class SingleNodeManager(NodeAddressedManager):
    """One store behind one node whose port *is* the manager's port — the
    classic one-device manager (``disk``, ``memory``), with the historical
    cost accounting.

    On one healthy device a run of consecutive blocks is one store
    operation: validated once, counted and charged per logical block in
    block order, as the per-block loop would.  An armed fault plan or a
    node that is not ``up`` needs each block gated where it stands, and
    gets the loop.
    """

    def __init__(self, node_id: str, store: BlockStore, model: DeviceModel,
                 clock: SimClock):
        super().__init__(model, clock)
        self.nodes = [StorageNode(node_id, store, model, clock,
                                  port=self.port)]

    def read_blocks(self, fileid: str, first: int,
                    count: int) -> Iterator[bytearray]:
        if self.fault_plan is not None or not self.nodes[0].healthy:
            return super().read_blocks(fileid, first, count)
        self._check_read(fileid, first, count)
        return self.nodes[0].read_run(fileid, first, count)

    def write_blocks(self, fileid: str, first: int, images) -> None:
        if self.fault_plan is not None or not self.nodes[0].healthy:
            return super().write_blocks(fileid, first, images)
        self._check_write(fileid, first, images)
        self.nodes[0].write_run(fileid, first, images)


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
