"""Sharded, replicated storage manager: blocks striped across N nodes.

ROADMAP item 3 ("scale-out storage").  The manager keeps the ordinary
block-oriented interface — relations and the buffer pool are oblivious —
while physically spreading every file over a set of
:class:`~repro.smgr.base.StorageNode` instances by banded placement:

* **banded placement** — consecutive runs of :data:`BAND_BLOCKS` blocks
  sit on one primary node, bands round-robin from a per-file start, and
  each band's R replicas are the primary and the next R - 1 active nodes;
* **R-of-N quorum writes** — a block write goes to every replica of its
  band; it succeeds iff at least ``write_quorum`` replicas take it.
  Replicas that missed a successful write (a down or flaky node) are
  tracked as *stale*, reported as ``replica_lag`` in the stats.
* **read-one with read-repair** — reads prefer a fresh replica, fall back
  across replicas on per-node errors, and opportunistically rewrite any
  reachable stale replica with the fresh bytes just read.  A read never
  silently serves a stale copy: if no fresh replica is reachable the read
  fails loudly rather than lose committed bytes.
* **scrub** — :meth:`ShardedStorageManager.scrub` compares replicas
  byte-for-byte and repairs divergence from the copy with the highest
  page LSN, which is what heals a *reopened* database whose in-memory
  stale set died with the process.
* **node add/remove with incremental rebalancing** — topology changes pin
  every existing block to its current location, re-target placement, and
  let :meth:`ShardedStorageManager.rebalance` migrate blocks in bounded
  steps while reads and writes keep flowing.
* **node faults** — ``on node <k> [after N]: down|slow|flaky|up`` rules
  of the armed fault plan transition node health mid-workload (each
  :class:`~repro.smgr.base.StorageNode` consults the plan in its own
  gate); the quorum machinery absorbs what it can and surfaces the rest.

Throughput accounting: every node owns a
:class:`~repro.sim.devices.DevicePort`, so ``busy_s`` per node measures
each device's service time.  A topology's aggregate throughput is bytes
moved divided by the *busiest* node's ``busy_s`` (the critical path) —
the number N parallel clients actually wait on, and what the topology
benchmark charts against node count and replica factor.
"""

from __future__ import annotations

import os
import zlib

from repro.errors import StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import magnetic_disk_device
from repro.sim.faults import FaultPlan
from repro.smgr.base import (DiskBlockStore, MemoryBlockStore,
                             StorageManager, StorageNode)
from repro.storage.page import SlottedPage
from repro.txn.lockdep import LockdepMutex

#: Blocks per placement band (128 KB of consecutive blocks on one node).
BAND_BLOCKS = 16


def stable_hash(text: str) -> int:
    """A placement hash that survives process restarts.

    Python's builtin ``hash`` is salted per process, which would scatter a
    reopened database's blocks onto different nodes than the ones that
    hold them — placement must use a deterministic digest.
    """
    return zlib.crc32(text.encode("utf-8"))


class ShardedStorageManager(StorageManager):
    """R-of-N replicated striping over independent storage nodes."""

    name = "sharded"

    def __init__(self, clock: SimClock, nodes: list[StorageNode],
                 replication: int = 1, write_quorum: int | None = None):
        if not nodes:
            raise StorageManagerError("a sharded manager needs >= 1 node")
        if replication < 1:
            raise StorageManagerError(
                f"replication must be >= 1, got {replication}")
        super().__init__(clock)
        self.nodes = list(nodes)
        #: Copies kept of every block (R in R-of-N).
        self.replication = replication
        if write_quorum is None:
            write_quorum = replication // 2 + 1
        if not 1 <= write_quorum <= replication:
            raise StorageManagerError(
                f"write quorum {write_quorum} outside 1..{replication}")
        self.write_quorum = write_quorum
        #: Node indices participating in placement (a removed node leaves
        #: this list but stays in ``nodes`` until rebalancing drains it).
        self._placing: list[int] = list(range(len(self.nodes)))
        #: Per-block replica-set overrides (node indices), present while a
        #: block sits somewhere other than where placement now says.
        self._locations: dict[tuple[str, int], tuple[int, ...]] = {}
        #: Blocks that must be re-evaluated against current placement.
        self._pending: set[tuple[str, int]] = set()
        #: Replicas that missed a quorum write: (fileid, blockno, node).
        self._stale: set[tuple[str, int, int]] = set()
        #: Manager-level file lengths (global blocks, dense by contract).
        self._lengths: dict[str, int] = {}
        self._lock = LockdepMutex("mutex:smgr", reentrant=True)
        self.quorum_failures = 0
        self.repairs = 0
        self.rebalanced = 0

    def set_fault_plan(self, plan: FaultPlan | None) -> None:
        super().set_fault_plan(plan)
        for node in self.nodes:
            node.set_fault_plan(plan)

    # -- placement resolution ------------------------------------------------

    def _placement_replicas(self, fileid: str,
                            blockno: int) -> tuple[int, ...]:
        """Where placement puts a block: node indices, primary first.

        Scattering consecutive blocks across nodes round-robin would make
        every per-node access non-sequential (a seek per page), throwing
        away exactly the streaming performance sharding is meant to
        multiply.  Banding keeps runs of :data:`BAND_BLOCKS` blocks on one
        node, so each node sees sequential I/O within a band while bands
        still spread across the cluster.  A file's bands land on
        ``start, start+1, …`` over the active nodes, where ``start``
        hashes the file id so different files begin on different nodes: a
        streaming scan visits nodes in long runs, and disjoint-range
        writers to one big object land on disjoint nodes.
        """
        placing = self._placing
        n_nodes = len(placing)
        primary = stable_hash(fileid) + blockno // BAND_BLOCKS
        return tuple(placing[(primary + i) % n_nodes]
                     for i in range(min(self.replication, n_nodes)))

    def _replica_nodes(self, fileid: str, blockno: int) -> tuple[int, ...]:
        override = self._locations.get((fileid, blockno))
        if override is not None:
            return override
        return self._placement_replicas(fileid, blockno)

    def node_replicas(self, fileid: str, blockno: int) -> tuple[int, ...]:
        """Indices into :attr:`nodes` holding this block, primary first."""
        with self._lock:
            return self._replica_nodes(fileid, blockno)

    # -- file lifecycle (every node's store knows every file) ---------------

    def create(self, fileid: str) -> None:
        for node in self.nodes:
            node.store.create(fileid)

    def exists(self, fileid: str) -> bool:
        return any(node.store.exists(fileid) for node in self.nodes)

    def unlink(self, fileid: str) -> None:
        with self._lock:
            for node in self.nodes:
                node.store.unlink(fileid)
            self._lengths.pop(fileid, None)
            self._locations = {key: val for key, val
                               in self._locations.items()
                               if key[0] != fileid}
            self._pending = {key for key in self._pending
                             if key[0] != fileid}
            self._stale = {entry for entry in self._stale
                           if entry[0] != fileid}

    def nblocks(self, fileid: str) -> int:
        with self._lock:
            length = self._lengths.get(fileid)
            if length is None:
                # Reopen path: the dense global length is the max over the
                # nodes' sparse slices (quorum guarantees the tail block
                # survives on >= write_quorum stores).
                sizes = [node.store.nblocks(fileid) for node in self.nodes
                         if node.store.exists(fileid)]
                if not sizes:
                    raise StorageManagerError(
                        f"relation file {fileid!r} does not exist")
                length = self._lengths[fileid] = max(sizes)
            return length

    def close(self) -> None:
        for node in self.nodes:
            node.store.close()

    # -- block I/O (the medium) ----------------------------------------------

    def _write_runs(self, fileid: str, runs) -> None:
        """Each block to every replica of its band, in order; a block
        fails unless ``write_quorum`` replicas take it."""
        with self._lock:
            for first, images in runs:
                for blockno, data in enumerate(images, first):
                    self._write_quorum(fileid, blockno, data)

    def _write_quorum(self, fileid: str, blockno: int, data: bytes) -> None:
        replicas = self._replica_nodes(fileid, blockno)
        failures: list[tuple[int, StorageManagerError]] = []
        for idx in replicas:
            try:
                self.nodes[idx].write(fileid, blockno, data)
            except StorageManagerError as exc:
                failures.append((idx, exc))
            else:
                self._stale.discard((fileid, blockno, idx))
        written = len(replicas) - len(failures)
        needed = min(self.write_quorum, len(replicas))
        if written < needed:
            self.quorum_failures += 1
            raise StorageManagerError(
                f"quorum write failed for {fileid!r} block {blockno}: "
                f"{written}/{len(replicas)} replicas took it "
                f"(need {needed}); first error: {failures[0][1]}")
        for idx, _exc in failures:
            self._stale.add((fileid, blockno, idx))
        self._lengths[fileid] = max(self._lengths[fileid], blockno + 1)

    def _read_run(self, fileid: str, first: int,
                  count: int) -> list[bytearray]:
        """Each block from a fresh replica, repairing stale ones."""
        with self._lock:
            return [self._read_fresh(fileid, blockno)
                    for blockno in range(first, first + count)]

    def _read_fresh(self, fileid: str, blockno: int) -> bytearray:
        replicas = self._replica_nodes(fileid, blockno)
        fresh = [idx for idx in replicas
                 if (fileid, blockno, idx) not in self._stale]
        stale = [idx for idx in replicas
                 if (fileid, blockno, idx) in self._stale]
        errors: list[StorageManagerError] = []
        for idx in fresh:
            try:
                data = self.nodes[idx].read(fileid, blockno)
            except StorageManagerError as exc:
                errors.append(exc)
                continue
            if stale:
                self._repair(fileid, blockno, data, stale)
            return data
        detail = f"; last error: {errors[-1]}" if errors else ""
        raise StorageManagerError(
            f"no fresh replica of {fileid!r} block {blockno} is "
            f"readable ({len(fresh)} fresh tried, {len(stale)} stale "
            f"skipped{detail})")

    def _repair(self, fileid: str, blockno: int, data: bytes,
                stale_idxs: list[int]) -> None:
        """Rewrite reachable stale replicas with freshly-read bytes."""
        for idx in stale_idxs:
            node = self.nodes[idx]
            if node.state == "down":
                continue
            try:
                node.write(fileid, blockno, bytes(data))
            except StorageManagerError:
                continue
            self._stale.discard((fileid, blockno, idx))
            self.repairs += 1

    def _sync(self, fileid: str) -> None:
        for node in self.nodes:
            if node.state == "down":
                continue
            node.store.sync(fileid)

    # -- scrubbing -----------------------------------------------------------

    def scrub(self, fileids: list[str] | None = None) -> dict[str, int]:
        """Compare replicas block-by-block and repair divergence.

        The authoritative copy of a divergent block is the one whose page
        header carries the highest LSN (the buffer manager stamps a fresh
        LSN on every write-back, so later writes always win).  This is the
        recovery path for stale replicas the in-memory ``_stale`` set no
        longer remembers — after a crash and reopen.
        """
        with self._lock:
            if fileids is None:
                names = set(self._lengths)
                for node in self.nodes:
                    names.update(node.store.files())
                fileids = sorted(names)
            checked = mismatches = repaired = 0
            for fileid in fileids:
                if not self.exists(fileid):
                    continue
                for blockno in range(self.nblocks(fileid)):
                    replicas = self._replica_nodes(fileid, blockno)
                    copies: list[tuple[int, bytearray]] = []
                    for idx in replicas:
                        node = self.nodes[idx]
                        if node.state == "down":
                            continue
                        try:
                            copies.append((idx, node.read(fileid, blockno)))
                        except StorageManagerError:
                            continue
                    checked += 1
                    if len({bytes(data) for _idx, data in copies}) <= 1:
                        continue
                    mismatches += 1
                    best_idx, best = max(
                        copies, key=lambda pair: SlottedPage(pair[1]).lsn)
                    for idx, data in copies:
                        if idx == best_idx or bytes(data) == bytes(best):
                            continue
                        try:
                            self.nodes[idx].write(fileid, blockno,
                                                  bytes(best))
                        except StorageManagerError:
                            continue
                        self._stale.discard((fileid, blockno, idx))
                        repaired += 1
                        self.repairs += 1
            return {"checked": checked, "mismatches": mismatches,
                    "repaired": repaired}

    # -- topology changes ----------------------------------------------------

    def _all_files(self) -> list[str]:
        names = set(self._lengths)
        for node in self.nodes:
            names.update(node.store.files())
        return sorted(name for name in names if self.exists(name))

    def _pin_current_locations(self) -> None:
        """Freeze every block's replica set before placement changes."""
        for fileid in self._all_files():
            for blockno in range(self.nblocks(fileid)):
                key = (fileid, blockno)
                if key not in self._locations:
                    self._locations[key] = self._replica_nodes(fileid,
                                                               blockno)
                self._pending.add(key)

    def add_node(self, node: StorageNode) -> int:
        """Join a node to the ring; returns the number of pending moves.

        Existing blocks keep serving from their pinned locations until
        :meth:`rebalance` migrates them to the new placement.
        """
        with self._lock:
            self._pin_current_locations()
            for fileid in self._all_files():
                node.store.create(fileid)
            node.fault_plan = self.fault_plan
            self.nodes.append(node)
            self._placing.append(len(self.nodes) - 1)
            return len(self._pending)

    def remove_node(self, node_id: str) -> int:
        """Retire a node from placement; returns pending move count.

        The node stays readable (if up) so rebalancing can drain it; it
        simply stops being a placement target.  At least one other node
        must remain active.
        """
        with self._lock:
            for idx, node in enumerate(self.nodes):
                if node.node_id == node_id:
                    break
            else:
                raise StorageManagerError(f"no node named {node_id!r}")
            if idx not in self._placing:
                raise StorageManagerError(
                    f"node {node_id!r} is already retired")
            if len(self._placing) == 1:
                raise StorageManagerError(
                    "cannot retire the last active node")
            self._pin_current_locations()
            self._placing.remove(idx)
            return len(self._pending)

    def rebalance(self, max_moves: int | None = None) -> int:
        """Migrate up to *max_moves* blocks toward current placement.

        Each step copies one block to its new replicas and unpins it;
        reads and writes keep working throughout because unmigrated
        blocks still resolve to their pinned (old) locations.  Returns
        the number of blocks actually moved (conformant blocks are
        unpinned for free and don't count).
        """
        moved = 0
        with self._lock:
            for key in sorted(self._pending):
                if max_moves is not None and moved >= max_moves:
                    break
                fileid, blockno = key
                target = self._placement_replicas(fileid, blockno)
                current = self._locations.get(key, target)
                if set(target) == set(current):
                    self._locations.pop(key, None)
                    self._pending.discard(key)
                    continue
                data = self._read_for_move(fileid, blockno, current)
                for idx in target:
                    if idx not in current:
                        self.nodes[idx].write(fileid, blockno, bytes(data))
                for idx in current:
                    if idx not in target:
                        self.nodes[idx].store.discard(fileid, blockno)
                        self._stale.discard((fileid, blockno, idx))
                self._locations.pop(key, None)
                self._pending.discard(key)
                moved += 1
                self.rebalanced += 1
            return moved

    def _read_for_move(self, fileid: str, blockno: int,
                       current: tuple[int, ...]) -> bytearray:
        errors: list[StorageManagerError] = []
        for idx in current:
            if (fileid, blockno, idx) in self._stale:
                continue
            try:
                return self.nodes[idx].read(fileid, blockno)
            except StorageManagerError as exc:
                errors.append(exc)
        detail = f"; last error: {errors[-1]}" if errors else ""
        raise StorageManagerError(
            f"rebalance cannot read {fileid!r} block {blockno} from any "
            f"fresh replica{detail}")

    # -- introspection -------------------------------------------------------

    def max_busy_s(self) -> float:
        """Service time of the busiest node — the topology's critical path."""
        return max(node.port.busy_s for node in self.nodes)

    def stats(self) -> dict:
        with self._lock:
            totals = {"reads": 0, "writes": 0, "seeks": 0,
                      "platter_switches": 0, "busy_s": 0.0}
            nodes = {}
            for node in self.nodes:
                node_stats = node.stats()
                for key in totals:
                    totals[key] += node_stats[key]
                nodes[node.node_id] = node_stats
            totals.update(
                nodes=nodes,
                active_nodes=len(self._placing),
                replication=self.replication,
                write_quorum=self.write_quorum,
                placement=f"bands of {BAND_BLOCKS} blocks",
                replica_lag=len(self._stale),
                pending_moves=len(self._pending),
                rebalanced=self.rebalanced,
                repairs=self.repairs,
                quorum_failures=self.quorum_failures,
            )
            return totals


# ---------------------------------------------------------------------------
# Topology factories
# ---------------------------------------------------------------------------

def sharded_memory_manager(clock: SimClock, n_nodes: int = 4,
                           replication: int = 3,
                           write_quorum: int | None = None,
                           ) -> ShardedStorageManager:
    """N in-memory nodes, each priced as its own magnetic disk."""
    model = magnetic_disk_device()
    nodes = [StorageNode(f"node{k}", MemoryBlockStore(), model, clock)
             for k in range(n_nodes)]
    return ShardedStorageManager(clock, nodes, replication, write_quorum)


def sharded_disk_manager(directory: str, clock: SimClock, n_nodes: int = 4,
                         replication: int = 3,
                         write_quorum: int | None = None,
                         ) -> ShardedStorageManager:
    """N durable nodes, one subdirectory of sparse files per node.

    Reopening the same directory reconstructs the same topology; the
    sharding parameters must match across opens (placement is
    deterministic, so matching parameters find every block where the
    previous process left it).
    """
    model = magnetic_disk_device()
    nodes = [StorageNode(f"node{k}",
                         DiskBlockStore(os.path.join(directory,
                                                     f"node{k}")),
                         model, clock)
             for k in range(n_nodes)]
    return ShardedStorageManager(clock, nodes, replication, write_quorum)
