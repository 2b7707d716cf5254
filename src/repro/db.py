"""The database façade: one object wiring every subsystem together.

A :class:`Database` owns the simulation clock, the storage-manager switch,
the buffer pool, the transaction machinery, the catalogs, the ADT
registries, the large-object manager, the Inversion file system, and the
query-language executor.  Two deployment shapes:

* ``Database()`` — fully in-memory.  The ``"disk"`` storage manager is
  backed by process memory but charges the magnetic-disk cost model, which
  is what the benchmark harness uses: wall-clock fast, simulated-time
  faithful.
* ``Database(path)`` — durable.  Relation files, ``pg_log``, and the
  catalog journal live under *path* and survive reopen; commit forces
  pages per the POSTGRES no-overwrite design.

Example
-------
>>> db = Database()
>>> emp = db.create_class("EMP", [("name", "text"), ("age", "int4")])
>>> with db.begin() as txn:
...     _ = db.insert(txn, "EMP", ("Joe", 30))
>>> [t.values for t in db.scan("EMP")]
[('Joe', 30)]
"""

from __future__ import annotations

import os
from dataclasses import asdict
from typing import TYPE_CHECKING, Iterator

from repro.access.archive import Archiver
from repro.access.btree import BTree
from repro.access.heap import HeapRelation
from repro.access.scan import (AccessStats, EngineLatch, IndexProbe,
                               SeqScan, fetch_visible)
from repro.access.schema import Attribute, Schema
from repro.access.tuples import TID, HeapTuple
from repro.adt.functions import FunctionRegistry
from repro.adt.types import TypeDefinition, TypeRegistry
from repro.catalog.catalog import Catalog
from repro.catalog.journal import CatalogJournal
from repro.errors import RelationNotFound, SchemaError
from repro.sim.clock import SimClock
from repro.sim.devices import CpuModel, magnetic_disk_device
from repro.sim.faults import FaultPlan, parse_plan
from repro.smgr.base import StorageManager, StorageManagerSwitch
from repro.smgr.cache import CachedStorageManager
from repro.smgr.disk import DiskStorageManager
from repro.smgr.memory import MemoryStorageManager
from repro.smgr.sharded import sharded_disk_manager, sharded_memory_manager
from repro.smgr.worm import WormStorageManager
from repro.storage.buffer import BufferManager
from repro.txn import lockdep
from repro.txn.locks import LockManager, LockMode
from repro.txn.manager import Transaction, TransactionManager
from repro.txn.snapshot import Snapshot
from repro.txn.xlog import CommitLog, TxnStatus

if TYPE_CHECKING:
    from repro.inversion.filesystem import InversionFileSystem
    from repro.lo.manager import LargeObjectManager
    from repro.ql.executor import QueryResult
    from repro.session import Session

#: System class holding each chunked large object's mutable state (size).
PG_LARGEOBJECT = "pg_largeobject"


class Database:
    """One POSTGRES-style database instance."""

    def __init__(self, path: str | None = None, pool_size: int = 256,
                 mips: float = 15.0, worm_cache_blocks: int = 1024,
                 charge_cpu: bool = True, no_wait: bool = False,
                 shard_nodes: int = 4, shard_replication: int = 3,
                 shard_quorum: int | None = None):
        self.path = path
        #: Default ``"sharded"`` topology: N nodes, R-of-N replication
        #: (quorum defaults to a majority of R), banded range placement.
        #: Reopening a durable database must use the same topology
        #: parameters.
        self._shard_config = {
            "n_nodes": shard_nodes,
            "replication": shard_replication,
            "write_quorum": shard_quorum,
        }
        self.clock = SimClock()
        self.cpu = CpuModel(mips=mips)
        self.bufmgr = BufferManager(
            pool_size=pool_size, clock=self.clock,
            cpu=self.cpu if charge_cpu else None)
        #: Blocking 2PL with deadlock detection by default; ``no_wait=True``
        #: restores the paper's immediate-rejection policy.  A single
        #: thread running two conflicting transactions does not hang: a
        #: wait that depends on a lock the caller's own thread holds raises
        #: ``LockError`` immediately, like the old no-wait policy did.
        self.locks = LockManager(no_wait=no_wait)
        #: Engine latch: serializes structural mutation (page content,
        #: relation/index caches) across sessions.  The canonical rule
        #: lives in DESIGN.md §"Locking discipline": heavyweight locks are
        #: ALWAYS taken before this latch, never while holding it — a
        #: blocking lock wait under the latch would stall every session.
        self._latch = EngineLatch()
        #: Per-scan counters (probes, tuples scanned/visible, prefetch
        #: batches) maintained by the scan descriptors in
        #: :mod:`repro.access.scan`; see ``statistics()["access"]``.
        self.access_stats = AccessStats()
        #: Latch tripwire, armed with the lockdep validator (one runtime
        #: switch): relations and indexes opened through this Database then
        #: assert the engine latch is held on raw reads (``fetch``/
        #: ``fetch_many``/``search``/``range_scan``), so code bypassing the
        #: scan layer fails loudly instead of racing.
        self._latch_probe = (self._latch.held if lockdep.VALIDATOR.armed
                             else None)

        if path is not None:
            os.makedirs(path, exist_ok=True)
            self.clog = CommitLog(os.path.join(path, "pg_log"))
            journal = CatalogJournal(os.path.join(path, "catalog.journal"))
        else:
            self.clog = CommitLog()
            journal = CatalogJournal()
        self.tm = TransactionManager(self.clog, self.bufmgr, self.locks,
                                     self.clock)
        self.catalog = Catalog(journal)
        self.types = TypeRegistry()
        self.functions = FunctionRegistry()

        self.switch = StorageManagerSwitch()
        self._register_default_smgrs(worm_cache_blocks)
        self.default_smgr_name = "disk"

        self._relations: dict[str, HeapRelation] = {}
        self._indexes: dict[str, BTree] = {}
        self._lo_manager: "LargeObjectManager | None" = None
        self._inversion: "InversionFileSystem | None" = None
        #: The vacuum cleaner (one sweep; history → archive storage).
        self.archiver = Archiver(self)
        self._bootstrap()
        # Crash-recovery sweep: the catalog journal is not transactional,
        # so a crash mid-create can leave large-object entries whose size
        # row never committed.  (Only a reopened directory can have any.)
        if self.catalog.large_objects:
            self.lo.recover_orphans()

    def _register_default_smgrs(self, worm_cache_blocks: int) -> None:
        # "sharded" is the scale-out backend: blocks striped over N nodes
        # (each priced as its own magnetic disk), R-of-N quorum replication.
        if self.path is not None:
            base = os.path.join(self.path, "base")
            shard_dir = os.path.join(self.path, "shard")
            self.switch.register(
                "disk", lambda: DiskStorageManager(base, self.clock))
            self.switch.register(
                "sharded", lambda: sharded_disk_manager(
                    shard_dir, self.clock, **self._shard_config))
        else:
            # In-memory blocks priced as a magnetic disk: the benchmark mode.
            self.switch.register(
                "disk", lambda: MemoryStorageManager(
                    self.clock, model=magnetic_disk_device()))
            self.switch.register(
                "sharded", lambda: sharded_memory_manager(
                    self.clock, **self._shard_config))
        self.switch.register(
            "memory", lambda: MemoryStorageManager(self.clock))
        self.switch.register(
            "worm", lambda: CachedStorageManager(
                WormStorageManager(self.clock), self.clock,
                capacity_blocks=worm_cache_blocks))

    def _bootstrap(self) -> None:
        """Create system classes on first open."""
        if PG_LARGEOBJECT not in self.catalog.relations:
            self.create_class(
                PG_LARGEOBJECT,
                [("loid", "oid"), ("size", "int8")])
        if "pg_largeobject_loid" not in self.catalog.indexes:
            self.create_index("pg_largeobject_loid", PG_LARGEOBJECT, "loid")

    # -- infrastructure accessors ---------------------------------------------------

    def storage_manager(self, name: str | None = None) -> StorageManager:
        """The live storage manager instance registered under *name*."""
        return self.switch.get(name or self.default_smgr_name)

    @property
    def latch(self) -> EngineLatch:
        """The engine latch serializing page-content access.

        Tuple-level visibility is MVCC's job, but slot directories and
        B-tree nodes are only consistent *between* latched sections — so
        any subsystem reading pages directly (``index.search`` /
        ``range_scan`` plus ``relation.fetch``) must hold this latch, the
        same one ``insert``/``replace``/``scan`` mutate under.  Normal
        code never takes it by hand: the scan descriptors in
        :mod:`repro.access.scan` own it for every read path.  Re-entrant;
        never acquire a heavyweight lock while holding it (DESIGN.md
        §"Locking discipline").
        """
        return self._latch

    @property
    def lo(self) -> "LargeObjectManager":
        """The large-object manager (lazily constructed)."""
        with self._latch:
            if self._lo_manager is None:
                from repro.lo.manager import LargeObjectManager
                self._lo_manager = LargeObjectManager(self)
            return self._lo_manager

    @property
    def inversion(self) -> "InversionFileSystem":
        """The Inversion file system over this database."""
        with self._latch:
            if self._inversion is None:
                from repro.inversion.filesystem import InversionFileSystem
                self._inversion = InversionFileSystem(self)
            return self._inversion

    # -- transactions ------------------------------------------------------------------

    def begin(self) -> Transaction:
        """Start a transaction (usable as a context manager)."""
        return self.tm.begin()

    def session(self) -> "Session":
        """A new :class:`~repro.session.Session` handle on this database.

        Each concurrent caller (thread, connection) gets its own session:
        the transaction cursor and open large-object descriptors live on
        the handle, never on the shared :class:`Database`.
        """
        from repro.session import Session
        return Session(self)

    def snapshot(self, txn: Transaction | None = None,
                 as_of: float | None = None,
                 until: float | None = None) -> Snapshot:
        return self.tm.snapshot(txn, as_of=as_of, until=until)

    # -- DDL ------------------------------------------------------------------------------

    def _build_schema(self, columns) -> Schema:
        if isinstance(columns, Schema):
            return columns
        attributes = []
        for name, type_name in columns:
            if not self.types.exists(type_name):
                raise SchemaError(f"unknown type {type_name!r} for "
                                  f"column {name!r}")
            definition = self.types.get(type_name)
            attributes.append(Attribute(name, type_name,
                                        storage_type=definition.storage_type))
        return Schema(attributes)

    def create_class(self, name: str, columns,
                     smgr: str | None = None) -> HeapRelation:
        """``create <name> (...) [with storage manager <smgr>]``."""
        with self._latch:
            schema = self._build_schema(columns)
            smgr_name = smgr or self.default_smgr_name
            self.storage_manager(smgr_name)  # unknown manager: fail first
            self.catalog.add_relation(name, schema, smgr_name,
                                      f"heap_{name}")
            return self.get_class(name)

    def get_class(self, name: str) -> HeapRelation:
        """The (cached) heap relation for class *name*."""
        with self._latch:
            relation = self._relations.get(name)
            if relation is None:
                entry = self.catalog.get_relation(name)
                relation = HeapRelation(
                    entry.name, entry.schema,
                    self.storage_manager(entry.smgr_name), self.bufmgr,
                    self.clog, self.catalog.allocate_oid,
                    fileid=entry.fileid)
                relation.latch_probe = self._latch_probe
                relation.create_storage()
                self._relations[name] = relation
            return relation

    def class_exists(self, name: str) -> bool:
        return name in self.catalog.relations

    def drop_class(self, name: str) -> None:
        """Drop a class, its storage, and its indexes."""
        with self._latch:
            relation = self.get_class(name)
            for index_entry in self.catalog.indexes_on(name):
                self.drop_index(index_entry.name)
            self.catalog.drop_relation(name)
            relation.drop_storage()
            self._relations.pop(name, None)

    def create_index(self, name: str, relation_name: str,
                     attribute: str) -> BTree:
        """B-tree index on an integer attribute of a class."""
        with self._latch:
            relation = self.get_class(relation_name)
            attr = relation.schema.attribute(attribute)
            if (attr.storage_type or attr.type_name) not in (
                    "int4", "int8", "oid"):
                raise SchemaError(
                    f"can only index integer attributes, {attribute!r} "
                    f"is {attr.type_name}")
            self.catalog.add_index(name, relation_name, attribute,
                                   f"btree_{name}")
            index = self.get_index(name)
            # Index any rows that already exist.
            position = relation.schema.position(attribute)
            for tup in relation.scan_versions():
                key = tup.values[position]
                if key is not None:
                    index.insert((key,), (tup.tid.blockno, tup.tid.slot))
            return index

    def get_index(self, name: str) -> BTree:
        with self._latch:
            index = self._indexes.get(name)
            if index is None:
                entry = self.catalog.indexes.get(name)
                if entry is None:
                    raise RelationNotFound(f"no index named {name!r}")
                relation_entry = self.catalog.get_relation(entry.relation)
                index = BTree(name,
                              self.storage_manager(relation_entry.smgr_name),
                              self.bufmgr, key_arity=1, fileid=entry.fileid)
                index.latch_probe = self._latch_probe
                index.create_storage()
                self._indexes[name] = index
            return index

    def drop_index(self, name: str) -> None:
        with self._latch:
            index = self.get_index(name)
            self.catalog.drop_index(name)
            index.drop_storage()
            self._indexes.pop(name, None)

    # -- DML (index-maintaining) --------------------------------------------------------------

    def insert(self, txn: Transaction, class_name: str,
               values: tuple) -> TID:
        """Insert *values* into *class_name*, maintaining its indexes."""
        return self.insert_many(txn, class_name, [values])[0]

    def insert_many(self, txn: Transaction, class_name: str,
                    rows: list[tuple]) -> list[TID]:
        """Insert *rows* in order, maintaining the class's indexes with
        one run each; returns the rows' TIDs.

        The relation lock is taken *before* the engine latch (and may
        block); the latched section then mutates pages atomically with
        respect to every other session.
        """
        self.tm.require_transaction(txn)
        self.locks.acquire(txn.xid, ("relation", class_name),
                           LockMode.SHARED)
        with self._latch:
            relation = self.get_class(class_name)
            tids = relation.insert_many(txn, rows)
            self._index_insert(relation, rows, tids, txn)
            return tids

    def _index_insert(self, relation: HeapRelation, rows: list[tuple],
                      tids: list[TID], txn: Transaction) -> None:
        for entry in self.catalog.indexes_on(relation.name):
            position = relation.schema.position(entry.attribute)
            run = [((row[position],), (tid.blockno, tid.slot))
                   for row, tid in zip(rows, tids)
                   if row[position] is not None]
            if run:
                if len(run) > 1:   # stable: equal keys keep row order
                    run.sort(key=lambda item: item[0])
                index = self.get_index(entry.name)
                index.insert_run(run)
                txn.touch(index.smgr, index.fileid)

    def delete(self, txn: Transaction, class_name: str, tid: TID) -> None:
        """Delete the tuple at *tid*."""
        self.delete_many(txn, class_name, [tid])

    def delete_many(self, txn: Transaction, class_name: str,
                    tids: list[TID]) -> None:
        """Delete the tuples at *tids* under one lock and one latch hold.

        Index entries are left behind (the old version is still needed for
        time travel); scans filter by visibility, and vacuum reconciles.
        """
        self.tm.require_transaction(txn)
        self.locks.acquire(txn.xid, ("relation", class_name),
                           LockMode.SHARED)
        with self._latch:
            relation = self.get_class(class_name)
            for tid in tids:
                relation.delete(txn, tid)

    def replace(self, txn: Transaction, class_name: str, tid: TID,
                values: tuple) -> TID:
        """Write a new version of the tuple at *tid*."""
        self.tm.require_transaction(txn)
        self.locks.acquire(txn.xid, ("relation", class_name),
                           LockMode.SHARED)
        with self._latch:
            relation = self.get_class(class_name)
            new_tid = relation.replace(txn, tid, values)
            self._index_insert(relation, [values], [new_tid], txn)
            return new_tid

    def scan(self, class_name: str, txn: Transaction | None = None,
             as_of: float | None = None,
             until: float | None = None) -> Iterator[HeapTuple]:
        """Visible tuples of *class_name* (optionally at a past instant,
        or across the interval ``[as_of, until]``).

        Time-travel scans transparently include versions the sweep has
        moved to the class's archive relation (the scan layer's job).

        The result is materialized under the engine latch, so the tuples
        returned are a consistent cut even while other sessions write.
        """
        snapshot = self.snapshot(txn, as_of=as_of, until=until)
        return iter(SeqScan(self, self.get_class(class_name))
                    .tuples(snapshot))

    def fetch(self, class_name: str, tid: TID,
              txn: Transaction | None = None,
              as_of: float | None = None) -> HeapTuple | None:
        """The visible tuple at *tid*, or ``None``."""
        snapshot = self.snapshot(txn, as_of=as_of)
        return fetch_visible(self, self.get_class(class_name), tid, snapshot)

    def history(self, class_name: str, oid: int) -> list[dict]:
        """Every committed version of the logical tuple *oid*, oldest
        first, with its validity interval.

        Returns dicts with ``values``, ``valid_from`` (commit time of the
        inserter) and ``valid_to`` (commit time of the deleter, or
        ``None`` while live).  Versions moved to the class's archive are
        included.  Uncommitted and aborted versions are skipped.
        """
        versions = []
        # The time range over all of time: every version whose inserter
        # committed, whenever.
        for tup in self.scan(class_name, as_of=float("-inf"),
                             until=float("inf")):
            if tup.oid != oid:
                continue
            valid_to = None
            if (tup.xmax != 0 and self.clog.status(tup.xmax)
                    == TxnStatus.COMMITTED):
                valid_to = self.clog.commit_time(tup.xmax)
            versions.append({"values": tup.values,
                             "valid_from": self.clog.commit_time(tup.xmin),
                             "valid_to": valid_to})
        versions.sort(key=lambda v: v["valid_from"])
        return versions

    def index_lookup(self, index_name: str, key: int,
                     txn: Transaction | None = None,
                     as_of: float | None = None) -> list[HeapTuple]:
        """Visible tuples whose indexed attribute equals *key*.

        The fetched tuple's attribute is re-checked against the probe key
        — a defence against index entries that went stale between a
        deletion and the vacuum that prunes them.
        """
        snapshot = self.snapshot(txn, as_of=as_of)
        index = self.get_index(index_name)
        entry = self.catalog.indexes[index_name]
        relation = self.get_class(entry.relation)
        position = relation.schema.position(entry.attribute)
        return IndexProbe(self, index, relation, (key,),
                          recheck_position=position).tuples(snapshot)

    # -- ADT registration -------------------------------------------------------------------------

    def create_type(self, name: str, input_fn, output_fn) -> TypeDefinition:
        """``create type`` — register a small ADT."""
        return self.types.register(name, input_fn, output_fn)

    def create_large_type(self, name: str, storage: str = "fchunk",
                          compression: str = "none",
                          input_fn=None, output_fn=None) -> TypeDefinition:
        """``create large type`` with a storage clause (§4)."""
        return self.types.register_large(
            name, storage=storage, compression=compression,
            input_fn=input_fn, output_fn=output_fn)

    def register_function(self, name: str, arg_types, return_type: str,
                          fn, needs_context: bool = False):
        """Register a user-defined function callable from queries."""
        return self.functions.register(name, tuple(arg_types), return_type,
                                       fn, needs_context=needs_context)

    # -- queries ------------------------------------------------------------------------------------

    def execute(self, query: str,
                txn: Transaction | None = None) -> "QueryResult":
        """Run one mini-POSTQUEL statement.

        Without *txn*, the statement runs in its own transaction, committed
        on success and aborted on error.
        """
        from repro.ql.executor import Executor
        return Executor(self).execute(query, txn=txn)

    def execute_script(self, script: str,
                       txn: Transaction | None = None) -> list:
        """Run `;`-separated statements atomically (one transaction)."""
        from repro.ql.executor import Executor
        return Executor(self).execute_script(script, txn=txn)

    def explain(self, query: str) -> str:
        """Describe how *query* would execute, without running it."""
        from repro.ql.executor import Executor
        return Executor(self).explain(query)

    # -- maintenance -----------------------------------------------------------------------------------

    def archive_class(self, class_name: str,
                      horizon: float | None = None) -> dict[str, int]:
        """Move *class_name*'s dead versions to its archive relation."""
        return self.archiver.archive_class(class_name, horizon=horizon)

    def vacuum(self, horizon: float | None = None) -> dict[str, int]:
        """Sweep every class (``Archiver.sweep``), discarding dead versions;
        returns per-class removal counts — 0 for an archive class, which
        is write-once and never swept.
        """
        return {name: self.archiver.sweep(name, horizon)
                for name in self.catalog.relation_names()}

    def checkpoint(self) -> int:
        """Flush every dirty buffer (returns pages written)."""
        return self.bufmgr.flush_all()

    # -- fault injection -------------------------------------------------------------------------------

    def inject_faults(self, plan) -> "FaultPlan":
        """Arm a fault plan (a :class:`~repro.sim.faults.FaultPlan` or plan
        DSL text) over the storage-manager switch and ``pg_log``.

        Block-level rules reach every relation on every manager, ``on node
        <k> [after N]: down|slow|flaky|up`` rules every storage node; no
        manager is constructed.  Returns the armed plan so callers can
        inspect ``plan.fired``.
        """
        if isinstance(plan, str):
            plan = parse_plan(plan)
        self.switch.set_fault_plan(plan)
        self.clog.set_fault_plan(plan)
        return plan

    def clear_faults(self) -> None:
        """Disarm any fault plan; every storage node returns to healthy."""
        self.switch.set_fault_plan(None)
        self.clog.set_fault_plan(None)

    def check_integrity(self) -> list[str]:
        """Read-only consistency sweep over every layer.

        Returns a list of problem descriptions (empty = healthy); see
        :class:`repro.catalog.integrity.IntegrityChecker`.
        """
        from repro.catalog.integrity import IntegrityChecker
        return IntegrityChecker(self).run()

    def statistics(self) -> dict:
        """A snapshot of every layer's counters, for monitoring/benchmarks.

        Keys: ``clock`` (simulated seconds by category), ``buffer`` (pool
        counters and hit rate), ``storage`` (per-manager physical access
        counters), ``catalog`` (object counts), ``transactions``,
        ``locks`` (grants, waits, wait time, deadlocks, victims),
        ``access`` (scan-descriptor counters), ``largeobjects``
        (descriptor cache hits/misses), and ``lockdep`` (whether the
        runtime lock-order validator is armed, the observed
        acquisition-order edges, and the violation count — see
        ``repro/txn/lockdep.py`` and docs/invariants.md).
        """
        from repro.lo.metadata import LargeObjectCacheStats
        storage = {}
        for name, smgr in self.switch.items():
            storage[name] = smgr.stats()
        # Avoid constructing the LO manager just to report zeros.
        lo_caches = (self._lo_manager.cache_stats
                     if self._lo_manager is not None
                     else LargeObjectCacheStats())
        return {
            "clock": {"elapsed": self.clock.elapsed,
                      **self.clock.breakdown()},
            "buffer": {
                "hits": self.bufmgr.stats.hits,
                "misses": self.bufmgr.stats.misses,
                "hit_rate": self.bufmgr.stats.hit_rate(),
                "evictions": self.bufmgr.stats.evictions,
                "writebacks": self.bufmgr.stats.writebacks,
                "prefetched": self.bufmgr.stats.prefetched,
                "prefetch_hits": self.bufmgr.stats.prefetch_hits,
                "node_cache_hits": self.bufmgr.stats.node_cache_hits,
                "node_cache_misses": self.bufmgr.stats.node_cache_misses,
                "pool_size": self.bufmgr.pool_size,
            },
            "storage": storage,
            "catalog": {
                "classes": len(self.catalog.relations),
                "indexes": len(self.catalog.indexes),
                "large_objects": len(self.catalog.large_objects),
            },
            "transactions": {
                "active": self.tm.active_count(),
            },
            "locks": asdict(self.locks.stats),
            "access": asdict(self.access_stats),
            "largeobjects": asdict(lo_caches),
            "lockdep": lockdep.VALIDATOR.as_dict(),
        }

    def close(self) -> None:
        """Flush and release everything; the directory can be reopened."""
        self.bufmgr.flush_all()
        for smgr in self.switch.instances():
            close = getattr(smgr, "close", None)
            if close is not None:
                close()
        self.clog.close()
        self.catalog.journal.close()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
