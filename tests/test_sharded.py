"""The sharded/replicated storage manager (ROADMAP item 3).

Covers the node-addressed layer end to end: deterministic banded
placement, R-of-N quorum writes with stale tracking, read-one with
read-repair, scrub-by-LSN, node add/remove with incremental rebalancing,
the ``on node …`` fault-DSL hooks, durable reopen of a sharded
directory, and the stable buffer-frame identity the refactor introduced.
The shard-marked stress at the bottom is the CI job's node-loss +
rebalancing churn.
"""

import os

import pytest

from repro.db import Database
from repro.errors import NodeDownError, ReproError, StorageManagerError
from repro.sim.clock import SimClock
from repro.sim.devices import magnetic_disk_device
from repro.sim.faults import parse_plan
from repro.smgr.base import (DiskBlockStore, MemoryBlockStore,
                             StorageNode)
from repro.smgr.memory import MemoryStorageManager
from repro.smgr.sharded import (sharded_disk_manager,
                                sharded_memory_manager)
from repro.storage.buffer import BufferManager
from repro.storage.page import SlottedPage, seal


def page(tag: int, lsn: int = 0) -> bytes:
    """A valid slotted page carrying a recognizable payload byte."""
    p = SlottedPage()
    p.add_item(bytes([tag % 251 + 1]) * 64)
    seal([p.buf], lsn)
    return bytes(p.buf)


def three_node_db(path=None, replication=3, quorum=2):
    """A database whose ``"sharded"`` manager is 3 nodes, registered
    before first use (the default registration is 4 nodes, R = 3)."""
    db = Database(path)
    if path is None:
        db.switch.register("sharded", lambda: sharded_memory_manager(
            db.clock, n_nodes=3, replication=replication,
            write_quorum=quorum))
    else:
        db.switch.register("sharded", lambda: sharded_disk_manager(
            os.path.join(path, "shard"), db.clock, n_nodes=3,
            replication=replication, write_quorum=quorum))
    return db


def fill(smgr, fileid: str, nblocks: int) -> None:
    smgr.create(fileid)
    for blockno in range(nblocks):
        smgr.write_block(fileid, blockno, page(blockno))


class TestPlacement:
    def test_replica_sets_are_deterministic_across_instances(self):
        a = sharded_memory_manager(SimClock(), n_nodes=5, replication=3)
        b = sharded_memory_manager(SimClock(), n_nodes=5, replication=3)
        for blockno in (0, 1, 17, 64, 500):
            assert a.node_replicas("heap_T", blockno) == \
                b.node_replicas("heap_T", blockno)

    def test_replica_sets_are_pinned(self):
        """Banded placement is an on-disk format: a sharded directory
        reopens only if every block is still where it was placed, so
        these replica sets (4 nodes, R = 3) are literals."""
        smgr = sharded_memory_manager(SimClock(), n_nodes=4,
                                      replication=3)
        pinned = {("heap_T", 0): (1, 2, 3), ("heap_T", 15): (1, 2, 3),
                  ("heap_T", 16): (2, 3, 0), ("heap_T", 100): (3, 0, 1),
                  ("lo_7", 0): (2, 3, 0), ("lo_7", 40): (0, 1, 2),
                  ("btree_x", 1000): (3, 0, 1)}
        for (fileid, blockno), replicas in pinned.items():
            assert smgr.node_replicas(fileid, blockno) == replicas

    def test_each_block_is_stored_on_its_replicas_only(self, tmp_path):
        smgr = sharded_disk_manager(str(tmp_path), SimClock(), n_nodes=4,
                                    replication=3)
        fill(smgr, "heap_T", 48)
        for blockno in range(48):
            replicas = smgr.node_replicas("heap_T", blockno)
            for idx, node in enumerate(smgr.nodes):
                held = bytes(node.store.read_run("heap_T", blockno, 1)[0])
                assert held == (page(blockno) if idx in replicas
                                else bytes(len(held)))
        smgr.close()

    def test_replicas_are_distinct_nodes(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=4,
                                      replication=3)
        for blockno in range(0, 200, 7):
            replicas = smgr.node_replicas("f", blockno)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3

    def test_replication_clamps_to_node_count(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=2,
                                      replication=3, write_quorum=2)
        assert len(smgr.node_replicas("f", 0)) == 2

    def test_bands_keep_consecutive_blocks_on_one_primary(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=4,
                                      replication=1)
        primaries = {smgr.node_replicas("f", b)[0] for b in range(16)}
        assert len(primaries) == 1  # one seek-friendly run per band

    def test_bands_spread_across_nodes(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=4,
                                      replication=1)
        primaries = {smgr.node_replicas("f", band * 16)[0]
                     for band in range(16)}
        assert len(primaries) == 4


class TestForceOrder:
    """A force writes each file's dirty blocks in block order and nothing
    else: every node has its own device, so each node taking its blocks
    in ascending order is the fewest seeks, and a replica node is never
    sent back to low addresses once per primary's group.  Recorded at
    ``StorageManager.force``, which commits and eviction write-backs
    (``write_runs``) both go through."""

    SIZE = 900_000
    #: Total seeks over the load and three overwrite commits of the
    #: 900,000-byte object (133 when a force grouped its blocks by
    #: primary node).
    MAX_SEEKS = 116

    def test_each_node_takes_a_force_in_ascending_block_order(self):
        db = Database(pool_size=256)
        smgr = db.storage_manager("sharded")
        assert (len(smgr.nodes), smgr.replication) == (4, 3)
        forces: list[dict] = []
        force = smgr.force

        def one_force(batch, written=None):
            forces.append({})
            return force(batch, written)

        def recording(node, write):
            def write_block(fileid, blockno, data):
                forces[-1].setdefault((node.node_id, fileid),
                                      []).append(blockno)
                return write(fileid, blockno, data)
            return write_block

        smgr.force = one_force
        for node in smgr.nodes:
            node.write = recording(node, node.write)
        with db.begin() as txn:
            designator = db.lo.create(txn, "fchunk", smgr="sharded")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(b"a" * self.SIZE)
        for tag in b"bcd":
            with db.begin() as txn:
                with db.lo.open(designator, txn, "rw") as obj:
                    obj.write(bytes([tag]) * self.SIZE)
        assert forces
        for force in forces:
            for offsets in force.values():
                assert offsets == sorted(offsets)
        assert smgr.stats()["seeks"] <= self.MAX_SEEKS
        with db.lo.open(designator) as obj:
            assert obj.read() == b"d" * self.SIZE
        db.close()


class TestQuorumWrites:
    def make(self, **kw):
        kw.setdefault("n_nodes", 3)
        kw.setdefault("replication", 3)
        kw.setdefault("write_quorum", 2)
        return sharded_memory_manager(SimClock(), **kw)

    def test_write_survives_one_down_replica(self):
        smgr = self.make()
        smgr.create("f")
        smgr.nodes[1].set_state("down")
        smgr.write_block("f", 0, page(7))
        assert smgr.stats()["replica_lag"] == 1
        assert bytes(smgr.read_block("f", 0)) == page(7)

    def test_write_fails_below_quorum(self):
        smgr = self.make()
        smgr.create("f")
        smgr.nodes[0].set_state("down")
        smgr.nodes[1].set_state("down")
        smgr.nodes[2].set_state("down")
        with pytest.raises(StorageManagerError, match="quorum"):
            smgr.write_block("f", 0, page(1))
        assert smgr.stats()["quorum_failures"] == 1

    def test_read_never_serves_a_stale_replica(self):
        smgr = self.make()
        smgr.create("f")
        smgr.write_block("f", 0, page(1))
        smgr.nodes[0].set_state("down")
        smgr.write_block("f", 0, page(2))  # node0 misses this write
        smgr.nodes[0].set_state("up")
        # Every read returns the new bytes, never node0's old copy.
        for _ in range(4):
            assert bytes(smgr.read_block("f", 0)) == page(2)

    def test_read_repair_drains_the_lag(self):
        smgr = self.make()
        smgr.create("f")
        smgr.nodes[2].set_state("down")
        for blockno in range(8):
            smgr.write_block("f", blockno, page(blockno))
        assert smgr.stats()["replica_lag"] == 8
        smgr.nodes[2].set_state("up")
        for blockno in range(8):
            smgr.read_block("f", blockno)
        stats = smgr.stats()
        assert stats["replica_lag"] == 0
        assert stats["repairs"] == 8
        # The repaired copies really are the fresh bytes.
        for blockno in range(8):
            assert bytes(smgr.nodes[2].read("f", blockno)) == \
                page(blockno)

    def test_read_fails_loudly_when_no_fresh_replica_is_reachable(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=2,
                                      replication=1, write_quorum=1)
        smgr.create("f")
        smgr.write_block("f", 0, page(3))
        (idx,) = smgr.node_replicas("f", 0)
        smgr.nodes[idx].set_state("down")
        with pytest.raises(StorageManagerError, match="no fresh replica"):
            smgr.read_block("f", 0)

    def test_flaky_replicas_are_absorbed_by_the_quorum(self):
        smgr = self.make()
        smgr.create("f")
        for node in smgr.nodes:
            node.flaky_every = 3
        smgr.nodes[0].set_state("flaky")
        for blockno in range(12):
            smgr.write_block("f", blockno, page(blockno))
        for blockno in range(12):
            assert bytes(smgr.read_block("f", blockno)) == page(blockno)

    def test_down_node_gate_raises_node_down(self):
        node = StorageNode("n", MemoryBlockStore(),
                           magnetic_disk_device(), SimClock())
        node.store.create("f")
        node.set_state("down")
        with pytest.raises(NodeDownError):
            node.read("f", 0)


class TestNodeFaultDSL:
    def test_node_rules_parse_and_validate(self):
        plan = parse_plan("on node node1 after 40: down")
        (rule,) = plan.rules
        assert (rule.op, rule.pattern, rule.after, rule.action) == \
            ("node", "node1", 40, "down")
        with pytest.raises(ValueError):
            parse_plan("on node node1: torn 5")  # not a health state

    def test_after_budget_kills_a_node_mid_workload(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=3,
                                      replication=3, write_quorum=2)
        smgr.create("f")
        plan = parse_plan("on node node1 after 5: down")
        smgr.set_fault_plan(plan)
        for blockno in range(10):
            smgr.write_block("f", blockno, page(blockno))
        assert smgr.nodes[1].state == "down"
        assert "node node1: down" in plan.fired
        assert smgr.stats()["replica_lag"] > 0
        # Every committed block still reads back exactly.
        for blockno in range(10):
            assert bytes(smgr.read_block("f", blockno)) == page(blockno)

    def test_up_rule_restores_a_downed_node(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=3,
                                      replication=3, write_quorum=2)
        smgr.create("f")
        smgr.set_fault_plan(parse_plan(
            "on node node0: down\non node node0 after 6: up"))
        for blockno in range(8):
            smgr.write_block("f", blockno, page(blockno))
        assert smgr.nodes[0].state == "up"

    def test_disarming_heals_every_node(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=3,
                                      replication=3)
        smgr.set_fault_plan(parse_plan("on node *: down"))
        smgr.create("f")
        with pytest.raises(StorageManagerError, match="quorum"):
            smgr.write_block("f", 0, page(0))  # every replica is down
        smgr.set_fault_plan(None)
        assert all(node.state == "up" for node in smgr.nodes)
        smgr.write_block("f", 0, page(0))
        assert bytes(smgr.read_block("f", 0)) == page(0)

    def test_slow_node_charges_extra_service_time(self):
        clock = SimClock()
        smgr = sharded_memory_manager(clock, n_nodes=2, replication=1,
                                      write_quorum=1)
        smgr.create("f")
        smgr.write_block("f", 0, page(0))
        (idx,) = smgr.node_replicas("f", 0)
        busy_before = smgr.nodes[idx].port.busy_s
        smgr.read_block("f", 0)
        healthy_cost = smgr.nodes[idx].port.busy_s - busy_before
        smgr.nodes[idx].set_state("slow")
        busy_before = smgr.nodes[idx].port.busy_s
        smgr.read_block("f", 0)
        slow_cost = smgr.nodes[idx].port.busy_s - busy_before
        assert slow_cost > healthy_cost * 2

    def test_database_routes_node_rules_to_the_sharded_manager(self):
        db = Database()
        plan = db.inject_faults("on node node0: down")
        # Built after arming: the switch stamps it, nodes included.
        sharded = db.storage_manager("sharded")
        assert all(node.fault_plan is plan for node in sharded.nodes)
        db.clear_faults()
        assert all(node.fault_plan is None for node in sharded.nodes)
        db.close()

    def test_node_rules_reach_single_node_managers_too(self):
        db = Database()
        db.create_class("T", [("v", "int4")])
        with db.begin() as txn:
            db.insert(txn, "T", (1,))
        db.bufmgr.invalidate_all()
        db.inject_faults("on node memory0: down")
        with pytest.raises(NodeDownError):
            list(db.scan("T"))
        db.clear_faults()
        assert [t.values for t in db.scan("T")] == [(1,)]
        db.close()


class TestRebalancing:
    def seeded(self, n_nodes=3, replication=2, nblocks=48):
        clock = SimClock()
        smgr = sharded_memory_manager(clock, n_nodes=n_nodes,
                                      replication=replication,
                                      write_quorum=1)
        fill(smgr, "f", nblocks)
        return clock, smgr

    def everything_reads_back(self, smgr, nblocks=48):
        for blockno in range(nblocks):
            assert bytes(smgr.read_block("f", blockno)) == page(blockno)

    def test_add_node_pins_blocks_until_rebalanced(self):
        clock, smgr = self.seeded()
        pending = smgr.add_node(StorageNode(
            "node3", MemoryBlockStore(), magnetic_disk_device(), clock))
        assert pending > 0
        assert smgr.stats()["pending_moves"] == pending
        self.everything_reads_back(smgr)  # old locations still serve

    def test_rebalance_moves_in_bounded_steps(self):
        clock, smgr = self.seeded()
        smgr.add_node(StorageNode("node3", MemoryBlockStore(),
                                  magnetic_disk_device(), clock))
        first = smgr.rebalance(max_moves=2)
        assert first <= 2
        self.everything_reads_back(smgr)  # mid-rebalance reads work
        while smgr.rebalance(max_moves=8):
            self.everything_reads_back(smgr)
        stats = smgr.stats()
        assert stats["pending_moves"] == 0
        assert stats["rebalanced"] >= first
        # The new node now holds part of the file.
        assert smgr.nodes[3].store.exists("f")
        assert smgr.nodes[3].store.nblocks("f") > 0
        self.everything_reads_back(smgr)

    def test_rebalanced_blocks_land_where_placement_says(self):
        clock, smgr = self.seeded()
        smgr.add_node(StorageNode("node3", MemoryBlockStore(),
                                  magnetic_disk_device(), clock))
        while smgr.rebalance(max_moves=16):
            pass
        for blockno in range(48):
            assert smgr.node_replicas("f", blockno) == \
                smgr._placement_replicas("f", blockno)

    def test_remove_node_drains_it(self):
        clock, smgr = self.seeded()
        pending = smgr.remove_node("node1")
        assert pending > 0
        self.everything_reads_back(smgr)  # the retiree still serves reads
        while smgr.rebalance(max_moves=16):
            pass
        # No block's replica set mentions the retired node any more.
        for blockno in range(48):
            assert 1 not in smgr.node_replicas("f", blockno)
        self.everything_reads_back(smgr)

    def test_a_failed_move_keeps_the_count_of_those_before_it(self):
        """Each completed move is counted as it completes, so a move that
        fails part-way through a call leaves the earlier ones counted."""

        class FailingStore(MemoryBlockStore):
            writes = 0

            def write_runs(self, fileid, runs):
                self.writes += 1
                if self.writes == 4:
                    raise StorageManagerError("device full")
                super().write_runs(fileid, runs)

        clock, smgr = self.seeded(replication=1, nblocks=96)
        smgr.add_node(StorageNode("node3", FailingStore(),
                                  magnetic_disk_device(), clock))
        pinned = dict(smgr._locations)
        with pytest.raises(StorageManagerError, match="device full"):
            smgr.rebalance()
        moved = [key for key, current in pinned.items()
                 if key not in smgr._locations
                 and current != smgr._placement_replicas(*key)]
        assert len(moved) >= 3
        assert smgr.stats()["rebalanced"] == len(moved)
        while smgr.rebalance(max_moves=16):
            pass
        assert smgr.stats()["rebalanced"] == sum(
            current != smgr._placement_replicas(*key)
            for key, current in pinned.items())
        self.everything_reads_back(smgr, nblocks=96)

    def test_cannot_remove_the_last_active_node(self):
        clock, smgr = self.seeded()
        smgr.remove_node("node1")
        smgr.remove_node("node2")
        with pytest.raises(StorageManagerError, match="last active"):
            smgr.remove_node("node0")

    def test_writes_during_rebalance_stay_consistent(self):
        clock, smgr = self.seeded()
        smgr.add_node(StorageNode("node3", MemoryBlockStore(),
                                  magnetic_disk_device(), clock))
        smgr.rebalance(max_moves=4)
        for blockno in range(0, 48, 5):
            smgr.write_block("f", blockno, page(100 + blockno))
        while smgr.rebalance(max_moves=16):
            pass
        for blockno in range(48):
            want = page(100 + blockno) if blockno % 5 == 0 \
                else page(blockno)
            assert bytes(smgr.read_block("f", blockno)) == want


    def test_unlink_forgets_the_file_everywhere(self):
        """A dropped file leaves no length, no location override, no
        pending move and no stale replica behind; a file recreated under
        its name starts empty, and the other file still moves."""
        clock, smgr = self.seeded()
        fill(smgr, "g", 8)
        victim = smgr.nodes[smgr.node_replicas("f", 1)[0]]
        victim.set_state("down")                # one replica write misses
        smgr.write_block("f", 1, page(99))
        victim.set_state("up")
        assert smgr.add_node(StorageNode("node3", MemoryBlockStore(),
                                         magnetic_disk_device(), clock))
        assert {key[0] for key in smgr._pending} == {"f", "g"}
        assert {key[0] for key in smgr._locations} == {"f", "g"}
        assert {entry[0] for entry in smgr._stale} == {"f"}
        smgr.unlink("f")
        assert not smgr.exists("f")
        assert "f" not in smgr._lengths
        assert all(key[0] == "g" for key in smgr._locations)
        assert all(key[0] == "g" for key in smgr._pending)
        assert smgr._stale == set()
        assert not any(node.store.exists("f") for node in smgr.nodes)
        while smgr.rebalance(max_moves=16):
            pass
        assert smgr.stats()["pending_moves"] == 0
        for blockno in range(8):
            assert bytes(smgr.read_block("g", blockno)) == page(blockno)
        smgr.create("f")
        assert smgr.nblocks("f") == 0
        smgr.write_block("f", 0, page(7))
        assert smgr.nblocks("f") == 1
        assert bytes(smgr.read_block("f", 0)) == page(7)

    def test_a_dropped_class_leaves_no_sharded_state(self):
        db = Database()
        db.create_class("T", [("v", "int4")], smgr="sharded")
        fileid = db.get_class("T").fileid
        with db.begin() as txn:
            for i in range(300):
                db.insert(txn, "T", (i,))
        sharded = db.storage_manager("sharded")
        sharded.remove_node("node1")            # pins what it held
        assert any(key[0] == fileid for key in sharded._pending)
        db.drop_class("T")
        assert fileid not in sharded._lengths
        assert not [key for key in sharded._locations if key[0] == fileid]
        assert not [key for key in sharded._pending if key[0] == fileid]
        db.create_class("T", [("v", "int4")], smgr="sharded")
        assert list(db.scan("T")) == []
        with db.begin() as txn:
            db.insert(txn, "T", (7,))
        assert [t.values for t in db.scan("T")] == [(7,)]
        assert db.check_integrity() == []
        db.close()


class TestScrub:
    def test_scrub_repairs_divergence_toward_highest_lsn(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=3,
                                      replication=3, write_quorum=3)
        smgr.create("f")
        smgr.write_block("f", 0, page(1, lsn=10))
        # A replica silently rots (crash left an old copy; the stale set
        # died with the process, so only scrub can find it).
        replicas = smgr.node_replicas("f", 0)
        rotten = smgr.nodes[replicas[1]]
        rotten.store.write_runs("f", [(0, [page(9, lsn=3)])])
        report = smgr.scrub(["f"])
        assert report["mismatches"] == 1
        assert report["repaired"] == 1
        assert bytes(rotten.store.read_run("f", 0, 1)[0]) == page(1, lsn=10)
        assert smgr.scrub(["f"])["mismatches"] == 0

    def test_clean_scrub_reports_zero(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=3,
                                      replication=2, write_quorum=2)
        fill(smgr, "f", 10)
        report = smgr.scrub()
        assert report["checked"] == 10
        assert report["mismatches"] == report["repaired"] == 0


class TestDurableReopen:
    def test_reopen_finds_every_block(self, tmp_path):
        directory = str(tmp_path / "shard")
        clock = SimClock()
        smgr = sharded_disk_manager(directory, clock, n_nodes=3,
                                    replication=2)
        fill(smgr, "f", 40)
        smgr.sync("f")
        smgr.close()

        reopened = sharded_disk_manager(directory, SimClock(), n_nodes=3,
                                        replication=2)
        assert reopened.nblocks("f") == 40
        for blockno in range(40):
            assert bytes(reopened.read_block("f", blockno)) == \
                page(blockno)
        reopened.close()

    def test_reopened_database_serves_sharded_los(self, tmp_path):
        path = str(tmp_path / "db")
        payload = bytes(range(256)) * 300
        db = Database(path)
        txn = db.begin()
        designator = db.lo.create(txn, smgr="sharded")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(payload)
        txn.commit()
        db.close()

        reopened = Database(path)
        with reopened.lo.open(designator) as obj:
            assert obj.read() == payload
        assert reopened.check_integrity() == []
        reopened.close()


class TestStatsAndIdentity:
    def test_stats_surface_topology_and_health_counters(self):
        smgr = sharded_memory_manager(SimClock(), n_nodes=4,
                                      replication=3, write_quorum=2)
        fill(smgr, "f", 20)
        stats = smgr.stats()
        assert stats["active_nodes"] == 4
        assert stats["replication"] == 3
        assert stats["write_quorum"] == 2
        assert set(stats["nodes"]) == {"node0", "node1", "node2",
                                       "node3"}
        assert stats["writes"] == sum(
            n["writes"] for n in stats["nodes"].values())
        assert stats["replica_lag"] == 0
        assert stats["pending_moves"] == 0
        for counter in ("rebalanced", "repairs", "quorum_failures"):
            assert stats[counter] == 0
        assert smgr.max_busy_s() > 0

    def test_database_reports_sharded_storage_stats(self):
        db = Database()
        txn = db.begin()
        designator = db.lo.create(txn, smgr="sharded")
        with db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"spread me" * 4000)
        txn.commit()
        storage = db.statistics()["storage"]
        assert "sharded" in storage
        assert storage["sharded"]["replica_lag"] == 0
        assert sum(n["writes"] for n
                   in storage["sharded"]["nodes"].values()) > 0
        db.close()

    def test_smgr_ids_are_unique_per_instance(self):
        clock = SimClock()
        a = MemoryStorageManager(clock)
        b = MemoryStorageManager(clock)
        assert a.smgr_id != b.smgr_id
        assert a.smgr_id.startswith("memory#")

    def test_buffer_frames_key_on_stable_identity_not_id(self):
        """Two managers must never alias frames, even if CPython hands
        the second the first's recycled ``id()`` (the seed keyed frames
        by ``id(smgr)``)."""
        clock = SimClock()
        bm = BufferManager(pool_size=8, clock=clock)
        a = MemoryStorageManager(clock)
        a.create("f")
        buf_a = bm.allocate(a, "f")
        assert buf_a.key == (a.smgr_id, "f", 0)
        bm.unpin(buf_a, dirty=True)
        b = MemoryStorageManager(clock)
        b.create("f")
        buf_b = bm.allocate(b, "f")
        assert buf_b.key == (b.smgr_id, "f", 0)
        assert buf_a.key != buf_b.key
        bm.unpin(buf_b, dirty=True)

    def test_switch_stamps_registration_names(self):
        db = Database()
        assert db.storage_manager("sharded").smgr_id.startswith(
            "sharded#")
        assert db.storage_manager("disk").smgr_id.startswith("disk#")
        db.close()


class TestZeroByteLoss:
    """The PR's acceptance bar: with 2-of-3 replication, killing any
    single node mid-workload loses zero committed bytes."""

    @pytest.mark.parametrize("victim", ["node0", "node1", "node2"])
    def test_single_node_death_loses_nothing(self, tmp_path, victim):
        path = str(tmp_path / "db")
        db = three_node_db(path)
        payloads = []
        designators = []
        # Each commit forces ~3 blocks to every replica, so the plan
        # fires mid-workload: after the third of the six commits.
        db.inject_faults(f"on node {victim} after 8: down")
        for i in range(6):
            payload = bytes([i + 1]) * (6000 + 600 * i)
            txn = db.begin()
            designator = db.lo.create(txn, smgr="sharded")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
            txn.commit()
            payloads.append(payload)
            designators.append(designator)
        sharded = db.storage_manager("sharded")
        assert any(node.state == "down" for node in sharded.nodes), \
            "the fault plan never killed the victim"
        # Zero committed bytes lost, integrity clean, while down.
        for designator, payload in zip(designators, payloads):
            with db.lo.open(designator) as obj:
                assert obj.read() == payload
        assert db.check_integrity() == []
        # Recovery: node back up, read-repair + scrub drain the lag.
        db.clear_faults()
        for designator, payload in zip(designators, payloads):
            with db.lo.open(designator) as obj:
                assert obj.read() == payload
        sharded.scrub()
        assert sharded.stats()["replica_lag"] == 0
        db.close()


_RESTART_LOSS = pytest.mark.xfail(strict=True, reason=(
    "a restart forgets which replicas are stale, and the pool's LSNs "
    "start again at 1, so a read serves, and scrub() keeps, a copy "
    "older than the commit"))


class TestRestartAfterANodeWasDown:
    """A committed overwrite made while one node was down survives a clean
    restart with every node up: read before and after ``scrub()``, it is
    the new bytes, and the integrity check is clean.  The object is first
    written *rewrites* times and vacuumed, which moves where the overwrite
    lands; where that is a band the down node leads, the restart loses
    it today (pinned as strict xfails)."""

    SIZE = 40_000

    @staticmethod
    def _read(db, designator):
        try:
            with db.lo.open(designator) as obj:
                return obj.read()
        except ReproError as exc:
            return repr(exc)

    @pytest.mark.parametrize("rewrites", [
        pytest.param(0, marks=_RESTART_LOSS),
        pytest.param(1, marks=_RESTART_LOSS),
        5,
        pytest.param(20, marks=_RESTART_LOSS),
    ])
    def test_an_overwrite_while_a_node_was_down_survives_a_restart(
            self, tmp_path, rewrites):
        path = str(tmp_path / "db")
        db = three_node_db(path)
        with db.begin() as txn:
            designator = db.lo.create(txn, smgr="sharded")
        for k in range(rewrites):
            with db.begin() as txn, \
                    db.lo.open(designator, txn, "rw") as obj:
                obj.write(bytes([65 + k]) * self.SIZE)
        db.vacuum()
        db.close()
        db = three_node_db(path)
        db.inject_faults("on node node0: down")
        with db.begin() as txn, db.lo.open(designator, txn, "rw") as obj:
            obj.write(b"Z" * self.SIZE)
        db.close()
        db = three_node_db(path)            # every node up
        try:
            reads = [self._read(db, designator)]
            db.storage_manager("sharded").scrub()
            reads.append(self._read(db, designator))
            problems = db.check_integrity()
        finally:
            db.close()
        assert reads == [b"Z" * self.SIZE] * 2
        assert problems == []


@pytest.mark.shard
class TestShardStress:
    """CI's ``-m shard`` job: node loss + topology churn under load."""

    def test_node_loss_and_rebalancing_churn(self, tmp_path):
        path = str(tmp_path / "db")
        db = three_node_db(path)
        sharded = db.storage_manager("sharded")
        rng_payload = [bytes([(i * 37 + 11) % 251 + 1]) * (4000 + 977 * i)
                       for i in range(20)]
        designators = []
        db.inject_faults("on node node1 after 200: down")
        for i, payload in enumerate(rng_payload[:10]):
            txn = db.begin()
            designator = db.lo.create(txn, smgr="sharded")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
            txn.commit()
            designators.append(designator)
        db.clear_faults()

        # Grow the ring mid-life and migrate incrementally while new
        # writes keep landing.
        sharded.add_node(StorageNode(
            "node3",
            DiskBlockStore(str(tmp_path / "db" / "shard" / "node3")),
            magnetic_disk_device(), db.clock))
        for i, payload in enumerate(rng_payload[10:]):
            txn = db.begin()
            designator = db.lo.create(txn, smgr="sharded")
            with db.lo.open(designator, txn, "rw") as obj:
                obj.write(payload)
            txn.commit()
            designators.append(designator)
            sharded.rebalance(max_moves=8)
        while sharded.rebalance(max_moves=64):
            pass

        # Retire a node, drain it, and verify every committed byte.
        sharded.remove_node("node0")
        while sharded.rebalance(max_moves=64):
            pass
        sharded.scrub()
        for designator, payload in zip(designators, rng_payload):
            with db.lo.open(designator) as obj:
                assert obj.read() == payload
        stats = sharded.stats()
        assert stats["pending_moves"] == 0
        assert stats["replica_lag"] == 0
        assert db.check_integrity() == []
        db.close()

    def test_filemonkey_on_sharded_los(self):
        from repro.inversion.monkey import FileMonkey
        monkey = FileMonkey(lambda: three_node_db(replication=2, quorum=1),
                            seed=11, workers=2, ops=220,
                            lo_smgr="sharded")
        report = monkey.run()
        assert report.ok, report.problems
        committed_lo = [e for e in report.oplog
                        if e["op"].startswith("lo_")
                        and e["outcome"] == "ok"]
        assert committed_lo, "the mix never exercised raw LO ops"
