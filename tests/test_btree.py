"""Unit and property tests for the paged B-tree."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.access import BTree
from repro.access.tuples import TID
from repro.errors import RelationError


@pytest.fixture
def tree(stack):
    t = BTree("idx", stack.smgr, stack.bufmgr)
    t.create_storage()
    return t


class TestBasics:
    def test_empty_search(self, tree):
        assert tree.search(1) == []

    def test_insert_and_search(self, tree):
        tree.insert(5, TID(1, 2))
        assert tree.search(5) == [(1, 2)]

    def test_values_come_back_as_tids(self, stack, tree):
        """A leaf value is the heap TID, whether the node is the cached
        one the insert wrote through or one decoded from its page."""
        for i in range(1000):                  # splits the root leaf
            tree.insert(i, TID(i, i % 3))
        for _pass in ("cached", "decoded"):
            entries = list(tree.range_scan())
            assert [key for key, _tid in entries] == list(range(1000))
            assert all(type(tid) is TID and tid == (key, key % 3)
                       for key, tid in entries)
            stack.bufmgr.invalidate_all()

    def test_duplicates_preserved(self, tree):
        tree.insert(5, TID(1, 0))
        tree.insert(5, TID(2, 0))
        tree.insert(5, TID(3, 0))
        assert sorted(tree.search(5)) == [(1, 0), (2, 0), (3, 0)]

    def test_create_storage_idempotent(self, stack, tree):
        tree.insert(1, TID(0, 0))
        tree.create_storage()
        assert tree.search(1) == [(0, 0)]

    def test_negative_keys(self, tree):
        tree.insert(-100, TID(1, 0))
        tree.insert(100, TID(2, 0))
        assert tree.search(-100) == [(1, 0)]
        assert [k for k, _ in tree.range_scan()] == [-100, 100]


class TestSplits:
    def test_many_inserts_ordered(self, tree):
        n = 2000
        for i in range(n):
            tree.insert(i, TID(i, i % 7))
        assert tree.height() >= 1
        assert tree.entry_count() == n
        tree.check_invariants()
        for probe in (0, 1, 999, 1998, 1999):
            assert tree.search(probe) == [(probe, probe % 7)]

    def test_many_inserts_reverse(self, tree):
        n = 1500
        for i in reversed(range(n)):
            tree.insert(i, TID(i, 0))
        assert tree.entry_count() == n
        tree.check_invariants()

    def test_many_inserts_interleaved(self, tree):
        n = 1500
        order = [(i * 769) % n for i in range(n)]  # 769 coprime with n
        for i in order:
            tree.insert(i, TID(i, 0))
        assert tree.entry_count() == n
        tree.check_invariants()
        assert tree.search(737) == [(737, 0)]

    def test_grows_beyond_one_leaf(self, tree):
        for i in range(8000):
            tree.insert(i, TID(i, 0))
        assert tree.height() >= 1
        assert tree.nblocks() > 20  # ~330 entries per leaf
        assert tree.search(7999) == [(7999, 0)]

    def test_all_duplicates_split_correctly(self, tree):
        for i in range(1200):
            tree.insert(42, TID(i, 0))
        assert len(tree.search(42)) == 1200


class TestRangeScan:
    def test_closed_range(self, tree):
        for i in range(100):
            tree.insert(i, TID(i, 0))
        got = [k for k, _ in tree.range_scan(10, 20)]
        assert got == list(range(10, 21))

    def test_open_lower(self, tree):
        for i in range(50):
            tree.insert(i, TID(i, 0))
        got = [k for k, _ in tree.range_scan(None, 5)]
        assert got == list(range(6))

    def test_open_upper(self, tree):
        for i in range(50):
            tree.insert(i, TID(i, 0))
        got = [k for k, _ in tree.range_scan(45, None)]
        assert got == list(range(45, 50))

    def test_full_scan_sorted(self, tree):
        import random
        rng = random.Random(7)
        keys = list(range(600))
        rng.shuffle(keys)
        for k in keys:
            tree.insert(k, TID(k, 0))
        got = [k for k, _ in tree.range_scan()]
        assert got == sorted(keys)

    def test_empty_range(self, tree):
        tree.insert(1, TID(0, 0))
        assert list(tree.range_scan(5, 9)) == []

    def test_range_across_leaf_boundaries(self, tree):
        for i in range(3000):
            tree.insert(i, TID(i, 0))
        got = [k for k, _ in tree.range_scan(100, 2900)]
        assert got == list(range(100, 2901))


class TestDelete:
    def test_delete_single(self, tree):
        tree.insert(1, TID(0, 0))
        assert tree.delete(1) == 1
        assert tree.search(1) == []

    def test_delete_specific_value(self, tree):
        tree.insert(1, TID(10, 0))
        tree.insert(1, TID(20, 0))
        assert tree.delete(1, TID(10, 0)) == 1
        assert tree.search(1) == [(20, 0)]

    def test_delete_missing(self, tree):
        assert tree.delete(9) == 0

    def test_delete_duplicates_across_leaves(self, tree):
        for i in range(500):
            tree.insert(7, TID(i, 0))
        for i in range(500):
            tree.insert(9, TID(i, 0))
        assert tree.delete(7) == 500
        assert tree.search(7) == []
        assert len(tree.search(9)) == 500

    def test_delete_walks_past_a_leaf_emptied_earlier(self, tree):
        """Regression: an empty leaf in the middle of a run of duplicates
        used to end the walk, so entries in the leaves after it could
        never be deleted (vacuum left them dangling)."""
        for serial in range(1200):
            tree.insert(7, TID(serial, 0))
        for serial in range(400, 800):     # empties a middle leaf
            assert tree.delete(7, TID(serial, 0)) == 1
        assert tree.delete(7, TID(1199, 0)) == 1
        assert tree.delete(7) == 799
        assert tree.entry_count() == 0

    def test_reinsert_after_delete(self, tree):
        for i in range(800):
            tree.insert(i, TID(i, 0))
        tree.delete(400)
        tree.insert(400, TID(999, 0))
        assert tree.search(400) == [(999, 0)]
        tree.check_invariants()


class TestDecodedNodeCache:
    def test_repeat_search_hits_cache(self, stack, tree):
        for i in range(100):
            tree.insert(i, TID(i, 0))
        before = stack.bufmgr.stats.node_cache_hits
        tree.search(50)
        tree.search(50)
        assert stack.bufmgr.stats.node_cache_hits > before

    def test_write_through_keeps_cache_coherent(self, tree):
        for i in range(100):
            tree.insert(i, TID(i, 0))
        tree.search(50)  # warm the cache
        tree.insert(1000, TID(9, 9))
        tree.delete(50)
        assert tree.search(1000) == [(9, 9)]
        assert tree.search(50) == []

    def test_cache_shared_across_handles(self, stack, tree):
        other = BTree("idx", stack.smgr, stack.bufmgr)
        tree.insert(1, TID(1, 0))
        assert other.search(1) == [(1, 0)]
        other.insert(2, TID(2, 0))
        assert tree.search(2) == [(2, 0)]

    def test_mutable_read_does_not_corrupt_cache(self, tree):
        """Mutation paths get copies; an aborted-style edit can't leak in."""
        for i in range(10):
            tree.insert(i, TID(i, 0))
        root, _ = tree._read_meta()
        cached_keys = list(tree._read_node(root).keys)
        mutable = tree._read_node(root, mutable=True)
        mutable.keys.append(999)
        assert tree._read_node(root).keys == cached_keys

    def test_range_scan_node_reads_scale_with_leaves(self, stack, tree):
        n = 3000
        for i in range(n):
            tree.insert(i, TID(i, 0))
        stack.bufmgr.invalidate_all()
        before = stack.bufmgr.stats.node_cache_misses
        assert sum(1 for _ in tree.range_scan()) == n
        node_reads = stack.bufmgr.stats.node_cache_misses - before
        # One descent plus a walk of the leaf chain: far fewer decodes
        # than one full descent per entry.
        assert node_reads < n / 10


class TestCachedRoot:
    """A descent starts at the ``(root, height)`` the pool keeps for the
    file; page 0 is read only when that is empty or the pool has been
    emptied since."""

    N = 2000   # a single root leaf splits once, at a few hundred entries

    @staticmethod
    def meta_pins(monkeypatch, bufmgr):
        """Record every pin of block 0 as hit or miss."""
        pins, pin = [], bufmgr.pin

        def recording(smgr, fileid, blockno):
            if blockno == 0:
                pins.append((smgr.smgr_id, fileid, 0) in bufmgr._frames)
            return pin(smgr, fileid, blockno)

        monkeypatch.setattr(bufmgr, "pin", recording)
        return pins

    def test_every_key_found_after_a_root_split(self, stack, tree,
                                                monkeypatch):
        tree.search(0)
        pins = self.meta_pins(monkeypatch, stack.bufmgr)
        for i in range(self.N):
            tree.insert(i, TID(i, 0))
        assert pins == [True]          # the split's write; no descent read
        assert tree.height() == 1
        for i in range(self.N):
            assert tree.search(i) == [(i, 0)]
            assert [v for _k, v in tree.range_scan_desc(i, i)] \
                == [(i, 0)]
        assert [k for k, _ in tree.range_scan_desc(self.N)] \
            == list(reversed(range(self.N)))
        assert pins == [True]

    def test_a_root_split_through_one_handle_moves_every_handle(
            self, stack, tree):
        other = BTree("idx", stack.smgr, stack.bufmgr)
        assert tree.search(0) == other.search(0) == []
        for i in range(0, 2 * self.N, 2):      # evens, until the root splits
            tree.insert(i, TID(i, 0))
        assert tree.height() == 1
        for i in range(1, 2 * self.N, 2):      # odds, through the other
            other.insert(i, TID(i, 0))
        other.check_invariants()
        assert other.height() == 1
        assert other.entry_count() == 2 * self.N
        for i in range(2 * self.N):
            assert other.search(i) == tree.search(i) == [(i, 0)]

    def test_drop_then_create_reads_the_new_meta_page(self, tree):
        for i in range(self.N):
            tree.insert(i, TID(i, 0))
        tree.drop_storage()
        tree.create_storage()
        assert tree.height() == 0
        assert tree.search(5) == []
        tree.insert(5, TID(1, 1))
        assert tree.search(5) == [(1, 1)]

    def test_a_cold_pool_reads_page_0_once_as_one_miss(
            self, stack, tree, monkeypatch):
        for i in range(self.N):
            tree.insert(i, TID(i, 0))
        pins = self.meta_pins(monkeypatch, stack.bufmgr)
        assert tree.search(7) == [(7, 0)]
        assert pins == []                      # warm: no pin of page 0
        stack.bufmgr.invalidate_all()
        misses = stack.bufmgr.stats.misses
        assert tree.search(7) == [(7, 0)]
        assert pins == [False]                 # one pin, and a miss
        # Page 0, then the root and one leaf: nothing else was read.
        assert stack.bufmgr.stats.misses - misses == 3
        for key in (8, 1500, 9):
            assert tree.search(key) == [(key, 0)]
        assert pins == [False]

    def test_a_corrupt_meta_page_fails_the_first_descent(self, stack, tree):
        from repro.access.btree import _META
        tree.insert(1, TID(1, 0))
        root, height = tree._read_meta()
        with stack.bufmgr.page(stack.smgr, tree.fileid, 0,
                               write=True) as page:
            page.overwrite_item(0, _META.pack(root, 1, height, 0xDEAD))
        assert tree.search(1) == [(1, 0)]   # the pool's root: no page 0
        stack.bufmgr.invalidate_all()
        reopened = BTree("idx", stack.smgr, stack.bufmgr)
        with pytest.raises(RelationError, match="meta page corrupt"):
            reopened.search(1)
        with pytest.raises(RelationError, match="meta page corrupt"):
            reopened.search(1)              # a failed read caches nothing
        with pytest.raises(RelationError, match="meta page corrupt"):
            tree.search(1)

    def test_a_meta_page_of_another_arity_is_refused(self, stack, tree):
        """Page 0 records the key arity, and only 1 is readable."""
        from repro.access.btree import _MAGIC, _META
        tree.insert(1, TID(1, 0))
        root, height = tree._read_meta()
        with stack.bufmgr.page(stack.smgr, tree.fileid, 0,
                               write=True) as page:
            assert _META.unpack(page.get_item(0)) == (root, 1, height,
                                                      _MAGIC)
            page.overwrite_item(0, _META.pack(root, 2, height, _MAGIC))
        stack.bufmgr.invalidate_all()
        with pytest.raises(RelationError, match="key arity 2"):
            BTree("idx", stack.smgr, stack.bufmgr).search(1)

    def test_a_failed_meta_write_leaves_the_next_descent_reading_page_0(
            self, stack, tree, monkeypatch):
        bufmgr, pin = stack.bufmgr, stack.bufmgr.pin

        def failing(smgr, fileid, blockno):
            if blockno == 0:
                raise OSError("injected pin failure")
            return pin(smgr, fileid, blockno)

        assert tree.search(0) == []         # the pool keeps the root
        old_root = tree._read_meta()
        monkeypatch.setattr(bufmgr, "pin", failing)
        with pytest.raises(OSError, match="injected"):
            for i in range(self.N):            # until the root splits
                tree.insert(i, TID(i, 0))
        monkeypatch.setattr(bufmgr, "pin", pin)
        assert tree._file not in bufmgr.btree_roots
        pins = self.meta_pins(monkeypatch, bufmgr)
        # Page 0 still names the old root, now the split's left leaf.
        assert tree.search(0) == [(0, 0)]
        assert pins == [True]
        assert tree._read_meta() == old_root
        assert pins == [True]


def newest_first(tree, key):
    """The values under *key*, last-inserted first, lazily: the walk
    ``IndexProbe.first`` takes."""
    return (value for _key, value in tree.range_scan_desc(key, key))


class TestSearchNewest:
    """``range_scan_desc(k, k)`` is ``search(k)`` reversed — always — and
    lazy."""

    #: Duplicates per key: 2,000 entries span six or more leaves.
    RUNS = (1, 2000, 3, 1, 700, 40, 2, 330, 1)

    @staticmethod
    def assert_reversed(tree, keys):
        for key in keys:
            assert list(newest_first(tree, key)) == tree.search(key)[::-1]

    @pytest.mark.parametrize("seed", [1993, 2024, 7])
    def test_is_search_reversed_through_splits_and_deletes(self, tree, seed):
        rng = random.Random(seed)
        # Even keys are present; odd ones, and both ends, absent.
        present = [2 * i for i in range(len(self.RUNS))]
        absent = [2 * i - 1 for i in range(len(self.RUNS) + 1)]
        inserts = [key for key, run in zip(present, self.RUNS)
                   for _ in range(run)]
        rng.shuffle(inserts)    # interleaved, so runs grow across splits
        live = {key: [] for key in present}
        for serial, key in enumerate(inserts):
            tree.insert(key, TID(serial, 0))
            live[key].append(TID(serial, 0))
        assert tree.height() >= 1
        everything = present + absent

        def check():
            for key in present:
                assert tree.search(key) == live[key]
            self.assert_reversed(tree, everything)

        def prune(key, doomed):
            for value in doomed:
                assert tree.delete(key, value) == 1
                live[key].remove(value)
            check()

        check()
        # Vacuum-style pruning: random single entries ...
        for key in present:
            prune(key, rng.sample(live[key], len(live[key]) // 4))
        # ... then whole leaves' worth off one end of the two long runs:
        # the newest end of one (the leaf the descent lands in is left
        # empty, or holding only larger keys), the oldest of the other.
        long_a, long_b = [key for key in present if len(live[key]) > 450]
        prune(long_a, live[long_a][-450:])
        prune(long_b, live[long_b][:450])
        # ... and a key pruned to nothing reads as absent.
        assert tree.delete(long_a) == len(live[long_a])
        del live[long_a][:]
        check()
        tree.check_invariants()

    def test_a_lone_run_pruned_from_the_newest_end(self, tree):
        """One key fills the whole tree: once its newest half is pruned
        the rightmost leaves are empty, and the survivors sit only in
        leaves a forward walk reaches."""
        for serial in range(2000):
            tree.insert(5, TID(serial, 0))
        for serial in range(1999, 999, -1):
            assert tree.delete(5, TID(serial, 0)) == 1
        assert next(newest_first(tree, 5)) == (999, 0)
        self.assert_reversed(tree, [4, 5, 6])

    def test_first_element_costs_one_descent_however_long_the_run(
            self, tree, monkeypatch):
        for key, run in ((1, 1), (2, 2000), (3, 1)):
            for serial in range(run):
                tree.insert(key, TID(serial, key))
        reads = []
        read_node = tree._read_node

        def counted(blockno, mutable=False):
            reads.append(blockno)
            return read_node(blockno, mutable)

        def nodes_read_for_newest(key):
            newest = tree.search(key)[-1]
            del reads[:]
            assert next(newest_first(tree, key)) == newest
            return len(reads)

        monkeypatch.setattr(tree, "_read_node", counted)
        assert newest_first(tree, 2) is not None and reads == []  # lazy
        short = nodes_read_for_newest(1)
        assert short == tree.height() + 1
        assert nodes_read_for_newest(2) == short
        assert nodes_read_for_newest(3) == short
        assert len(tree.search(2)) == 2000 and len(reads) > short + 4


class TestRangeScanDesc:
    """``range_scan_desc(hi, lo)`` is ``range_scan(lo, hi)`` reversed —
    duplicates newest first — lazily, for one descent."""

    @staticmethod
    def assert_reversed(tree, bounds):
        for lo, hi in bounds:
            assert (list(tree.range_scan_desc(hi, lo))
                    == list(tree.range_scan(lo, hi))[::-1]), (lo, hi)

    @pytest.mark.parametrize("seed", [1993, 2024, 7])
    @pytest.mark.parametrize("node_limit", [None, 400])
    def test_is_range_scan_reversed_through_splits_and_deletes(
            self, tree, seed, node_limit):
        if node_limit:      # ~16 entries a node: a tree three levels deep,
            tree._node_limit = node_limit   # so left steps cross subtrees
        rng = random.Random(seed)
        # Even keys only; key 40 is a run spanning several leaves.
        inserts = [2 * rng.randrange(60) for _ in range(1500)]
        inserts += [40] * 1200
        rng.shuffle(inserts)
        live = []
        for serial, key in enumerate(inserts):
            tree.insert(key, TID(serial, 0))
            live.append((key, TID(serial, 0)))
        assert tree.height() >= (2 if node_limit else 1)
        # hi below / between / on / above every key; lo open or closed.
        points = [-5, 0, 1, 39, 40, 41, 77, 118,
                  500]
        bounds = [(lo, hi) for hi in points for lo in [None] + points]
        self.assert_reversed(tree, bounds)
        # Vacuum-style pruning of random entries, then whole leaves:
        # every entry of keys 30..50 (the long run's leaves included)
        # goes, so the walk has to step over a chain of empty leaves.
        rng.shuffle(live)
        for key, value in live[:len(live) // 4]:
            assert tree.delete(key, value) == 1
        self.assert_reversed(tree, bounds)
        for key in range(30, 52, 2):
            tree.delete(key)
        self.assert_reversed(tree, bounds)
        assert next(tree.range_scan_desc(45))[0] == 28
        tree.check_invariants()

    def test_empty_tree_and_hi_below_every_key(self, tree):
        assert list(tree.range_scan_desc(5)) == []
        for serial in range(1000):
            tree.insert(10 + serial, TID(serial, 0))
        assert list(tree.range_scan_desc(9)) == []
        assert list(tree.range_scan_desc(10, 10)) == [(10, (0, 0))]

    def test_lazy_one_descent_and_latched_at_call_time(self, tree,
                                                       monkeypatch):
        for key, run in ((1, 1), (2, 2000), (3, 1)):
            for serial in range(run):
                tree.insert(key, TID(serial, key))
        reads = []
        read_node = tree._read_node

        def counted(blockno, mutable=False):
            reads.append(blockno)
            return read_node(blockno, mutable)

        monkeypatch.setattr(tree, "_read_node", counted)
        for hi, first in ((1, (0, 1)), (2, (1999, 2)), (9, (0, 3))):
            del reads[:]
            entries = tree.range_scan_desc(hi)
            assert reads == []          # nothing read before next()
            assert next(entries)[1] == first
            assert len(reads) == tree.height() + 1
        # The rest of the long run walks its leaves once each.
        del reads[:]
        assert len(list(tree.range_scan_desc(2, 2))) == 2000
        assert tree.height() + 1 < len(reads) < 40
        # The tripwire fires when the generator is made, not on next():
        # by then the caller's latch block may already have exited.
        tree.latch_probe = lambda: False
        with pytest.raises(AssertionError, match="engine latch"):
            tree.range_scan_desc(2)


class TestPersistence:
    def test_tree_survives_buffer_eviction(self, stack):
        from repro.storage import BufferManager
        small = BufferManager(pool_size=6)
        tree = BTree("idx", stack.smgr, small)
        tree.create_storage()
        for i in range(4000):
            tree.insert(i, TID(i, 0))
        small.flush_all()
        assert tree.search(3777) == [(3777, 0)]
        tree.check_invariants()

    def test_a_spliced_leaf_reaches_the_device(self, stack, tree):
        """An insert spliced into a leaf the device already holds marks
        its page dirty, so the next force writes it."""
        tree.insert(1, TID(1, 0))
        stack.bufmgr.flush_all()          # the leaf is clean on the device
        tree.insert(2, TID(2, 0))
        stack.bufmgr.invalidate_all()     # forces what is dirty, drops all
        assert tree.search(2) == [(2, 0)]

    def test_index_has_real_size(self, tree):
        for i in range(5000):
            tree.insert(i, TID(i, 0))
        assert tree.byte_size() > 5000 * 24  # entries actually stored


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300))
def test_property_matches_sorted_reference(keys):
    """The tree agrees with a sorted-list reference model."""
    from tests.conftest import Stack
    stack = Stack()
    tree = BTree("prop", stack.smgr, stack.bufmgr)
    tree.create_storage()
    for i, k in enumerate(keys):
        tree.insert(k, TID(i, 0))
    got = [k for k, _ in tree.range_scan()]
    assert got == sorted(keys)
    tree.check_invariants()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.integers(0, 200), min_size=1, max_size=200),
    st.lists(st.integers(0, 200), max_size=60),
)
def test_property_delete_matches_reference(inserts, deletes):
    """Random insert/delete mix agrees with a multiset reference model."""
    from collections import Counter

    from tests.conftest import Stack
    stack = Stack()
    tree = BTree("prop", stack.smgr, stack.bufmgr)
    tree.create_storage()
    reference = Counter()
    for i, k in enumerate(inserts):
        tree.insert(k, TID(i, 0))
        reference[k] += 1
    for k in deletes:
        removed = tree.delete(k)
        assert removed == reference.pop(k, 0)
    got = Counter(k for k, _ in tree.range_scan())
    assert got == reference


def _twin_tree(node_limit, base):
    from tests.conftest import Stack
    stack = Stack()
    tree = BTree("twin", stack.smgr, stack.bufmgr)
    tree.create_storage()
    if node_limit:
        tree._node_limit = node_limit
    for serial, key in enumerate(base):
        tree.insert(key, TID(serial, 0))
    return tree


def _page_images(tree):
    images = []
    for blockno in range(tree.nblocks()):
        with tree.bufmgr.page(tree.smgr, tree.fileid, blockno) as page:
            images.append(bytes(page.buf))
    return images


@settings(max_examples=120, deadline=None)
@given(
    # (200 - 8) // 24 = 8 entries a leaf: a run of 80 splits leaves many
    # times over and grows the tree; None is the real limit.
    node_limit=st.sampled_from([200, 400, None]),
    base=st.lists(st.integers(0, 60), max_size=150),
    run=st.lists(st.integers(-5, 70), max_size=80),
)
@example(node_limit=200, base=[], run=list(range(40)))
@example(node_limit=200, base=[], run=[3] * 30)
@example(node_limit=200, base=list(range(0, 60, 2)),
         run=list(range(10, 50)))                # crosses leaf boundaries
@example(node_limit=200, base=list(range(8)),
         run=[4])                                # one entry, one split
@example(node_limit=200, base=list(range(8)),
         run=[2] * 9)                            # one leaf, two splits
@example(node_limit=None, base=list(range(100, 400)),
         run=list(range(32)))                    # below every key: no append
def test_property_insert_run_is_repeated_insert_page_for_page(
        node_limit, base, run):
    """``insert_run(run)`` ≡ ``for e in run: insert(*e)``: the same
    block count and byte-identical page images on a twin tree."""
    entries = sorted(((k, TID(1000 + serial, serial % 5))
                      for serial, k in enumerate(run)),
                     key=lambda entry: entry[0])
    one_by_one = _twin_tree(node_limit, base)
    for entry in entries:
        one_by_one.insert(*entry)
    as_a_run = _twin_tree(node_limit, base)
    as_a_run.insert_run(entries)
    as_a_run.check_invariants()
    assert as_a_run.nblocks() == one_by_one.nblocks()
    assert _page_images(as_a_run) == _page_images(one_by_one)
    # The decoded-node cache mirrors the pages in both.
    assert list(as_a_run.range_scan()) == list(one_by_one.range_scan())
    assert as_a_run.height() == one_by_one.height()
