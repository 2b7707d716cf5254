"""Unit and property tests for the paged B-tree."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.access import BTree
from repro.errors import RelationError


@pytest.fixture
def tree(stack):
    t = BTree("idx", stack.smgr, stack.bufmgr, key_arity=1)
    t.create_storage()
    return t


class TestBasics:
    def test_empty_search(self, tree):
        assert tree.search((1,)) == []

    def test_insert_and_search(self, tree):
        tree.insert((5,), (1, 2))
        assert tree.search((5,)) == [(1, 2)]

    def test_duplicates_preserved(self, tree):
        tree.insert((5,), (1, 0))
        tree.insert((5,), (2, 0))
        tree.insert((5,), (3, 0))
        assert sorted(tree.search((5,))) == [(1, 0), (2, 0), (3, 0)]

    def test_arity_checked(self, tree):
        with pytest.raises(RelationError):
            tree.insert((1, 2), (0, 0))
        with pytest.raises(RelationError):
            tree.search((1, 2))

    def test_bad_arity_construction(self, stack):
        with pytest.raises(RelationError):
            BTree("bad", stack.smgr, stack.bufmgr, key_arity=0)

    def test_create_storage_idempotent(self, stack, tree):
        tree.insert((1,), (0, 0))
        tree.create_storage()
        assert tree.search((1,)) == [(0, 0)]

    def test_negative_keys(self, tree):
        tree.insert((-100,), (1, 0))
        tree.insert((100,), (2, 0))
        assert tree.search((-100,)) == [(1, 0)]
        assert [k for k, _ in tree.range_scan()] == [(-100,), (100,)]


class TestSplits:
    def test_many_inserts_ordered(self, tree):
        n = 2000
        for i in range(n):
            tree.insert((i,), (i, i % 7))
        assert tree.height() >= 1
        assert tree.entry_count() == n
        tree.check_invariants()
        for probe in (0, 1, 999, 1998, 1999):
            assert tree.search((probe,)) == [(probe, probe % 7)]

    def test_many_inserts_reverse(self, tree):
        n = 1500
        for i in reversed(range(n)):
            tree.insert((i,), (i, 0))
        assert tree.entry_count() == n
        tree.check_invariants()

    def test_many_inserts_interleaved(self, tree):
        n = 1500
        order = [(i * 769) % n for i in range(n)]  # 769 coprime with n
        for i in order:
            tree.insert((i,), (i, 0))
        assert tree.entry_count() == n
        tree.check_invariants()
        assert tree.search((737,)) == [(737, 0)]

    def test_grows_beyond_one_leaf(self, tree):
        for i in range(8000):
            tree.insert((i,), (i, 0))
        assert tree.height() >= 1
        assert tree.nblocks() > 20  # ~330 entries per leaf
        assert tree.search((7999,)) == [(7999, 0)]

    def test_all_duplicates_split_correctly(self, tree):
        for i in range(1200):
            tree.insert((42,), (i, 0))
        assert len(tree.search((42,))) == 1200


class TestRangeScan:
    def test_closed_range(self, tree):
        for i in range(100):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.range_scan((10,), (20,))]
        assert got == list(range(10, 21))

    def test_open_lower(self, tree):
        for i in range(50):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.range_scan(None, (5,))]
        assert got == list(range(6))

    def test_open_upper(self, tree):
        for i in range(50):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.range_scan((45,), None)]
        assert got == list(range(45, 50))

    def test_full_scan_sorted(self, tree):
        import random
        rng = random.Random(7)
        keys = list(range(600))
        rng.shuffle(keys)
        for k in keys:
            tree.insert((k,), (k, 0))
        got = [k[0] for k, _ in tree.range_scan()]
        assert got == sorted(keys)

    def test_empty_range(self, tree):
        tree.insert((1,), (0, 0))
        assert list(tree.range_scan((5,), (9,))) == []

    def test_range_across_leaf_boundaries(self, tree):
        for i in range(3000):
            tree.insert((i,), (i, 0))
        got = [k[0] for k, _ in tree.range_scan((100,), (2900,))]
        assert got == list(range(100, 2901))


class TestDelete:
    def test_delete_single(self, tree):
        tree.insert((1,), (0, 0))
        assert tree.delete((1,)) == 1
        assert tree.search((1,)) == []

    def test_delete_specific_value(self, tree):
        tree.insert((1,), (10, 0))
        tree.insert((1,), (20, 0))
        assert tree.delete((1,), (10, 0)) == 1
        assert tree.search((1,)) == [(20, 0)]

    def test_delete_missing(self, tree):
        assert tree.delete((9,)) == 0

    def test_delete_duplicates_across_leaves(self, tree):
        for i in range(500):
            tree.insert((7,), (i, 0))
        for i in range(500):
            tree.insert((9,), (i, 0))
        assert tree.delete((7,)) == 500
        assert tree.search((7,)) == []
        assert len(tree.search((9,))) == 500

    def test_delete_walks_past_a_leaf_emptied_earlier(self, tree):
        """Regression: an empty leaf in the middle of a run of duplicates
        used to end the walk, so entries in the leaves after it could
        never be deleted (vacuum left them dangling)."""
        for serial in range(1200):
            tree.insert((7,), (serial, 0))
        for serial in range(400, 800):     # empties a middle leaf
            assert tree.delete((7,), (serial, 0)) == 1
        assert tree.delete((7,), (1199, 0)) == 1
        assert tree.delete((7,)) == 799
        assert tree.entry_count() == 0

    def test_reinsert_after_delete(self, tree):
        for i in range(800):
            tree.insert((i,), (i, 0))
        tree.delete((400,))
        tree.insert((400,), (999, 0))
        assert tree.search((400,)) == [(999, 0)]
        tree.check_invariants()


class TestCompositeKeys:
    def test_pair_keys(self, stack):
        tree = BTree("pair", stack.smgr, stack.bufmgr, key_arity=2)
        tree.create_storage()
        tree.insert((1, 5), (0, 0))
        tree.insert((1, 2), (1, 0))
        tree.insert((2, 0), (2, 0))
        got = [k for k, _ in tree.range_scan()]
        assert got == [(1, 2), (1, 5), (2, 0)]

    def test_pair_range(self, stack):
        tree = BTree("pair", stack.smgr, stack.bufmgr, key_arity=2)
        tree.create_storage()
        for a in range(10):
            for b in range(10):
                tree.insert((a, b), (a, b))
        got = [k for k, _ in tree.range_scan((3, 0), (3, 9))]
        assert got == [(3, b) for b in range(10)]


class TestDecodedNodeCache:
    def test_repeat_search_hits_cache(self, stack, tree):
        for i in range(100):
            tree.insert((i,), (i, 0))
        before = stack.bufmgr.stats.node_cache_hits
        tree.search((50,))
        tree.search((50,))
        assert stack.bufmgr.stats.node_cache_hits > before

    def test_write_through_keeps_cache_coherent(self, tree):
        for i in range(100):
            tree.insert((i,), (i, 0))
        tree.search((50,))  # warm the cache
        tree.insert((1000,), (9, 9))
        tree.delete((50,))
        assert tree.search((1000,)) == [(9, 9)]
        assert tree.search((50,)) == []

    def test_cache_shared_across_handles(self, stack, tree):
        other = BTree("idx", stack.smgr, stack.bufmgr, key_arity=1)
        tree.insert((1,), (1, 0))
        assert other.search((1,)) == [(1, 0)]
        other.insert((2,), (2, 0))
        assert tree.search((2,)) == [(2, 0)]

    def test_mutable_read_does_not_corrupt_cache(self, tree):
        """Mutation paths get copies; an aborted-style edit can't leak in."""
        for i in range(10):
            tree.insert((i,), (i, 0))
        root, _ = tree._read_meta()
        cached_keys = list(tree._read_node(root).keys)
        mutable = tree._read_node(root, mutable=True)
        mutable.keys.append((999,))
        assert tree._read_node(root).keys == cached_keys

    def test_range_scan_node_reads_scale_with_leaves(self, stack, tree):
        n = 3000
        for i in range(n):
            tree.insert((i,), (i, 0))
        stack.bufmgr.invalidate_all()
        before = stack.bufmgr.stats.node_cache_misses
        assert sum(1 for _ in tree.range_scan()) == n
        node_reads = stack.bufmgr.stats.node_cache_misses - before
        # One descent plus a walk of the leaf chain: far fewer decodes
        # than one full descent per entry.
        assert node_reads < n / 10


class TestSearchNewest:
    """``search_newest`` is ``search`` reversed — always — and lazy."""

    #: Duplicates per key: 2,000 entries span six or more leaves.
    RUNS = (1, 2000, 3, 1, 700, 40, 2, 330, 1)

    @staticmethod
    def assert_reversed(tree, keys):
        for key in keys:
            assert list(tree.search_newest(key)) == tree.search(key)[::-1]

    @pytest.mark.parametrize("seed", [1993, 2024, 7])
    @pytest.mark.parametrize("arity", [1, 2])
    def test_is_search_reversed_through_splits_and_deletes(
            self, stack, arity, seed):
        rng = random.Random(seed)
        tree = BTree("idx", stack.smgr, stack.bufmgr, key_arity=arity)
        tree.create_storage()
        # Even components are present; odd ones, and both ends, absent.
        if arity == 1:
            present = [(2 * i,) for i in range(len(self.RUNS))]
            absent = [(2 * i - 1,) for i in range(len(self.RUNS) + 1)]
        else:
            present = [(i // 3, 2 * (i % 3)) for i in range(len(self.RUNS))]
            absent = [(i, j) for i in range(-1, 4) for j in (-1, 1, 3, 5)]
        inserts = [key for key, run in zip(present, self.RUNS)
                   for _ in range(run)]
        rng.shuffle(inserts)    # interleaved, so runs grow across splits
        live = {key: [] for key in present}
        for serial, key in enumerate(inserts):
            tree.insert(key, (serial, 0))
            live[key].append((serial, 0))
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
            tree.insert((5,), (serial, 0))
        for serial in range(1999, 999, -1):
            assert tree.delete((5,), (serial, 0)) == 1
        assert next(tree.search_newest((5,))) == (999, 0)
        self.assert_reversed(tree, [(4,), (5,), (6,)])

    def test_first_element_costs_one_descent_however_long_the_run(
            self, tree, monkeypatch):
        for key, run in (((1,), 1), ((2,), 2000), ((3,), 1)):
            for serial in range(run):
                tree.insert(key, (serial, key[0]))
        reads = []
        read_node = tree._read_node

        def counted(blockno, mutable=False):
            reads.append(blockno)
            return read_node(blockno, mutable)

        def nodes_read_for_newest(key):
            newest = tree.search(key)[-1]
            del reads[:]
            assert next(tree.search_newest(key)) == newest
            return len(reads)

        monkeypatch.setattr(tree, "_read_node", counted)
        assert tree.search_newest((2,)) is not None and reads == []  # lazy
        short = nodes_read_for_newest((1,))
        assert short == tree.height() + 1
        assert nodes_read_for_newest((2,)) == short
        assert nodes_read_for_newest((3,)) == short
        assert len(tree.search((2,))) == 2000 and len(reads) > short + 4


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
        inserts = [(2 * rng.randrange(60),) for _ in range(1500)]
        inserts += [(40,)] * 1200
        rng.shuffle(inserts)
        live = []
        for serial, key in enumerate(inserts):
            tree.insert(key, (serial, 0))
            live.append((key, (serial, 0)))
        assert tree.height() >= (2 if node_limit else 1)
        # hi below / between / on / above every key; lo open or closed.
        points = [(-5,), (0,), (1,), (39,), (40,), (41,), (77,), (118,),
                  (500,)]
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
            tree.delete((key,))
        self.assert_reversed(tree, bounds)
        assert next(tree.range_scan_desc((45,)))[0] == (28,)
        tree.check_invariants()

    def test_empty_tree_and_hi_below_every_key(self, tree):
        assert list(tree.range_scan_desc((5,))) == []
        for serial in range(1000):
            tree.insert((10 + serial,), (serial, 0))
        assert list(tree.range_scan_desc((9,))) == []
        assert list(tree.range_scan_desc((10,), (10,))) == [((10,), (0, 0))]

    def test_lazy_one_descent_and_latched_at_call_time(self, tree,
                                                       monkeypatch):
        for key, run in (((1,), 1), ((2,), 2000), ((3,), 1)):
            for serial in range(run):
                tree.insert(key, (serial, key[0]))
        reads = []
        read_node = tree._read_node

        def counted(blockno, mutable=False):
            reads.append(blockno)
            return read_node(blockno, mutable)

        monkeypatch.setattr(tree, "_read_node", counted)
        for hi, first in (((1,), (0, 1)), ((2,), (1999, 2)), ((9,), (0, 3))):
            del reads[:]
            entries = tree.range_scan_desc(hi)
            assert reads == []          # nothing read before next()
            assert next(entries)[1] == first
            assert len(reads) == tree.height() + 1
        # The rest of the long run walks its leaves once each.
        del reads[:]
        assert len(list(tree.range_scan_desc((2,), (2,)))) == 2000
        assert tree.height() + 1 < len(reads) < 40
        # The tripwire fires when the generator is made, not on next():
        # by then the caller's latch block may already have exited.
        tree.latch_probe = lambda: False
        with pytest.raises(AssertionError, match="engine latch"):
            tree.range_scan_desc((2,))


class TestPersistence:
    def test_tree_survives_buffer_eviction(self, stack):
        from repro.storage import BufferManager
        small = BufferManager(pool_size=6)
        tree = BTree("idx", stack.smgr, small, key_arity=1)
        tree.create_storage()
        for i in range(4000):
            tree.insert((i,), (i, 0))
        small.flush_all()
        assert tree.search((3777,)) == [(3777, 0)]
        tree.check_invariants()

    def test_index_has_real_size(self, tree):
        for i in range(5000):
            tree.insert((i,), (i, 0))
        assert tree.byte_size() > 5000 * 24  # entries actually stored


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300))
def test_property_matches_sorted_reference(keys):
    """The tree agrees with a sorted-list reference model."""
    from tests.conftest import Stack
    stack = Stack()
    tree = BTree("prop", stack.smgr, stack.bufmgr, key_arity=1)
    tree.create_storage()
    for i, k in enumerate(keys):
        tree.insert((k,), (i, 0))
    got = [k[0] for k, _ in tree.range_scan()]
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
    tree = BTree("prop", stack.smgr, stack.bufmgr, key_arity=1)
    tree.create_storage()
    reference = Counter()
    for i, k in enumerate(inserts):
        tree.insert((k,), (i, 0))
        reference[k] += 1
    for k in deletes:
        removed = tree.delete((k,))
        assert removed == reference.pop(k, 0)
    got = Counter(k[0] for k, _ in tree.range_scan())
    assert got == reference


def _twin_tree(arity, node_limit, base):
    from tests.conftest import Stack
    stack = Stack()
    tree = BTree("twin", stack.smgr, stack.bufmgr, key_arity=arity)
    tree.create_storage()
    if node_limit:
        tree._node_limit = node_limit
    for serial, key in enumerate(base):
        tree.insert(key, (serial, 0))
    return tree


def _page_images(tree):
    images = []
    for blockno in range(tree.nblocks()):
        with tree.bufmgr.page(tree.smgr, tree.fileid, blockno) as page:
            images.append(bytes(page.buf))
    return images


@settings(max_examples=120, deadline=None)
@given(
    arity=st.sampled_from([1, 2]),
    # (200 - 8) // 24 = 8 entries a leaf at arity 1: a run of 80 splits
    # leaves many times over and grows the tree; None is the real limit.
    node_limit=st.sampled_from([200, 400, None]),
    base=st.lists(st.integers(0, 60), max_size=150),
    run=st.lists(st.integers(-5, 70), max_size=80),
)
@example(arity=1, node_limit=200, base=[], run=list(range(40)))
@example(arity=2, node_limit=200, base=[], run=[3] * 30)
@example(arity=1, node_limit=200, base=list(range(0, 60, 2)),
         run=list(range(10, 50)))                # crosses leaf boundaries
@example(arity=1, node_limit=200, base=list(range(8)),
         run=[4])                                # one entry, one split
@example(arity=1, node_limit=200, base=list(range(8)),
         run=[2] * 9)                            # one leaf, two splits
@example(arity=1, node_limit=None, base=list(range(100, 400)),
         run=list(range(32)))                    # below every key: no append
def test_property_insert_run_is_repeated_insert_page_for_page(
        arity, node_limit, base, run):
    """``insert_run(run)`` ≡ ``for e in run: insert(*e)``: the same
    block count and byte-identical page images on a twin tree."""
    def key(k):
        return (k,) if arity == 1 else (k // 3, k % 3)
    base = [key(k) for k in base]
    entries = sorted(((key(k), (1000 + serial, serial % 5))
                      for serial, k in enumerate(run)),
                     key=lambda entry: entry[0])
    one_by_one = _twin_tree(arity, node_limit, base)
    for entry in entries:
        one_by_one.insert(*entry)
    as_a_run = _twin_tree(arity, node_limit, base)
    as_a_run.insert_run(entries)
    as_a_run.check_invariants()
    assert as_a_run.nblocks() == one_by_one.nblocks()
    assert _page_images(as_a_run) == _page_images(one_by_one)
    # The decoded-node cache mirrors the pages in both.
    assert list(as_a_run.range_scan()) == list(one_by_one.range_scan())
    assert as_a_run.height() == one_by_one.height()
