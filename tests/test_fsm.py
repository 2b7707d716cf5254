"""The free-space map: the hints that place heap inserts."""

import random

from repro.storage.fsm import FreeSpaceMap


class _ReferenceMap:
    """The per-page walk ``FreeSpaceMap.find`` replaced, with its
    ``_max_free`` bookkeeping, and the tail probe the heap made when no
    known page fit: the answers and the bound must agree."""

    def __init__(self):
        self.free, self.last_insert, self.max_free = {}, None, 0

    def record(self, blockno, free_bytes):
        if free_bytes <= 0:
            self.free.pop(blockno, None)
        else:
            self.free[blockno] = free_bytes
            self.max_free = max(self.max_free, free_bytes)

    def note_insert(self, blockno, free_bytes):
        self.record(blockno, free_bytes)
        self.last_insert = blockno

    def known_insufficient(self, blockno, needed):
        return (blockno == self.last_insert
                and self.free.get(blockno, 0) < needed)

    def find(self, needed, tail=-1):
        best = self._walk(needed)
        if best is None and tail >= 0 and not self.known_insufficient(
                tail, needed):
            return tail
        return best

    def _walk(self, needed):
        target = self.last_insert
        if target is not None and self.free.get(target, 0) >= needed:
            return target
        if needed > self.max_free:
            return None
        best, actual_max = None, 0
        for blockno, free in self.free.items():
            actual_max = max(actual_max, free)
            if free >= needed and (best is None or blockno < best):
                best = blockno
        self.max_free = actual_max
        return best

    def forget(self):
        self.free.clear()
        self.last_insert, self.max_free = None, 0


class TestFind:
    def test_an_empty_map_knows_no_page(self):
        assert FreeSpaceMap().find(1) is None

    def test_the_insertion_target_comes_first(self):
        fsm = FreeSpaceMap()
        fsm.record(2, 500)
        fsm.note_insert(9, 100)
        assert fsm.find(100) == 9
        assert fsm.find(101) == 2

    def test_then_the_tail_unless_it_is_the_full_target(self):
        fsm = FreeSpaceMap()
        assert fsm.find(100, tail=4) == 4
        assert fsm.find(100, tail=-1) is None      # an empty relation
        fsm.note_insert(4, 50)
        assert fsm.find(100, tail=4) is None       # its hint says no room
        assert fsm.find(100, tail=5) == 5

    def test_then_the_lowest_numbered_page_with_room(self):
        fsm = FreeSpaceMap()
        for blockno, free in ((7, 300), (3, 100), (5, 300), (4, 299)):
            fsm.record(blockno, free)
        assert fsm.find(300) == 5
        assert fsm.find(100) == 3
        assert fsm.find(301) is None

    def test_a_page_with_no_room_is_forgotten(self):
        fsm = FreeSpaceMap()
        fsm.record(1, 200)
        fsm.record(1, 0)
        assert fsm.find(1) is None

    def test_a_losing_walk_tightens_the_bound(self):
        fsm = FreeSpaceMap()
        fsm.record(1, 900)
        fsm.record(2, 50)
        fsm.record(1, 0)
        assert fsm._max_free == 900          # stale until a walk runs
        assert fsm.find(60) is None
        assert fsm._max_free == 50

    def test_forget_drops_every_hint(self):
        fsm = FreeSpaceMap()
        fsm.note_insert(1, 900)
        fsm.forget()
        assert fsm.find(1) is None and fsm._max_free == 0


def test_find_matches_the_reference_walk():
    """Seeded random histories of records, insertions, finds (with and
    without a tail) and forgets: every answer and every bound equal the
    reference's."""
    for seed in range(500):
        rng = random.Random(seed)
        fsm, reference = FreeSpaceMap(), _ReferenceMap()
        for _ in range(60):
            roll = rng.random()
            if roll < 0.5:
                args = (rng.randrange(12), rng.choice((0, rng.randrange(1, 800))))
                fsm.record(*args)
                reference.record(*args)
            elif roll < 0.6:
                args = (rng.randrange(12), rng.randrange(800))
                fsm.note_insert(*args)
                reference.note_insert(*args)
            elif roll < 0.97:
                needed, tail = rng.randrange(1, 900), rng.randrange(-1, 12)
                assert fsm.find(needed, tail) == \
                    reference.find(needed, tail), seed
            else:
                fsm.forget()
                reference.forget()
            assert fsm._max_free == reference.max_free, seed
