"""The free-space map: the hints that place heap inserts."""

import random

from repro.storage.fsm import FreeSpaceMap


class _ReferenceMap:
    """The per-page walk ``FreeSpaceMap.find`` replaced, with its
    ``_max_free`` bookkeeping: the answers and the bound must agree."""

    def __init__(self):
        self.free, self.last_insert, self.max_free = {}, None, 0

    def record(self, blockno, free_bytes):
        if free_bytes <= 0:
            self.free.pop(blockno, None)
        else:
            self.free[blockno] = free_bytes
            self.max_free = max(self.max_free, free_bytes)

    def note_insert_target(self, blockno):
        self.last_insert = blockno

    def find(self, needed):
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
        fsm.record(9, 100)
        fsm.note_insert_target(9)
        assert fsm.find(100) == 9
        assert fsm.find(101) == 2

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
        fsm.record(1, 900)
        fsm.note_insert_target(1)
        fsm.forget()
        assert fsm.find(1) is None and fsm._max_free == 0


def test_find_matches_the_reference_walk():
    """Seeded random histories of records, targets, finds and forgets:
    every answer and every bound equal the reference's."""
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
                blockno = rng.randrange(12)
                fsm.note_insert_target(blockno)
                reference.note_insert_target(blockno)
            elif roll < 0.97:
                needed = rng.randrange(1, 900)
                assert fsm.find(needed) == reference.find(needed), seed
            else:
                fsm.forget()
                reference.forget()
            assert fsm._max_free == reference.max_free, seed
