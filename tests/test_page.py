"""Unit and property tests for the slotted page."""

import random
import struct
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.constants import (
    ITEM_ID_SIZE,
    MAX_TUPLE_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
)
from repro.storage.page import (
    FRESH_FREE,
    LP_DEAD,
    SlottedPage,
    intact_prefix,
    seal,
)


class TestEmptyPage:
    def test_fresh_page_has_no_slots(self):
        page = SlottedPage()
        assert page.slot_count == 0
        assert page.lower == PAGE_HEADER_SIZE
        assert page.upper == PAGE_SIZE

    def test_free_space_accounts_for_pointer(self):
        page = SlottedPage()
        expected = PAGE_SIZE - PAGE_HEADER_SIZE - ITEM_ID_SIZE
        assert page.free_space() == expected

    def test_special_space(self):
        page = SlottedPage(special_size=16)
        assert len(page.special_space()) == 16
        assert page.upper == PAGE_SIZE - 16

    def test_wrong_size_buffer_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(bytearray(100))


class TestAddGet:
    def test_roundtrip(self):
        page = SlottedPage()
        slot = page.add_item(b"hello world")
        assert page.get_item(slot) == b"hello world"

    def test_multiple_items_keep_identity(self):
        page = SlottedPage()
        slots = [page.add_item(bytes([i]) * (i + 1)) for i in range(20)]
        for i, slot in enumerate(slots):
            assert page.get_item(slot) == bytes([i]) * (i + 1)

    def test_zero_length_rejected(self):
        with pytest.raises(PageError):
            SlottedPage().add_item(b"")

    def test_page_full(self):
        page = SlottedPage()
        page.add_item(b"x" * 8000)
        with pytest.raises(PageFullError):
            page.add_item(b"y" * 8000)

    def test_fill_exactly(self):
        page = SlottedPage()
        size = page.free_space()
        slot = page.add_item(b"z" * size)
        assert page.get_item(slot) == b"z" * size
        assert page.free_space() == 0

    def test_bad_slot_rejected(self):
        page = SlottedPage()
        page.add_item(b"a")
        with pytest.raises(PageError):
            page.get_item(5)
        with pytest.raises(PageError):
            page.get_item(-1)


class TestDelete:
    def test_deleted_item_unreadable(self):
        page = SlottedPage()
        slot = page.add_item(b"doomed")
        page.delete_item(slot)
        with pytest.raises(PageError):
            page.get_item(slot)

    def test_double_delete_rejected(self):
        page = SlottedPage()
        slot = page.add_item(b"doomed")
        page.delete_item(slot)
        with pytest.raises(PageError):
            page.delete_item(slot)

    def test_slot_numbers_stable_across_delete(self):
        page = SlottedPage()
        a = page.add_item(b"aaa")
        b = page.add_item(b"bbb")
        c = page.add_item(b"ccc")
        page.delete_item(b)
        assert page.get_item(a) == b"aaa"
        assert page.get_item(c) == b"ccc"

    def test_dead_slot_reused_by_add(self):
        page = SlottedPage()
        a = page.add_item(b"aaa")
        page.delete_item(a)
        b = page.add_item(b"bbb")
        assert b == a
        assert page.get_item(b) == b"bbb"

    def test_live_slots(self):
        page = SlottedPage()
        a = page.add_item(b"a")
        b = page.add_item(b"b")
        page.delete_item(a)
        assert page.live_slots() == [b]
        assert page.item_id(a).state == LP_DEAD


class TestCompact:
    def test_compact_reclaims_space(self):
        page = SlottedPage()
        slots = [page.add_item(b"x" * 700) for _ in range(11)]
        for slot in slots[::2]:
            page.delete_item(slot)
        before = page.upper - page.lower
        after = page.compact()
        assert after > before

    def test_compact_preserves_live_items(self):
        page = SlottedPage()
        slots = [page.add_item(bytes([i]) * 100) for i in range(30)]
        for slot in slots[::3]:
            page.delete_item(slot)
        page.compact()
        for i, slot in enumerate(slots):
            if i % 3 == 0:
                continue
            assert page.get_item(slot) == bytes([i]) * 100

    def test_add_after_compact_fits(self):
        page = SlottedPage()
        big = page.free_space() // 2
        a = page.add_item(b"a" * big)
        page.add_item(b"b" * (page.free_space() - 10))
        page.delete_item(a)
        page.compact()
        assert page.can_fit(big)
        slot = page.add_item(b"c" * big)
        assert page.get_item(slot) == b"c" * big


class TestOverwrite:
    def test_same_length_in_place(self):
        page = SlottedPage()
        slot = page.add_item(b"abcd")
        page.overwrite_item(slot, b"wxyz")
        assert page.get_item(slot) == b"wxyz"

    def test_different_length(self):
        page = SlottedPage()
        slot = page.add_item(b"short")
        page.overwrite_item(slot, b"a much longer replacement value")
        assert page.get_item(slot) == b"a much longer replacement value"

    def test_overwrite_too_big_leaves_page_intact(self):
        page = SlottedPage()
        slot = page.add_item(b"keep me")
        page.add_item(b"x" * (page.free_space() - 50))
        with pytest.raises(PageFullError):
            page.overwrite_item(slot, b"y" * 5000)
        assert page.get_item(slot) == b"keep me"


_HEADER = struct.Struct("<QIHHHH4x")


class TestHolding:
    """``SlottedPage.holding(data)`` is the page ``SlottedPage()`` and
    ``add_item(data)`` leave, built at once."""

    @settings(max_examples=150)
    @given(length=st.integers(1, MAX_TUPLE_SIZE), seed=st.integers(0, 2**32))
    @example(length=1, seed=0)
    @example(length=MAX_TUPLE_SIZE, seed=1)
    def test_it_is_byte_equal_to_add_item_on_a_fresh_page(self, length,
                                                           seed):
        data = random.Random(seed).randbytes(length)
        added = SlottedPage()
        assert added.add_item(data) == 0
        held = SlottedPage.holding(data)
        assert held.buf == added.buf
        assert held.get_item(0) == data
        assert held.free_space() == added.free_space() == max(
            0, FRESH_FREE - length)

    @pytest.mark.parametrize("length", [0, MAX_TUPLE_SIZE + 1, PAGE_SIZE])
    def test_it_raises_what_add_item_raises(self, length):
        data = b"\x5a" * length
        with pytest.raises(PageError) as added:
            SlottedPage().add_item(data)
        with pytest.raises(PageError) as held:
            SlottedPage.holding(data)
        assert type(held.value) is type(added.value)
        assert str(held.value) == str(added.value)
        assert (type(held.value) is PageFullError) == (length > 0)


def _checksum_reference(raw: bytes) -> int:
    """The two-pass checksum the one-pass code replaced: unpack and
    repack the header (zeroing the checksum and the reserved bytes),
    then CRC the clean header and the body."""
    lsn, _checksum, flags, lower, upper, special = _HEADER.unpack_from(raw)
    clean = bytearray(PAGE_HEADER_SIZE)
    _HEADER.pack_into(clean, 0, lsn, 0, flags, lower, upper, special)
    return zlib.crc32(raw[PAGE_HEADER_SIZE:], zlib.crc32(clean))


def _seal_reference(raw: bytes, lsn: int) -> bytes:
    """The two-pass seal: repack the header with the new LSN and a zero
    checksum, then store the CRC of the whole page."""
    buf = bytearray(raw)
    _lsn, _checksum, *rest = _HEADER.unpack_from(buf)
    _HEADER.pack_into(buf, 0, lsn, 0, *rest)
    crc = zlib.crc32(buf[PAGE_HEADER_SIZE:],
                     zlib.crc32(buf[:PAGE_HEADER_SIZE]))
    buf[8:12] = crc.to_bytes(4, "little")
    return bytes(buf)


def intact(buf: bytearray) -> bool:
    """Whether the pool would serve *buf* as read: a run of one page."""
    return intact_prefix([buf]) == 1


class TestChecksum:
    # ``intact_prefix`` is what the pool asks of a run it read: a sealed
    # page (nonzero LSN) must match its checksum; it zeroes the checksum
    # field in place, so every check below is made on a fresh copy.

    def test_fresh_page_verifies_after_stamp(self):
        page = SlottedPage()
        page.add_item(b"data")
        seal([page.buf], 1)
        assert intact(page.buf)

    def test_corruption_detected(self):
        page = SlottedPage()
        page.add_item(b"data")
        seal([page.buf], 1)
        page.buf[5000] ^= 0xFF
        assert not intact(page.buf)

    def test_checksum_stable_under_reload(self):
        page = SlottedPage()
        page.add_item(b"data")
        seal([page.buf], 1)
        reloaded = SlottedPage(bytearray(page.buf))
        assert intact(reloaded.buf)

    def test_lsn_roundtrip(self):
        page = SlottedPage()
        seal([page.buf], 12345)
        assert page.lsn == 12345

    @settings(max_examples=60)
    @given(st.integers(min_value=0), st.integers(min_value=0,
                                                 max_value=2**64 - 1))
    def test_one_pass_checksum_matches_the_reference(self, seed, lsn):
        # Random bytes put garbage in the checksum field (8:12) and the
        # reserved bytes (20:24) too: both must read as zeros.
        raw = random.Random(seed).randbytes(PAGE_SIZE)
        stamped = bytearray(raw)
        stamped[8:12] = _checksum_reference(raw).to_bytes(4, "little")
        assert intact(bytearray(stamped))
        stamped[8] ^= 0xFF
        written = _HEADER.unpack_from(raw)[0] != 0
        assert intact(stamped) is not written
        page = SlottedPage(bytearray(raw))
        seal([page.buf], lsn)
        assert bytes(page.buf) == _seal_reference(raw, lsn)
        assert intact(bytearray(page.buf))

    def test_damage_confined_to_the_reserved_bytes_still_verifies(self):
        page = SlottedPage()
        page.add_item(b"data")
        seal([page.buf], 7)
        page.buf[20:24] = b"\xde\xad\xbe\xef"
        assert intact(bytearray(page.buf))
        page.buf[24] ^= 0xFF
        assert not intact(bytearray(page.buf))

    @settings(max_examples=60)
    @given(st.lists(st.sampled_from(["sealed", "torn", "zeros", "fresh"]),
                    min_size=1, max_size=8))
    def test_a_run_is_intact_up_to_its_first_torn_page(self, kinds):
        # A never-written page (LSN 0: a hole of zeros, or a fresh page
        # image) carries no checksum and passes wherever it sits.
        bufs = []
        for lsn, kind in enumerate(kinds, 1):
            page = SlottedPage()
            if kind == "zeros":
                page = SlottedPage(bytearray(PAGE_SIZE))
            elif kind != "fresh":
                page.add_item(bytes([lsn]) * 40)
                seal([page.buf], lsn)
                page.buf[4000] ^= 0xFF if kind == "torn" else 0
            bufs.append(page.buf)
        one_by_one = [intact(bytearray(buf)) for buf in bufs]
        expected = one_by_one.index(False) if False in one_by_one \
            else len(bufs)
        assert expected == (kinds.index("torn") if "torn" in kinds
                            else len(kinds))
        assert intact_prefix(bufs) == expected

    @settings(max_examples=60)
    @given(st.integers(min_value=0), st.integers(min_value=0,
                                                 max_value=2**64 - 1))
    def test_seal_is_lsn_then_stamp_bit_for_bit(self, seed, lsn):
        raw = random.Random(seed).randbytes(PAGE_SIZE)
        sealed = SlottedPage(bytearray(raw))
        seal([sealed.buf], lsn)
        # Set the LSN by repacking the header (which zeroes the reserved
        # bytes), then store the checksum of the result.
        stamped = bytearray(raw)
        _HEADER.pack_into(stamped, 0, lsn, *_HEADER.unpack_from(raw)[1:])
        checksum = _checksum_reference(bytes(stamped))
        stamped[8:12] = checksum.to_bytes(4, "little")
        assert sealed.buf == stamped
        assert sealed.lsn == lsn and intact(sealed.buf)


# Line-pointer halves drawn so that the dead image (00 00 02 00) often
# appears straddling two pointers; none of them is itself a dead state.
_POINTER_HALVES = st.sampled_from([0, 1, 2, 5, 0x0200, 0x0201, 0x0202])


@settings(max_examples=200)
@given(st.lists(st.one_of(
    st.just((0, LP_DEAD)),
    st.tuples(_POINTER_HALVES, _POINTER_HALVES).filter(
        lambda pointer: pointer[1] & 0x3 != LP_DEAD)), max_size=40))
def test_add_item_reuses_the_first_dead_pointer(pointers):
    """The byte search for the dead image picks the slot a per-slot walk
    of the line-pointer states picks, skipping matches that straddle
    two pointers."""
    buf = bytearray(PAGE_SIZE)
    lower = PAGE_HEADER_SIZE + ITEM_ID_SIZE * len(pointers)
    _HEADER.pack_into(buf, 0, 0, 0, 0, lower, PAGE_SIZE, PAGE_SIZE)
    for slot, pointer in enumerate(pointers):
        struct.pack_into("<HH", buf, PAGE_HEADER_SIZE + slot * ITEM_ID_SIZE,
                         *pointer)
    page = SlottedPage(buf)
    first_dead = next((slot for slot in range(page.slot_count)
                       if page.item_id(slot).state == LP_DEAD),
                      page.slot_count)
    assert page.add_item(b"item") == first_dead
    assert page.get_item(first_dead) == b"item"


@settings(max_examples=60)
@given(st.lists(st.binary(min_size=1, max_size=400), max_size=18))
def test_property_items_roundtrip(items):
    """Any sequence of adds that fits preserves every item byte-for-byte."""
    page = SlottedPage()
    stored = []
    for data in items:
        if not page.can_fit(len(data)):
            break
        stored.append((page.add_item(data), data))
    for slot, data in stored:
        assert page.get_item(slot) == data


@settings(max_examples=60)
@given(
    st.lists(st.binary(min_size=1, max_size=300), min_size=1, max_size=15),
    st.data(),
)
def test_property_delete_compact_preserves_survivors(items, data):
    """Deleting a random subset then compacting keeps all survivors."""
    page = SlottedPage()
    slots = []
    for item in items:
        if not page.can_fit(len(item)):
            break
        slots.append((page.add_item(item), item))
    if not slots:
        return
    doomed = data.draw(st.sets(
        st.sampled_from([s for s, _ in slots]),
        max_size=len(slots)))
    for slot in doomed:
        page.delete_item(slot)
    page.compact()
    for slot, item in slots:
        if slot in doomed:
            continue
        assert page.get_item(slot) == item


class TestItemViewAliasing:
    """The zero-copy contract: ``item_view`` aliases the page buffer and
    does NOT survive mutation; ``get_item`` is the copying accessor."""

    def test_view_aliases_live_page(self):
        page = SlottedPage()
        slot = page.add_item(b"A" * 32)
        view = page.item_view(slot)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"A" * 32
        # Patching through the page is visible through the view: proof
        # that no copy was taken.
        page.patch_item(slot, 0, b"ZZ")
        assert bytes(view[:2]) == b"ZZ"

    def test_get_item_is_a_copy(self):
        page = SlottedPage()
        slot = page.add_item(b"B" * 32)
        copied = page.get_item(slot)
        page.patch_item(slot, 0, b"ZZ")
        assert copied == b"B" * 32  # unchanged: it does not alias

    def test_view_goes_stale_across_compaction(self):
        page = SlottedPage()
        first = page.add_item(b"X" * 64)
        second = page.add_item(b"Y" * 64)
        page.add_item(b"Z" * 64)
        copied = page.get_item(second)
        view = page.item_view(second)
        page.delete_item(first)
        page.compact()
        # The copy still matches the logical item; the view still points
        # at the old offset, where compaction relocated a different item.
        assert page.get_item(second) == copied
        assert bytes(view) == b"Z" * 64
        assert bytes(view) != copied

    def test_view_of_dead_slot_rejected(self):
        page = SlottedPage()
        slot = page.add_item(b"C" * 16)
        page.delete_item(slot)
        with pytest.raises(PageError):
            page.item_view(slot)

    def test_patch_item_bounds_checked(self):
        page = SlottedPage()
        slot = page.add_item(b"D" * 16)
        with pytest.raises(PageError):
            page.patch_item(slot, 15, b"toolong")
