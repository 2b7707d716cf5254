"""Unit and property tests for the slotted page."""

import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PageError, PageFullError
from repro.storage.constants import (
    ITEM_ID_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
)
from repro.storage.page import LP_DEAD, SlottedPage


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


class TestChecksum:
    def test_fresh_page_verifies_after_stamp(self):
        page = SlottedPage()
        page.add_item(b"data")
        page.stamp_checksum()
        assert page.verify_checksum()

    def test_corruption_detected(self):
        page = SlottedPage()
        page.add_item(b"data")
        page.stamp_checksum()
        page.buf[5000] ^= 0xFF
        assert not page.verify_checksum()

    def test_checksum_stable_under_reload(self):
        page = SlottedPage()
        page.add_item(b"data")
        page.stamp_checksum()
        reloaded = SlottedPage(bytearray(page.buf))
        assert reloaded.verify_checksum()

    def test_lsn_roundtrip(self):
        page = SlottedPage()
        page.lsn = 12345
        assert page.lsn == 12345

    @settings(max_examples=60)
    @given(st.integers(min_value=0), st.integers(min_value=0,
                                                 max_value=2**64 - 1))
    def test_one_pass_checksum_matches_the_reference(self, seed, lsn):
        # Random bytes put garbage in the checksum field (8:12) and the
        # reserved bytes (20:24) too: both must read as zeros.
        raw = random.Random(seed).randbytes(PAGE_SIZE)
        page = SlottedPage(bytearray(raw))
        assert page.compute_checksum() == _checksum_reference(raw)
        page.seal(lsn)
        assert bytes(page.buf) == _seal_reference(raw, lsn)
        assert page.verify_checksum()

    def test_damage_confined_to_the_reserved_bytes_still_verifies(self):
        page = SlottedPage()
        page.add_item(b"data")
        page.seal(7)
        page.buf[20:24] = b"\xde\xad\xbe\xef"
        assert page.verify_checksum()
        page.buf[24] ^= 0xFF
        assert not page.verify_checksum()

    @settings(max_examples=60)
    @given(st.integers(min_value=0), st.integers(min_value=0,
                                                 max_value=2**64 - 1))
    def test_seal_is_lsn_then_stamp_bit_for_bit(self, seed, lsn):
        raw = random.Random(seed).randbytes(PAGE_SIZE)
        sealed, stamped = SlottedPage(bytearray(raw)), SlottedPage(bytearray(raw))
        sealed.seal(lsn)
        stamped.lsn = lsn
        stamped.stamp_checksum()
        assert sealed.buf == stamped.buf
        assert sealed.lsn == lsn and sealed.verify_checksum()


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
