"""Slotted 8 KB page, in the style of the POSTGRES page layout.

A page is a fixed-size ``bytearray`` with:

* a 24-byte header — LSN, checksum, flags, ``lower`` (end of the line-pointer
  array), ``upper`` (start of tuple data), ``special`` (start of the
  special space used by index pages);
* an array of 4-byte **line pointers** (*ItemIds*) growing down from the
  header, each holding the offset and length of one item plus a 2-bit state
  (unused / normal / dead / redirect);
* tuple data growing up from ``special`` toward ``lower``.

Deleting an item marks its line pointer dead but leaves the slot number
stable, so TIDs (page, slot) held by indexes stay valid; ``compact()``
reclaims the dead space without renumbering slots — exactly the vacuum-style
behaviour heap relations need.

The checksum covers the whole page except the checksum field itself and is
verified by the buffer manager when a page is read from a device.

Zero-copy discipline
--------------------
The read path hands out **memoryviews** into the page buffer
(:meth:`SlottedPage.item_view`) so that decoding a tuple does not copy its
image first.  A view aliases the live page: any mutation (``add_item``,
``overwrite_item``, ``compact``) may rewrite the bytes under it.  The
contract is therefore *views do not survive page modification* — callers
that retain data past the current latched read use :meth:`get_item`, the
one sanctioned ``bytes``-returning accessor (the analyzer's
``bytes(<buffer>[a:b])`` row, R010, declares every slice copy; none is here).
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from itertools import count, repeat

from repro.errors import PageError, PageFullError
from repro.storage.constants import (
    ITEM_ID_SIZE,
    MAX_TUPLE_SIZE,
    PAGE_HEADER_SIZE,
    PAGE_SIZE,
)

# Header: lsn(8) checksum(4) flags(2) lower(2) upper(2) special(2) reserved(4)
_HEADER = struct.Struct("<QIHHHH4x")
assert _HEADER.size == PAGE_HEADER_SIZE

# The checksum (bytes 8:12) covers the page with itself and the reserved
# bytes (20:24) read as zeros; seal writes the LSN and zeroes both first,
# each step one ``map`` over the pages (which ends it: the rest repeat).
_LSN_CHECKSUM, _PACK_WORD = struct.Struct("<QI"), struct.Struct("<I").pack_into
#: From byte 8: the checksum, the four header words it covers, reserved.
_CHECKED = struct.Struct("<I8sI")
_ZEROS, _EIGHTS, _TWENTIES = repeat(0), repeat(8), repeat(20)

# The (lower, upper, special) trio lives at byte 14 of the header; the hot
# paths read it directly instead of unpacking the whole header.
_LUS = struct.Struct("<HHH")
_LUS_OFFSET = 14

# Line pointer: offset(2), then length(14 bits) | state(2 bits)
_ITEMID = struct.Struct("<HH")
assert _ITEMID.size == ITEM_ID_SIZE

#: Line-pointer states.
LP_UNUSED = 0
LP_NORMAL = 1
LP_DEAD = 2

_LP_STATE_MASK = 0x3
_LP_LEN_SHIFT = 2
_LP_MAX_LEN = (1 << 14) - 1

#: :meth:`SlottedPage.free_space` of :meth:`SlottedPage.holding` an
#: item of *n* bytes is ``FRESH_FREE - n``, or 0 if that is negative.
FRESH_FREE = MAX_TUPLE_SIZE - ITEM_ID_SIZE

#: A fresh page's header after the zero LSN, checksum and flags —
#: ``lower``, ``upper``, ``special`` — then its slot-0 line pointer.
_FRESH = struct.Struct("<14xHHH4xHH")

#: The one image of a dead line pointer: delete_item and overwrite_item,
#: its only writers, both write ``(0, 0, LP_DEAD)``.
_DEAD_ITEMID = _ITEMID.pack(0, LP_DEAD)


def seal(bufs: list[bytearray], lsn: int) -> list[bytearray]:
    """Seal page images for a device write, each step one C-level ``map``
    pass: LSNs from *lsn* up in list order, the checksum field and the
    reserved bytes zeroed, then each page's checksum.  Returns *bufs*."""
    any(map(_LSN_CHECKSUM.pack_into, bufs, _ZEROS, count(lsn), _ZEROS))
    any(map(_PACK_WORD, bufs, _TWENTIES, _ZEROS))
    any(map(_PACK_WORD, bufs, _EIGHTS, map(zlib.crc32, bufs)))
    return bufs


def intact_prefix(bufs: list[bytearray]) -> int:
    """How many of *bufs* (a nonempty run read from a device), from the
    first, are never written (LSN 0) or match their checksum: C-level
    passes that zero in place what :func:`seal` rewrites before hashing."""
    stored, words, _reserved = zip(*map(_CHECKED.unpack_from, bufs, _EIGHTS))
    any(map(_CHECKED.pack_into, bufs, _EIGHTS, _ZEROS, words, _ZEROS))
    found = tuple(map(zlib.crc32, bufs))
    if found != stored:     # a page never written, or the first torn one
        for at, buf in enumerate(bufs):
            if found[at] != stored[at] and _LSN_CHECKSUM.unpack_from(buf)[0]:
                return at
    return len(bufs)


@dataclass(frozen=True)
class ItemId:
    """Decoded line pointer: where an item lives and its state."""

    offset: int
    length: int
    state: int


class SlottedPage:
    """A mutable view over one page buffer.

    The page object does not own durability — the buffer manager does.  All
    offsets are validated; a malformed page raises :class:`PageError` rather
    than corrupting neighbours.
    """

    __slots__ = ("buf", "_view")

    def __init__(self, buf: bytearray | None = None, special_size: int = 0):
        if buf is None:
            self.buf = bytearray(PAGE_SIZE)
            special = PAGE_SIZE - special_size
            self._write_header(
                lsn=0, checksum=0, flags=0,
                lower=PAGE_HEADER_SIZE, upper=special, special=special)
        else:
            if len(buf) != PAGE_SIZE:
                raise PageError(
                    f"page buffer is {len(buf)} bytes, expected {PAGE_SIZE}")
            self.buf = buf
        #: One long-lived view over the buffer; zero-copy item reads are
        #: slices of this (slicing a memoryview allocates only the small
        #: view object, never the bytes).
        self._view = memoryview(self.buf)

    @classmethod
    def holding(cls, data: bytes) -> "SlottedPage":
        """A fresh page with *data* in slot 0: the bytes ``SlottedPage()``
        and :meth:`add_item` leave, and the same errors, built at once."""
        length = len(data)
        if not 0 < length <= MAX_TUPLE_SIZE:
            cls().add_item(data)    # raises add_item's own error
        buf = bytearray(PAGE_SIZE)
        upper = PAGE_SIZE - length
        buf[upper:] = data
        _FRESH.pack_into(buf, 0, PAGE_HEADER_SIZE + ITEM_ID_SIZE, upper,
                         PAGE_SIZE, upper, (length << _LP_LEN_SHIFT) | LP_NORMAL)
        return cls(buf)

    # -- header access ----------------------------------------------------

    def _read_header(self) -> tuple[int, int, int, int, int, int]:
        return _HEADER.unpack_from(self.buf, 0)

    def _write_header(self, lsn: int, checksum: int, flags: int,
                      lower: int, upper: int, special: int) -> None:
        _HEADER.pack_into(self.buf, 0, lsn, checksum, flags,
                          lower, upper, special)

    @property
    def lsn(self) -> int:
        return self._read_header()[0]

    @property
    def lower(self) -> int:
        return _LUS.unpack_from(self.buf, _LUS_OFFSET)[0]

    @property
    def upper(self) -> int:
        return _LUS.unpack_from(self.buf, _LUS_OFFSET)[1]

    @property
    def special_offset(self) -> int:
        return _LUS.unpack_from(self.buf, _LUS_OFFSET)[2]

    def special_space(self) -> memoryview:
        """The index-private region at the end of the page (mutable)."""
        return self._view[self.special_offset:]

    # -- line pointers ----------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of line pointers, live or dead."""
        return (self.lower - PAGE_HEADER_SIZE) // ITEM_ID_SIZE

    def _itemid_pos(self, slot: int) -> int:
        if not 0 <= slot < self.slot_count:
            raise PageError(
                f"slot {slot} out of range (page has {self.slot_count})")
        return PAGE_HEADER_SIZE + slot * ITEM_ID_SIZE

    def item_id(self, slot: int) -> ItemId:
        """Decode the line pointer for *slot*."""
        offset, lenstate = _ITEMID.unpack_from(self.buf, self._itemid_pos(slot))
        return ItemId(offset=offset,
                      length=lenstate >> _LP_LEN_SHIFT,
                      state=lenstate & _LP_STATE_MASK)

    def _set_item_id(self, slot: int, offset: int, length: int,
                     state: int) -> None:
        if length > _LP_MAX_LEN:
            raise PageError(f"item length {length} exceeds {_LP_MAX_LEN}")
        _ITEMID.pack_into(self.buf, self._itemid_pos(slot),
                          offset, (length << _LP_LEN_SHIFT) | state)

    # -- space accounting --------------------------------------------------

    def free_space(self) -> int:
        """Contiguous bytes available for a new item plus its line pointer."""
        lower, upper, _special = _LUS.unpack_from(self.buf, _LUS_OFFSET)
        gap = upper - lower
        return max(0, gap - ITEM_ID_SIZE)

    def can_fit(self, length: int) -> bool:
        """Whether an item of *length* bytes can be stored on this page,
        counting space that a compaction would reclaim and a dead line
        pointer :meth:`add_item` would reuse."""
        if length <= self.free_space():
            return True
        lower, _upper, special = _LUS.unpack_from(self.buf, _LUS_OFFSET)
        count = (lower - PAGE_HEADER_SIZE) // ITEM_ID_SIZE
        live = 0
        dead_slots = False
        unpack = _ITEMID.unpack_from
        buf = self.buf
        for slot in range(count):
            lenstate = unpack(buf, PAGE_HEADER_SIZE + slot * ITEM_ID_SIZE)[1]
            state = lenstate & _LP_STATE_MASK
            if state == LP_NORMAL:
                live += lenstate >> _LP_LEN_SHIFT
            elif state == LP_DEAD:
                dead_slots = True
        pointer_slots = count + (0 if dead_slots else 1)
        ceiling = (special - PAGE_HEADER_SIZE
                   - pointer_slots * ITEM_ID_SIZE)
        return length <= ceiling - live

    # -- item operations ---------------------------------------------------

    def add_item(self, data: bytes) -> int:
        """Store *data* on the page and return its slot number.

        Reuses a dead line pointer when one exists (keeping the pointer
        array from growing without bound under churn); otherwise appends a
        new pointer.  Raises :class:`PageFullError` when the page cannot
        hold the item.
        """
        length = len(data)
        if length == 0:
            raise PageError("cannot store a zero-length item")
        lsn, checksum, flags, lower, upper, special = self._read_header()

        # The first dead pointer: its one image, at a pointer boundary.
        buf = self.buf
        found = buf.find(_DEAD_ITEMID, PAGE_HEADER_SIZE, lower)
        while found >= 0 and (found - PAGE_HEADER_SIZE) % ITEM_ID_SIZE:
            found = buf.find(_DEAD_ITEMID, found + 1, lower)

        needed = length if found >= 0 else length + ITEM_ID_SIZE
        if upper - lower < needed:
            raise PageFullError(
                f"item of {length} bytes does not fit "
                f"({upper - lower} bytes free)")

        new_upper = upper - length
        buf[new_upper:new_upper + length] = data
        if found >= 0:
            slot = (found - PAGE_HEADER_SIZE) // ITEM_ID_SIZE
        else:
            slot = (lower - PAGE_HEADER_SIZE) // ITEM_ID_SIZE
            lower += ITEM_ID_SIZE
        self._write_header(lsn, checksum, flags, lower, new_upper, special)
        self._set_item_id(slot, new_upper, length, LP_NORMAL)
        return slot

    def item_view(self, slot: int) -> memoryview:
        """Zero-copy view of the live item in *slot*.

        The view aliases the page buffer and is valid only until the next
        page mutation; callers that keep the bytes use :meth:`get_item`.

        The line-pointer decode is inlined (no :class:`ItemId`): this is
        the hottest accessor in the engine, and constructing a frozen
        dataclass per read costs more than the slice it guards.
        """
        buf = self.buf
        if not 0 <= slot < (
                _LUS.unpack_from(buf, _LUS_OFFSET)[0]
                - PAGE_HEADER_SIZE) // ITEM_ID_SIZE:
            raise PageError(
                f"slot {slot} out of range (page has {self.slot_count})")
        offset, lenstate = _ITEMID.unpack_from(
            buf, PAGE_HEADER_SIZE + slot * ITEM_ID_SIZE)
        state = lenstate & _LP_STATE_MASK
        if state != LP_NORMAL:
            raise PageError(f"slot {slot} is not live (state={state})")
        return self._view[offset:offset + (lenstate >> _LP_LEN_SHIFT)]

    def get_item(self, slot: int) -> bytes:
        """Return a copy of the live item in *slot*.

        This is the sanctioned copying accessor: data it returns survives
        any later page modification.
        """
        return bytes(self.item_view(slot))

    def delete_item(self, slot: int) -> None:
        """Mark *slot* dead.  Space is reclaimed later by :meth:`compact`."""
        item = self.item_id(slot)
        if item.state != LP_NORMAL:
            raise PageError(f"slot {slot} already dead or unused")
        self._set_item_id(slot, 0, 0, LP_DEAD)

    def overwrite_item(self, slot: int, data: bytes) -> None:
        """Replace the item in *slot* in place.

        Only same-length overwrites are done in place; a different length
        deletes + re-adds into the same slot (compacting first if needed).
        Callers in the no-overwrite heap never use this for user tuples —
        it exists for index pages and tuple-header updates (setting xmax),
        which POSTGRES also updated in place.
        """
        buf = self.buf
        lower, upper, special = _LUS.unpack_from(buf, _LUS_OFFSET)
        if not 0 <= slot < (lower - PAGE_HEADER_SIZE) // ITEM_ID_SIZE:
            raise PageError(
                f"slot {slot} out of range (page has {self.slot_count})")
        pos = PAGE_HEADER_SIZE + slot * ITEM_ID_SIZE
        offset, lenstate = _ITEMID.unpack_from(buf, pos)
        if lenstate & _LP_STATE_MASK != LP_NORMAL:
            raise PageError(f"slot {slot} is not live")
        length = lenstate >> _LP_LEN_SHIFT
        if len(data) == length:
            buf[offset:offset + length] = data
            return
        replacement = data
        if offset == upper and len(data) - length <= upper - lower:
            # The bottom-most item resizes by sliding its start — no
            # delete/re-add, no compaction.  B-tree node pages (one item
            # that grows a little on every insert) live on this path.
            upper += length
        else:
            old_data = self.get_item(slot)  # survives the compaction
            buf[pos:pos + ITEM_ID_SIZE] = _DEAD_ITEMID
            if len(data) > upper - lower:
                self.compact()
                lower, upper, special = _LUS.unpack_from(buf, _LUS_OFFSET)
                if len(data) > upper - lower:
                    # Put the original item back (compaction may have
                    # moved everything, so re-insert, not restore).
                    replacement = old_data
        # One struct call each for ``upper`` and the line pointer.
        upper -= len(replacement)
        buf[upper:upper + len(replacement)] = replacement
        _LUS.pack_into(buf, _LUS_OFFSET, lower, upper, special)
        _ITEMID.pack_into(buf, pos, upper,
                          (len(replacement) << _LP_LEN_SHIFT) | LP_NORMAL)
        if replacement is not data:
            raise PageFullError(
                f"replacement item of {len(data)} bytes does not fit")

    def patch_item(self, slot: int, offset_in_item: int,
                   patch: bytes) -> None:
        """Overwrite *patch* bytes inside the item at *offset_in_item*,
        through its :meth:`item_view`.

        In-place header updates (stamping ``xmax``) go through this instead
        of copying the whole image through :meth:`overwrite_item`.
        """
        item = self.item_view(slot)
        end = offset_in_item + len(patch)
        if offset_in_item < 0 or end > len(item):
            raise PageError(f"patch [{offset_in_item}:{end}] outside item "
                            f"of {len(item)} bytes")
        item[offset_in_item:end] = patch

    def live_slots(self) -> list[int]:
        """Slot numbers of all live items, in slot order."""
        return [s for s in range(self.slot_count)
                if self.item_id(s).state == LP_NORMAL]

    def compact(self) -> int:
        """Slide live items together, reclaiming dead space.

        Slot numbers are preserved.  Returns the number of free bytes after
        compaction.

        Any outstanding :meth:`item_view` views are left dangling over
        stale bytes — this is the mutation the zero-copy contract warns
        about, and why the items are snapshotted (one whole-page copy,
        cheaper than per-item slices) before the rewrite.
        """
        lsn, checksum, flags, lower, _upper, special = self._read_header()
        snapshot = bytes(self.buf)
        items = []
        for slot in range(self.slot_count):
            item = self.item_id(slot)
            if item.state == LP_NORMAL:
                items.append(
                    (slot, snapshot[item.offset:item.offset + item.length]))
        # Rewrite from the top of the data area down.
        upper = special
        for slot, data in sorted(items, key=lambda x: -len(x[1])):
            upper -= len(data)
            self.buf[upper:upper + len(data)] = data
            self._set_item_id(slot, upper, len(data), LP_NORMAL)
        if upper < lower:
            raise PageError("page corrupted: live data overlaps pointers")
        self._write_header(lsn, checksum, flags, lower, upper, special)
        return upper - lower

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SlottedPage(slots={self.slot_count}, "
                f"free={self.free_space()}, lower={self.lower}, "
                f"upper={self.upper})")
