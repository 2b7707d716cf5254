"""Heap tuples: the versioned on-page record format.

Every stored tuple carries a 32-byte header with the transaction stamps the
no-overwrite storage system needs:

* ``xmin`` — xid of the inserting transaction;
* ``xmax`` — xid of the deleting transaction (0 while the version is live);
* ``oid``  — the tuple's permanent object id, stable across versions, which
  is what large-object chunk records are addressed by;
* ``flags``/``natts`` — reserved bits and a sanity check.

The header is followed by the record bytes produced by
:meth:`repro.access.schema.Schema.encode`.  ``xmax`` is the only field ever
updated in place (setting it marks deletion); everything else is immutable,
which is what makes old versions trustworthy for time travel.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import NamedTuple

from repro.access.schema import Schema
from repro.errors import SchemaError
from repro.storage.constants import INVALID_XID, TUPLE_HEADER_SIZE

_HEADER = struct.Struct("<QQQII")
assert _HEADER.size == TUPLE_HEADER_SIZE

#: ``xmax`` is the second u64 of the header — the one field the
#: no-overwrite system ever rewrites on a stored image.
_XMAX = struct.Struct("<Q")
XMAX_OFFSET = 8


class TID(NamedTuple):
    """Tuple identifier: (block number, slot) within a relation file —
    a tuple, so building, hashing and ordering one runs in C."""

    blockno: int
    slot: int

    def __repr__(self) -> str:
        return f"({self.blockno},{self.slot})"


@dataclass
class HeapTuple:
    """A decoded tuple version."""

    xmin: int
    xmax: int
    oid: int
    values: tuple
    tid: TID | None = None


def serialize_tuple(schema: Schema, xmin: int, oid: int,
                    values: tuple, xmax: int = INVALID_XID) -> bytes:
    """Header + record bytes for a new tuple version."""
    return schema.encode(values, _HEADER.pack(xmin, xmax, oid, 0,
                                              len(values)))


@functools.cache
def _version_layout(prefix: str) -> tuple:
    """``(unpack_from, size)`` of the one ``struct`` that reads a stored
    version's header and its record *prefix* (:attr:`Schema.layout`) —
    one entry per prefix shape, a handful for any catalog."""
    version = struct.Struct("<" + _HEADER.format[1:] + prefix)
    return version.unpack_from, version.size


def deserialize_tuple(schema: Schema, data,
                      tid: TID | None = None) -> HeapTuple:
    """Decode an on-page tuple image.

    *data* may be ``bytes`` or a ``memoryview`` into a page buffer; the
    record body is decoded without copying it first (the decoded values
    own their storage, so the result never aliases the page).

    When the schema's layout finishes its records, an image whose counts
    and length words are what a record with no NULL holds, and which ends
    where its last value does, decodes in one ``struct`` call; any other
    image runs :meth:`Schema.decode`, so values and errors are its own.
    """
    layout = schema.layout
    if layout is not None:
        prefix, lengths, build = layout
        unpack, size = _version_layout(prefix)
        extra = len(data) - size        # the bytes of the value after it
        if extra >= 0:
            fields = unpack(data)
            # fields: xmin, xmax, oid, flags, natts, record natts, then
            # each fixed value's length word and value, then the last
            # value's length word when there is one.
            if fields[4:-1:2] == lengths and fields[5] == lengths[0]:
                if build is None:
                    if not extra:
                        return HeapTuple(fields[0], fields[1], fields[2],
                                         fields[7::2], tid)
                elif fields[-1] == extra:
                    return HeapTuple(fields[0], fields[1], fields[2],
                                     (*fields[7::2], build(data[size:])),
                                     tid)
    if len(data) < TUPLE_HEADER_SIZE:
        raise SchemaError(
            f"tuple image of {len(data)} bytes is shorter than the header")
    xmin, xmax, oid, _flags, natts = _HEADER.unpack_from(data, 0)
    if natts != len(schema):
        raise SchemaError(
            f"tuple has {natts} attributes, schema expects {len(schema)}")
    return HeapTuple(xmin, xmax, oid, schema.decode(data, TUPLE_HEADER_SIZE),
                     tid)


#: ``read_stamps(image) -> (xmin, xmax, oid)``: the stamps of an on-page
#: image (``bytes`` or a ``memoryview``) without decoding the record body
#: — one C call.
read_stamps = struct.Struct("<QQQ").unpack_from


def xmax_patch(xmax: int) -> bytes:
    """The 8-byte header patch that stamps *xmax* on a stored image.

    Written at :data:`XMAX_OFFSET` via ``SlottedPage.patch_item`` by
    ``HeapRelation.delete`` — the one mutation the no-overwrite system
    makes to a stored version, marking it superseded.
    """
    return _XMAX.pack(xmax)

