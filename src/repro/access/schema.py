"""Relation schemas and attribute type codecs.

A :class:`Schema` is an ordered list of :class:`Attribute`\\ s.  Each
attribute has a type drawn from the built-in scalar types below; large ADTs
are *not* stored inline — a large-object column is declared with the large
type's name and stores the object's **designator** (an ``oid`` for f-chunk
and v-segment objects, a file path for u-file and p-file objects), which the
ADT layer resolves.  That indirection is the heart of the paper's design:
tuples stay small, objects can be gigabytes.

Scalar values are serialized with a simple length-prefixed format that is
byte-for-byte stable across runs (tests depend on that for checksums).
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from itertools import chain, takewhile
from types import FunctionType
from typing import Any, Callable

from repro.errors import SchemaError

_I32 = struct.Struct("<i")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")
_BOOL = struct.Struct("<?")


@dataclass(frozen=True)
class TypeCodec:
    """Encode/decode one scalar type to/from bytes.  ``layout`` is how a
    payload decodes: a one-field ``struct`` (fixed width) or a callable."""

    name: str
    encode: Callable[[Any], bytes]
    layout: "struct.Struct | Callable[[Any], Any]"
    python_types: tuple[type, ...]

    def check(self, value: Any) -> None:
        if not isinstance(value, self.python_types):
            raise SchemaError(
                f"value {value!r} is not valid for type {self.name} "
                f"(expected {', '.join(t.__name__ for t in self.python_types)})")

    def decode(self, payload) -> Any:
        """One stored value from its payload (no length word)."""
        layout = self.layout
        return (layout.unpack(payload)[0]
                if isinstance(layout, struct.Struct) else layout(payload))


def _encode_int4(value: int) -> bytes:
    try:
        return _I32.pack(value)
    except struct.error as exc:
        raise SchemaError(f"int4 out of range: {value}") from exc


def _encode_int8(value: int) -> bytes:
    try:
        return _I64.pack(value)
    except struct.error as exc:
        raise SchemaError(f"int8 out of range: {value}") from exc


def _encode_text(value: str) -> bytes:
    return value.encode("utf-8")


#: Built-in scalar types.  ``oid`` and ``name`` are POSTGRES-flavoured
#: aliases with their historical meanings.
SCALAR_TYPES: dict[str, TypeCodec] = {}


def _register(codec: TypeCodec) -> None:
    SCALAR_TYPES[codec.name] = codec


# str(b, encoding="utf-8") decodes bytes and memoryview alike; bytes.decode
# would reject the zero-copy views the page layer hands out.
_UTF8 = functools.partial(str, encoding="utf-8")

_register(TypeCodec("int4", _encode_int4, _I32, (int,)))
_register(TypeCodec("int8", _encode_int8, _I64, (int,)))
_register(TypeCodec("oid", _encode_int8, _I64, (int,)))
_register(TypeCodec("float8", lambda v: _F64.pack(float(v)), _F64,
                    (int, float)))
_register(TypeCodec("bool", lambda v: b"\x01" if v else b"\x00", _BOOL,
                    (bool,)))
_register(TypeCodec("text", _encode_text, _UTF8, (str,)))
_register(TypeCodec("name", _encode_text, _UTF8, (str,)))
_register(TypeCodec("bytea", bytes, bytes, (bytes, bytearray, memoryview)))


def scalar_codec(type_name: str) -> TypeCodec:
    """The codec for a built-in scalar type name."""
    codec = SCALAR_TYPES.get(type_name)
    if codec is None:
        raise SchemaError(f"unknown scalar type {type_name!r} "
                          f"(have: {sorted(SCALAR_TYPES)})")
    return codec


@dataclass(frozen=True)
class Attribute:
    """One column: a name and a type.

    ``type_name`` may be a scalar type or a registered (large) ADT name;
    non-scalar attributes store their *designator type* on disk, declared
    via ``storage_type`` ("oid" for chunked objects, "text" for file
    paths).
    """

    name: str
    type_name: str
    storage_type: str = ""

    def codec(self) -> TypeCodec:
        return scalar_codec(self.storage_type or self.type_name)


def _decode_late(attr: Attribute, payload) -> Any:
    """A value of a type that is no scalar: rejected when decoded."""
    return attr.codec().decode(payload)


def _fixed_width(codec: TypeCodec | None) -> bool:
    """Whether a value of *codec* is one ``struct`` field of fixed width."""
    return codec is not None and isinstance(codec.layout, struct.Struct)


def _decode_step(attr: Attribute, codec: TypeCodec | None) -> tuple:
    """One attribute's step of a :class:`Schema`'s compiled decoder:
    ``(unpack_from, width, build)`` — a fixed-width type reads its length
    word and value in one ``struct`` call, any other builds its value from
    the payload."""
    if _fixed_width(codec):
        return (struct.Struct("<I" + codec.layout.format[-1]).unpack_from,
                codec.layout.size, None)
    return (None, None, codec.layout if codec is not None
            else functools.partial(_decode_late, attr))


def _record_layout(codecs: list, steps: tuple) -> tuple | None:
    """The record prefix as one ``struct`` format (no byte order): natts,
    each leading fixed-width attribute's length word and value, then the
    next length word.  ``(format, lengths, build)`` when at most one value
    follows the prefix, which *build* makes from the bytes after it
    (``None``: the prefix is the whole record); *lengths* is natts, then
    each fixed width: what the prefix's count and length words hold when
    no value is NULL.  ``None`` when more attributes follow."""
    fixed = [codec.layout for codec in takewhile(_fixed_width, codecs)]
    if len(codecs) > len(fixed) + 1:
        return None
    fmt = "H" + "".join("I" + layout.format[-1] for layout in fixed)
    build = None
    if len(codecs) > len(fixed):
        fmt, build = fmt + "I", steps[-1][2]
    return fmt, (len(codecs), *(layout.size for layout in fixed)), build


class Schema:
    """Ordered attribute list with record (de)serialization.

    Record wire format: ``natts(u16)`` then, per attribute,
    ``length(u32)`` + payload, with length ``0xFFFFFFFF`` denoting NULL.
    """

    _LEN = struct.Struct("<I")
    _NATTS = struct.Struct("<H")
    _NULL = 0xFFFFFFFF

    def __init__(self, attributes: list[Attribute]):
        if not attributes:
            raise SchemaError("a schema needs at least one attribute")
        names = [attr.name for attr in attributes]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in {names}")
        self.attributes = list(attributes)
        self._index = {attr.name: i for i, attr in enumerate(attributes)}
        # Each attribute's codec, resolved once; None for a type that is no
        # scalar, whose use raises (through attr.codec()), not its schema.
        self._codecs = [SCALAR_TYPES.get(attr.storage_type or attr.type_name)
                        for attr in self.attributes]
        self._steps = tuple(map(_decode_step, self.attributes, self._codecs))
        self._encoders = tuple(map(_encode_step, self.attributes,
                                   self._codecs))
        self._natts = self._NATTS.pack(len(attributes))
        self.layout = _record_layout(self._codecs, self._steps)

    def __len__(self) -> int:
        return len(self.attributes)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Schema)
                and self.attributes == other.attributes)

    def names(self) -> list[str]:
        return [attr.name for attr in self.attributes]

    def position(self, name: str) -> int:
        """Index of attribute *name*."""
        if name not in self._index:
            raise SchemaError(
                f"no attribute {name!r} (have: {self.names()})")
        return self._index[name]

    def attribute(self, name: str) -> Attribute:
        return self.attributes[self.position(name)]

    # -- record serialization ----------------------------------------------------

    def encode(self, values: tuple, header: bytes = b"") -> bytes:
        """Serialize one record after *header* (a tuple header: one join
        builds the image).  ``None`` encodes as NULL."""
        if len(values) != len(self._encoders):
            raise SchemaError(
                f"record has {len(values)} values for "
                f"{len(self.attributes)} attributes")
        return b"".join(chain((header, self._natts),
                              *map(_call, self._encoders, values)))

    def decode(self, data, pos: int = 0) -> tuple:
        """Deserialize one record produced by :meth:`encode`, starting at
        byte *pos* of *data*.

        Accepts ``bytes``, ``bytearray``, or a ``memoryview`` into a page
        buffer — the zero-copy read path decodes straight from the pool.
        Variable-length values (text, bytea) are materialized as owned
        objects, so the returned tuple never aliases the page.
        """
        null = self._NULL
        unpack_len = self._LEN.unpack_from
        data_len = len(data)
        values: list = []
        append = values.append
        try:
            (natts,) = self._NATTS.unpack_from(data, pos)
            if natts != len(self._steps):
                raise SchemaError(f"record has {natts} attributes, schema "
                                  f"has {len(self._steps)}")
            pos += 2
            for unpack, width, build in self._steps:
                if unpack is not None:
                    try:
                        length, value = unpack(data, pos)
                    except struct.error:   # a NULL in the last bytes?
                        (length,) = unpack_len(data, pos)
                        width = None   # the value is cut off: only a NULL fits
                    pos += 4
                    if length == width:
                        append(value)
                        pos += width
                        continue
                else:
                    (length,) = unpack_len(data, pos)
                    pos += 4
                    if length != null and pos + length <= data_len:
                        append(build(data[pos:pos + length]))
                        pos += length
                        continue
                if length != null:
                    raise SchemaError(
                        f"truncated record or a {length}-byte value of "
                        f"{self.attributes[len(values)].name!r}")
                append(None)
        except struct.error:
            raise SchemaError(
                f"truncated record while decoding "
                f"{self.attributes[len(values)].name!r}") from None
        return tuple(values)

    # -- catalog persistence -----------------------------------------------------

    def to_dict(self) -> list[dict[str, str]]:
        """JSON-friendly form for the catalog journal."""
        return [{"name": a.name, "type": a.type_name,
                 "storage": a.storage_type}
                for a in self.attributes]

    @classmethod
    def from_dict(cls, data: list[dict[str, str]]) -> "Schema":
        return cls([Attribute(d["name"], d["type"], d.get("storage", ""))
                    for d in data])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{a.name}={a.type_name}" for a in self.attributes)
        return f"Schema({cols})"


_NULL_PARTS = (Schema._LEN.pack(Schema._NULL),)


def _encode_step(attr: Attribute, codec: TypeCodec | None) -> Callable:
    """One attribute's step of a :class:`Schema`'s compiled encoder:
    ``step(value)`` is the value's parts — the NULL word, or the length
    word and payload (one ``struct`` call for a fixed-width type) after
    the checks the codec makes."""
    if _fixed_width(codec):
        accepted, width = codec.python_types, codec.layout.size
        pack = struct.Struct("<I" + codec.layout.format[-1]).pack

        def step(value):
            if value is None:
                return _NULL_PARTS
            if not isinstance(value, accepted):
                codec.check(value)
            try:
                return (pack(width, value),)
            except struct.error:
                codec.encode(value)     # raises the codec's own error
                raise
        return step

    def step(value):
        if value is None:
            return _NULL_PARTS
        checked = codec or attr.codec()     # raises for a type no scalar
        checked.check(value)
        payload = checked.encode(value)
        if len(payload) >= Schema._NULL:
            raise SchemaError(
                f"attribute {attr.name!r} value too large "
                f"({len(payload)} bytes)")
        return Schema._LEN.pack(len(payload)), payload
    return step


#: ``_call(step, value)`` is ``step(value)``, called from C by ``map``.
_call = FunctionType.__call__
