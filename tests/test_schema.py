"""Unit and property tests for schemas and the record codec."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.access.schema import Attribute, Schema, scalar_codec
from repro.errors import SchemaError


def emp_schema():
    return Schema([
        Attribute("name", "text"),
        Attribute("salary", "float8"),
        Attribute("age", "int4"),
        Attribute("photo", "bytea"),
    ])


class TestSchemaBasics:
    def test_names_and_positions(self):
        schema = emp_schema()
        assert schema.names() == ["name", "salary", "age", "photo"]
        assert schema.position("age") == 2

    def test_unknown_attribute(self):
        with pytest.raises(SchemaError):
            emp_schema().position("nope")

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Attribute("a", "int4"), Attribute("a", "text")])

    def test_empty_schema_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_unknown_type_rejected(self):
        schema = Schema([Attribute("x", "imaginary")])
        with pytest.raises(SchemaError):
            schema.encode(("v",))

    def test_storage_type_override(self):
        attr = Attribute("picture", "image", storage_type="oid")
        assert attr.codec().name == "oid"


class TestRecordCodec:
    def test_roundtrip(self):
        schema = emp_schema()
        record = ("Joe", 50_000.0, 42, b"\x89PNG...")
        assert schema.decode(schema.encode(record)) == record

    def test_nulls(self):
        schema = emp_schema()
        record = ("Joe", None, None, b"")
        assert schema.decode(schema.encode(record)) == record

    def test_wrong_arity_rejected(self):
        with pytest.raises(SchemaError):
            emp_schema().encode(("Joe", 1.0))

    def test_type_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            emp_schema().encode((42, 1.0, 1, b""))

    def test_int4_range_checked(self):
        schema = Schema([Attribute("x", "int4")])
        with pytest.raises(SchemaError):
            schema.encode((2**40,))

    def test_int8_roundtrip_large(self):
        schema = Schema([Attribute("x", "int8")])
        assert schema.decode(schema.encode((2**62,))) == (2**62,)

    def test_bool(self):
        schema = Schema([Attribute("x", "bool")])
        assert schema.decode(schema.encode((True,))) == (True,)
        assert schema.decode(schema.encode((False,))) == (False,)

    def test_unicode_text(self):
        schema = Schema([Attribute("x", "text")])
        value = ("naïve — ünïcodé ✓",)
        assert schema.decode(schema.encode(value)) == value

    def test_truncated_record_rejected(self):
        schema = emp_schema()
        data = schema.encode(("Joe", 1.0, 2, b"abc"))
        with pytest.raises(SchemaError):
            schema.decode(data[:-2])

    def test_arity_mismatch_on_decode(self):
        one = Schema([Attribute("x", "int4")])
        two = Schema([Attribute("x", "int4"), Attribute("y", "int4")])
        with pytest.raises(SchemaError):
            two.decode(one.encode((1,)))

    def test_catalog_roundtrip(self):
        schema = emp_schema()
        assert Schema.from_dict(schema.to_dict()) == schema


class TestScalarCodecs:
    @pytest.mark.parametrize("name,value", [
        ("int4", -2**31), ("int4", 2**31 - 1),
        ("int8", -2**63), ("int8", 2**63 - 1),
        ("oid", 123456789), ("float8", 3.14159),
        ("text", ""), ("text", "hello"),
        ("name", "EMP"), ("bytea", b"\x00\xff" * 10),
    ])
    def test_roundtrip(self, name, value):
        codec = scalar_codec(name)
        assert codec.decode(codec.encode(value)) == value

    def test_unknown_codec(self):
        with pytest.raises(SchemaError):
            scalar_codec("varchar2")


record_strategy = st.tuples(
    st.one_of(st.none(), st.text(max_size=50)),
    st.one_of(st.none(), st.floats(allow_nan=False)),
    st.one_of(st.none(), st.integers(-2**31, 2**31 - 1)),
    st.one_of(st.none(), st.binary(max_size=200)),
)


@given(record_strategy)
def test_property_record_roundtrip(record):
    schema = emp_schema()
    assert schema.decode(schema.encode(record)) == record


@given(st.lists(record_strategy, min_size=1, max_size=5))
def test_property_concatenation_safe(records):
    """Encoded records are self-delimiting enough to never cross-decode."""
    schema = emp_schema()
    for record in records:
        encoded = schema.encode(record)
        assert schema.decode(encoded) == record


# -- the record codec against the tuple serializer ----------------------------------

def wide_schema():
    return Schema([
        Attribute("a", "int4"),
        Attribute("b", "int8"),
        Attribute("c", "oid"),
        Attribute("d", "float8"),
        Attribute("e", "bool"),
        Attribute("f", "text"),
        Attribute("g", "name"),
        Attribute("h", "bytea"),
    ])


wide_record_strategy = st.tuples(
    st.one_of(st.none(), st.integers(-2**31, 2**31 - 1)),
    st.one_of(st.none(), st.integers(-2**63, 2**63 - 1)),
    st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    st.one_of(st.none(), st.floats(allow_nan=False)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), st.text(max_size=60)),
    st.one_of(st.none(), st.text(max_size=16)),
    st.one_of(st.none(), st.binary(max_size=300)),
)


class TestBatchCodecs:
    @given(st.lists(wide_record_strategy, min_size=1, max_size=6))
    def test_batch_agrees_with_tuple_serialization(self, records):
        """The record codec and serialize/deserialize_tuple round-trip
        through the same wire format, including via memoryviews."""
        from repro.access.tuples import (TID, deserialize_tuple,
                                         serialize_tuple)
        schema = wide_schema()
        for i, record in enumerate(records):
            image = serialize_tuple(schema, xmin=7, oid=100 + i,
                                    values=record)
            tup = deserialize_tuple(schema, memoryview(image), TID(0, i))
            assert tup.values == record
            # past the fixed tuple header
            assert tup.values == schema.decode(memoryview(image)[32:])


# -- the compiled decoder against the per-attribute loop it replaced ----------------

_TYPE_VALUES = {
    "int4": st.integers(-2**31, 2**31 - 1),
    "int8": st.integers(-2**63, 2**63 - 1),
    "oid": st.integers(0, 2**63 - 1),
    "float8": st.floats(allow_nan=False),
    "bool": st.booleans(),
    "text": st.text(max_size=20),
    "bytea": st.binary(max_size=40),
}


def _reference_decode(schema, data):
    """One length word, then one codec call, per attribute."""
    import struct
    (natts,) = struct.unpack_from("<H", data, 0)
    assert natts == len(schema)
    pos, values = 2, []
    for attr in schema.attributes:
        (length,) = struct.unpack_from("<I", data, pos)
        pos += 4
        if length == 0xFFFFFFFF:
            values.append(None)
            continue
        values.append(attr.codec().decode(data[pos:pos + length]))
        pos += length
    return tuple(values)


@st.composite
def _schema_and_record(draw):
    types = draw(st.lists(st.sampled_from(sorted(_TYPE_VALUES)),
                          min_size=1, max_size=7))
    schema = Schema([Attribute(f"a{i}", t) for i, t in enumerate(types)])
    record = tuple(draw(st.one_of(st.none(), _TYPE_VALUES[t]))
                   for t in types)
    return schema, record


class TestCompiledDecoder:
    @given(_schema_and_record())
    def test_matches_the_per_attribute_loop(self, case):
        """Any mix of fixed- and variable-width attributes, NULLs
        anywhere (a NULL fixed-width value shifts everything after it),
        from bytes and from a view at an offset."""
        schema, record = case
        data = schema.encode(record)
        assert schema.decode(data) == record
        assert _reference_decode(schema, data) == record
        assert schema.decode(memoryview(b"\x00" * 5 + data), 5) == record

    @given(_schema_and_record())
    def test_every_strict_prefix_is_rejected(self, case):
        schema, record = case
        data = schema.encode(record)
        for cut in range(len(data)):
            with pytest.raises(SchemaError):
                schema.decode(data[:cut])

    @pytest.mark.parametrize("record", [(None, 7), (7, None), (None, None)])
    def test_null_fixed_width_values(self, record):
        schema = Schema([Attribute("a", "int8"), Attribute("b", "int4")])
        assert schema.decode(schema.encode(record)) == record

    def test_a_fixed_width_value_of_the_wrong_length_is_rejected(self):
        schema = Schema([Attribute("a", "int4"), Attribute("b", "text")])
        one = Schema([Attribute("a", "int8"), Attribute("b", "text")])
        with pytest.raises(SchemaError, match="8-byte value of 'a'"):
            schema.decode(one.encode((1, "x")))

    def test_unresolvable_type_fails_when_decoded(self):
        good = Schema([Attribute("x", "text")])
        schema = Schema([Attribute("x", "imaginary")])
        with pytest.raises(SchemaError, match="imaginary"):
            schema.decode(good.encode(("v",)))


def _reference_encode(schema, values):
    """The per-field loop the compiled encoder replaced: one check, one
    codec call and one length word per attribute."""
    import struct
    if len(values) != len(schema.attributes):
        raise SchemaError(f"record has {len(values)} values for "
                          f"{len(schema.attributes)} attributes")
    parts = [struct.pack("<H", len(values))]
    for attr, value in zip(schema.attributes, values):
        if value is None:
            parts.append(struct.pack("<I", 0xFFFFFFFF))
            continue
        codec = attr.codec()
        codec.check(value)
        payload = codec.encode(value)
        if len(payload) >= 0xFFFFFFFF:
            raise SchemaError(f"attribute {attr.name!r} value too large "
                              f"({len(payload)} bytes)")
        parts.append(struct.pack("<I", len(payload)))
        parts.append(payload)
    return b"".join(parts)


def _outcome(encode, *args):
    """The bytes *encode* returns, or the type and text of what it
    raises."""
    try:
        return encode(*args)
    except Exception as exc:
        return type(exc), str(exc)


#: Any value of any scalar type, of the wrong one, or out of range:
#: ``bool`` is an ``int`` (so an ``int4``), an int past 2**63 fits no
#: integer type and one past 2**1024 no ``float8``.
_ANY_VALUE = st.one_of(
    st.none(), st.booleans(),
    st.integers(-2**31, 2**31), st.integers(-2**64, 2**64),
    st.sampled_from([2**31, -2**31 - 1, 2**63, -2**63 - 1, 2**1100]),
    st.floats(), st.text(max_size=12), st.binary(max_size=24),
    st.builds(bytearray, st.binary(max_size=8)),
    st.builds(memoryview, st.binary(max_size=8)),
)


class TestCompiledEncoder:
    @given(types=st.lists(st.sampled_from(sorted(_TYPE_VALUES)
                                          + ["oid", "name", "imaginary"]),
                          min_size=1, max_size=6),
           data=st.data())
    def test_matches_the_per_field_loop(self, types, data):
        """Every scalar type (and one that is no scalar) against every
        kind of value: the same bytes, or the same error and text —
        arity first, then each attribute in order."""
        schema = Schema([Attribute(f"a{i}", t) for i, t in enumerate(types)])
        values = [data.draw(st.one_of(_ANY_VALUE,
                                      _TYPE_VALUES.get(t, st.none())))
                  for t in types]
        record = tuple(data.draw(st.sampled_from(
            [values, values, values[:-1], values + [None]])))
        expected = _outcome(_reference_encode, schema, record)
        assert _outcome(schema.encode, record) == expected
        if isinstance(expected, bytes):
            assert schema.encode(record, b"head") == b"head" + expected

    def test_the_tuple_image_is_its_header_and_record(self):
        from repro.access.tuples import serialize_tuple
        schema = emp_schema()
        record = ("Joe", 1.5, 30, b"\x00\x01")
        image = serialize_tuple(schema, 7, 9, record)
        assert image[32:] == _reference_encode(schema, record)
        assert len(image) == 32 + len(schema.encode(record))


# -- the one-struct version layout against the per-attribute loop ------------------

_FIXED = sorted(t for t in _TYPE_VALUES if t not in ("text", "bytea"))


@st.composite
def _version_case(draw):
    """A schema (mostly one the layout finishes: fixed-width attributes,
    then at most one of any type), a record with NULLs anywhere, and its
    stored image — intact or corrupted."""
    from repro.access.tuples import serialize_tuple
    if draw(st.integers(0, 3)):
        types = draw(st.lists(st.sampled_from(_FIXED), max_size=6))
        if not types or draw(st.booleans()):
            types.append(draw(st.sampled_from(sorted(_TYPE_VALUES))))
    else:
        types = draw(st.lists(st.sampled_from(sorted(_TYPE_VALUES)),
                              min_size=1, max_size=6))
    schema = Schema([Attribute(f"a{i}", t) for i, t in enumerate(types)])
    record = tuple(draw(st.one_of(st.none(), _TYPE_VALUES[t]))
                   if draw(st.integers(0, 4)) == 0
                   else draw(_TYPE_VALUES[t]) for t in types)
    image = bytearray(serialize_tuple(schema, draw(st.integers(1, 2**40)),
                                      draw(st.integers(0, 2**40)), record,
                                      xmax=draw(st.integers(0, 2**40))))
    # Where each length word sits: after the 32-byte header and natts.
    words, pos = [], 34
    for attr, value in zip(schema.attributes, record):
        words.append(pos)
        pos += 4 + (0 if value is None
                    else len(attr.codec().encode(value)))
    damage = draw(st.sampled_from(
        ["none", "none", "truncate", "natts", "record natts", "trailing",
         "length"]))
    if damage == "truncate":
        del image[draw(st.integers(0, len(image) - 1)):]
    elif damage in ("natts", "record natts"):
        at, fmt = (28, "<I") if damage == "natts" else (32, "<H")
        struct.pack_into(fmt, image, at,
                         draw(st.sampled_from([0, len(types) - 1,
                                               len(types) + 1])))
    elif damage == "trailing":
        image += draw(st.binary(min_size=1, max_size=9))
    elif damage == "length":
        at = draw(st.sampled_from(words))
        (length,) = struct.unpack_from("<I", image, at)
        struct.pack_into("<I", image, at,
                         (length + draw(st.sampled_from([1, -1]))) % 2**32)
    return schema, bytes(image)


def _decoded(schema, data):
    """``repr`` of what ``deserialize_tuple`` returns (NaN from damaged
    bytes compares equal this way), or the type and text it raises."""
    from repro.access.tuples import deserialize_tuple
    try:
        return repr(deserialize_tuple(schema, data))
    except Exception as exc:
        return type(exc), str(exc)


class TestVersionLayout:
    @given(_version_case())
    def test_matches_the_per_attribute_loop(self, case):
        """The same tuple, or the same error class and message, as the
        loop the layout bypasses — from bytes and from a page view."""
        schema, image = case
        loop = Schema(schema.attributes)
        loop.layout = None                      # the per-attribute loop
        expected = _decoded(loop, image)
        assert _decoded(schema, image) == expected
        assert _decoded(schema, memoryview(image)) == expected

    @pytest.mark.parametrize("types", [
        ["int4", "bytea"], ["int8", "int4", "int4", "int8"], ["text"],
        ["oid", "int4", "float8", "bool", "name"]])
    def test_an_intact_image_decodes_in_one_struct_call(self, types,
                                                        monkeypatch):
        from repro.access.tuples import deserialize_tuple, serialize_tuple
        schema = Schema([Attribute(f"a{i}", t) for i, t in enumerate(types)])
        values = {"int4": -5, "int8": 2**40, "oid": 9, "float8": 0.25,
                  "bool": True, "text": "héllo", "name": "n",
                  "bytea": b"\x00\xff"}
        record = tuple(values[t] for t in types)
        image = memoryview(serialize_tuple(schema, 3, 4, record, xmax=5))
        monkeypatch.setattr(Schema, "decode", None)      # no loop to run
        tup = deserialize_tuple(schema, image)
        assert (tup.xmin, tup.xmax, tup.oid, tup.values) == (3, 5, 4, record)

    def test_a_schema_the_layout_cannot_finish_has_none(self):
        # Inversion's directory class: a text value leads three more.
        schema = Schema([Attribute("file_name", "text"),
                         Attribute("file_id", "oid"),
                         Attribute("parent_file_id", "oid"),
                         Attribute("kind", "text")])
        assert schema.layout is None
        assert Schema([Attribute("a", "int4"), Attribute("b", "text"),
                       Attribute("c", "int4")]).layout is None
