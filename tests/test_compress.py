"""Unit and property tests for the compression layer."""

import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compress import (
    ByteRunCompressor,
    CostedCompressor,
    NullCompressor,
    ZeroRunCompressor,
    ZlibCompressor,
    available_compressors,
    get_compressor,
)
from repro.errors import CompressionError
from repro.sim import CpuModel, SimClock

ALL = [NullCompressor, ZeroRunCompressor, ByteRunCompressor, ZlibCompressor]


@pytest.mark.parametrize("cls", ALL)
class TestRoundtrip:
    def test_empty(self, cls):
        compressor = cls()
        assert compressor.decompress(compressor.compress(b"")) == b""

    def test_plain_text(self, cls):
        compressor = cls()
        data = b"the quick brown fox jumps over the lazy dog" * 10
        assert compressor.decompress(compressor.compress(data)) == data

    def test_all_zeros(self, cls):
        compressor = cls()
        data = bytes(10_000)
        assert compressor.decompress(compressor.compress(data)) == data

    def test_incompressible(self, cls):
        import random
        rng = random.Random(42)
        data = bytes(rng.randrange(256) for _ in range(4096))
        compressor = cls()
        image = compressor.compress(data)
        assert compressor.decompress(image) == data
        # Fallback bound: at most one header byte of expansion.
        assert len(image) <= len(data) + 1

    def test_verify_roundtrip_helper(self, cls):
        """A short repetitive input survives the round trip."""
        compressor = cls()
        data = b"sanity" * 100
        assert compressor.decompress(compressor.compress(data)) == data


class TestZeroRun:
    def test_zeros_compress_well(self):
        compressor = ZeroRunCompressor()
        data = b"header" + bytes(8000) + b"trailer"
        image = compressor.compress(data)
        assert len(image) < 100

    def test_ratio_tracks_zero_fraction(self):
        compressor = ZeroRunCompressor()
        for fraction in (0.3, 0.5, 0.7):
            n = 4096
            zeros = int(n * fraction)
            data = b"\xa7" * (n - zeros) + bytes(zeros)
            image = compressor.compress(data)
            achieved = 1 - len(image) / n
            assert abs(achieved - fraction) < 0.02

    def test_short_zero_runs_left_alone(self):
        compressor = ZeroRunCompressor()
        data = (b"ab\x00\x00cd" * 100)
        assert compressor.decompress(compressor.compress(data)) == data

    def test_corrupt_image_rejected(self):
        compressor = ZeroRunCompressor()
        with pytest.raises(CompressionError):
            compressor.decompress(b"")
        with pytest.raises(CompressionError):
            compressor.decompress(b"\x07junk")
        image = compressor.compress(bytes(1000))
        with pytest.raises(CompressionError):
            compressor.decompress(image[:1] + b"X" + image[2:])


class TestByteRun:
    def test_long_runs(self):
        compressor = ByteRunCompressor()
        data = b"\xff" * 1000 + b"\x01" * 300
        image = compressor.compress(data)
        assert len(image) < 30
        assert compressor.decompress(image) == data

    def test_odd_body_rejected(self):
        with pytest.raises(CompressionError):
            ByteRunCompressor().decompress(b"\x01\x02")


class TestZlib:
    def test_bad_level(self):
        with pytest.raises(CompressionError):
            ZlibCompressor(level=0)

    def test_corrupt_deflate_rejected(self):
        with pytest.raises(CompressionError):
            ZlibCompressor().decompress(b"\x02notdeflate")


class TestCosted:
    def test_charges_clock(self):
        clock = SimClock()
        compressor = CostedCompressor(ZeroRunCompressor(), 8.0,
                                      CpuModel(mips=1.0), clock)
        compressor.compress(bytes(1_000_000))
        assert clock.elapsed_in("cpu") == pytest.approx(8.0)

    def test_decompress_charges_by_output(self):
        clock = SimClock()
        compressor = CostedCompressor(ZeroRunCompressor(), 10.0,
                                      CpuModel(mips=1.0), clock)
        image = compressor.compress(bytes(500_000))
        snap = clock.snapshot()
        compressor.decompress(image)
        assert snap.since(clock).by_category["cpu"] == pytest.approx(5.0)

    def test_counters(self):
        clock = SimClock()
        compressor = CostedCompressor(NullCompressor(), 1.0,
                                      CpuModel(), clock)
        compressor.compress(b"x" * 100)
        compressor.decompress(b"y" * 40)
        assert compressor.bytes_compressed == 100
        assert compressor.bytes_decompressed == 40

    def test_still_lossless(self):
        clock = SimClock()
        compressor = CostedCompressor(ZlibCompressor(), 20.0,
                                      CpuModel(), clock)
        data = b"payload" * 500
        assert compressor.decompress(compressor.compress(data)) == data


class TestRegistry:
    def test_builtins_available(self):
        names = available_compressors()
        for expected in ("none", "zero-rle", "byte-rle", "zlib"):
            assert expected in names

    def test_get(self):
        assert get_compressor("zero-rle").name == "zero-rle"

    def test_unknown(self):
        with pytest.raises(CompressionError):
            get_compressor("zstd-nope")

    def test_custom_registration(self):
        from repro.compress import register_compressor

        class Rot13(NullCompressor):
            name = "rot13ish"

            def compress(self, data):
                return bytes((b + 13) % 256 for b in data)

            def decompress(self, data):
                return bytes((b - 13) % 256 for b in data)

        register_compressor("rot13ish", Rot13)
        compressor = get_compressor("rot13ish")
        assert compressor.decompress(compressor.compress(b"abc")) == b"abc"


@pytest.mark.parametrize("cls", ALL)
@settings(max_examples=40)
@given(data=st.binary(max_size=5000))
def test_property_roundtrip(cls, data):
    compressor = cls()
    assert compressor.decompress(compressor.compress(data)) == data


def _zero_rle_reference(data: bytes) -> bytes:
    """The image format, written as the byte-at-a-time loop
    ``ZeroRunCompressor.compress`` used before its run-end search moved
    to a compiled pattern: stored images must not change."""
    parts, packed, pos, n = [b"\x01"], 1, 0, len(data)
    while pos < n:
        hit = data.find(bytes(16), pos)
        if hit < 0:
            hit = n
        if hit > pos:
            parts.append(b"L" + struct.pack("<I", hit - pos) + data[pos:hit])
            packed += 5 + hit - pos
            pos = hit
        if pos >= n:
            break
        run_end = pos
        while run_end < n and data[run_end] == 0:
            run_end += 1
        parts.append(b"Z" + struct.pack("<I", run_end - pos))
        packed += 5
        pos = run_end
    return b"\x00" + data if packed >= n + 1 else b"".join(parts)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.booleans(), st.integers(1, 300)),
                max_size=30))
@example([])                                        # empty
@example([(True, 4000)])                            # all zero
@example([(True, 16), (False, 1), (True, 16)])      # runs at both ends
@example([(False, 3), (True, 15), (False, 3)])      # run below the minimum
def test_property_zero_run_structured(spans):
    """Alternating literal/zero spans of random lengths round-trip, to
    the byte-identical image of the reference loop."""
    data = b"".join(bytes(n) if zero else b"\x5a" * n for zero, n in spans)
    compressor = ZeroRunCompressor()
    image = compressor.compress(data)
    assert image == _zero_rle_reference(data)
    assert compressor.decompress(image) == data


class _FlakyCompressor(NullCompressor):
    """Fails the first call in each direction, succeeds on retry."""

    name = "flaky"

    def __init__(self):
        self.compress_calls = 0
        self.decompress_calls = 0

    def compress(self, data):
        self.compress_calls += 1
        if self.compress_calls == 1:
            raise CompressionError("transient failure")
        return super().compress(data)

    def decompress(self, data):
        self.decompress_calls += 1
        if self.decompress_calls == 1:
            raise CompressionError("transient failure")
        return super().decompress(data)


class TestCostedRetry:
    """A failing inner codec must not leave simulated cost behind —
    retrying after the failure would bill the same bytes twice."""

    def test_failed_compress_charges_nothing(self):
        clock = SimClock()
        costed = CostedCompressor(_FlakyCompressor(), 8.0,
                                  CpuModel(mips=1.0), clock)
        data = bytes(1_000_000)
        with pytest.raises(CompressionError):
            costed.compress(data)
        assert clock.elapsed_in("cpu") == 0.0
        assert costed.bytes_compressed == 0
        # The retry succeeds and is billed exactly once.
        costed.compress(data)
        assert clock.elapsed_in("cpu") == pytest.approx(8.0)
        assert costed.bytes_compressed == len(data)

    def test_failed_decompress_charges_nothing(self):
        clock = SimClock()
        costed = CostedCompressor(_FlakyCompressor(), 10.0,
                                  CpuModel(mips=1.0), clock)
        image = bytes(500_000)
        with pytest.raises(CompressionError):
            costed.decompress(image)
        assert clock.elapsed_in("cpu") == 0.0
        assert costed.bytes_decompressed == 0
        costed.decompress(image)
        assert clock.elapsed_in("cpu") == pytest.approx(5.0)
        assert costed.bytes_decompressed == len(image)


class TestFastCompressor:
    def make(self):
        from repro.compress import FastCompressor
        return FastCompressor()

    @pytest.mark.parametrize("data", [
        b"", b"a", bytes(10_000), b"ab" * 5_000,
        bytes(range(256)) * 64,  # incompressible-ish
    ])
    def test_roundtrip(self, data):
        compressor = self.make()
        assert compressor.decompress(compressor.compress(data)) == data

    @given(st.binary(max_size=5_000))
    @settings(max_examples=50)
    def test_roundtrip_property(self, data):
        compressor = self.make()
        assert compressor.decompress(compressor.compress(data)) == data

    def test_never_expands_past_header(self):
        compressor = self.make()
        data = bytes(range(256))
        assert len(compressor.compress(data)) <= len(data) + 1

    def test_empty_image_rejected(self):
        with pytest.raises(CompressionError):
            self.make().decompress(b"")

    def test_bad_method_byte_rejected(self):
        with pytest.raises(CompressionError):
            self.make().decompress(b"\x7fjunk")

    def test_foreign_codec_image_rejected_without_lz4(self):
        from repro.compress import lz4_available
        if lz4_available():
            pytest.skip("real lz4 present: the method byte is decodable")
        with pytest.raises(CompressionError):
            self.make().decompress(b"\x03pretend-lz4-payload")

    def test_registered_with_level_variants(self):
        names = available_compressors()
        for expected in ("lz4", "zlib-fast", "zlib-best"):
            assert expected in names
        fast = get_compressor("zlib-fast")
        best = get_compressor("zlib-best")
        assert (fast.level, best.level) == (1, 9)

    def test_costed_wrapping(self):
        clock = SimClock()
        costed = CostedCompressor(self.make(), 8.0,
                                  CpuModel(mips=1.0), clock)
        data = bytes(100_000)
        assert costed.decompress(costed.compress(data)) == data
        assert clock.elapsed_in("cpu") == pytest.approx(1.6)
