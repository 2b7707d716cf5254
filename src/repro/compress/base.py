"""Compressor protocol and registry.

A compressor maps arbitrary bytes to a self-describing compressed image and
back.  Implementations must be **total**: any input round-trips, even
incompressible data (store-raw fallback), because chunk contents are
user-controlled.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.errors import CompressionError


class Compressor(ABC):
    """Lossless byte transformer attached to a large type."""

    #: Registry name.
    name: str = "abstract"

    @abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compressed image of *data* (never larger than ``len(data)+8``)."""

    @abstractmethod
    def decompress(self, data: bytes) -> bytes:
        """Original bytes for an image produced by :meth:`compress`."""


_REGISTRY: dict[str, Callable[[], Compressor]] = {}


def register_compressor(name: str,
                        factory: Callable[[], Compressor]) -> None:
    """Register a compressor construction routine under *name*."""
    _REGISTRY[name] = factory


def get_compressor(name: str) -> Compressor:
    """Instantiate the compressor registered as *name*."""
    factory = _REGISTRY.get(name)
    if factory is None:
        raise CompressionError(
            f"no compressor registered under {name!r} "
            f"(have: {sorted(_REGISTRY)})")
    return factory()


def available_compressors() -> list[str]:
    """Names of all registered compressors, sorted."""
    return sorted(_REGISTRY)
