"""System catalogs: relations, indexes, large objects, and persistence."""

from repro.catalog.catalog import (
    Catalog,
    IndexEntry,
    LargeObjectEntry,
    RelationEntry,
)

__all__ = [
    "Catalog",
    "RelationEntry",
    "IndexEntry",
    "LargeObjectEntry",
]
