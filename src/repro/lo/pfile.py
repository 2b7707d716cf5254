"""Implementation 2: POSTGRES file as an ADT (§6.2).

    retrieve (result = newfilename())
    append EMP (name = "Joe", picture = result)

Identical to u-file except that the DBMS allocates and owns the file, so
the underlying native file "is updatable by a single user" — the manager
enforces the DBMS-owned namespace and grants one writer at a time.
Still non-transactional: writes are immediate, like u-file.
"""

from __future__ import annotations

from repro.errors import LargeObjectError
from repro.lo.nativefs import NativeFileSystem
from repro.lo.ufile import UserFileObject

#: Namespace prefix for DBMS-owned files.
PFILE_PREFIX = "pg_pfiles/"


def is_pfile(designator: str) -> bool:
    """Whether a designator names a DBMS-owned (p-file) object."""
    return designator.startswith(PFILE_PREFIX)


class PostgresFileObject(UserFileObject):
    """A large object in a DBMS-owned native file: a u-file whose path
    the manager allocates, with one writer at a time."""

    impl = "pfile"

    def __init__(self, fs: NativeFileSystem, path: str, writable: bool,
                 writers: set[str], create: bool = False):
        if not is_pfile(path):
            raise LargeObjectError(
                f"{path!r} is not in the DBMS-owned namespace "
                f"{PFILE_PREFIX!r}")
        super().__init__(fs, path, writable, create)
        self._writers = writers
        if writable:
            if path in writers:
                raise LargeObjectError(
                    f"p-file {path!r} already has a writer "
                    f"(single-writer rule)")
            writers.add(path)

    def _close(self) -> None:
        if self.writable:
            self._writers.discard(self.designator)
