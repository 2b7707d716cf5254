"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch one base class.  Subsystems raise the most specific
subclass that applies; error messages always name the object involved
(relation, large object OID, page number, ...) so failures are diagnosable
without a debugger.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class StorageError(ReproError):
    """Base class for storage-manager and page-level failures."""


class PageError(StorageError):
    """A slotted-page operation failed (bad slot, overflow, corruption)."""


class PageFullError(PageError):
    """There is not enough free space on a page for the requested item."""


class ChecksumError(StorageError):
    """A page read back from a device failed checksum verification."""


class StorageManagerError(StorageError):
    """A storage manager could not satisfy a block request."""


class SimulatedCrash(StorageError):
    """A scripted fault-injection plan reached a crash point.

    Raised by the crash-recovery harness (:mod:`repro.sim.faults`) to model
    the process dying mid-operation: whatever had reached stable storage is
    all a reopened database gets to see.  Recovery code must never catch
    this to "clean up" — a dead process runs no cleanup — so the
    transaction manager re-raises it untouched instead of aborting.
    """


class WriteOnceViolation(StorageManagerError):
    """An attempt was made to overwrite an already-written WORM block."""


class NodeDownError(StorageManagerError):
    """A storage node addressed by a block operation is marked down.

    Replicated managers catch this per replica and keep going as long as
    a quorum survives; single-node managers surface it like any other
    device error.
    """


class BufferError_(StorageError):
    """The buffer manager could not satisfy a request (pool exhausted...)."""


class RelationError(ReproError):
    """A heap/index relation operation failed."""


class RelationNotFound(RelationError):
    """The named relation does not exist in the catalog."""


class DuplicateRelation(RelationError):
    """A relation with the given name already exists."""


class TupleNotFound(RelationError):
    """The TID does not name a live tuple."""


class SchemaError(RelationError):
    """A tuple did not match its relation's schema."""


class TransactionError(ReproError):
    """Base class for transaction-manager failures."""


class NoActiveTransaction(TransactionError):
    """An operation that requires a transaction ran outside of one."""


class LockError(TransactionError):
    """A lock could not be acquired."""


class DeadlockError(LockError):
    """The transaction was chosen as the victim of a wait-for cycle.

    The holder of the exception **must abort** the transaction: the victim
    still holds the locks that close the cycle, and only
    :meth:`~repro.txn.manager.TransactionManager.abort` (which calls
    ``release_all``) lets the surviving transactions proceed.
    """


class LockOrderError(LockError):
    """The lockdep runtime validator observed a hierarchy violation.

    Raised *before* the offending acquisition blocks, so the caller's
    stack still shows exactly where the out-of-order acquire happened.
    The message carries both sides: the stack that took the already-held
    lock and the stack attempting the new one (see
    ``repro/txn/lockdep.py`` and docs/invariants.md, "Lock hierarchy").
    """


class TypeError_(ReproError):
    """Base class for ADT-system failures."""


class UnknownType(TypeError_):
    """The named type is not registered."""


class UnknownFunction(TypeError_):
    """The named function/operator is not registered for these arg types."""


class CastError(TypeError_):
    """A value could not be converted to the requested type."""


class LargeObjectError(ReproError):
    """Base class for large-object failures."""


class LargeObjectNotFound(LargeObjectError):
    """The large object OID/designator does not exist."""


class InvalidSeek(LargeObjectError):
    """A seek addressed a negative offset or used a bad whence."""


class ObjectClosedError(LargeObjectError):
    """I/O was attempted on a closed large-object descriptor."""


class ReadOnlyObject(LargeObjectError):
    """A write was attempted on an object opened read-only (or WORM data)."""


class CompressionError(ReproError):
    """A compressor failed to round-trip data."""


class InversionError(ReproError):
    """Base class for Inversion file-system failures."""


class FileNotFound(InversionError):
    """The Inversion path does not exist."""


class FileExists(InversionError):
    """The Inversion path already exists."""


class NotADirectory(InversionError):
    """A path component that must be a directory is a plain file."""


class DirectoryNotEmpty(InversionError):
    """rmdir was called on a non-empty directory."""


class DirectoryLoop(InversionError):
    """rename would move a directory into its own subtree.

    Committing such a rename detaches the subtree from the root — the
    directory becomes its own ancestor and nothing under it is reachable
    any more (POSIX rename reports ``EINVAL`` for the same request).
    """


class QueryError(ReproError):
    """Base class for query-language failures."""


class ParseError(QueryError):
    """The query text could not be parsed."""

    def __init__(self, message: str, line: int = 1, column: int = 0):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class ExecutionError(QueryError):
    """The query failed during execution."""
