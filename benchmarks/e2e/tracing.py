"""Spans at every layer boundary, recorded from outside the engine.

``Tracer`` replaces the public entry points of each layer (package under
``src/repro``) with wrappers that record one span per call: name, layer,
start, end, the span that caused it, and the harness operation it belongs
to.  Nothing under ``src/`` knows about it.  Spans stay in memory and are
written out when the replay is over.  A layer's self time is its spans'
duration minus what their child spans cover.

Two blind spots, both stated rather than papered over:

* every wrapper costs about a microsecond, charged to the span it records,
  so layers entered through many small calls (``storage``: ``pin`` and
  ``unpin``) read high.  ``trace.overhead_ratio`` says how much the whole
  run slowed;
* ``InversionFile`` reads through its inner object's ``_read_at``, never
  its public ``read``, so the ``lo`` boundary is drawn at the
  ``LargeObject`` protocol methods (``_read_at``/``_write_at``/
  ``_truncate``/``_size``) of the chunked implementations as well.
"""

from __future__ import annotations

import bisect
import contextlib
import json
import threading
import time

#: Layer = package under ``src/repro``.
LAYERS = ("server", "session", "txn", "lo", "inversion", "access",
          "storage", "smgr", "compress")
#: The operation classes every workload times and traces.
OP_CLASSES = ("read", "write", "commit")

# Span fields.
NAME, LAYER, START, END, PARENT, OP = range(6)

#: Operations whose spans go to the trace file.  Self times are computed
#: from every span; a viewer is for looking at a few transactions, and
#: the whole replay is tens of megabytes of JSON.
TRACE_FILE_OPS = 300


def _targets():
    """(class, layer, method names); abstract bases are expanded to every
    subclass that defines the method."""
    from repro.access.btree import BTree
    from repro.access.heap import HeapRelation
    from repro.access.scan import IndexProbe, IndexRangeScan
    from repro.compress.base import Compressor
    from repro.compress.null import NullCompressor
    from repro.inversion.file import InversionFile
    from repro.inversion.filesystem import InversionFileSystem
    from repro.lo.fchunk import FChunkObject
    from repro.lo.interface import LargeObject
    from repro.lo.manager import LargeObjectManager
    from repro.lo.vsegment import VSegmentObject
    from repro.server.client import ServerClient
    from repro.session import Session
    from repro.smgr.base import StorageManager
    from repro.storage.buffer import BufferManager
    from repro.txn.locks import LockManager
    from repro.txn.manager import TransactionManager
    from repro.txn.xlog import CommitLog

    def handle_layer(handle) -> str:
        return "inversion" if isinstance(handle, InversionFile) else "lo"

    def public(cls) -> list[str]:
        return [name for name, value in vars(cls).items()
                if callable(value) and not name.startswith("_")]

    def family(base, skip=()) -> list[type]:
        found, todo = [], [base]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls not in skip:
                found.append(cls)
        return found

    protocol = ["_read_at", "_write_at", "_truncate", "_size", "flush"]
    targets = [
        (ServerClient, "server", public(ServerClient)),
        (Session, "session", public(Session)),
        (TransactionManager, "txn", ["begin", "commit", "abort"]),
        (LockManager, "txn", ["acquire", "release_all"]),
        (CommitLog, "txn", ["set_committed"]),
        (LargeObjectManager, "lo", ["create", "open", "unlink"]),
        (LargeObject, handle_layer,
         ["read", "write", "seek", "truncate", "size", "close"]),
        (FChunkObject, "lo", protocol),
        (VSegmentObject, "lo", protocol),
        (InversionFileSystem, "inversion",
         ["create", "open", "unlink", "rename", "listdir", "stat", "mkdir"]),
        (BTree, "access", ["search", "range_scan", "insert"]),
        (HeapRelation, "access",
         ["insert", "replace", "delete", "fetch", "fetch_many"]),
        (IndexProbe, "access", ["tuples", "first"]),
        (IndexRangeScan, "access", ["tuples", "visible", "entries"]),
        (BufferManager, "storage",
         ["pin", "unpin", "allocate", "prefetch", "flush_file"]),
    ]
    for cls in family(StorageManager):
        targets.append((cls, "smgr", ["read_block", "write_block", "extend",
                                      "sync", "nblocks"]))
    # The null compressor is "no compression": counting its calls would
    # make every workload look like it compresses.
    for cls in family(Compressor, skip=(NullCompressor,)):
        targets.append((cls, "compress", ["compress", "decompress"]))
    return targets


class Tracer:
    """``with Tracer() as t:`` wraps the layer boundaries; spans are
    recorded only while ``t.active`` is true."""

    def __init__(self, always_active: bool = False):
        self.spans: list[list] = []
        self.active = always_active
        self.op = -1                     # harness operation in progress
        self.compress_raw = 0            # bytes handed to compress()
        self.compress_stored = 0         # bytes it returned
        self.wire_bytes = 0
        self._local = threading.local()
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        import repro.compress  # noqa: F401  (registers every compressor)
        import repro.db  # noqa: F401  (registers every storage manager)
        from repro.server import protocol
        for cls, layer, names in _targets():
            for name in names:
                original = vars(cls).get(name)
                if original is None or getattr(original, "__isabstractmethod__",
                                               False):
                    continue
                self._replace(cls, name, self._span_wrapper(
                    original, f"{cls.__name__}.{name}", layer))
        self._replace(protocol, "send_message",
                      self._wire_wrapper(protocol.send_message, sent=True))
        self._replace(protocol, "recv_message",
                      self._wire_wrapper(protocol.recv_message, sent=False))
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    @contextlib.contextmanager
    def recording(self):
        """Spans are recorded inside this block and nowhere else."""
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def _replace(self, owner, name: str, wrapper) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, original, name: str, layer):
        spans, local = self.spans, self._local
        count_bytes = name.endswith(".compress")
        fixed_layer = layer if isinstance(layer, str) else None

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            # The clock is read first and last, so the wrapper's own
            # bookkeeping is charged to the span it records, not to the
            # caller's self time.
            start = time.perf_counter()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [name, fixed_layer or layer(args[0]), start, 0.0,
                    stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = original(*args, **kwargs)
                if count_bytes:
                    self.compress_raw += len(args[1])
                    self.compress_stored += len(result)
                return result
            finally:
                stack.pop()
                span[END] = time.perf_counter()

        wrapper.__name__ = getattr(original, "__name__", name)
        wrapper.__doc__ = getattr(original, "__doc__", None)
        return wrapper

    def _wire_wrapper(self, original, sent: bool):
        """Count the bytes of every frame sent (or received)."""
        def frame_bytes(header: dict, body: bytes) -> int:
            return 8 + len(json.dumps(header, separators=(",", ":"))) + len(body)

        if sent:
            def wrapper(sock, header, body=b""):
                if self.active:
                    self.wire_bytes += frame_bytes(header, body)
                return original(sock, header, body)
        else:
            def wrapper(sock):
                header, body = original(sock)
                if self.active:
                    self.wire_bytes += frame_bytes(header, body)
                return header, body
        return wrapper

    # -- spans from another process -----------------------------------------

    def adopt(self, foreign: list[list]) -> None:
        """Merge spans recorded by the server child.

        ``perf_counter`` is the machine's monotonic clock, shared by both
        processes, so a child span belongs to the client call whose
        interval contains it; that call becomes its parent and hands down
        its operation id.
        """
        offset = len(self.spans)
        calls = sorted((s[START], s[END], i) for i, s in enumerate(self.spans)
                       if s[PARENT] < 0 and s[OP] >= 0)
        starts = [c[0] for c in calls]
        for span in foreign:
            if span[PARENT] >= 0:
                span[PARENT] += offset
                span[OP] = self.spans[span[PARENT]][OP]
            else:
                at = bisect.bisect_right(starts, span[START]) - 1
                if at >= 0 and calls[at][1] >= span[END]:
                    span[PARENT] = calls[at][2]
                    span[OP] = self.spans[span[PARENT]][OP]
            self.spans.append(span)

    # -- output --------------------------------------------------------------

    def write_chrome_trace(self, path: str, op_classes: list[str]) -> None:
        """Trace-event format: load in ``chrome://tracing`` or Perfetto.
        Holds the first ``TRACE_FILE_OPS`` operations of the replay."""
        events = []
        for index, span in enumerate(self.spans):
            if not 0 <= span[OP] < TRACE_FILE_OPS:
                continue
            events.append({
                "name": span[NAME], "cat": span[LAYER], "ph": "X",
                "ts": round(span[START] * 1e6, 3),
                "dur": round((span[END] - span[START]) * 1e6, 3),
                "pid": 1, "tid": 1,
                "args": {"id": index, "parent": span[PARENT],
                         "op": span[OP], "class": op_classes[span[OP]]},
            })
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)


def breakdown(spans: list[list], ops: list[tuple]) -> dict:
    """Per operation class: how many ran, how long they took, and how that
    time splits into each layer's self time and calls.

    *ops* is ``(class, start, end)`` indexed by operation id.  Whatever
    part of an operation no span covers is the harness's own.
    """
    own = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            own[span[PARENT]] -= span[END] - span[START]
    result = {cls: {"ops": 0, "seconds": 0.0,
                    "self": dict.fromkeys(LAYERS, 0.0),
                    "calls": dict.fromkeys(LAYERS, 0)}
              for cls in OP_CLASSES}
    for cls, start, end in ops:
        if cls in result:
            result[cls]["ops"] += 1
            result[cls]["seconds"] += end - start
    for span, self_time in zip(spans, own):
        if span[OP] < 0:
            continue
        entry = result.get(ops[span[OP]][0])
        if entry is not None:
            entry["self"][span[LAYER]] += self_time
            entry["calls"][span[LAYER]] += 1
    for entry in result.values():
        entry["harness"] = entry["seconds"] - sum(entry["self"].values())
    return result
