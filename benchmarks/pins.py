"""Every performance pin of the engine, stated once.

A pin holds one mechanism's cost still.  Its row names the function of
``benchmarks/test_micro.py`` that drives it, says in a line what the
mechanism is, and gives:

* ``counts`` — exact structural counts (storage calls, device charges,
  page pins, tuple decodes, lock requests, syncs, checksums), which no
  interpreter changes: ``test_micro.py::test_counts`` asserts them
  everywhere.  They say *why* the pin holds.
* ``ceiling`` — bounds on what the pin measures in bytecodes (a count,
  a ratio of two counts, or the growth of a count that must stay flat),
  or ``None``.  Bytecodes differ between interpreters, so
  ``test_micro.py::test_ceiling`` asserts them on CPython 3.11 only.
* ``pr`` — the change that set the pin.

``python benchmarks/pins.py`` prints the table ``docs/performance.md``
embeds (the ceilings' numbers stay here); ``tests/test_doc_tables.py``
names the first line where the two differ.
"""

from __future__ import annotations

import gc
import sys
from typing import NamedTuple


class Pin(NamedTuple):
    test: str
    mechanism: str
    counts: dict[str, int]
    ceiling: dict[str, float] | None
    pr: int


PINS: dict[str, Pin] = {
    "sequential-stream": Pin(
        "sequential_stream",
        "a cold sequential pass reads each index node once, not one "
        "descent per chunk",
        {"index node reads": 2},
        None, 1),
    "descriptor-caches": Pin(
        "descriptor_caches",
        "a re-read range is served from the descriptor's decompressed "
        "chunk or segment cache",
        {"chunk cache hits": 3, "chunk cache misses": 0,
         "segment cache hits": 4, "segment cache misses": 0},
        None, 4),
    "force-syscalls": Pin(
        "force_syscalls",
        "the commit of a 32-chunk write stats nothing and writes each run "
        "with one `pwritev`",
        {"stat calls": 0, "pwritev calls": 4, "pages written": 37},
        None, 17),
    "history-flat": Pin(
        "history_flat",
        "opening and committing a v-segment writer do not pay for the "
        "dead versions 300 commits leave",
        {"size-row probes per open": 1, "versions read per open": 1,
         "versions read per commit": 0},
        {"open growth": 1.03, "commit growth": 1.10}, 18),
    "wire-seek-read": Pin(
        "wire_seek_read",
        "the wire is positioned and the cursor the client's: seek plus "
        "read is one frame each way",
        {"round trips": 100, "frames sent": 100, "frames received": 100},
        None, 19),
    "segment-density": Pin(
        "segment_density",
        "a v-segment overlap query is a floor probe: the records a read "
        "fetches do not depend on segments per 64 KB",
        {"records read by 40 reads": 40},
        {"spread over 2, 16 and 65 segments": 1.02}, 20),
    "chunk-run": Pin(
        "chunk_run",
        "a write that wholly covers chunks reaches the chunk class as one "
        "run: one lock, one descent",
        {"relation locks": 1, "meta reads": 1, "leaf stores": 1},
        {"run / eight chunk writes": 0.6}, 22),
    "truncate-scan": Pin(
        "truncate_scan",
        "`truncate(0)` finds the doomed chunks in one range scan under "
        "one relation lock",
        {"range scans": 1, "probes": 1, "relation locks": 1},
        None, 22),
    "unrelated-indexes": Pin(
        "unrelated_indexes",
        "an insert looks its class's indexes up in one dict probe, "
        "whatever other indexes exist",
        {"index inserts per row": 1},
        {"growth beside 300 indexes": 0}, 22),
    "wire-header": Pin(
        "wire_header",
        "frame headers are binary, each key declared once with its type",
        {"request header bytes": 40, "reply header bytes": 5},
        None, 28),
    "wire-round-trip": Pin(
        "wire_round_trip",
        "one `lo_pread` round trip, client call plus one turn of the "
        "server's loop",
        {"round trips": 3},
        {"bytecodes": 1_050, "spread": 0}, 28),
    "streamed-read": Pin(
        "streamed_read",
        "a cold 64 KB read pays per call: one range scan, no size-row "
        "probe, one store read per missed run",
        {"size-row probes, first read": 1, "size-row probes, next read": 0,
         "range scans": 1, "cold pages": 8, "checksums": 8, "store reads": 1,
         "device charges": 1},
        {"bytecodes": 8_957}, 31),
    "overwrite-commit-fchunk": Pin(
        "overwrite_commit_fchunk",
        "a commit that only overwrote f-chunk bytes probes no size row "
        "and is one force call",
        {"size-row probes": 0, "force calls": 1, "forced files": 2,
         "forces per file": 1},
        {"bytecodes": 4_263}, 33),
    "fresh-run": Pin(
        "fresh_run",
        "a write of fresh chunks reaches the pool as one `extend`",
        {"extend calls": 1, "allocate calls": 0},
        {"bytecodes": 9_768}, 35),
    "resident-read-fchunk": Pin(
        "resident_read_fchunk",
        "a resident f-chunk point read pins no index page: descents start "
        "at the pool's root",
        {"page pins": 1, "index page pins": 0, "pool misses": 0},
        {"bytecodes": 1_515}, 36),
    "resident-read-vsegment": Pin(
        "resident_read_vsegment",
        "the same for a v-segment point read",
        {"page pins": 11, "index page pins": 0, "pool misses": 0},
        {"bytecodes": 8_462}, 36),
    "kept-snapshot": Pin(
        "kept_snapshot",
        "a transaction's later reads reuse the snapshot its first one took",
        {"snapshots built, f-chunk": 0, "snapshots built, v-segment": 0},
        None, 37),
    "demand-miss": Pin(
        "demand_miss",
        "a cold point read misses page by page: one store read and one "
        "device charge each",
        {"pool misses": 3, "pages prefetched": 0, "demand reads": 3,
         "store reads": 3, "device charges": 3},
        {"bytecodes": 3_556, "device bytecodes": 153}, 38),
    "overwrite-commit-vsegment": Pin(
        "overwrite_commit_vsegment",
        "the same commit of a zero-rle v-segment object: its byte store "
        "keeps no size row",
        {"size-row probes": 0, "force calls": 1, "forced files": 4,
         "forces per file": 1},
        {"bytecodes": 5_332}, 42),
    "index-entry": Pin(
        "index_entry",
        "a resident range scan of 512 keys hands each leaf entry's TID to "
        "`fetch_many` as it is",
        {"versions read": 512, "pool misses": 0},
        {"bytecodes": 189_064}, 43),
    "pool-force": Pin(
        "pool_force",
        "forcing 64 dirty pages seals and cleans them in C-level passes "
        "and hands over one run",
        {"pages written": 64, "force calls": 1, "runs": 1},
        {"bytecodes": 588}, 44),
    "clock-sweep": Pin(
        "clock_sweep",
        "the clock sweep visits the ring's frames themselves, no key "
        "looked up per visit",
        {"evictions": 1},
        {"bytecodes": 3_089}, 44),
    "inversion-rename": Pin(
        "inversion_rename",
        "a cross-directory rename reads each directory it names once",
        {"directory reads": 3},
        {"bytecodes": 21_578}, 45),
    "inversion-truncate": Pin(
        "inversion_truncate",
        "`truncate(0)` of a 256 KB file stamps its chunks without "
        "decoding them, one pin a page",
        {"chunk versions decoded": 0, "heap pins": 33},
        {"bytecodes": 23_008}, 45),
    "sharded-force": Pin(
        "sharded_force",
        "a 32-page file of a 4-node R = 3 manager is forced as one "
        "ascending run",
        {"pages written": 32, "runs": 1},
        {"bytecodes": 277}, 46),
    "range-acquire": Pin(
        "range_acquire",
        "an uncontended range acquire decides in one walk of its object's "
        "granted ranges",
        {"lock waits": 0, "ranges held": 3},
        {"bytecodes": 294}, 47),
    "release-all": Pin(
        "release_all",
        "`release_all` walks only the releaser's own grants",
        {"locks released": 3},
        {"bytecodes": 168, "growth from 200 to 2,000 holders": 0}, 47),
    "force-growth": Pin(
        "force_growth",
        "a one-run force of 64 pages runs the bytecodes of a one-page "
        "force",
        {"pages written at 1": 1, "pages written at 64": 64},
        {"growth from 1 to 64 pages": 36}, 49),
    "window-read": Pin(
        "window_read",
        "a cold 64 KB read of a rewritten object asks about its one "
        "deleter once and checksums each run in one pass",
        {"range scans": 1, "filter batches": 1, "entries filtered": 16,
         "deleter questions": 1, "checksum passes": 1,
         "pages checksummed": 8},
        {"bytecodes": 6_740}, 51),
    "window-read-resident": Pin(
        "window_read_resident",
        "a resident one-chunk read of the same object costs no more than "
        "the entry-by-entry walk",
        {"pool misses": 0},
        {"bytecodes": 2_267}, 51),
}


def render_table() -> str:
    """The pin table of ``docs/performance.md``: every row but the
    ceilings' numbers."""
    lines = ["| Pin | Mechanism | Exact counts | CPython 3.11 ceiling on "
             "| Set in |", "|---|---|---|---|---|"]
    for name, pin in PINS.items():
        counts = ", ".join(f"{key} {value:,}"
                           for key, value in pin.counts.items())
        ceiling = ", ".join(pin.ceiling) if pin.ceiling else "—"
        lines.append(f"| `{name}` (`test_micro.py::{pin.test}`) "
                     f"| {pin.mechanism} | {counts} | {ceiling} "
                     f"| PR {pin.pr} |")
    return "\n".join(lines)


def _traced_once() -> None:
    """The throwaway call :class:`Bytecodes` traces before its first
    count."""


class Bytecodes:
    """``with Bytecodes() as executed:`` — ``executed.count`` is the
    number of bytecodes this thread ran inside the block (a
    ``sys.settrace`` opcode counter).  The garbage collector is run
    before the block and kept off inside it, so no finalizer of earlier
    garbage is counted.  With *within*, ``executed.within`` counts those
    run in functions of files whose path contains it.

    On CPython 3.12 the first call traced in a process counts 0
    bytecodes, so the first block entered in a process first traces one
    throwaway call."""

    _primed = False

    def __init__(self, within: str | None = None):
        self.count = 0
        self._path, self.within = within, 0

    def _on_call(self, frame, event, arg):
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        if self._path and self._path in frame.f_code.co_filename:
            return self._on_event_within
        return self._on_event

    def _on_event(self, frame, event, arg):
        self.count += event == "opcode"
        return self._on_event

    def _on_event_within(self, frame, event, arg):
        opcode = event == "opcode"
        self.count += opcode
        self.within += opcode
        return self._on_event_within

    def __enter__(self) -> Bytecodes:
        if not Bytecodes._primed:
            Bytecodes._primed = True
            with Bytecodes():
                _traced_once()
        gc.collect()
        self._gc_was_enabled = gc.isenabled()
        gc.disable()
        self._previous = sys.gettrace()
        sys.settrace(self._on_call)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        sys.settrace(self._previous)
        if self._gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    print(render_table())
