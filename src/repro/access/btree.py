"""A paged B-tree index over the buffer manager.

The paper's f-chunk implementation "maintains a secondary btree index on
the data blocks, and so must traverse the index any time a seek is done"
(§9.2) — the traversal cost is visible in its random-access numbers, so the
index here is a real disk tree doing real page reads, not a dict.

Layout
------
* Block 0 is the **meta page**: root block number, tree height, and a
  key arity that is always 1 (a page recording any other is refused).
* Every other block is one **node**, serialized as a single page item:
  a small header plus a sorted entry array.
* Leaf entries map a key to the heap :class:`~repro.access.tuples.TID`
  of one version, packed as two signed 64-bit ints.
* Internal entries map separator keys to child block numbers.
* Leaves are chained through right-sibling pointers for range scans.

A key is one signed 64-bit integer: every index the engine builds is on
one integer attribute (a chunk's seqno, a segment's ``locn``, an oid).
**Duplicate keys are allowed** — a no-overwrite heap stores several
versions of a logical record, and the index points at all of them;
readers filter by visibility.

Deletion removes entries without rebalancing (as PostgreSQL does); empty
nodes are left in place and skipped.

Decoded-node cache
------------------
Descents used to re-parse every node page from its struct array on every
lookup — ruinous for the streaming read path, which touches the index for
every chunk.  Nodes are now cached in decoded form in the buffer
manager's pool-wide side cache, keyed by ``(fileid, blockno)``: a hit
skips the pin and the parse.  Every node write (store, split, new node)
writes through the cache, and the pool drops entries with the file, so a
reader can never observe a stale node — including after ``replace`` or a
vacuum's index pruning, which funnel through :meth:`BTree.insert_run` /
:meth:`BTree.delete`.

The root
--------
A descent starts at the ``(root, height)`` the pool keeps for the file
(``BufferManager.btree_roots``), so it pins no page it does not decode:
page 0 is read (pinned, unpacked and checked) only for the file's first
descent and the first after the pool is emptied or the file dropped.  A
root split writes through it, so every handle on the file — like the
decoded nodes, the root is the pool's, not the handle's — descends from
the new root at once.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable, Iterator

from repro.access.tuples import TID
from repro.errors import RelationError
from repro.smgr.base import StorageManager
from repro.storage.buffer import BufferManager
from repro.storage.constants import MAX_TUPLE_SIZE, PAGE_SIZE

_META = struct.Struct("<IHHI")          # root block, arity, height, magic
_NODE_HEADER = struct.Struct("<BBHi")   # is_leaf, pad, nentries, right sibling
_MAGIC = 0xB7EE
_ARITY = 1                              # what page 0 records; the only one
_KEY = struct.Struct("<q")
_LEAF_VALUE = struct.Struct("<qq")


@dataclass
class _Node:
    """Decoded B-tree node."""

    is_leaf: bool
    keys: list[int] = field(default_factory=list)
    #: leaf: heap TIDs; internal: child block numbers.
    values: list = field(default_factory=list)
    right: int = -1

    def entry_bytes(self) -> int:
        per_entry = _KEY.size + (_LEAF_VALUE.size if self.is_leaf else 4)
        extra_child = 0 if self.is_leaf else 4  # nkeys + 1 children
        return _NODE_HEADER.size + per_entry * len(self.keys) + extra_child

    def copy(self) -> "_Node":
        """A mutation-safe copy (entries are immutable tuples)."""
        return _Node(is_leaf=self.is_leaf, keys=list(self.keys),
                     values=list(self.values), right=self.right)


class BTree:
    """A B-tree index living in one relation file."""

    def __init__(self, name: str, smgr: StorageManager,
                 bufmgr: BufferManager, fileid: str | None = None):
        self.name = name
        self.smgr = smgr
        self.bufmgr = bufmgr
        self.fileid = fileid or f"btree_{name}"
        # Soft node-size ceiling: leave room for one more max-size entry.
        self._node_limit = MAX_TUPLE_SIZE - 64
        #: Debug tripwire (see :mod:`repro.access.scan`): when the owning
        #: Database is built with lockdep armed it points this at the
        #: engine latch's ``held()``, and lookups verify the latch is
        #: taken.  ``None`` (standalone use) disables the check.
        self.latch_probe: Callable[[], bool] | None = None
        #: This file's key in ``bufmgr.btree_roots``, where the meta
        #: page's validated ``(root, height)`` is kept.  After
        #: :meth:`create_storage` only :meth:`_write_meta` rewrites page 0,
        #: and it writes through there.
        self._file = (smgr.smgr_id, self.fileid)

    def _assert_latched(self, operation: str) -> None:
        if self.latch_probe is not None and not self.latch_probe():
            raise AssertionError(
                f"index {self.name!r}.{operation} called without the "
                f"engine latch — go through the scan layer "
                f"(repro.access.scan) or take db.latch first")

    # -- lifecycle ----------------------------------------------------------------

    def create_storage(self) -> None:
        """Create the index file with an empty root leaf (idempotent)."""
        self.smgr.create(self.fileid)
        if self.bufmgr.nblocks(self.smgr, self.fileid) > 0:
            return
        meta_buf = self.bufmgr.allocate(self.smgr, self.fileid)
        root_buf = self.bufmgr.allocate(self.smgr, self.fileid)
        try:
            self._write_node(root_buf.page, _Node(is_leaf=True))
            meta_buf.page.add_item(
                _META.pack(root_buf.blockno, _ARITY, 0, _MAGIC))
        finally:
            self.bufmgr.unpin(meta_buf, dirty=True)
            self.bufmgr.unpin(root_buf, dirty=True)

    def drop_storage(self) -> None:
        self.bufmgr.drop_file(self.smgr, self.fileid)
        self.smgr.unlink(self.fileid)

    def nblocks(self) -> int:
        return self.bufmgr.nblocks(self.smgr, self.fileid)

    def byte_size(self) -> int:
        """Bytes occupied by the index (Figure 1 reports these)."""
        return self.nblocks() * PAGE_SIZE

    # -- meta page ----------------------------------------------------------------

    def _read_meta(self) -> tuple[int, int]:
        """``(root, height)``: from the pool while it has not been emptied
        since page 0 was last read or written, else from page 0 (pinned,
        unpacked and checked), which refills the pool's — so a descent
        after a cold start still pays for reading the meta page, once."""
        root = self.bufmgr.btree_roots.get(self._file)
        if root is not None:
            return root
        with self.bufmgr.page(self.smgr, self.fileid, 0) as page:
            root, arity, height, magic = _META.unpack(page.get_item(0))
        if magic != _MAGIC:
            raise RelationError(f"index {self.name!r} meta page corrupt")
        if arity != _ARITY:
            raise RelationError(
                f"index {self.name!r} has key arity {arity}; "
                f"keys are single integers")
        self.bufmgr.btree_roots[self._file] = root, height
        return root, height

    def _write_meta(self, root: int, height: int) -> None:
        # Forget the old root first: if the pin fails, the next descent
        # reads page 0 rather than trusting a root the page may not hold.
        roots = self.bufmgr.btree_roots
        roots.pop(self._file, None)
        with self.bufmgr.page(self.smgr, self.fileid, 0, write=True) as page:
            page.overwrite_item(
                0, _META.pack(root, _ARITY, height, _MAGIC))
        roots[self._file] = root, height

    # -- node (de)serialization -------------------------------------------------------

    def _write_node(self, page, node: _Node) -> None:
        nkeys = len(node.keys)
        parts = [_NODE_HEADER.pack(1 if node.is_leaf else 0, 0,
                                   nkeys, node.right),
                 struct.pack(f"<{nkeys}q", *node.keys)]
        if node.is_leaf:
            # chain.from_iterable flattens the TIDs at C speed.
            parts.append(struct.pack(
                f"<{2 * nkeys}q", *chain.from_iterable(node.values)))
        else:
            # Internal nodes have nkeys + 1 children.
            parts.append(struct.pack(f"<{nkeys + 1}I", *node.values))
        image = b"".join(parts)
        if page.slot_count:
            page.overwrite_item(0, image)
        else:
            page.add_item(image)

    def _read_node(self, blockno: int, mutable: bool = False) -> _Node:
        """The decoded node at *blockno*.

        Served from the pool-wide decoded-node cache when possible —
        a hit skips both the page pin and the struct re-parse, which is
        what makes repeated descents (one per chunk, in the old read
        path) cheap.  *mutable* callers get a private copy; the cached
        node is only ever replaced by :meth:`_store_node`, :meth:`_store_leaf`
        and :meth:`_new_node`, so the cache can never serve a stale node.
        """
        node = self.bufmgr.get_decoded(self.smgr, self.fileid, blockno)
        if node is not None:
            return node.copy() if mutable else node
        node = self._decode_node(blockno)
        self.bufmgr.put_decoded(self.smgr, self.fileid, blockno, node)
        return node.copy() if mutable else node

    def _decode_node(self, blockno: int) -> _Node:
        with self.bufmgr.page(self.smgr, self.fileid, blockno) as page:
            image = page.get_item(0)
        is_leaf, _pad, nentries, right = _NODE_HEADER.unpack_from(image, 0)
        pos = _NODE_HEADER.size
        keys = list(struct.unpack_from(f"<{nentries}q", image, pos))
        pos += nentries * _KEY.size
        if is_leaf:
            flat = struct.unpack_from(f"<{2 * nentries}q", image, pos)
            # tuple.__new__ builds each TID in C (TID.__new__ is Python).
            values = list(map(tuple.__new__, repeat(TID, nentries),
                              zip(flat[::2], flat[1::2])))
        else:
            values = list(struct.unpack_from(f"<{nentries + 1}I", image, pos))
        return _Node(is_leaf=bool(is_leaf), keys=keys, values=values,
                     right=right)

    def _store_node(self, blockno: int, node: _Node) -> None:
        with self.bufmgr.page(self.smgr, self.fileid, blockno,
                              write=True) as page:
            self._write_node(page, node)
        # Write-through: the cache always mirrors the page just written.
        self.bufmgr.put_decoded(self.smgr, self.fileid, blockno,
                                node.copy())

    def _new_node(self, node: _Node) -> int:
        buf = self.bufmgr.allocate(self.smgr, self.fileid)
        try:
            self._write_node(buf.page, node)
            self.bufmgr.put_decoded(self.smgr, self.fileid, buf.blockno,
                                    node.copy())
            return buf.blockno
        finally:
            self.bufmgr.unpin(buf, dirty=True)

    # -- insert ---------------------------------------------------------------------------

    def insert(self, key: int, tid: TID) -> None:
        """Insert one entry; duplicate keys are fine."""
        self.insert_run([(key, tid)])

    def insert_run(self, entries: list[tuple[int, TID]]) -> None:
        """Insert ``(key, tid)`` pairs sorted by key: page for page what
        :meth:`insert` of each in turn leaves, in one descent and one
        image rebuild per leaf touched."""
        capacity = ((self._node_limit - _NODE_HEADER.size)
                    // (_KEY.size + _LEAF_VALUE.size))   # leaf entries
        done = 0
        while done < len(entries):
            root, height = self._read_meta()
            blockno, node = root, self._read_node(root)
            path: list[tuple[int, _Node, int]] = []
            bound = None   # tightest separator right of the path
            while not node.is_leaf:
                slot = self._descend_index(node, entries[done][0])
                if slot < len(node.keys):
                    bound = node.keys[slot]
                path.append((blockno, node, slot))
                blockno = node.values[slot]
                node = self._read_node(blockno)
            room = capacity - len(node.keys)
            if room > 0:
                # Every following entry that routes here and fits rides along.
                take = 1
                while (take < room and done + take < len(entries) and (
                        bound is None or entries[done + take][0] < bound)):
                    take += 1
                self._store_leaf(blockno, node, entries[done:done + take])
                done += take
                continue
            # No room even for one: it splits the leaf, and the split
            # climbs the path this descent already holds.
            key, value = entries[done]
            pos = bisect.bisect_right(node.keys, key)
            done += 1
            while True:
                node = node.copy()
                node.keys.insert(pos, key)
                node.values.insert(pos if node.is_leaf else pos + 1, value)
                if node.entry_bytes() <= self._node_limit:
                    self._store_node(blockno, node)
                    break
                key, value = self._split(blockno, node)
                if not path:
                    new_root = _Node(is_leaf=False, keys=[key],
                                     values=[root, value])
                    self._write_meta(self._new_node(new_root), height + 1)
                    break
                blockno, node, pos = path.pop()

    def _store_leaf(self, blockno: int, node: _Node, run: list) -> None:
        """Store leaf *node* with the sorted *run* merged in, each entry
        after its equals (as ``bisect_right`` places it): bytes identical
        to :meth:`_write_node` of the merged node, but spliced from the
        page's current image (old keys and values are already packed
        there) instead of re-flattening every entry — an insert at memcpy
        cost wherever in the leaf it lands.
        """
        ksize = _KEY.size
        vsize = _LEAF_VALUE.size
        voff = _NODE_HEADER.size + len(node.keys) * ksize
        keys, values = node.keys[:], node.values[:]
        bufmgr = self.bufmgr
        buf = bufmgr.pin(self.smgr, self.fileid, blockno)
        try:
            image = buf.page.item_view(0)
            kbytes = bytearray(image[_NODE_HEADER.size:voff])
            vbytes = bytearray(image[voff:])
            for shift, (key, value) in enumerate(run):
                pos = bisect.bisect_right(node.keys, key) + shift
                keys.insert(pos, key)
                values.insert(pos, value)
                kbytes[pos * ksize:pos * ksize] = _KEY.pack(key)
                vbytes[pos * vsize:pos * vsize] = _LEAF_VALUE.pack(*value)
            buf.page.overwrite_item(0, _NODE_HEADER.pack(
                1, 0, len(keys), node.right) + kbytes + vbytes)
        finally:
            bufmgr.unpin(buf, dirty=True)
        # Write-through: the cache always mirrors the page just written.
        bufmgr.put_decoded(self.smgr, self.fileid, blockno, _Node(
            is_leaf=True, keys=keys, values=values, right=node.right))

    @staticmethod
    def _descend_index(node: _Node, key: int) -> int:
        """Child slot to follow for *key* in an internal node."""
        return bisect.bisect_right(node.keys, key)

    def _split(self, blockno: int, node: _Node) -> tuple[int, int]:
        """Split an overfull node; returns (separator, right block)."""
        mid = len(node.keys) // 2
        if node.is_leaf:
            right = _Node(is_leaf=True, keys=node.keys[mid:],
                          values=node.values[mid:], right=node.right)
            sep = right.keys[0]
            right_block = self._new_node(right)
            node.keys = node.keys[:mid]
            node.values = node.values[:mid]
            node.right = right_block
        else:
            # The middle key moves up; children split around it.
            sep = node.keys[mid]
            right = _Node(is_leaf=False, keys=node.keys[mid + 1:],
                          values=node.values[mid + 1:])
            right_block = self._new_node(right)
            node.keys = node.keys[:mid]
            node.values = node.values[:mid + 1]
        self._store_node(blockno, node)
        return sep, right_block

    # -- lookup ---------------------------------------------------------------------------

    def _find_leaf(self, key: int,
                   mutable: bool = False) -> tuple[int, _Node]:
        """The leftmost leaf that can contain *key*.

        Descends with ``bisect_left`` so that, with duplicate keys spanning
        several leaves, scans start at the first occurrence (inserts use
        ``bisect_right`` via :meth:`_descend_index` instead).
        """
        blockno, _height = self._read_meta()
        node = self._read_node(blockno)
        while not node.is_leaf:
            blockno = node.values[bisect.bisect_left(node.keys, key)]
            node = self._read_node(blockno)
        if mutable:
            node = node.copy()
        return blockno, node

    def search(self, key: int) -> list[TID]:
        """All TIDs stored under exactly *key* (duplicates preserved)."""
        self._assert_latched("search")
        return [tid for _k, tid in self.range_scan(key, key)]

    def range_scan_desc(self, hi: int, lo: int | None = None
                        ) -> Iterator[tuple[int, TID]]:
        """:meth:`range_scan` reversed, lazily: entries with ``lo <= key
        <= hi`` in descending key order, equal keys newest-inserted
        first.  The first one out — the floor of *hi* — costs one
        descent; nothing is read before the first ``next()``.  Equal keys
        are inserted after their duplicates, so over ``[key, key]`` a
        row's live version comes first: :meth:`IndexProbe.first
        <repro.access.scan.IndexProbe.first>` finds it with one descent
        and, normally, one heap fetch however long the run has grown.
        """
        # As in range_scan: the latch check must fire at call time.
        self._assert_latched("range_scan_desc")
        return self._range_scan_desc(hi, lo)

    def _range_scan_desc(self, hi: int,
                         lo: int | None) -> Iterator[tuple[int, TID]]:
        # Descend as an insert of *hi* would (equal separators send us
        # right): the last leaf that can hold a key <= hi.  Leaves have no
        # left link, so the (node, child slot) path is kept to step back.
        blockno, _height = self._read_meta()
        node = self._read_node(blockno)
        path: list[tuple[_Node, int]] = []
        while not node.is_leaf:
            slot = self._descend_index(node, hi)
            path.append((node, slot))
            node = self._read_node(node.values[slot])
        last = bisect.bisect_right(node.keys, hi) - 1
        while True:
            for i in range(last, -1, -1):
                if lo is not None and node.keys[i] < lo:
                    return
                yield node.keys[i], node.values[i]
            # Left sibling: up to the nearest ancestor with a child left
            # of the one taken, then down that child's right edge.  A leaf
            # emptied by delete (never merged away) is stepped over too.
            while path and path[-1][1] == 0:
                path.pop()
            if not path:
                return
            node, slot = path.pop()
            while not node.is_leaf:
                slot -= 1
                path.append((node, slot))
                node = self._read_node(node.values[slot])
                slot = len(node.values)
            last = len(node.keys) - 1

    def range_scan(self, lo: int | None = None,
                   hi: int | None = None) -> Iterator[tuple[int, TID]]:
        """Entries with ``lo <= key <= hi``, in key order.

        ``None`` bounds are open.  Follows leaf sibling links, so a scan
        costs one page read per leaf touched, and hands on each leaf's
        entries as one slice (consumed whole, per entry in C).
        """
        # The latch check must fire at call time, not at first next():
        # a generator body only runs lazily, by which point the caller's
        # latch block may already have exited.
        self._assert_latched("range_scan")
        return chain.from_iterable(self._leaf_slices(lo, hi))

    def _leaf_slices(self, lo: int | None = None, hi: int | None = None
                     ) -> Iterator[Iterator[tuple[int, TID]]]:
        """Each leaf's entries inside ``[lo, hi]``, bisected and zipped."""
        if lo is not None:
            _blockno, node = self._find_leaf(lo)
            start = bisect.bisect_left(node.keys, lo)
        else:
            node = self._leftmost_leaf()
            start = 0
        while True:
            keys = node.keys
            end = len(keys) if hi is None else bisect.bisect_right(keys, hi)
            yield zip(keys[start:end], node.values[start:end])
            if end < len(keys) or node.right < 0:
                return
            node = self._read_node(node.right)
            start = 0

    def _leftmost_leaf(self) -> _Node:
        blockno, _height = self._read_meta()
        node = self._read_node(blockno)
        while not node.is_leaf:
            node = self._read_node(node.values[0])
        return node

    # -- delete ---------------------------------------------------------------------------

    def delete(self, key: int, tid: TID | None = None) -> int:
        """Remove entries with *key* (and *tid*, if given).

        Returns the number of entries removed.  Nodes are never merged.
        """
        self._assert_latched("delete")
        removed = 0
        blockno, node = self._find_leaf(key, mutable=True)
        while True:
            changed = False
            i = bisect.bisect_left(node.keys, key)
            while i < len(node.keys) and node.keys[i] == key:
                if tid is None or node.values[i] == tid:
                    del node.keys[i]
                    del node.values[i]
                    removed += 1
                    changed = True
                else:
                    i += 1
            if changed:
                self._store_node(blockno, node)
            if node.keys and node.keys[-1] > key:
                return removed
            if node.right < 0:
                return removed
            blockno, node = node.right, self._read_node(node.right,
                                                        mutable=True)
            # An empty leaf (emptied by earlier deletes, never merged
            # away) says nothing about where the run ends: walk past it.
            if node.keys and node.keys[0] > key:
                return removed

    # -- introspection ----------------------------------------------------------------------

    def height(self) -> int:
        """Levels above the leaves (0 for a single-leaf tree)."""
        return self._read_meta()[1]

    def entry_count(self) -> int:
        """Total entries (walks every leaf).

        A diagnostic, so it bypasses the latch tripwire; callers that
        need a consistent count under concurrency should latch anyway.
        """
        return sum(1 for leaf in self._leaf_slices() for _ in leaf)

    def check_invariants(self) -> None:
        """Verify ordering and structure; raises on violation (tests).

        A diagnostic like :meth:`entry_count`; the integrity sweep runs
        it under the latch via :func:`repro.access.scan.check_index`.
        """
        previous: int | None = None
        for key, _value in chain.from_iterable(self._leaf_slices()):
            if previous is not None and key < previous:
                raise RelationError(
                    f"index {self.name!r} keys out of order: "
                    f"{key} after {previous}")
            previous = key
