"""Write-once (WORM) optical-jukebox storage manager.

The paper's third manager "supports data on a local or remote optical disk
WORM jukebox."  Two properties matter for the reproduction:

* **write-once** — a block, once written, can never be rewritten.  The
  no-overwrite POSTGRES storage system is compatible with this by design;
  the manager raises :class:`~repro.errors.WriteOnceViolation` on any
  attempt to overwrite, which the test suite uses to verify that the heap
  never tries.
* **slow, platter-structured media** — the jukebox cost model charges long
  seeks and multi-second platter exchanges.  Blocks from all relation files
  are allocated sequentially on the media (WORM media is append-only), so a
  file's logical blocks are physically contiguous only if written
  contiguously — exactly the behaviour that makes the disk cache in front
  of this manager (see :mod:`repro.smgr.cache`) pay off so dramatically in
  the paper's Figure 3.

Media contents are held in process memory: actual optical hardware is not
available, and durability of the simulated media is not what the paper's
experiments measure.
"""

from __future__ import annotations

from repro.errors import StorageManagerError, WriteOnceViolation
from repro.sim.clock import SimClock
from repro.sim.devices import DeviceModel, DevicePort, jukebox_device
from repro.smgr.base import StorageManager
from repro.storage.constants import PAGE_SIZE


class WormStorageManager(StorageManager):
    """Relation files on simulated write-once jukebox media."""

    name = "worm"

    def __init__(self, clock: SimClock, model: DeviceModel | None = None):
        super().__init__(clock)
        self.port = DevicePort(model or jukebox_device(), clock)
        #: (fileid, blockno) -> global media block number.
        self._placement: dict[tuple[str, int], int] = {}
        #: global media block number -> block bytes.
        self._media: list[bytes] = []
        self._nblocks: dict[str, int] = {}

    # -- file lifecycle ----------------------------------------------------

    def create(self, fileid: str) -> None:
        self._nblocks.setdefault(fileid, 0)

    def exists(self, fileid: str) -> bool:
        return fileid in self._nblocks

    def unlink(self, fileid: str) -> None:
        """Forget the file's placement map.

        The media blocks themselves are write-once and cannot be reclaimed —
        just like a real WORM platter; only the mapping is dropped.
        """
        if fileid in self._nblocks:
            count = self._nblocks.pop(fileid)
            for blockno in range(count):
                self._placement.pop((fileid, blockno), None)

    def nblocks(self, fileid: str) -> int:
        if fileid not in self._nblocks:
            raise StorageManagerError(
                f"relation file {fileid!r} does not exist")
        return self._nblocks[fileid]

    # -- block I/O -----------------------------------------------------------

    def _read_run(self, fileid: str, first: int,
                  count: int) -> list[bytearray]:
        blocks = []
        for blockno in range(first, first + count):
            media_block = self._placement[(fileid, blockno)]
            self.port.charge_run("worm-media", media_block * PAGE_SIZE,
                                 PAGE_SIZE, 1, False)
            blocks.append(bytearray(self._media[media_block]))
        return blocks

    def _write_runs(self, fileid: str, runs) -> None:
        for first, images in runs:
            for blockno, data in enumerate(images, first):
                if (fileid, blockno) in self._placement:
                    raise WriteOnceViolation(
                        f"block {blockno} of {fileid!r} is already "
                        f"written; WORM media cannot be overwritten")
                media_block = len(self._media)
                self._media.append(bytes(data))
                self._placement[(fileid, blockno)] = media_block
                self._nblocks[fileid] = max(self._nblocks[fileid],
                                            blockno + 1)
                self.port.charge_run("worm-media", media_block * PAGE_SIZE,
                                     PAGE_SIZE, 1, True)

    def media_blocks_used(self) -> int:
        """Total blocks consumed on the media (including dead files)."""
        return len(self._media)
