"""The four workloads: their sizes, and their seeded operation lists.

Every workload is a *fixed* list of operations, generated from the seed
before anything is timed.  Latency in a no-overwrite store depends on how
many versions have piled up, so a run that lasted "until the time was up"
would measure its own length; here ``--seconds`` only chooses how long the
list is (``per_second`` transactions for each second asked for), and the
same seed and seconds always give the same list.

Inside a workload every operation class is homogeneous -- one size, one
distribution -- so a median never sits on the boundary between two modes.
That is why frames are 4,000 bytes (half an 8,000-byte chunk, never
straddling two) and not the 4,096 of the paper's frame store: with 4,096
just over half the frames span two chunks and cost twice as much.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

FRAME_BYTES = 4000


@dataclasses.dataclass(frozen=True)
class FrameSpec:
    """Random frame reads and writes inside one large object."""

    name: str
    impl: str
    compression: str
    frames: int
    zero_tail: bool          # second half of every frame is zeros
    reads: int               # per transaction
    writes: int              # per transaction
    per_second: float        # transactions per replay, per --seconds
    pool_size: int
    over_wire: bool          # through ServerClient to a server child

    def tiny(self) -> "FrameSpec":
        return dataclasses.replace(self, frames=96,
                                   pool_size=self.pool_size // 8)


@dataclasses.dataclass(frozen=True)
class FileSpec:
    """Whole-file traffic through the Inversion file system."""

    name: str
    dirs: int
    files: int               # live at any time, as a queue, oldest first
    blocks: int              # per file
    block_bytes: int
    get_at: tuple            # queue positions read in every cycle
    replace_at: int          # ... rewritten
    rename_at: int
    stat_at: int
    per_second: float        # cycles per replay, per --seconds
    pool_size: int

    def tiny(self) -> "FileSpec":
        return dataclasses.replace(self, files=6, block_bytes=8192,
                                   get_at=(2, 1, 0), replace_at=4,
                                   rename_at=3, stat_at=1)


SPECS = {
    "frames_f": FrameSpec("frames_f", "fchunk", "none", frames=2560,
                          zero_tail=False, reads=6, writes=2,
                          per_second=40.0, pool_size=256, over_wire=False),
    "frames_v": FrameSpec("frames_v", "vsegment", "zero-rle", frames=1280,
                          zero_tail=True, reads=6, writes=2,
                          per_second=15.0, pool_size=256, over_wire=False),
    "inv_files": FileSpec("inv_files", dirs=4, files=24, blocks=4,
                          block_bytes=65536, get_at=(14, 9, 4), replace_at=20,
                          rename_at=17, stat_at=12, per_second=3.0,
                          pool_size=256),
    "server": FrameSpec("server", "fchunk", "none", frames=1024,
                        zero_tail=False, reads=7, writes=1,
                        per_second=32.0, pool_size=2048, over_wire=True),
}


@dataclasses.dataclass(frozen=True)
class Workload:
    """A spec, the objects it starts from, and what is done to them."""

    spec: FrameSpec | FileSpec
    seed: int
    initial: list | dict     # frames, or path -> tuple of blocks
    txns: list               # each a list of steps, run as one unit
    digest: str              # hash of ``initial`` and ``txns``

    @property
    def over_wire(self) -> bool:
        return isinstance(self.spec, FrameSpec) and self.spec.over_wire

    def prefix(self) -> "Workload":
        """The first two fifths of the transactions (the counted replay)."""
        keep = max(1, len(self.txns) * 2 // 5)
        return dataclasses.replace(self, txns=self.txns[:keep])


def build(name: str, seed: int, seconds: float, tiny: bool = False) -> Workload:
    spec = SPECS[name].tiny() if tiny else SPECS[name]
    rng = random.Random(f"{name}:{seed}")
    count = max(3, round(spec.per_second * seconds))
    if isinstance(spec, FrameSpec):
        initial, txns = _frame_ops(spec, rng, count)
    else:
        initial, txns = _file_ops(spec, rng, count)
    return Workload(spec, seed, initial, txns, _digest(initial, txns))


def _frame(spec: FrameSpec, rng: random.Random) -> bytes:
    if spec.zero_tail:
        half = FRAME_BYTES // 2
        return rng.randbytes(half) + bytes(FRAME_BYTES - half)
    return rng.randbytes(FRAME_BYTES)


def _frame_ops(spec: FrameSpec, rng: random.Random, count: int):
    initial = [_frame(spec, rng) for _ in range(spec.frames)]
    txns = []
    for _ in range(count):
        steps = [("read", rng.randrange(spec.frames))
                 for _ in range(spec.reads)]
        steps += [("write", rng.randrange(spec.frames), _frame(spec, rng))
                  for _ in range(spec.writes)]
        txns.append(steps)
    return initial, txns


def _file_ops(spec: FileSpec, rng: random.Random, count: int):
    """Steady churn: the live files form a queue, and every cycle creates
    one at the tail, unlinks the head, and rewrites, renames, reads and
    stats the files at fixed positions in between.

    So every file lives the same life -- created, rewritten once, renamed,
    read three times, unlinked -- and every read in the list is of a file
    that was rewritten exactly once, several cycles (more than a buffer
    pool of traffic) ago.  Picking files at random instead puts fresh,
    cached and many-times-rewritten files into one population whose
    median jumps from mode to mode with the seed.  The seed decides the
    contents and which directory each name lands in.
    """
    def blocks() -> tuple:
        return tuple(rng.randbytes(spec.block_bytes)
                     for _ in range(spec.blocks))

    def directory() -> str:
        return f"/d{rng.randrange(spec.dirs)}"

    initial = {f"{directory()}/f{i:03d}": blocks() for i in range(spec.files)}
    queue = list(initial)
    cycles = []
    for cycle in range(count):
        steps = [("get", queue[at]) for at in spec.get_at]
        steps.append(("replace", queue[spec.replace_at], blocks()))
        queue.append(f"{directory()}/n{cycle:04d}")
        steps.append(("create", queue[-1], blocks()))
        steps.append(("unlink", queue.pop(0)))
        renamed = f"{directory()}/r{cycle:04d}"
        steps.append(("rename", queue[spec.rename_at], renamed))
        queue[spec.rename_at] = renamed
        steps.append(("listdir", directory()))
        steps.append(("stat", queue[spec.stat_at]))
        cycles.append(steps)
    return initial, cycles


def _digest(initial, txns) -> str:
    sha = hashlib.sha256()

    def feed(value) -> None:
        if isinstance(value, bytes):
            sha.update(value)
        elif isinstance(value, (tuple, list)):
            for item in value:
                feed(item)
        else:
            sha.update(repr(value).encode())

    feed(sorted(initial.items()) if isinstance(initial, dict) else initial)
    feed(txns)
    return sha.hexdigest()
