"""The §9.1 benchmark workload.

    "a 51.2 MB large object was created and then logically considered a
    group of 12,500 frames, each of size 4096 bytes"

Six operations:

1. read 2,500 frames (10 MB) sequentially;
2. replace 2,500 frames sequentially;
3. read 250 frames (1 MB) randomly distributed;
4. replace 250 randomly distributed frames;
5. read 250 frames with 80/20 locality (80 % sequential-next, 20 % jump);
6. replace 250 frames with the same distribution.

A scale factor shrinks the object and the operation counts together so
the access-pattern *shape* (fractions of the object touched) is preserved
at any scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.storage.constants import FRAME_COUNT, FRAME_SIZE


@dataclass(frozen=True)
class Operation:
    """One benchmark operation: an ordered list of frame numbers."""

    name: str
    kind: str  # "read" | "write"
    frames: tuple[int, ...]


class Workload:
    """Frame counts and access sequences for one benchmark run."""

    def __init__(self, scale: float = 1.0, seed: int = 1993,
                 frame_size: int = FRAME_SIZE):
        if scale <= 0 or scale > 1.0:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        self.scale = scale
        self.seed = seed
        self.frame_size = frame_size
        self.total_frames = max(50, int(FRAME_COUNT * scale))
        #: 2,500 at full scale (10 MB).
        self.sequential_frames = max(10, self.total_frames // 5)
        #: 250 at full scale (1 MB).
        self.scattered_frames = max(5, self.total_frames // 50)

    @property
    def object_size(self) -> int:
        return self.total_frames * self.frame_size

    # -- access sequences --------------------------------------------------------------

    def sequential(self) -> tuple[int, ...]:
        """The first fifth of the object, in order."""
        return tuple(range(self.sequential_frames))

    def random_frames(self, salt: int = 0) -> tuple[int, ...]:
        """Uniformly random frames across the whole object."""
        rng = random.Random(f"{self.seed}-random-{salt}")
        return tuple(rng.randrange(self.total_frames)
                     for _ in range(self.scattered_frames))

    def locality_frames(self, salt: int = 0) -> tuple[int, ...]:
        """80/20: 'the next frame was read sequentially 80% of the time
        and a new random frame was read 20% of the time'."""
        rng = random.Random(f"{self.seed}-locality-{salt}")
        frames = []
        current = rng.randrange(self.total_frames)
        for _ in range(self.scattered_frames):
            frames.append(current)
            if rng.random() < 0.8:
                current = (current + 1) % self.total_frames
            else:
                current = rng.randrange(self.total_frames)
        return tuple(frames)

    # -- the six operations -----------------------------------------------------------------

    def operations(self, include_writes: bool = True) -> list[Operation]:
        """The §9.1 operations, in the paper's order.

        ``include_writes=False`` gives the read-only subset used for the
        WORM benchmark (Figure 3: "this special program cannot update
        frames, so we have restricted our attention to the read portion").
        """
        ops = [
            Operation("10MB sequential read", "read", self.sequential()),
            Operation("10MB sequential write", "write", self.sequential()),
            Operation("1MB random read", "read", self.random_frames(1)),
            Operation("1MB random write", "write", self.random_frames(2)),
            Operation("1MB read, 80/20 locality", "read",
                      self.locality_frames(3)),
            Operation("1MB write, 80/20 locality", "write",
                      self.locality_frames(4)),
        ]
        if not include_writes:
            ops = [op for op in ops if op.kind == "read"]
        return ops
