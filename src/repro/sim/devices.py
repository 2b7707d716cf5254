"""Device and CPU cost models.

These models substitute for the paper's 1992 hardware (magnetic disks and a
Sony WORM optical jukebox on a Sequent Symmetry).  Each model converts a
physical access pattern — which block, how many bytes, sequential or not —
into simulated seconds charged to a shared :class:`~repro.sim.clock.SimClock`.

The defaults are calibrated to early-1990s hardware so the benchmark tables
land in the same order of magnitude as the paper:

* magnetic disk: ~16 ms average seek, 3600 RPM (8.3 ms half-rotation),
  ~1.6 MB/s sustained transfer;
* WORM jukebox: long seeks, slow transfer, and a multi-second platter
  exchange when an access crosses platters (the paper notes they saw only a
  quarter of the rated raw throughput due to a driver bug — the default
  transfer rate reflects the observed, not rated, speed);
* CPU: ~15 MIPS, used to price the paper's "8 instructions/byte" (30 %) and
  "20 instructions/byte" (50 %) compression algorithms.

The *shape* of Figures 2 and 3 — who wins, where compression pays off — falls
out of access counts and these per-access costs, not of the absolute
constants; the constants only set the scale of the reported seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.clock import SimClock


@dataclass(frozen=True)
class DeviceModel:
    """Cost model for a block device.

    Parameters
    ----------
    name:
        Human-readable device name (appears in benchmark breakdowns).
    avg_seek_s:
        Seconds charged when an access is not sequential with the previous
        one (average head movement).
    rotational_s:
        Rotational latency added to every non-sequential access.
    transfer_bytes_per_s:
        Sustained media transfer rate; every access charges
        ``nbytes / transfer_bytes_per_s``.
    write_penalty:
        Multiplier on transfer time for writes (WORM writes verify).
    platter_bytes:
        If set, the device is a jukebox of removable platters of this size;
        crossing a platter boundary charges ``platter_switch_s``.
    platter_switch_s:
        Seconds for the robot arm to exchange platters.
    """

    name: str
    avg_seek_s: float
    rotational_s: float
    transfer_bytes_per_s: float
    write_penalty: float = 1.0
    platter_bytes: int | None = None
    platter_switch_s: float = 0.0

    def access_time(
        self, sequential: bool, nbytes: int, is_write: bool,
        crossed_platter: bool = False,
    ) -> tuple[float, float]:
        """Return ``(positioning_seconds, transfer_seconds)`` for one access."""
        positioning = 0.0
        if crossed_platter:
            positioning += self.platter_switch_s
        if not sequential:
            positioning += self.avg_seek_s + self.rotational_s
        transfer = nbytes / self.transfer_bytes_per_s
        if is_write:
            transfer *= self.write_penalty
        return positioning, transfer


class DevicePort:
    """Tracks head position for one device and charges a clock.

    A port is shared by every relation file living on the same device, which
    is what makes interleaved access to two files non-sequential — the same
    effect that makes the f-chunk B-tree traversals cost real seeks in the
    paper's random-access rows.
    """

    def __init__(self, model: DeviceModel, clock: SimClock):
        self.model = model
        self.clock = clock
        self._head: tuple[str, int] | None = None
        self._platter: int | None = None
        self.reads = 0
        self.writes = 0
        self.seeks = 0
        self.platter_switches = 0
        #: Simulated seconds this device spent servicing its own accesses.
        #: The shared clock sums every device; ``busy_s`` is what lets a
        #: multi-node topology report its critical path (the busiest
        #: device), which is the number parallel clients actually wait on.
        self.busy_s = 0.0

    def charge_run(self, fileid: str, offset: int, nbytes: int,
                   count: int, is_write: bool) -> float:
        """Charge *count* consecutive accesses of *nbytes* from *offset*
        in file *fileid*: bit for bit the float additions of *count*
        single accesses, in order — a platter exchange at the access that
        crosses (the arm moves even for a sequential stream), a seek
        first unless the head is there, a transfer each — the seek and
        the transfers under one clock hold.  Returns the seconds charged,
        so a degraded device (a slow storage node) can scale its penalty
        off the real cost."""
        if not count:
            return 0.0
        model = self.model
        if model.platter_bytes and count > 1:
            # A jukebox run may cross platters: charge it access by access.
            total = 0.0
            for i in range(count):
                total += self.charge_run(fileid, offset + i * nbytes, nbytes,
                                         1, is_write)
            return total
        transfer = nbytes / model.transfer_bytes_per_s
        if is_write:
            transfer *= model.write_penalty
            self.writes += count
            category = "io.write"
        else:
            self.reads += count
            category = "io.read"
        charged = 0.0  # what the first access costs
        if model.platter_bytes:
            platter = offset // model.platter_bytes
            if self._platter is not None and platter != self._platter:
                self.platter_switches += 1
                self.clock.advance(model.platter_switch_s, "io.seek")
                charged += model.platter_switch_s
            self._platter = platter
        seek = None
        if self._head != (fileid, offset):
            self.seeks += 1
            seek = model.avg_seek_s + model.rotational_s
            charged += seek
        self.clock.advance_run(transfer, category, count, seek)
        charged += transfer
        busy = self.busy_s + charged
        total = charged
        for _ in range(1, count):  # the rest follow on sequentially
            busy += transfer
            total += transfer
        self.busy_s = busy
        self._head = (fileid, offset + count * nbytes)
        return total

    def charge_read(self, fileid: str, offset: int, nbytes: int) -> float:
        """Charge one read of *nbytes* at *offset* within file *fileid*."""
        return self.charge_run(fileid, offset, nbytes, 1, False)

    def charge_write(self, fileid: str, offset: int, nbytes: int) -> float:
        """Charge one write of *nbytes* at *offset* within file *fileid*."""
        return self.charge_run(fileid, offset, nbytes, 1, True)

    def charge_extra(self, seconds: float, category: str) -> None:
        """Charge extra service time (degraded-mode penalties)."""
        self.clock.advance(seconds, category)
        self.busy_s += seconds

    def stats(self) -> dict[str, int | float]:
        """Access counters for benchmark breakdowns."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "seeks": self.seeks,
            "platter_switches": self.platter_switches,
            "busy_s": self.busy_s,
        }


@dataclass(frozen=True)
class CpuModel:
    """Prices CPU work in instructions, as the paper does for compression."""

    mips: float = 15.0

    def seconds_for(self, instructions: float) -> float:
        """Simulated seconds to retire *instructions* instructions."""
        return instructions / (self.mips * 1e6)

    def charge(self, clock: SimClock, instructions: float) -> None:
        """Charge *instructions* of CPU work to *clock*."""
        clock.advance(self.seconds_for(instructions), "cpu")


def magnetic_disk_device() -> DeviceModel:
    """A circa-1992 SCSI magnetic disk (the paper's local-disk manager)."""
    return DeviceModel(
        name="magnetic-disk",
        avg_seek_s=0.016,
        rotational_s=0.0083,
        transfer_bytes_per_s=1.6e6,
    )


def nvram_device() -> DeviceModel:
    """Battery-backed RAM: no positioning cost, memcpy-speed transfer."""
    return DeviceModel(
        name="nvram",
        avg_seek_s=0.0,
        rotational_s=0.0,
        transfer_bytes_per_s=40e6,
    )


def jukebox_device() -> DeviceModel:
    """A WORM optical jukebox, at the throughput the paper observed.

    The paper (§9.3) notes the driver delivered only one quarter of the
    rated raw throughput; the transfer rate here reflects that observation.
    """
    return DeviceModel(
        name="worm-jukebox",
        avg_seek_s=0.30,
        rotational_s=0.05,
        transfer_bytes_per_s=0.35e6,
        write_penalty=2.0,
        platter_bytes=3_276_800_000,
        platter_switch_s=8.0,
    )
