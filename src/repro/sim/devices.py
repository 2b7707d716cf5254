"""Device and CPU cost models.

These models substitute for the paper's 1992 hardware (magnetic disks and a
Sony WORM optical jukebox on a Sequent Symmetry).  Each model converts a
physical access pattern — which block, how many bytes, sequential or not —
into simulated seconds, derived from a port's counts when its shared
:class:`~repro.sim.clock.SimClock` is read.

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


class DevicePort:
    """Tracks head position for one device and counts its accesses.

    A port is shared by every relation file living on the same device, which
    is what makes interleaved access to two files non-sequential — the same
    effect that makes the f-chunk B-tree traversals cost real seeks in the
    paper's random-access rows.  Its clock derives seconds from its counts.
    """

    def __init__(self, model: DeviceModel, clock: SimClock):
        self.model = model
        self.clock = clock
        self._head: tuple[str, int] | None = None
        self._platter: int | None = None
        self.reads = 0
        self.writes = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self.seeks = 0
        self.platter_switches = 0
        #: Degraded-mode penalties (:meth:`charge_extra`), in seconds.
        self.extra_s = 0.0
        clock.ports.append(self)

    def charge_run(self, fileid: str, offset: int, nbytes: int,
                   count: int, is_write: bool) -> None:
        """Count *count* consecutive accesses of *nbytes* from *offset* of
        *fileid*: a seek unless the head is there, a platter exchange per
        platter crossed (no access spans a platter), accesses and bytes."""
        if not count:
            return
        platter_bytes = self.model.platter_bytes
        if platter_bytes:
            first = offset // platter_bytes
            last = (offset + (count - 1) * nbytes) // platter_bytes
            self.platter_switches += last - first + (
                self._platter is not None and first != self._platter)
            self._platter = last
        if self._head != (fileid, offset):
            self.seeks += 1
        self._head = (fileid, offset + count * nbytes)
        if is_write:
            self.writes += count
            self.write_bytes += count * nbytes
        else:
            self.reads += count
            self.read_bytes += count * nbytes

    def charge_extra(self, seconds: float, category: str) -> None:
        """Charge extra service time (degraded-mode penalties)."""
        self.clock.advance(seconds, category)
        self.extra_s += seconds

    def costs(self) -> tuple[float, float, float]:
        """Read, write and positioning seconds: counts × model costs."""
        model = self.model
        rate = model.transfer_bytes_per_s
        return (self.read_bytes / rate,
                self.write_bytes / rate * model.write_penalty,
                self.seeks * (model.avg_seek_s + model.rotational_s)
                + self.platter_switches * model.platter_switch_s)

    @property
    def busy_s(self) -> float:
        """Simulated seconds this device spent servicing its own accesses.
        The shared clock sums every device; ``busy_s`` is what lets a
        multi-node topology report its critical path (the busiest
        device), which is the number parallel clients actually wait on."""
        read, write, seek = self.costs()
        return read + write + seek + self.extra_s

    def stats(self) -> dict[str, int | float]:
        """Access counters for benchmark breakdowns."""
        return {"reads": self.reads, "writes": self.writes,
                "seeks": self.seeks, "platter_switches": self.platter_switches,
                "busy_s": self.busy_s}


@dataclass(frozen=True, eq=False)
class CpuModel:
    """Prices CPU work in instructions, as the paper does for compression
    (a clock counts each model's instructions apart: identity hashing)."""

    mips: float = 15.0

    def seconds_for(self, instructions: float) -> float:
        """Simulated seconds to retire *instructions* instructions."""
        return instructions / (self.mips * 1e6)

    def charge(self, clock: SimClock, instructions: float) -> None:
        """Count *instructions* of CPU work on *clock*."""
        clock.count_instructions(self, instructions)


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
