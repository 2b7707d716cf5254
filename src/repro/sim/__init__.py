"""Simulated-time accounting for storage devices and CPU work.

The paper's evaluation (Figures 2 and 3) reports *elapsed seconds* on 1992
hardware — magnetic disks and a Sony WORM optical jukebox attached to a
Sequent Symmetry.  That hardware is unavailable, so every storage manager in
this reproduction counts its I/O on a :class:`~repro.sim.clock.SimClock`
priced by a :class:`~repro.sim.devices.DeviceModel`, and compression counts
instructions-per-byte priced by a :class:`~repro.sim.devices.CpuModel`.  The
harness reads the clock (counts × costs) to produce the paper-style tables.
"""

from repro.sim.clock import SimClock
from repro.sim.devices import (
    CpuModel,
    DeviceModel,
    jukebox_device,
    magnetic_disk_device,
    nvram_device,
)
from repro.sim.faults import FaultPlan, FaultRule, SimulatedCrash, parse_plan

__all__ = [
    "SimClock",
    "CpuModel",
    "DeviceModel",
    "magnetic_disk_device",
    "nvram_device",
    "jukebox_device",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
    "parse_plan",
]
