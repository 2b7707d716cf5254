"""The conditions every process of the benchmark runs under.

Kept apart from the harness so that the server child, which is started
for every replay, imports nothing it does not need.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")


def clean_environment() -> dict[str, str]:
    """The environment of every process: a fixed hash seed, so dict and set
    order repeat, and none of the engine's debug tripwires."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("REPRO_DEBUG_LATCH", "REPRO_LOCKDEP")}
    env["PYTHONHASHSEED"] = "0"
    return env


def use_checkout_engine() -> None:
    """Import ``repro`` from this checkout's ``src`` and from nowhere else."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SystemExit(f"no engine to measure: {SRC}/repro is missing")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def pin_to_one_cpu() -> None:
    """Run this process, and every child it starts, on one CPU.

    The workloads are closed loops with one client, so client and server
    never have work at the same moment and a second CPU buys nothing.
    What it costs is the wake-up between virtual CPUs, which on this class
    of sandbox is a lottery: the same build reads 235 or 400 microseconds
    for a two-round-trip read depending on where the scheduler put the
    two processes.  On one CPU a round trip is a context switch.  The last
    CPU is used because the first one usually takes the interrupts.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def elide_fsync() -> None:
    """The flush policy: ``fsync`` is issued as shipped and costs nothing."""
    os.fsync = lambda fd: None
