"""Topology benchmark: sharded write/read throughput vs node count.

The figure harness answers "does the reproduction match the paper?";
this module answers the scale-out question ROADMAP item 3 poses: *what
does adding storage nodes (and replicas) buy?*  A fleet of simulated
clients writes disjoint block ranges — one relation file per client, so
each stream is sequential — through a storage manager, then reads
everything back.  Every node owns a :class:`~repro.sim.devices.DevicePort`
whose ``busy_s`` accumulates that device's service time, so

    throughput  =  bytes moved / busiest node's busy_s

is the critical-path number N parallel clients actually wait on.  (The
shared simulation clock serializes *charges*; ``busy_s`` is per-device,
which is what makes parallel speedup visible at all.)

Scenarios chart two axes:

* **node count** — 1 plain disk, then sharded over 1/2/4/8 nodes at
  replication 1: near-linear write scaling, minus band-switch seeks;
* **replica factor** — 4 nodes at R=1/2/3: every extra replica writes
  each byte again, so write throughput falls ~linearly while read
  throughput holds (reads go to one replica).

``skew`` makes client 0 hotter than the rest (Zipf-ish weights), which
caps the critical-path win — the busiest node bounds the fleet.

CLI: ``repro-bench topology [--clients N] [--bands N] [--skew S]``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from repro.sim.clock import SimClock
from repro.smgr.base import BAND_BLOCKS, StorageManager
from repro.smgr.disk import DiskStorageManager
from repro.smgr.sharded import (sharded_disk_manager,
                                sharded_memory_manager)
from repro.storage.constants import PAGE_SIZE


@dataclass(frozen=True)
class Topology:
    """One storage layout to benchmark.

    ``n_nodes == 0`` selects the plain single-node ``disk`` manager (the
    baseline every sharded row is compared against); any other value
    builds a sharded manager over that many nodes.
    """

    name: str
    n_nodes: int
    replication: int = 1
    write_quorum: int | None = None


@dataclass
class TopologyResult:
    """Throughput of one scenario, critical-path accounting."""

    topology: Topology
    clients: int
    skew: float
    bytes_written: int
    bytes_read: int
    write_busy_max_s: float
    write_busy_total_s: float
    read_busy_max_s: float
    per_node_write_busy: dict[str, float] = field(default_factory=dict)

    @property
    def write_mb_s(self) -> float:
        if self.write_busy_max_s == 0:
            return 0.0
        return self.bytes_written / self.write_busy_max_s / 1e6

    @property
    def read_mb_s(self) -> float:
        if self.read_busy_max_s == 0:
            return 0.0
        return self.bytes_read / self.read_busy_max_s / 1e6

    @property
    def balance(self) -> float:
        """Busiest node's share of total write service time (1/N is
        perfect balance, 1.0 is one node doing everything)."""
        if self.write_busy_total_s == 0:
            return 1.0
        return self.write_busy_max_s / self.write_busy_total_s

    def as_dict(self) -> dict:
        return {
            "name": self.topology.name,
            "n_nodes": self.topology.n_nodes,
            "replication": self.topology.replication,
            "clients": self.clients,
            "skew": self.skew,
            "bytes_written": self.bytes_written,
            "write_mb_s": round(self.write_mb_s, 3),
            "read_mb_s": round(self.read_mb_s, 3),
            "balance": round(self.balance, 3),
            "per_node_write_busy_s": {
                node: round(busy, 6)
                for node, busy in self.per_node_write_busy.items()},
        }


def _make_manager(topology: Topology, clock: SimClock,
                  directory: str | None) -> StorageManager:
    if topology.n_nodes == 0:
        if directory is None:
            raise ValueError(
                "the single-disk baseline needs a directory")
        return DiskStorageManager(directory, clock)
    kwargs = dict(n_nodes=topology.n_nodes,
                  replication=topology.replication,
                  write_quorum=topology.write_quorum)
    if directory is None:
        return sharded_memory_manager(clock, **kwargs)
    return sharded_disk_manager(directory, clock, **kwargs)


def _node_busy(smgr: StorageManager) -> dict[str, float]:
    return {node.node_id: node.port.busy_s for node in smgr.nodes}


def _client_bands(clients: int, bands_per_client: int,
                  skew: float) -> list[int]:
    """Bands each client writes; ``skew`` concentrates load Zipf-style."""
    if skew <= 0:
        return [bands_per_client] * clients
    weights = [1.0 / (rank + 1) ** skew for rank in range(clients)]
    total = sum(weights)
    budget = clients * bands_per_client
    bands = [max(1, round(budget * weight / total)) for weight in weights]
    return bands


def _page(tag: int) -> bytes:
    return bytes([(tag * 31 + 7) % 251 + 1]) * PAGE_SIZE


def run_scenario(topology: Topology, clients: int = 4,
                 bands_per_client: int = 6, skew: float = 0.0,
                 directory: str | None = None) -> TopologyResult:
    """Drive the disjoint-range client fleet through one topology.

    Each client owns one relation file and writes it in band-sized
    sequential bursts; clients are interleaved round-robin band by band,
    which is the access pattern N concurrent writers present to the
    devices.  A full read-back pass follows.
    """
    clock = SimClock()
    smgr = _make_manager(topology, clock, directory)
    files = [f"bench_client{k}" for k in range(clients)]
    bands = _client_bands(clients, bands_per_client, skew)
    for fileid in files:
        smgr.create(fileid)

    written = [0] * clients  # next block per client file (dense contract)
    for band in range(max(bands)):
        for k, fileid in enumerate(files):
            if band >= bands[k]:
                continue
            for _ in range(BAND_BLOCKS):
                smgr.write_block(fileid, written[k], _page(written[k]))
                written[k] += 1
    write_busy = _node_busy(smgr)
    write_busy_max = max(write_busy.values())
    write_busy_total = sum(write_busy.values())
    bytes_written = sum(written) * PAGE_SIZE

    for k, fileid in enumerate(files):
        for blockno in range(written[k]):
            smgr.read_block(fileid, blockno)
    read_busy = {node: busy - write_busy[node]
                 for node, busy in _node_busy(smgr).items()}
    bytes_read = bytes_written

    close = getattr(smgr, "close", None)
    if close:
        close()
    return TopologyResult(
        topology=topology, clients=clients, skew=skew,
        bytes_written=bytes_written, bytes_read=bytes_read,
        write_busy_max_s=write_busy_max,
        write_busy_total_s=write_busy_total,
        read_busy_max_s=max(read_busy.values()),
        per_node_write_busy=write_busy)


#: The fixed chart: node-count axis, then replica-factor axis.  The
#: plain-disk baseline needs real files, so it only joins when the
#: caller provides a directory (``--dir`` on the CLI).
BASELINE = Topology("disk, 1 node (baseline)", 0)

DEFAULT_SCENARIOS = (
    Topology("sharded, 1 node, R=1", 1),
    Topology("sharded, 2 nodes, R=1", 2),
    Topology("sharded, 4 nodes, R=1", 4),
    Topology("sharded, 8 nodes, R=1", 8),
    Topology("sharded, 4 nodes, R=2", 4, replication=2),
    Topology("sharded, 4 nodes, R=3 (Q=2)", 4, replication=3,
             write_quorum=2),
)


def run_suite(clients: int = 4, bands_per_client: int = 6,
              skew: float = 0.0,
              scenarios: tuple[Topology, ...] = DEFAULT_SCENARIOS,
              directory: str | None = None) -> list[TopologyResult]:
    """All scenarios; with *directory* the nodes hit real files and the
    plain single-disk baseline joins the chart."""
    if directory is not None:
        scenarios = (BASELINE, *scenarios)
    results = []
    for index, topology in enumerate(scenarios):
        subdir = None
        if directory is not None:
            subdir = os.path.join(directory, f"topo{index}")
            os.makedirs(subdir, exist_ok=True)
        results.append(run_scenario(
            topology, clients=clients,
            bands_per_client=bands_per_client, skew=skew,
            directory=subdir))
    return results


def render(results: list[TopologyResult]) -> str:
    """A table plus an ASCII bar chart of write throughput."""
    baseline = results[0].write_mb_s if results else 0.0
    header = (f"{'topology':<28}{'write MB/s':>12}{'read MB/s':>12}"
              f"{'vs base':>9}{'balance':>9}")
    lines = [header, "-" * len(header)]
    for result in results:
        speedup = (result.write_mb_s / baseline) if baseline else 0.0
        lines.append(
            f"{result.topology.name:<28}{result.write_mb_s:>12.2f}"
            f"{result.read_mb_s:>12.2f}{speedup:>8.2f}x"
            f"{result.balance:>9.2f}")
    peak = max((r.write_mb_s for r in results), default=0.0)
    if peak > 0:
        lines.append("")
        lines.append("write throughput (critical path):")
        for result in results:
            bar = "#" * max(1, round(result.write_mb_s / peak * 40))
            lines.append(f"  {result.topology.name:<28}"
                         f"{bar} {result.write_mb_s:.2f}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench topology",
        description="Sharded-storage throughput vs node count and "
                    "replica factor (simulated, critical-path)")
    parser.add_argument("--clients", type=int, default=4,
                        help="disjoint-range writer fleet size "
                             "(default 4)")
    parser.add_argument("--bands", type=int, default=6,
                        help="16-block bands each client writes "
                             "(default 6 = 384 KB/client)")
    parser.add_argument("--skew", type=float, default=0.0,
                        help="client-load skew exponent (0 = uniform; "
                             "higher concentrates load on client 0)")
    parser.add_argument("--dir", default=None, metavar="PATH",
                        help="run against real files under PATH and "
                             "include the plain-disk baseline")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the results as JSON")
    args = parser.parse_args(argv)

    results = run_suite(clients=args.clients,
                        bands_per_client=args.bands, skew=args.skew,
                        directory=args.dir)
    print(render(results))
    if args.json:
        # Host-side results artifact, not engine block I/O (bench/ is
        # exempt from R003).
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump([result.as_dict() for result in results], fh,
                      indent=2)
            fh.write("\n")
        print(f"\nresults written to {args.json}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
