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

The scenarios span two axes:

* **node count** — sharded over 1/2/4/8 nodes at replication 1:
  near-linear write scaling, minus band-switch seeks (the plain disk,
  :data:`BASELINE`, needs real files and runs only in the tests);
* **replica factor** — 4 nodes at R=1/2/3: every extra replica writes
  each byte again, so write throughput falls ~linearly while read
  throughput holds (reads go to one replica).

``skew`` makes client 0 hotter than the rest (Zipf-ish weights), which
caps the critical-path win — the busiest node bounds the fleet.

``repro-bench topology`` prints :func:`run_topology`'s table of the six
fixed scenarios; tests drive :func:`run_scenario` directly for skew and
for the plain-disk baseline on real files.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.bench.report import FigureResult
from repro.sim.clock import SimClock
from repro.smgr.base import BAND_BLOCKS, StorageManager
from repro.smgr.disk import DiskStorageManager
from repro.smgr.sharded import (sharded_disk_manager,
                                sharded_memory_manager)
from repro.storage.constants import PAGE_SIZE

if TYPE_CHECKING:
    from repro.bench.figures import BenchConfig


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
    bytes_written: int
    bytes_read: int
    write_busy_max_s: float
    write_busy_total_s: float
    read_busy_max_s: float

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
    return [max(1, round(budget * weight / total)) for weight in weights]


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
        topology=topology, bytes_written=bytes_written,
        bytes_read=bytes_read, write_busy_max_s=write_busy_max,
        write_busy_total_s=write_busy_total,
        read_busy_max_s=max(read_busy.values()))


#: The plain single-disk manager needs real files, so only a caller with
#: a directory can run it (``run_scenario(BASELINE, directory=...)``).
BASELINE = Topology("disk, 1 node (baseline)", 0)

#: The fixed figure: node-count axis, then replica-factor axis.
DEFAULT_SCENARIOS = (
    Topology("sharded, 1 node, R=1", 1),
    Topology("sharded, 2 nodes, R=1", 2),
    Topology("sharded, 4 nodes, R=1", 4),
    Topology("sharded, 8 nodes, R=1", 8),
    Topology("sharded, 4 nodes, R=2", 4, replication=2),
    Topology("sharded, 4 nodes, R=3 (Q=2)", 4, replication=3,
             write_quorum=2),
)


def run_topology(config: BenchConfig | None = None) -> FigureResult:
    """Throughput of :data:`DEFAULT_SCENARIOS` at four uniform clients.

    The fleet is fixed, so *config* (object scale and seed) does not
    change the table; it is taken so that every figure runs alike.
    """
    figure = FigureResult(
        title="Topology: sharded throughput vs node count and replicas",
        row_labels=[], col_labels=[], unit="mixed")
    figure.notes.append(
        "simulated MB/s on the critical path (bytes moved / busiest "
        "node's service time); balance = busiest node's share of write "
        "service time (1/N is even)")
    for topology in DEFAULT_SCENARIOS:
        result = run_scenario(topology)
        figure.set(topology.name, "write MB/s", result.write_mb_s)
        figure.set(topology.name, "read MB/s", result.read_mb_s)
        figure.set(topology.name, "balance", result.balance)
    return figure
