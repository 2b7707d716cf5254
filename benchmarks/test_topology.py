"""Topology benchmark assertions: sharding must actually scale.

Unlike the wall-clock micro-benches these numbers are *simulated* (per-
node ``DevicePort.busy_s``), so they are deterministic and can be
asserted hard:

* the PR acceptance criterion — 4 disjoint-range writers over a 4-node
  sharded disk backend deliver at least 2x the aggregate write
  throughput of the single plain-disk manager;
* node-count scaling is monotone 1 -> 2 -> 4 -> 8 at R=1;
* replication costs writes roughly linearly (R=3 writes every byte three
  times) but leaves read throughput alone (reads go to one replica);
* load skew erodes the critical-path win — the busiest node bounds the
  fleet.
"""

from repro.bench.report import render_table
from repro.bench.topology import (BASELINE, DEFAULT_SCENARIOS, Topology,
                                  run_scenario, run_topology)


def test_four_node_sharded_beats_single_disk_2x(tmp_path):
    """The ISSUE acceptance criterion, on real files for both sides."""
    base = run_scenario(BASELINE, clients=4, bands_per_client=6,
                        directory=str(tmp_path / "disk"))
    shard = run_scenario(Topology("sharded 4xR1", 4), clients=4,
                         bands_per_client=6,
                         directory=str(tmp_path / "shard"))
    assert base.bytes_written == shard.bytes_written > 0
    assert shard.write_mb_s >= 2 * base.write_mb_s, (
        f"sharded {shard.write_mb_s:.2f} MB/s vs "
        f"disk {base.write_mb_s:.2f} MB/s")
    assert shard.read_mb_s >= 2 * base.read_mb_s


def test_node_count_scaling_is_monotone():
    results = {n: run_scenario(Topology(f"{n}n", n), clients=4)
               for n in (1, 2, 4, 8)}
    assert results[1].write_mb_s < results[2].write_mb_s \
        < results[4].write_mb_s < results[8].write_mb_s
    # 4 uniform clients over 4 nodes: banded range placement spreads the
    # bands evenly, so no node carries more than half the service time.
    assert results[4].balance <= 0.5


def test_replication_taxes_writes_not_reads():
    r1 = run_scenario(Topology("4xR1", 4), clients=4)
    r3 = run_scenario(Topology("4xR3", 4, replication=3, write_quorum=2),
                      clients=4)
    # Every byte is written three times instead of once; allow slack for
    # placement imbalance, but at least half the ideal 3x tax must show.
    assert r1.write_mb_s >= 1.5 * r3.write_mb_s
    # Reads hit one fresh replica, so R does not slow them down.
    assert r3.read_mb_s >= 0.9 * r1.read_mb_s


def test_skew_erodes_the_parallel_win():
    uniform = run_scenario(Topology("4xR1", 4), clients=4, skew=0.0)
    skewed = run_scenario(Topology("4xR1", 4), clients=4, skew=2.0)
    assert skewed.balance > uniform.balance
    assert skewed.write_mb_s < uniform.write_mb_s


def test_topology_figure_renders_every_scenario():
    text = render_table(run_topology())
    for topology in DEFAULT_SCENARIOS:
        assert topology.name in text
    assert "write MB/s" in text
