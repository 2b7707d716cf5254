"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 benchmarks/e2e/run.py --workload frames_f --seed 1993 \
        --seconds 10 --trace 0

A run is seven replays of the same seeded operation list, each on a fresh
data directory, plus one extra replay that depends on ``--trace``:

* ``--trace 0``: the *counted* replay -- the first two fifths of the list under
  a bytecode counter -- and the end-to-end metrics are printed;
* ``--trace 1``: the *traced* replay -- the whole list with a span recorded
  at every layer boundary -- and the per-layer metrics are printed, the
  spans go to ``.bench_work/trace_<workload>.json``.

Every timing is divided by the reference kernel sampled during the same
replay (``refkernel.py``); a run's value is the median over its seven
replays.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed``, ``metrics``.  The exit code is 0
only when nothing failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

import conditions
import contract
import harness
import workloads
from pyops import OpcodeCounter
from refkernel import REF_US
from tracing import LAYER, LAYERS, NAME, OP, OP_CLASSES, Tracer, breakdown

REPLAYS = 7
#: A harness remainder above this share of an operation's traced time
#: means the spans no longer cover the operation (ROADMAP 1(c)).
MAX_UNCOVERED = 0.05


def sanitise_environment() -> None:
    """Restart the interpreter once if the environment is not already the
    one ``conditions.clean_environment`` describes."""
    env = conditions.clean_environment()
    if env != dict(os.environ):
        sys.stdout.flush()
        os.execve(sys.executable, [sys.executable, *sys.argv], env)


def ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    return numerator / denominator if denominator else default


def median_over(replays: list, value) -> float:
    return statistics.median(value(r) for r in replays)


# -- the extra replays ---------------------------------------------------------


def counted_replay(workload: workloads.Workload, work_dir: str):
    counter = OpcodeCounter()
    rec = harness.CountedRecorder(counter, other_threads=workload.over_wire)
    harness.replay(workload.prefix(), work_dir, rec, phase=lambda: counter,
                   server_factory=harness.InProcessServer, verify=False)
    return rec


def traced_replay(workload: workloads.Workload, work_dir: str):
    child_spans = os.path.join(work_dir, "child_spans.json")
    with Tracer() as tracer:
        rec = harness.TracedRecorder(tracer)
        out = harness.replay(
            workload, work_dir, rec, phase=tracer.recording, verify=False,
            server_factory=functools.partial(harness.ChildServer,
                                             trace_out=child_spans))
    if os.path.exists(child_spans):
        with open(child_spans) as source:
            tracer.adopt(json.load(source))
    return out, tracer


# -- metrics ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    """This process plus the largest server child, as the kernel saw them."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(replays: list, counted) -> dict[str, float]:
    first = replays[0]

    def pyops(cls: str) -> float:
        return statistics.fmean(counted.bytecodes[cls])

    return {
        "setup_s": median_over(replays, lambda r: r.setup_s),
        "read_p50_us": median_over(replays, lambda r: r.p50("read")) * 1e6,
        "write_p50_us": median_over(replays, lambda r: r.p50("write")) * 1e6,
        "commit_p50_ms": median_over(replays, lambda r: r.p50("commit")) * 1e3,
        "throughput_mbps": median_over(
            replays, lambda r: r.user_bytes / r.busy_s() / 1e6),
        "read_pyops": pyops("read"),
        "write_pyops": pyops("write"),
        "commit_pyops": pyops("commit"),
        "space_amp": first.disk_bytes / first.live_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }


def tail(replays: list, cls: str) -> float:
    """p99 over operations of the per-operation minimum across replays: the
    slow operations that are slow every time, not the ones a replay's
    neighbour on the machine made slow once."""
    columns = [r.times.get(cls, ()) for r in replays]
    fastest = sorted(map(min, zip(*columns)))
    if not fastest:
        return 0.0
    return fastest[max(0, math.ceil(0.99 * len(fastest)) - 1)]


def per_layer(replays: list, traced, tracer) -> tuple[dict[str, float], dict]:
    first = replays[0]
    delta, ops = first.stats, first.op_count()
    table = breakdown(tracer.spans, traced.rec.ops)
    traced_ops = sum(entry["ops"] for entry in table.values())
    out: dict[str, float] = {}
    for layer in LAYERS:
        for cls in OP_CLASSES:
            entry = table[cls]
            out[f"{layer}.{cls}_self_us"] = ratio(
                entry["self"][layer], entry["ops"]) * traced.norm * 1e6
        out[f"{layer}.calls_per_op"] = ratio(
            sum(entry["calls"][layer] for entry in table.values()), traced_ops)
    syncs = sum(1 for span in tracer.spans
                if span[OP] >= 0 and span[LAYER] == "smgr"
                and span[NAME].endswith(".sync")
                and traced.rec.ops[span[OP]][0] == "commit")
    out.update({
        "smgr.syncs_per_commit": ratio(syncs, table["commit"]["ops"]),
        "trace.overhead_ratio": ratio(
            traced.user_bytes / traced.busy_s(),
            median_over(replays, lambda r: r.user_bytes / r.busy_s())),
        "storage.hit_rate": ratio(
            delta["buffer.hits"],
            delta["buffer.hits"] + delta["buffer.misses"]),
        "storage.evictions_per_op": delta["buffer.evictions"] / ops,
        "storage.writebacks_per_op": delta["buffer.writebacks"] / ops,
        "storage.prefetch_hit_rate": ratio(
            delta["buffer.prefetch_hits"], delta["buffer.prefetched"]),
        "storage.node_cache_hit_rate": ratio(
            delta["buffer.node_cache_hits"],
            delta["buffer.node_cache_hits"]
            + delta["buffer.node_cache_misses"]),
        "smgr.reads_per_op": delta["disk.reads"] / ops,
        "smgr.writes_per_op": delta["disk.writes"] / ops,
        "smgr.write_amp": ratio(delta["disk.writes"] * 8192,
                                first.written_bytes),
        "access.scanned_per_visible": ratio(
            delta["access.tuples_scanned"], delta["access.tuples_visible"]),
        "access.probes_per_op": delta["access.probes"] / ops,
        "access.range_scans_per_op": delta["access.range_scans"] / ops,
        "txn.locks_per_op": (delta["locks.granted_immediately"]
                             + delta["locks.waits"]) / ops,
        "txn.range_locks_per_op": delta["locks.range_locks"] / ops,
        "txn.lock_waits": delta["locks.waits"] + delta["locks.range_waits"],
        "lo.read_cache_hit_rate": ratio(
            delta["largeobjects.read_cache_hits"],
            delta["largeobjects.read_cache_hits"]
            + delta["largeobjects.read_cache_misses"]),
        "lo.segment_cache_hit_rate": ratio(
            delta["largeobjects.segment_cache_hits"],
            delta["largeobjects.segment_cache_hits"]
            + delta["largeobjects.segment_cache_misses"]),
        "compress.ratio": ratio(tracer.compress_stored, tracer.compress_raw,
                                default=1.0),
        "server.rtt_p50_us": median_over(
            replays, lambda r: r.p50("ping")) * 1e6,
        "server.round_trips_per_op": first.round_trips / ops,
        "server.wire_bytes_per_user_byte": ratio(tracer.wire_bytes,
                                                 traced.user_bytes),
        "lo.read_p99_us": tail(replays, "read") * 1e6,
        "lo.write_p99_us": tail(replays, "write") * 1e6,
        "txn.commit_p99_ms": tail(replays, "commit") * 1e3,
        "ref.kernel_us": median_over(replays, lambda r: r.kernel_us),
    })
    for call in ("create", "open", "rename", "unlink", "listdir", "stat"):
        out[f"inversion.{call}_p50_us"] = median_over(
            replays, lambda r, call=call: r.p50(call)) * 1e6
    return out, table


def assumptions_broken(replays: list, table: dict | None) -> list[str]:
    """What the numbers rest on, checked on every run."""
    problems = []
    first = replays[0]
    if any(r.disk_bytes != first.disk_bytes or r.stats != first.stats
           for r in replays):
        problems.append("replays of one operation list disagree on their "
                        "exact counts")
    if first.stats["locks.waits"] or first.stats["locks.range_waits"]:
        problems.append("a lock wait with a single client")
    for cls, entry in (table or {}).items():
        if entry["ops"] and abs(entry["harness"]) > MAX_UNCOVERED * entry["seconds"]:
            problems.append(
                f"layer self times cover only "
                f"{1 - entry['harness'] / entry['seconds']:.1%} of the traced "
                f"{cls} operations")
    return problems


# -- one run -----------------------------------------------------------------------


class Run:
    """Everything one invocation measured: the seven replays, the extra
    (counted or traced) one's recorder, and what was made of them."""

    def __init__(self, workload, replays, extra, values, problems,
                 table=None, table_norm=1.0):
        self.workload = workload
        self.replays = replays
        self.values: dict[str, float] = values
        self.problems: list[str] = problems
        self.table = table               # per-class layer breakdown
        self.table_norm = table_norm     # of the traced replay
        recorders = [r.rec for r in replays] + [extra]
        self.attempted = sum(rec.attempted for rec in recorders)
        self.failed = sum(rec.failed for rec in recorders)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> Run:
    workload = workloads.build(name, seed, seconds, tiny)
    os.makedirs(harness.WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=harness.WORK_ROOT)
    try:
        replays = [harness.replay(workload, work_dir, harness.Recorder())
                   for _ in range(REPLAYS)]
        if not trace:
            counted = counted_replay(workload, work_dir)
            return Run(workload, replays, counted,
                       end_to_end(replays, counted),
                       assumptions_broken(replays, None))
        traced, tracer = traced_replay(workload, work_dir)
        values, table = per_layer(replays, traced, tracer)
        tracer.write_chrome_trace(
            os.path.join(harness.WORK_ROOT, f"trace_{name}.json"),
            [op[0] for op in traced.rec.ops])
        return Run(workload, replays, traced.rec, values,
                   assumptions_broken(replays, table), table, traced.norm)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# -- output ------------------------------------------------------------------------


def filesystem_of(path: str) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _, mount_point, fs_type = line.split()[:3]
                if (path + "/").startswith(mount_point.rstrip("/") + "/") \
                        and len(mount_point) >= len(best):
                    best, kind = mount_point, fs_type
    except OSError:
        pass
    return kind


def checkout_commit() -> str:
    """The commit measured, when the checkout is a git repository."""
    git = os.path.join(conditions.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as head:
            ref = head.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(git, ref[5:])) as target:
                return target.read().strip()
        return ref
    except OSError:
        return "unknown"


def report(run: Run, args) -> None:
    spec = run.workload.spec
    samples = {cls: len(times)
               for cls, times in run.replays[0].times.items()}
    print(f"# workload {spec.name}  seed {args.seed}  seconds {args.seconds}"
          f"  trace {args.trace}")
    print(f"# python {platform.python_version()}, {os.cpu_count()} cpus, "
          f"commit {checkout_commit()}")
    print(f"# data under {harness.WORK_ROOT} "
          f"({filesystem_of(harness.WORK_ROOT)}), fsync elided")
    print(f"# operation list {run.workload.digest[:16]}: "
          f"{len(run.workload.txns)} transactions, {REPLAYS} replays, "
          f"samples per replay {samples}")
    print("# reference kernel per replay (us, REF_US "
          f"{REF_US}): " + " ".join(f"{r.kernel_us:.1f}" for r in run.replays))
    if run.table is not None:
        print(f"# self time per traced operation, us on the reference box"
              f" (spans in {harness.WORK_ROOT}/trace_{spec.name}.json)")
        print("# " + "".join(f"{h:>11}" for h in
                             ("class", "ops", *LAYERS, "harness", "total")))
        for cls, entry in run.table.items():
            if not entry["ops"]:
                continue
            scale = 1e6 / entry["ops"] * run.table_norm
            cells = [entry["self"][layer] * scale for layer in LAYERS]
            print(f"# {cls:>11}{entry['ops']:>11}"
                  + "".join(f"{c:>11.1f}" for c in cells)
                  + f"{entry['harness'] * scale:>11.1f}"
                  + f"{entry['seconds'] * scale:>11.1f}")
    units = contract.units("per_layer" if args.trace else "end_to_end")
    for name, unit in units.items():
        print(f"{name:34} {run.values[name]:>16.4f} {unit}")
    for problem in run.problems:
        print(f"PROBLEM: {problem}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.SPECS))
    parser.add_argument("--seed", type=int, default=1993)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the operation list; nothing is cut short")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small objects too (the self-test's sizes)")
    args = parser.parse_args(argv)
    sanitise_environment()
    conditions.use_checkout_engine()
    conditions.elide_fsync()
    conditions.pin_to_one_cpu()
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace), args.tiny)
    report(run, args)
    return 0 if run.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
