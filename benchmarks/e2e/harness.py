"""Replay a workload against the engine, check every byte, time every call.

The engine is driven only through its public surfaces -- ``Database``,
``Session``, ``db.lo``, ``db.inversion``, ``ServerClient`` and the
``repro-server`` entry point -- closed loop, one client.  A *replay* runs
the workload's whole operation list on a fresh data directory:

    set-up (timed) -> operations (each timed) -> close -> measure space
    -> reopen -> re-read every live object against the model
    -> ``check_integrity()``

The harness keeps its own model of what every object or file must contain
and compares every read with it.  An operation that raises or returns
other bytes is counted in ``failed``, never dropped.

Flush policy: the engine issues ``fsync`` exactly as shipped, but the
benchmark turns the call into a no-op (``conditions.elide_fsync``), in
the harness process and in the server child.  The data directory has to live inside
the checkout, on whatever disk that is; this sandbox's disk takes 300 to
500 microseconds per ``fsync`` depending on the second it is asked in,
which no reference kernel tracks.  So commit latency here is the engine's
force path -- pages written, files walked, log appended -- and the device
side is carried by exact counts (``smgr.syncs_per_commit``,
``smgr.writes_per_op``, ``smgr.write_amp``).
"""

from __future__ import annotations

import contextlib
import gc
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import defaultdict

from conditions import HERE, ROOT, clean_environment
from refkernel import REF_US, RefKernel
from workloads import FRAME_BYTES, FrameSpec, Workload

#: Data directories, scratch files and traces; inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".bench_work")

#: Kernel samples taken on each side of set-up (the operations phase adds
#: one before every transaction).
REF_BURST = 24
#: Kernel samples around an operation that its time is divided by.
REF_WINDOW = 11
#: Frames compared at a time when a replay's result is read back.
VERIFY_FRAMES = 64
#: How long the server child may take to say where it listens, or to exit.
CHILD_TIMEOUT_S = 30.0


def open_database(path: str, pool_size: int):
    """The configuration ``repro-server`` ships: no simulated CPU charge."""
    from repro.db import Database
    return Database(path, pool_size=pool_size, charge_cpu=False)


# -- recording ---------------------------------------------------------------


class Recorder:
    """Times every operation, by class; counts attempts and failures."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = defaultdict(list)
        #: For every time, the index of the last kernel sample before it.
        self.slots: dict[str, list[int]] = defaultdict(list)
        self.slot = 0
        self.attempted = 0
        self.failed = 0

    def op(self, cls: str, fn, *args):
        self.attempted += 1
        start = time.perf_counter()
        result = fn(*args)
        self.times[cls].append(time.perf_counter() - start)
        self.slots[cls].append(self.slot)
        return result

    def check(self, ok: bool, what: str) -> None:
        """One verification outside the timed operations."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED: {what}", file=sys.stderr)

    def error(self, what: str) -> None:
        """An operation raised: the traceback is the report."""
        self.fail(f"{what} raised\n{traceback.format_exc()}")


class TracedRecorder(Recorder):
    """Also tells the tracer which operation its spans belong to."""

    def __init__(self, tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self.ops: list[tuple] = []       # (class, start, end) by op id

    def op(self, cls: str, fn, *args):
        self.attempted += 1
        self.tracer.op = len(self.ops)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            end = time.perf_counter()
            self.tracer.op = -1
            self.ops.append((cls, start, end))
        self.times[cls].append(end - start)
        self.slots[cls].append(self.slot)
        return result


class CountedRecorder(Recorder):
    """Also reads the bytecode counter around every operation; with
    *other_threads* (a server in this process) it first waits for them to
    go quiet."""

    def __init__(self, counter, other_threads: bool) -> None:
        super().__init__()
        self.counter = counter
        self.other_threads = other_threads
        self.bytecodes: dict[str, list[int]] = defaultdict(list)

    def op(self, cls: str, fn, *args):
        before = self.counter.count
        result = super().op(cls, fn, *args)
        if self.other_threads:
            self.counter.settle()
        self.bytecodes[cls].append(self.counter.count - before)
        return result


# -- the server, as a child or in this process ---------------------------------


def _stop_while_poking(address: tuple[str, int], stop) -> None:
    """Call *stop* (which blocks until the server is down) while connecting
    to *address* every few milliseconds.

    ``ReproServer.stop`` closes its listening socket and joins the accept
    thread, but on Linux closing a socket does not wake a thread blocked
    in ``accept`` on it, so the join runs into its ten-second timeout.  A
    connection does wake it.  Ten seconds per replay is more than a run
    may take.
    """
    stopped = threading.Event()

    def poke() -> None:
        while not stopped.wait(0.02):
            with contextlib.suppress(OSError):
                socket.create_connection(address, timeout=1.0).close()

    poker = threading.Thread(target=poke, name="bench-poke")
    poker.start()
    try:
        stop()
    finally:
        stopped.set()
        poker.join()


class ChildServer:
    """``repro-server`` in a child process, through ``serverchild.py``."""

    def __init__(self, path: str, pool_size: int, trace_out: str | None = None):
        self._argv = [sys.executable, os.path.join(HERE, "serverchild.py")]
        if trace_out is not None:
            self._argv += ["--trace-out", trace_out]
        self._argv += ["--path", path, "--pool-size", str(pool_size)]
        self._child: subprocess.Popen | None = None
        self._address: tuple[str, int] | None = None

    def start(self) -> tuple[str, int]:
        self._child = subprocess.Popen(self._argv, stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE,
                                       env=clean_environment())
        ready, _, _ = select.select([self._child.stdout], [], [],
                                    CHILD_TIMEOUT_S)
        line = self._child.stdout.readline().decode() if ready else ""
        if "listening on" not in line:
            self.stop()
            raise RuntimeError(f"server child did not start: {line!r}")
        host, _, port = line.split()[-1].rpartition(":")
        self._address = host, int(port)
        return self._address

    def stop(self) -> None:
        child, self._child = self._child, None
        if child is None:
            return
        if child.poll() is None:
            child.send_signal(signal.SIGINT)
        errors = b""

        def wait() -> None:
            nonlocal errors
            try:
                _, errors = child.communicate(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                _, errors = child.communicate()

        if self._address is not None:
            _stop_while_poking(self._address, wait)
        else:
            wait()
        if child.returncode != 0:
            print(f"server child exited {child.returncode}:\n"
                  f"{errors.decode(errors='replace')}", file=sys.stderr)


class InProcessServer:
    """``ReproServer`` on a thread of this process, for the counted replay:
    client and connection-thread bytecodes land in one counter."""

    def __init__(self, path: str, pool_size: int):
        self._path, self._pool_size = path, pool_size
        self._db = self._server = None

    def start(self) -> tuple[str, int]:
        from repro.server import ReproServer
        self._db = open_database(self._path, self._pool_size)
        self._server = ReproServer(self._db)
        return self._server.start()

    def stop(self) -> None:
        if self._server is not None:
            _stop_while_poking(self._server.address, self._server.stop)
            self._db.close()
            self._db = self._server = None


# -- executors: one per way of reaching the engine ------------------------------


def _seek_read(handle, offset: int, nbytes: int) -> bytes:
    handle.seek(offset)
    return handle.read(nbytes)


def _seek_write(handle, offset: int, data: bytes) -> None:
    handle.seek(offset)
    handle.write(data)


class FrameExecutor:
    """Frames of one large object through ``Database`` and ``Session``."""

    def __init__(self, workload: Workload, path: str):
        self.spec: FrameSpec = workload.spec
        self.path = path
        self.frames = list(workload.initial)     # the model
        self.user_bytes = 0                      # read and written
        self.written_bytes = 0
        self.round_trips = 0                     # over the wire only
        self.db = self.session = self.designator = None

    # engine access: overridden by the wire executor

    def _open_engine(self) -> None:
        self.db = open_database(self.path, self.spec.pool_size)

    def connect(self) -> None:
        self.session = self.db.session()

    def _create(self) -> None:
        self.session.begin()
        self.designator = self.session.lo_create(
            self.spec.impl, compression=self.spec.compression)
        self.session.commit()

    def _begin_open(self, mode: str):
        self.session.begin()
        return self.session.lo_open(self.designator, mode)

    _read = staticmethod(_seek_read)
    _write = staticmethod(_seek_write)

    def _commit(self, rec: Recorder, handle) -> None:
        rec.op("commit", self.session.commit)    # closes the descriptor

    def _rollback(self) -> None:
        if self.session.in_transaction:
            self.session.rollback()

    def statistics(self) -> dict:
        return self.db.statistics()

    def shutdown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = self.session = None

    # the workload

    def setup(self) -> None:
        self._open_engine()
        self.connect()
        self._create()
        handle = self._begin_open("rw")
        for frame in self.frames:
            handle.write(frame)
        self.session.commit()

    def run(self, steps: list, rec: Recorder, tick) -> None:
        tick()
        pending: dict[int, bytes] = {}
        try:
            handle = rec.op("other", self._begin_open, "rw")
            for step in steps:
                index = step[1]
                if step[0] == "read":
                    data = rec.op("read", self._read, handle,
                                  index * FRAME_BYTES, FRAME_BYTES)
                    if data != pending.get(index, self.frames[index]):
                        rec.fail(f"frame {index} read back wrong")
                else:
                    rec.op("write", self._write, handle,
                           index * FRAME_BYTES, step[2])
                    pending[index] = step[2]
                    self.written_bytes += FRAME_BYTES
                self.user_bytes += FRAME_BYTES
            self._commit(rec, handle)
        except Exception:
            rec.error(f"transaction on {self.spec.name}")
            self._rollback()
            return
        for index, frame in pending.items():
            self.frames[index] = frame

    def live_bytes(self) -> int:
        return len(self.frames) * FRAME_BYTES

    def verify(self, rec: Recorder) -> None:
        """Reopen from the directory alone; every frame must be there.

        Always in this process through ``Database``, also when the replay
        went through a server: durability is a property of the directory,
        and a process start costs this sandbox anything from 0.2 to 2 s.
        Read back in large pieces, since this part is not timed.
        """
        try:
            with open_database(self.path, self.spec.pool_size) as db:
                with db.lo.open(self.designator) as handle:
                    for index in range(0, len(self.frames), VERIFY_FRAMES):
                        expected = b"".join(
                            self.frames[index:index + VERIFY_FRAMES])
                        rec.check(_seek_read(handle, index * FRAME_BYTES,
                                             len(expected)) == expected,
                                  f"frames from {index} wrong after reopen")
                problems = db.check_integrity()
                rec.check(not problems, f"check_integrity: {problems[:3]}")
        except Exception:
            rec.attempted += 1
            rec.error("verification after reopen")


def _wire_read(client_fd, offset: int, nbytes: int) -> bytes:
    client, fd = client_fd
    client.lo_seek(fd, offset)
    return client.lo_read(fd, nbytes)


def _wire_write(client_fd, offset: int, data: bytes) -> None:
    client, fd = client_fd
    client.lo_seek(fd, offset)
    client.lo_write(fd, data)


class WireFrameExecutor(FrameExecutor):
    """The same frames through ``ServerClient`` to a server.

    Every call is one round trip.  After each commit the client pings, so
    the bare round-trip time is sampled beside the calls that carry work.
    """

    def __init__(self, workload: Workload, path: str, server_factory):
        super().__init__(workload, path)
        self._server_factory = server_factory
        self.server = self.client = None

    def _open_engine(self) -> None:
        self.server = self._server_factory(self.path, self.spec.pool_size)
        self._address = self.server.start()

    def connect(self) -> None:
        """A fresh connection (and so a fresh server thread, which is what
        lets the bytecode counter see it)."""
        from repro.server import ServerClient
        if self.client is not None:
            self.client.close()
        self.client = ServerClient(*self._address)

    def _create(self) -> None:
        self.client.begin()
        self.designator = self.client.lo_create(
            self.spec.impl, compression=self.spec.compression)
        self.client.commit()

    def _begin_open(self, mode: str):
        self.client.begin()
        return self.client, self.client.lo_open(self.designator, mode)

    _read = staticmethod(_wire_read)
    _write = staticmethod(_wire_write)

    def setup(self) -> None:
        self._open_engine()
        self.connect()
        self._create()
        client, fd = self._begin_open("rw")
        for frame in self.frames:
            client.lo_write(fd, frame)
        client.commit()

    def _commit(self, rec: Recorder, handle) -> None:
        client, fd = handle
        rec.op("other", client.lo_close, fd)
        rec.op("commit", client.commit)
        rec.op("ping", client.ping)
        # begin, lo_open, two per frame, lo_close, commit, ping
        self.round_trips += 5 + 2 * (self.spec.reads + self.spec.writes)

    def _rollback(self) -> None:
        from repro.errors import ReproError
        with contextlib.suppress(ReproError, OSError):
            self.client.rollback()

    def statistics(self) -> dict:
        return self.client.stats()

    def shutdown(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            self.client = None
            if self.server is not None:
                self.server.stop()
                self.server = None


class FileExecutor:
    """Whole files through the Inversion file system.

    The read operation is one ``read`` of a block; the write operation one
    ``write`` of a block into a file being rewritten, the commit operation
    the commit of that rewrite.  Everything else a file system user does
    -- open, create, unlink, rename, listdir, stat -- is timed under its own
    name, and what is left (close, truncate, the read that finds EOF, the
    writes and commit of a create, the other commits) goes to ``other``
    and into throughput.
    """

    def __init__(self, workload: Workload, path: str):
        self.spec = workload.spec
        self.path = path
        self.files = dict(workload.initial)      # the model
        self.user_bytes = 0                      # read and written
        self.written_bytes = 0
        self.round_trips = 0
        self.db = self.fs = self.session = None

    def _open_engine(self) -> None:
        self.db = open_database(self.path, self.spec.pool_size)
        self.fs = self.db.inversion

    def connect(self) -> None:
        self.session = self.db.session()

    def statistics(self) -> dict:
        return self.db.statistics()

    def shutdown(self) -> None:
        if self.db is not None:
            self.db.close()
            self.db = self.fs = self.session = None

    def setup(self) -> None:
        self._open_engine()
        self.connect()
        with self.db.begin() as txn:
            for index in range(self.spec.dirs):
                self.fs.mkdir(txn, f"/d{index}")
        for index, (path, blocks) in enumerate(self.files.items()):
            with self.db.begin() as txn:
                with self.fs.create(txn, path) as handle:
                    for block in blocks:
                        handle.write(block)
            if index < self.spec.replace_at:
                # Past the point in the queue where files are rewritten:
                # rewrite it now, so that every file the workload reads
                # has been rewritten exactly once.
                with self.db.begin() as txn:
                    with self.fs.open(path, txn, "rw") as handle:
                        handle.truncate(0)
                        for block in blocks:
                            handle.write(block)

    def run(self, steps: list, rec: Recorder, tick) -> None:
        for step in steps:
            tick()
            try:
                getattr(self, "_" + step[0])(rec, *step[1:])
            except Exception:
                rec.error(f"{step[0]} {step[1]}")
                if self.session.in_transaction:
                    self.session.rollback()

    def _get(self, rec: Recorder, path: str) -> None:
        size = self.spec.block_bytes
        txn = self.session.begin()
        handle = rec.op("open", self.fs.open, path, txn, "r")
        for index, block in enumerate(self.files[path]):
            if rec.op("read", handle.read, size) != block:
                rec.fail(f"{path} block {index} read back wrong")
            self.user_bytes += size
        if rec.op("other", handle.read, size) != b"":
            rec.fail(f"{path} is longer than it should be")
        rec.op("other", handle.close)
        rec.op("other", self.session.commit)

    def _put(self, rec: Recorder, handle, path: str, blocks: tuple,
             write: str, commit: str) -> None:
        for block in blocks:
            rec.op(write, handle.write, block)
            self.user_bytes += len(block)
            self.written_bytes += len(block)
        rec.op("other", handle.close)
        rec.op(commit, self.session.commit)
        self.files[path] = blocks

    def _replace(self, rec: Recorder, path: str, blocks: tuple) -> None:
        txn = self.session.begin()
        handle = rec.op("other", self.fs.open, path, txn, "rw")
        rec.op("other", handle.truncate, 0)
        self._put(rec, handle, path, blocks, "write", "commit")

    def _create(self, rec: Recorder, path: str, blocks: tuple) -> None:
        txn = self.session.begin()
        handle = rec.op("create", self.fs.create, txn, path)
        self._put(rec, handle, path, blocks, "other", "other")

    def _unlink(self, rec: Recorder, path: str) -> None:
        txn = self.session.begin()
        rec.op("unlink", self.fs.unlink, txn, path)
        rec.op("other", self.session.commit)
        del self.files[path]

    def _rename(self, rec: Recorder, src: str, dst: str) -> None:
        txn = self.session.begin()
        rec.op("rename", self.fs.rename, txn, src, dst)
        rec.op("other", self.session.commit)
        self.files[dst] = self.files.pop(src)

    def _listdir(self, rec: Recorder, directory: str) -> None:
        names = rec.op("listdir", self.fs.listdir, directory)
        expected = sorted(path.rpartition("/")[2] for path in self.files
                          if path.startswith(directory + "/"))
        if names != expected:
            rec.fail(f"listdir {directory}: {names} != {expected}")

    def _stat(self, rec: Recorder, path: str) -> None:
        info = rec.op("stat", self.fs.stat, path)
        if info["size"] != self.spec.blocks * self.spec.block_bytes:
            rec.fail(f"stat {path}: size {info['size']}")

    def live_bytes(self) -> int:
        return sum(len(block) for blocks in self.files.values()
                   for block in blocks)

    def verify(self, rec: Recorder) -> None:
        try:
            self._open_engine()
            for path, blocks in self.files.items():
                rec.check(self.fs.read_file(path) == b"".join(blocks),
                          f"{path} wrong after reopen")
            found = sorted(f"/d{index}/{name}"
                           for index in range(self.spec.dirs)
                           for name in self.fs.listdir(f"/d{index}"))
            rec.check(found == sorted(self.files),
                      "directory listing wrong after reopen")
            problems = self.db.check_integrity()
            rec.check(not problems, f"check_integrity: {problems[:3]}")
        except Exception:
            rec.attempted += 1
            rec.error("verification after reopen")
        finally:
            self.shutdown()


def make_executor(workload: Workload, path: str, server_factory=ChildServer):
    if workload.over_wire:
        return WireFrameExecutor(workload, path, server_factory)
    if isinstance(workload.spec, FrameSpec):
        return FrameExecutor(workload, path)
    return FileExecutor(workload, path)


# -- one replay ------------------------------------------------------------------


class Replay:
    """What one replay measured.  Times are seconds on the reference box."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.times: dict[str, list[float]] = {}   # by class, in op order
        self.setup_s = 0.0
        self.kernel_us = 0.0                      # median of every sample
        self.stats: dict[str, float] = {}         # flattened deltas
        self.user_bytes = 0
        self.written_bytes = 0
        self.round_trips = 0
        self.disk_bytes = 0
        self.live_bytes = 0

    @property
    def norm(self) -> float:
        """Whole-replay factor, for what has no time of its own (spans)."""
        return REF_US / self.kernel_us

    def p50(self, cls: str) -> float:
        times = self.times.get(cls)
        return statistics.median(times) if times else 0.0

    def busy_s(self) -> float:
        """Time inside operations of every class."""
        return sum(map(sum, self.times.values()))

    def op_count(self) -> int:
        return sum(len(self.times.get(cls, ()))
                   for cls in ("read", "write", "commit"))


def _on_reference_box(rec: Recorder, samples: list[float]) -> dict:
    """Every operation's time divided by the median of the kernel samples
    taken around it (``REF_WINDOW`` of them), times ``REF_US``.

    The machine changes speed within a replay, not only between replays;
    dividing each operation by its own neighbourhood, not by the replay's
    median, halved the spread of the write median between replays.
    """
    half = REF_WINDOW // 2
    factor = [REF_US * 1e-6 / statistics.median(
        samples[max(0, i - half):i + half + 1]) for i in range(len(samples))]
    return {cls: [t * factor[slot] for t, slot in zip(times, rec.slots[cls])]
            for cls, times in rec.times.items()}


def _flatten(stats: dict) -> dict[str, float]:
    """``statistics()`` as ``section.key -> number`` (the disk manager is
    the only storage manager these workloads touch)."""
    flat = {}
    for section in ("buffer", "locks", "access", "largeobjects"):
        for key, value in stats[section].items():
            flat[f"{section}.{key}"] = value
    for key, value in stats["storage"]["disk"].items():
        flat[f"disk.{key}"] = value
    return flat


def tree_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(folder, name))
               for folder, _, names in os.walk(path) for name in names)


def replay(workload: Workload, work_dir: str, rec: Recorder, *,
           phase=contextlib.nullcontext, server_factory=ChildServer,
           verify: bool = True) -> Replay:
    """Run *workload* once on a fresh data directory.

    *phase* is entered around the operations only (after set-up and the
    connection that follows it): it is where tracing or bytecode counting
    is switched on.
    """
    data_dir = os.path.join(work_dir, "data")
    os.makedirs(data_dir)
    out = Replay(rec)
    ref = RefKernel(work_dir)
    executor = make_executor(workload, data_dir, server_factory)
    try:
        ref.burst(REF_BURST)
        start = time.perf_counter()
        executor.setup()
        setup_raw = time.perf_counter() - start
        ref.burst(REF_BURST)
        out.setup_s = setup_raw * REF_US / ref.median_us()

        def tick() -> None:
            ref.sample()
            rec.slot = len(ref.samples) - 1

        # Only the engine's own garbage should cost anything below: park
        # the harness's model and operation list where the collector does
        # not walk them.
        gc.collect()
        gc.freeze()
        try:
            with phase():
                executor.connect()
                before = _flatten(executor.statistics())
                for steps in workload.txns:
                    executor.run(steps, rec, tick)
                after = _flatten(executor.statistics())
        finally:
            gc.unfreeze()
        executor.shutdown()
        out.times = _on_reference_box(rec, ref.samples)
        out.stats = {key: after[key] - before[key] for key in after}
        out.user_bytes = executor.user_bytes
        out.written_bytes = executor.written_bytes
        out.round_trips = executor.round_trips
        out.disk_bytes = tree_bytes(data_dir)
        out.live_bytes = executor.live_bytes()
        if verify:
            executor.verify(rec)
    finally:
        executor.shutdown()
        out.kernel_us = ref.median_us()
        ref.close()
        shutil.rmtree(data_dir, ignore_errors=True)
    return out
