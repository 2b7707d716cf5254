"""Unit tests for the simulated clock and device cost models."""

import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    CpuModel,
    DeviceModel,
    SimClock,
    jukebox_device,
    magnetic_disk_device,
    nvram_device,
)
from repro.sim.devices import DevicePort


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().elapsed == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5, "io.read")
        clock.advance(0.5, "io.read")
        clock.advance(2.0, "cpu")
        assert clock.elapsed == pytest.approx(4.0)
        assert clock.elapsed_in("io.read") == pytest.approx(2.0)
        assert clock.elapsed_in("cpu") == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_now_is_strictly_monotone(self):
        clock = SimClock()
        stamps = [clock.now() for _ in range(100)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 100

    def test_now_reflects_advances(self):
        clock = SimClock()
        t1 = clock.now()
        clock.advance(10.0)
        assert clock.now() > t1 + 9.9

    def test_snapshot_delta(self):
        clock = SimClock()
        clock.advance(1.0, "io.read")
        snap = clock.snapshot()
        clock.advance(2.0, "io.read")
        clock.advance(3.0, "cpu")
        delta = snap.since(clock)
        assert delta.elapsed == pytest.approx(5.0)
        assert delta.by_category["io.read"] == pytest.approx(2.0)
        assert delta.by_category["cpu"] == pytest.approx(3.0)

    def test_a_fresh_snapshot_measures_from_now(self):
        clock = SimClock()
        clock.advance(5.0)
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_run("f", 0, 8192, 1, False)
        delta = clock.snapshot().since(clock)
        assert delta.elapsed == 0.0
        assert set(delta.by_category.values()) == {0.0}

    def test_elapsed_in_unknown_category_is_zero(self):
        assert SimClock().elapsed_in("nope") == 0.0


def access(port, offset, is_write=False):
    """``(positioning, transfer)`` seconds of one 8 KB access at *offset*
    of file ``f``, as :meth:`DevicePort.charge_run` charges it."""
    snap = port.clock.snapshot()
    port.charge_run("f", offset, 8192, 1, is_write)
    delta = snap.since(port.clock).by_category
    return (delta.get("io.seek", 0.0),
            delta["io.write" if is_write else "io.read"])


class TestDeviceModels:
    def test_disk_sequential_is_transfer_only(self):
        model = magnetic_disk_device()
        port = DevicePort(model, SimClock())
        access(port, 0)
        positioning, transfer = access(port, 8192)
        assert positioning == 0.0
        assert transfer == pytest.approx(8192 / model.transfer_bytes_per_s)

    def test_disk_random_pays_seek(self):
        model = magnetic_disk_device()
        positioning, _ = access(DevicePort(model, SimClock()), 0)
        assert positioning == pytest.approx(
            model.avg_seek_s + model.rotational_s)

    def test_nvram_has_no_positioning_cost(self):
        model = nvram_device()
        positioning, _ = access(DevicePort(model, SimClock()), 0)
        assert positioning == 0.0

    def test_jukebox_write_penalty(self):
        model = jukebox_device()
        port = DevicePort(model, SimClock())
        access(port, 0)
        _, read_t = access(port, 8192)
        _, write_t = access(port, 16384, is_write=True)
        assert write_t == pytest.approx(read_t * model.write_penalty)

    def test_jukebox_platter_switch(self):
        model = jukebox_device()
        port = DevicePort(model, SimClock())
        access(port, model.platter_bytes - 8192)
        positioning, _ = access(port, model.platter_bytes)
        assert positioning >= model.platter_switch_s


class TestDevicePort:
    def test_sequential_reads_skip_seeks(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_run("f", 0, 8192, 1, False)
        first = clock.elapsed
        port.charge_run("f", 8192, 8192, 1, False)
        second = clock.elapsed - first
        assert second < first  # no second seek

    def test_random_reads_pay_seeks(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_run("f", 0, 8192, 1, False)
        port.charge_run("f", 10 * 8192, 8192, 1, False)
        assert port.seeks == 2

    def test_file_switch_breaks_sequentiality(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_run("a", 0, 8192, 1, False)
        port.charge_run("b", 8192, 8192, 1, False)
        assert port.seeks == 2

    def test_platter_switch_counted(self):
        clock = SimClock()
        model = jukebox_device()
        port = DevicePort(model, clock)
        port.charge_run("m", 0, 8192, 1, False)
        port.charge_run("m", model.platter_bytes + 8192, 8192, 1, False)
        assert port.platter_switches == 1
        assert clock.elapsed > model.platter_switch_s

    def test_stats_counters(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_run("f", 0, 8192, 1, False)
        port.charge_run("f", 8192, 8192, 1, True)
        stats = port.stats()
        assert stats["reads"] == 1
        assert stats["writes"] == 1


class _ReferencePort:
    """The per-access rule, one access at a time: counts, and the float
    seconds the clock used to add per access (platter switch, seek,
    transfer) for comparing derived seconds approximately."""

    def __init__(self, model):
        self.model = model
        self._head = self._platter = None
        self.reads = self.writes = self.seeks = self.platter_switches = 0
        self.read_bytes = self.write_bytes = 0
        self.seconds = {}

    def _add(self, category, seconds):
        self.seconds[category] = self.seconds.get(category, 0.0) + seconds

    def charge(self, fileid, offset, nbytes, is_write):
        model = self.model
        if model.platter_bytes:
            platter = offset // model.platter_bytes
            if self._platter is not None and platter != self._platter:
                self.platter_switches += 1
                self._add("io.seek", model.platter_switch_s)
            self._platter = platter
        if self._head != (fileid, offset):
            self.seeks += 1
            self._add("io.seek", model.avg_seek_s + model.rotational_s)
        transfer = nbytes / model.transfer_bytes_per_s
        if is_write:
            self.writes += 1
            self.write_bytes += nbytes
            self._add("io.write", transfer * model.write_penalty)
        else:
            self.reads += 1
            self.read_bytes += nbytes
            self._add("io.read", transfer)
        self._head = (fileid, offset + nbytes)


def _counts(port):
    return (port._head, port.reads, port.writes, port.read_bytes,
            port.write_bytes, port.seeks, port.platter_switches)


def _state(port):
    """Everything a port and its clock show, compared with ``==``."""
    clock = port.clock
    return (clock.elapsed, clock.breakdown(), sorted(clock.breakdown()),
            port.busy_s, port.costs(), _counts(port))


class TestChargeRun:
    """``charge_run`` of *count* accesses leaves the counts of *count*
    single accesses, so every derived second is the same bits (compared
    with ``==``, never approximately)."""

    MODELS = [magnetic_disk_device, nvram_device, jukebox_device]

    def _twins(self, make_model, warm_at):
        ports = []
        for _ in range(2):
            port = DevicePort(make_model(), SimClock())
            # Some history first, so the counts are not 0.
            port.charge_run("g", 0, 8192, 1, True)
            if warm_at is not None:  # leave the head at warm_at
                port.charge_run("f", 0, warm_at, 1, False)
            ports.append(port)
        return ports

    @pytest.mark.parametrize("make_model", MODELS)
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("sequential", [False, True])
    def test_run_equals_per_access_charges(self, make_model, is_write,
                                           sequential):
        offset = 3 * 8192
        for count in range(1, 41):
            run, single = self._twins(make_model,
                                      offset if sequential else None)
            assert run.charge_run("f", offset, 8192, count, is_write) is None
            for i in range(count):
                single.charge_run("f", offset + i * 8192, 8192, 1, is_write)
            assert _state(run) == _state(single), count

    @pytest.mark.parametrize("make_model", MODELS)
    def test_single_charges_equal_the_reference(self, make_model):
        port = DevicePort(make_model(), SimClock())
        ref = _ReferencePort(make_model())
        for fileid, offset, is_write in [("a", 0, False), ("a", 8192, True),
                                         ("b", 0, False), ("a", 0, True),
                                         ("a", 8192, False),
                                         # the jukebox's next platter
                                         ("a", 3_276_808_192, True),
                                         ("a", 0, False)]:
            port.charge_run(fileid, offset, 8192, 1, is_write)
            ref.charge(fileid, offset, 8192, is_write)
            assert _counts(port) == _counts(ref)
            assert port.clock.breakdown() == pytest.approx(ref.seconds,
                                                           rel=1e-12)

    @pytest.mark.parametrize("is_write", [False, True])
    def test_run_across_a_platter_charges_each_crossing(self, is_write):
        model = jukebox_device()
        start = model.platter_bytes - 5 * 8192
        run = DevicePort(model, SimClock())
        ref = _ReferencePort(model)
        run.charge_run("m", 0, 8192, 1, False)
        ref.charge("m", 0, 8192, False)
        # Platter 0's tail, then (sequentially) into platter 1.
        run.charge_run("m", start, 8192, 12, is_write)
        for i in range(12):
            ref.charge("m", start + i * 8192, 8192, is_write)
        assert run.platter_switches == 1
        assert _counts(run) == _counts(ref)
        assert run.clock.breakdown() == pytest.approx(ref.seconds, rel=1e-12)

    def test_empty_run_charges_nothing(self):
        port = DevicePort(magnetic_disk_device(), SimClock())
        port.charge_run("f", 0, 8192, 1, False)
        before = _state(port)
        assert port.charge_run("f", 99 * 8192, 8192, 0, True) is None
        assert _state(port) == before

    def test_negative_extra_charge_rejected(self):
        port = DevicePort(magnetic_disk_device(), SimClock())
        with pytest.raises(ValueError):
            port.charge_extra(-1.0, "io.read")
        assert port.busy_s == 0.0 and port.clock.breakdown() == {}


#: Adversarial non-negative costs: subnormals, the smallest normal, 0.1
#: (inexact in binary), thirds, and magnitudes far enough apart that an
#: addition rounds away most of the smaller operand.
_COSTS = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1,
                     1 / 3, 0.00512, 1e-9, 1e16, 2.0 ** 53, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))

_MODELS = st.builds(
    DeviceModel, st.just("adversarial"), avg_seek_s=_COSTS,
    rotational_s=_COSTS, transfer_bytes_per_s=st.floats(1e-3, 1e308),
    write_penalty=st.sampled_from([1.0, 2.0, 0.1, 1 / 3]),
    platter_bytes=st.sampled_from([None, 8192 * 7]),
    platter_switch_s=_COSTS)

#: ``(fileid, block, count, is_write)`` runs of 8 KB accesses.
_RUNS = st.lists(st.tuples(st.sampled_from("fg"), st.integers(0, 30),
                           st.integers(0, 9), st.booleans()),
                 max_size=25)


def _charge_all(port, runs, heads=None):
    """Charge *runs* in order; with *heads*, first put the head (and
    platter) where that run found it."""
    found = []
    for at, (fileid, block, count, is_write) in enumerate(runs):
        if heads is not None:
            port._head, port._platter = heads[at]
        found.append((port._head, port._platter))
        port.charge_run(fileid, block * 8192, 8192, count, is_write)
    return found


class TestCountInvariants:
    """Charges are counts, and counts commute: the derived seconds are
    the same bits however the same accesses were made."""

    @settings(max_examples=300, deadline=None)
    @given(model=_MODELS, runs=_RUNS, instructions=st.lists(
        st.integers(0, 10 ** 6), max_size=5))
    def test_run_equals_single_accesses(self, model, runs, instructions):
        run, single = (DevicePort(model, SimClock()) for _ in range(2))
        cpu = CpuModel()
        for port in (run, single):
            for count in instructions:
                cpu.charge(port.clock, count)
        _charge_all(run, runs)
        for fileid, block, count, is_write in runs:
            for i in range(count):
                single.charge_run(fileid, (block + i) * 8192, 8192, 1,
                                  is_write)
        assert _state(run) == _state(single)

    @settings(max_examples=300, deadline=None)
    @given(model=_MODELS, runs=_RUNS, seed=st.integers(0, 2 ** 32),
           instructions=st.lists(st.integers(0, 10 ** 6), max_size=5))
    def test_any_order_gives_identical_bits(self, model, runs, seed,
                                            instructions):
        ordered, shuffled = (DevicePort(model, SimClock()) for _ in range(2))
        cpu = CpuModel(mips=7.0)
        for count in instructions:
            cpu.charge(ordered.clock, count)
        heads = _charge_all(ordered, runs)
        order = list(range(len(runs)))
        random.Random(seed).shuffle(order)
        _charge_all(shuffled, [runs[i] for i in order],
                    [heads[i] for i in order])
        for count in reversed(instructions):
            cpu.charge(shuffled.clock, count)
        # The head ends where the last run charged left it.
        shuffled._head, shuffled._platter = ordered._head, ordered._platter
        assert _state(shuffled) == _state(ordered)

    def test_two_threads_give_the_single_thread_bits(self):
        cpu = CpuModel()

        def work(port, n):
            for i in range(n):
                port.charge_run("f", (i * 7 % 50) * 8192, 8192, i % 4 + 1,
                                i % 3 == 0)
                cpu.charge(port.clock, 500 + i)

        def build():
            clock = SimClock()
            return clock, [DevicePort(make(), clock)
                           for make in (magnetic_disk_device, nvram_device)]

        alone, ports = build()
        for port in ports:
            work(port, 3000)
        together, ports = build()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(port, 3000))
                       for port in ports]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert together.elapsed == alone.elapsed
        assert together.breakdown() == alone.breakdown()
        assert [port.busy_s for port in ports] == \
            [port.busy_s for port in alone.ports]

    @settings(max_examples=100, deadline=None)
    @given(make_model=st.sampled_from(TestChargeRun.MODELS), runs=_RUNS)
    def test_now_stays_strictly_monotone(self, make_model, runs):
        # Shipped models: past about 8e6 simulated seconds one ``now``
        # tick is below half an ulp of the elapsed time.
        port = DevicePort(make_model(), SimClock())
        stamps = [port.clock.now()]
        for run in runs:
            _charge_all(port, [run])
            stamps.append(port.clock.now())
            stamps.append(port.clock.now())
        assert all(a < b for a, b in zip(stamps, stamps[1:])), stamps


class TestCpuModel:
    def test_seconds_for(self):
        cpu = CpuModel(mips=10.0)
        assert cpu.seconds_for(10e6) == pytest.approx(1.0)

    def test_charge(self):
        clock = SimClock()
        CpuModel(mips=1.0).charge(clock, 2e6)
        assert clock.elapsed_in("cpu") == pytest.approx(2.0)
