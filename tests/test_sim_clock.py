"""Unit tests for the simulated clock and device cost models."""

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

    def test_reset(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.reset()
        assert clock.elapsed == 0.0
        assert clock.breakdown() == {}

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
        port.charge_read("f", 0, 8192)
        first = clock.elapsed
        port.charge_read("f", 8192, 8192)
        second = clock.elapsed - first
        assert second < first  # no second seek

    def test_random_reads_pay_seeks(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_read("f", 0, 8192)
        port.charge_read("f", 10 * 8192, 8192)
        assert port.seeks == 2

    def test_file_switch_breaks_sequentiality(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_read("a", 0, 8192)
        port.charge_read("b", 8192, 8192)
        assert port.seeks == 2

    def test_platter_switch_counted(self):
        clock = SimClock()
        model = jukebox_device()
        port = DevicePort(model, clock)
        port.charge_read("m", 0, 8192)
        port.charge_read("m", model.platter_bytes + 8192, 8192)
        assert port.platter_switches == 1
        assert clock.elapsed > model.platter_switch_s

    def test_stats_counters(self):
        clock = SimClock()
        port = DevicePort(magnetic_disk_device(), clock)
        port.charge_read("f", 0, 8192)
        port.charge_write("f", 8192, 8192)
        stats = port.stats()
        assert stats["reads"] == 1
        assert stats["writes"] == 1


class _ReferencePort:
    """The per-access charge the run charge replaced: up to three
    ``clock.advance`` calls per access, in the order platter switch,
    seek, transfer."""

    def __init__(self, model, clock):
        self.model, self.clock = model, clock
        self._head = self._platter = None
        self.reads = self.writes = self.seeks = self.platter_switches = 0
        self.busy_s = 0.0

    def charge_read(self, fileid, offset, nbytes):
        return self._charge(fileid, offset, nbytes, False)

    def charge_write(self, fileid, offset, nbytes):
        return self._charge(fileid, offset, nbytes, True)

    def _charge(self, fileid, offset, nbytes, is_write):
        if is_write:
            self.writes += 1
        else:
            self.reads += 1
        sequential = self._head == (fileid, offset)
        crossed = False
        charged = 0.0
        if self.model.platter_bytes:
            platter = offset // self.model.platter_bytes
            crossed = self._platter is not None and platter != self._platter
            self._platter = platter
        if crossed:
            self.platter_switches += 1
            self.clock.advance(self.model.platter_switch_s, "io.seek")
            charged += self.model.platter_switch_s
        if not sequential:
            self.seeks += 1
            positioning = self.model.avg_seek_s + self.model.rotational_s
            self.clock.advance(positioning, "io.seek")
            charged += positioning
        transfer = nbytes / self.model.transfer_bytes_per_s
        if is_write:
            transfer *= self.model.write_penalty
        self.clock.advance(transfer, "io.write" if is_write else "io.read")
        charged += transfer
        self._head = (fileid, offset + nbytes)
        self.busy_s += charged
        return charged


def _state(port):
    return (port.clock.elapsed, port.clock.breakdown(),
            sorted(port.clock.breakdown()), port.busy_s, port._head,
            port.reads, port.writes, port.seeks, port.platter_switches)


class TestChargeRun:
    """``charge_run`` of *count* accesses is bit for bit *count* single
    accesses: the same floats added to the same accumulators in the same
    order (compared with ``==``, never approximately)."""

    MODELS = [magnetic_disk_device, nvram_device, jukebox_device]

    def _twins(self, make_model, warm_at):
        ports = []
        for cls in (DevicePort, _ReferencePort):
            port = cls(make_model(), SimClock())
            # Some history first, so the floats being added to are not 0.
            port.charge_write("g", 0, 8192)
            if warm_at is not None:  # leave the head at warm_at
                port.charge_read("f", 0, warm_at)
            ports.append(port)
        return ports

    @pytest.mark.parametrize("make_model", MODELS)
    @pytest.mark.parametrize("is_write", [False, True])
    @pytest.mark.parametrize("sequential", [False, True])
    def test_run_equals_per_access_charges(self, make_model, is_write,
                                           sequential):
        offset = 3 * 8192
        for count in range(1, 41):
            run, ref = self._twins(make_model,
                                   offset if sequential else None)
            total = run.charge_run("f", offset, 8192, count, is_write)
            charge = ref.charge_write if is_write else ref.charge_read
            ref_total = 0.0
            for i in range(count):
                ref_total += charge("f", offset + i * 8192, 8192)
            assert _state(run) == _state(ref), count
            assert total == ref_total

    @pytest.mark.parametrize("make_model", MODELS)
    def test_single_charges_equal_the_reference(self, make_model):
        port = DevicePort(make_model(), SimClock())
        ref = _ReferencePort(make_model(), SimClock())
        for fileid, offset, is_write in [("a", 0, False), ("a", 8192, True),
                                         ("b", 0, False), ("a", 0, True),
                                         ("a", 8192, False),
                                         # the jukebox's next platter
                                         ("a", 3_276_808_192, True),
                                         ("a", 0, False)]:
            verb = "charge_write" if is_write else "charge_read"
            assert getattr(port, verb)(fileid, offset, 8192) == \
                getattr(ref, verb)(fileid, offset, 8192)
            assert _state(port) == _state(ref)

    @pytest.mark.parametrize("is_write", [False, True])
    def test_run_across_a_platter_charges_each_crossing(self, is_write):
        model = jukebox_device()
        start = model.platter_bytes - 5 * 8192
        run = DevicePort(model, SimClock())
        ref = _ReferencePort(model, SimClock())
        run.charge_read("m", 0, 8192)
        ref.charge_read("m", 0, 8192)
        # Platter 0's tail, then (sequentially) into platter 1.
        run.charge_run("m", start, 8192, 12, is_write)
        for i in range(12):
            ref._charge("m", start + i * 8192, 8192, is_write)
        assert run.platter_switches == 1
        assert _state(run) == _state(ref)

    def test_empty_run_charges_nothing(self):
        port = DevicePort(magnetic_disk_device(), SimClock())
        port.charge_read("f", 0, 8192)
        before = _state(port)
        assert port.charge_run("f", 99 * 8192, 8192, 0, True) == 0.0
        assert _state(port) == before


class TestAdvanceRun:
    def test_equals_advance_calls(self):
        run, ref = SimClock(), SimClock()
        for clock in (run, ref):
            clock.advance(0.1, "cpu")
            clock.advance(0.0051, "io.write")
        run.advance_run(0.00512, "io.write", 7, seek=0.0243)
        ref.advance(0.0243, "io.seek")
        for _ in range(7):
            ref.advance(0.00512, "io.write")
        run.advance_run(0.0, "io.seek", 2, seek=0.0)  # nvram: keys appear
        for _ in range(3):
            ref.advance(0.0, "io.seek")
        assert run.elapsed == ref.elapsed
        assert run.breakdown() == ref.breakdown()

    def test_rejects_negative_charge_like_advance(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance_run(-1.0, "io.read", 3)
        with pytest.raises(ValueError):
            clock.advance_run(0.5, "io.read", 3, seek=-1.0)
        assert clock.elapsed == 0.0 and clock.breakdown() == {}


#: Adversarial non-negative charges: subnormals, the smallest normal, 0.1
#: (inexact in binary), thirds, and magnitudes far enough apart that an
#: addition rounds away most of the smaller operand.
_CHARGES = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1,
                     1 / 3, 0.00512, 1e-9, 1e16, 2.0 ** 53, 1e300]),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True))


class TestRunsAreFoldsOfSingleCharges:
    """``advance_run`` and ``charge_run`` fold their additions in C; the
    fold must still be the float additions of *n* single calls, in order
    (not a compensated ``sum``, which Python 3.12 made the float default).
    """

    @settings(max_examples=300, deadline=None)
    @given(history=st.lists(st.tuples(_CHARGES,
                                      st.sampled_from(["cpu", "io.write"])),
                            max_size=4),
           seconds=_CHARGES, count=st.integers(0, 60),
           seek=st.one_of(st.none(), _CHARGES))
    def test_advance_run(self, history, seconds, count, seek):
        run, single = SimClock(), SimClock()
        elapsed, by_category = 0.0, {}
        for clock in (run, single):
            for charge, category in history:
                clock.advance(charge, category)
        for charge, category in history:   # the plain-loop reference
            elapsed += charge
            by_category[category] = by_category.get(category, 0.0) + charge
        assert run.advance_run(seconds, "io.write", count, seek) is None
        if seek is not None:
            single.advance(seek, "io.seek")
            elapsed += seek
            by_category["io.seek"] = by_category.get("io.seek", 0.0) + seek
        for _ in range(count):
            single.advance(seconds, "io.write")
            elapsed += seconds
            by_category["io.write"] = (by_category.get("io.write", 0.0)
                                       + seconds)
        assert run.elapsed == single.elapsed == elapsed
        assert single.breakdown() == by_category
        # A run of none still makes its category's key appear.
        assert run.breakdown() == {"io.write": 0.0, **by_category}

    @settings(max_examples=300, deadline=None)
    @given(seek=_CHARGES, rotational=_CHARGES,
           rate=st.floats(min_value=1e-3, max_value=1e308),
           penalty=st.sampled_from([1.0, 2.0, 0.1, 1 / 3]),
           nbytes=st.integers(1, 8192), count=st.integers(0, 60),
           is_write=st.booleans(), sequential=st.booleans(),
           warm=st.lists(_CHARGES, max_size=3))
    def test_charge_run(self, seek, rotational, rate, penalty, nbytes, count,
                        is_write, sequential, warm):
        model = DeviceModel("adversarial", avg_seek_s=seek,
                            rotational_s=rotational,
                            transfer_bytes_per_s=rate, write_penalty=penalty)
        run, single = (DevicePort(model, SimClock()) for _ in range(2))
        offset = 5 * nbytes
        for port in (run, single):
            for charge in warm:
                port.charge_extra(charge, "cpu")
            port.charge_read("f", 0, offset if sequential else nbytes)
        total = run.charge_run("f", offset, nbytes, count, is_write)
        charge = single.charge_write if is_write else single.charge_read
        single_total = 0.0
        for i in range(count):
            single_total += charge("f", offset + i * nbytes, nbytes)
        assert total == single_total
        assert _state(run) == _state(single)


class TestCpuModel:
    def test_seconds_for(self):
        cpu = CpuModel(mips=10.0)
        assert cpu.seconds_for(10e6) == pytest.approx(1.0)

    def test_charge(self):
        clock = SimClock()
        CpuModel(mips=1.0).charge(clock, 2e6)
        assert clock.elapsed_in("cpu") == pytest.approx(2.0)
