"""Tests for the assembled ConTutto buffer (MBS + Avalon + knob + engines)."""

import struct

import pytest

from repro.dmi import Command, Opcode
from repro.errors import ConfigurationError, ProtocolError
from repro.fpga import ConTuttoBuffer, FpgaTimingConfig, LatencyKnob, MAX_POSITION
from repro.memory import DdrDram, SttMram
from repro.sim import Signal, Simulator
from repro.units import MIB


def make_contutto(sim, dimms=2, capacity=64 * MIB, **kwargs):
    devices = [
        DdrDram(capacity, name=f"dimm{i}", refresh_enabled=False)
        for i in range(dimms)
    ]
    return ConTuttoBuffer(sim, devices, **kwargs)


def run_command(sim, buffer, command):
    done = Signal("resp")
    buffer.handle_command(command, done.trigger)
    return sim.run_until_signal(done, timeout_ps=10**10)


class TestBasicOperation:
    def test_write_read_roundtrip(self):
        sim = Simulator()
        ct = make_contutto(sim)
        payload = bytes(range(128))
        run_command(sim, ct, Command(Opcode.WRITE, 0x2000, 0, payload))
        resp = run_command(sim, ct, Command(Opcode.READ, 0x2000, 1))
        assert resp.data == payload

    def test_lines_interleave_across_dimms(self):
        sim = Simulator()
        ct = make_contutto(sim, dimms=2)
        for i in range(6):
            run_command(sim, ct, Command(Opcode.WRITE, 128 * i, i, bytes([i] * 128)))
        assert ct.ports[0].counts.writes_submitted == 3
        assert ct.ports[1].counts.writes_submitted == 3

    def test_single_dimm_configuration(self):
        sim = Simulator()
        ct = make_contutto(sim, dimms=1)
        run_command(sim, ct, Command(Opcode.WRITE, 0, 0, bytes([1] * 128)))
        resp = run_command(sim, ct, Command(Opcode.READ, 0, 1))
        assert resp.data == bytes([1] * 128)

    def test_three_dimms_rejected(self):
        sim = Simulator()
        devices = [DdrDram(1 * MIB) for _ in range(3)]
        with pytest.raises(ConfigurationError):
            ConTuttoBuffer(sim, devices)

    def test_mismatched_dimm_capacities_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            ConTuttoBuffer(sim, [DdrDram(1 * MIB), DdrDram(2 * MIB)])

    def test_works_over_mram(self):
        sim = Simulator()
        devices = [SttMram(64 * MIB, name=f"mram{i}") for i in range(2)]
        ct = ConTuttoBuffer(sim, devices)
        run_command(sim, ct, Command(Opcode.WRITE, 0, 0, b"\xaa" * 128))
        resp = run_command(sim, ct, Command(Opcode.READ, 0, 1))
        assert resp.data == b"\xaa" * 128


class TestExtensions:
    def test_flush_supported(self):
        sim = Simulator()
        ct = make_contutto(sim)
        assert ct.supports(Opcode.FLUSH)
        resp = run_command(sim, ct, Command(Opcode.FLUSH, 0, 0))
        assert resp.opcode is Opcode.FLUSH

    def test_flush_waits_for_outstanding_writes(self):
        sim = Simulator()
        ct = make_contutto(sim)
        write_done = Signal("w")
        flush_done = Signal("f")
        order = []
        ct.handle_command(
            Command(Opcode.WRITE, 0, 0, bytes(128)),
            lambda r: (order.append("write"), write_done.trigger(r)),
        )
        ct.handle_command(
            Command(Opcode.FLUSH, 0, 1),
            lambda r: (order.append("flush"), flush_done.trigger(r)),
        )
        sim.run_until_signal(flush_done, timeout_ps=10**10)
        assert order[0] == "write"

    def test_inline_ops_require_flag(self):
        sim = Simulator()
        plain = make_contutto(sim)
        assert not plain.supports(Opcode.MIN_STORE)
        with pytest.raises(ProtocolError):
            plain.handle_command(
                Command(Opcode.MIN_STORE, 0, 0, bytes(128)), lambda r: None
            )

    def test_min_store_executes(self):
        sim = Simulator()
        ct = make_contutto(sim, inline_accel=True)
        a = struct.pack("<32i", *range(32))
        b = struct.pack("<32i", *[31 - i for i in range(32)])
        run_command(sim, ct, Command(Opcode.WRITE, 0, 0, a))
        run_command(sim, ct, Command(Opcode.MIN_STORE, 0, 1, b))
        resp = run_command(sim, ct, Command(Opcode.READ, 0, 2))
        assert list(struct.unpack("<32i", resp.data)) == [
            min(i, 31 - i) for i in range(32)
        ]

    def test_cswap_returns_old_line(self):
        sim = Simulator()
        ct = make_contutto(sim, inline_accel=True)
        old = struct.pack("<32i", *([5] + [0] * 31))
        new = struct.pack("<32i", *([5] + [9] * 31))
        run_command(sim, ct, Command(Opcode.WRITE, 0, 0, old))
        resp = run_command(sim, ct, Command(Opcode.CSWAP, 0, 1, new))
        assert resp.data == old
        after = run_command(sim, ct, Command(Opcode.READ, 0, 2))
        assert after.data == new


class TestLatencyKnob:
    def read_latency(self, knob_position):
        sim = Simulator()
        ct = make_contutto(sim, knob_position=knob_position)
        t0 = sim.now_ps
        run_command(sim, ct, Command(Opcode.READ, 0x8000, 0))
        return sim.now_ps - t0

    def test_each_position_adds_24ns(self):
        base = self.read_latency(0)
        assert self.read_latency(2) == base + 2 * 24_000
        assert self.read_latency(6) == base + 6 * 24_000
        assert self.read_latency(7) == base + 7 * 24_000

    def test_out_of_range_position_rejected(self):
        knob = LatencyKnob()
        with pytest.raises(ConfigurationError):
            knob.set_position(MAX_POSITION + 1)
        with pytest.raises(ConfigurationError):
            knob.set_position(-1)

    def test_knob_settable_at_runtime(self):
        sim = Simulator()
        ct = make_contutto(sim)
        t0 = sim.now_ps
        run_command(sim, ct, Command(Opcode.READ, 0x8000, 0))
        base = sim.now_ps - t0
        ct.knob.set_position(3)
        # second read targets a different, equally cold DRAM bank so the only
        # latency difference is the knob setting
        t0 = sim.now_ps
        run_command(sim, ct, Command(Opcode.READ, 0x80000, 1))
        assert sim.now_ps - t0 == base + 3 * 24_000


class TestDesignConstraints:
    def test_timing_violating_config_rejected_at_build(self):
        sim = Simulator()
        bad = FpgaTimingConfig(crc_stages=2, preplace_rx_flops=False)
        with pytest.raises(ConfigurationError):
            make_contutto(sim, timing=bad)

    def test_endpoint_overheads_from_timing_model(self):
        sim = Simulator()
        ct = make_contutto(sim)
        tx, rx, prep, freeze = ct.endpoint_overheads()
        assert tx == ct.timing.tx_overhead_ps()
        assert rx == ct.timing.rx_overhead_ps()
        assert prep == ct.timing.replay_prep_ps()
        assert freeze is True

    def test_base_resources_match_table1(self):
        sim = Simulator()
        ct = make_contutto(sim)
        assert ct.resources().table()[0] == ("ALMs", 317_000, 136_856)

    def test_inline_accel_costs_resources(self):
        sim = Simulator()
        plain = make_contutto(sim)
        accel = make_contutto(sim, inline_accel=True)
        assert accel.resources().total().alms > plain.resources().total().alms

    def test_engines_track_occupancy(self):
        sim = Simulator()
        ct = make_contutto(sim)
        done = Signal("d")
        ct.handle_command(Command(Opcode.READ, 0, 0), done.trigger)
        # mid-flight (after decode), an engine should be claimed
        sim.run(until_ps=ct.clock.cycles_to_ps(3))
        assert ct.mbs.engines.busy_count == 1
        sim.run_until_signal(done, timeout_ps=10**10)
        assert ct.mbs.engines.busy_count == 0
