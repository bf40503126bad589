"""Tests for the Centaur ASIC buffer model."""

import pytest

from repro.buffer import (
    Centaur,
    CentaurConfig,
    CONSERVATIVE,
    DEFAULT,
    LATENCY_OPTIMIZED,
    RELAXED,
    TABLE2_CONFIGS,
)
from repro.dmi import Command, Opcode
from repro.errors import ConfigurationError, ProtocolError
from repro.memory import DdrDram
from repro.sim import Signal, Simulator
from repro.telemetry import TraceSession
from repro.units import MIB


def make_centaur(sim, config=DEFAULT, ports=4, capacity=256 * MIB):
    devices = [DdrDram(capacity, name=f"d{i}", refresh_enabled=False) for i in range(ports)]
    return Centaur(sim, devices, config)


def run_command(sim, centaur, command):
    done = Signal("resp")
    centaur.handle_command(command, done.trigger)
    return sim.run_until_signal(done, timeout_ps=10**10)


class TestBasicOps:
    def test_write_read_roundtrip(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        payload = bytes(range(128))
        run_command(sim, centaur, Command(Opcode.WRITE, 0x1000, 0, payload))
        resp = run_command(sim, centaur, Command(Opcode.READ, 0x1000, 1))
        assert resp.data == payload

    def test_partial_write(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        run_command(sim, centaur, Command(Opcode.WRITE, 0, 0, bytes([0xFF] * 128)))
        mask = bytes([1] * 64 + [0] * 64)
        run_command(
            sim, centaur,
            Command(Opcode.PARTIAL_WRITE, 0, 1, bytes([0x11] * 128), mask),
        )
        resp = run_command(sim, centaur, Command(Opcode.READ, 0, 2))
        assert resp.data == bytes([0x11] * 64 + [0xFF] * 64)

    def test_lines_interleave_across_ports(self):
        sim = Simulator()
        centaur = make_centaur(sim, config=CentaurConfig(cache_enabled=False))
        for i in range(8):
            run_command(sim, centaur, Command(Opcode.WRITE, 128 * i, i, bytes([i] * 128)))
        writes = [port.counts.writes_submitted for port in centaur.ports]
        assert writes == [2, 2, 2, 2]

    def test_capacity_sums_ports(self):
        sim = Simulator()
        centaur = make_centaur(sim, capacity=256 * MIB)
        assert centaur.capacity_bytes == 4 * 256 * MIB

    def test_extension_opcodes_rejected(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        assert not centaur.supports(Opcode.FLUSH)
        with pytest.raises(ProtocolError):
            centaur.handle_command(Command(Opcode.FLUSH, 0, 0), lambda r: None)

    def test_port_count_validated(self):
        sim = Simulator()
        devices = [DdrDram(1 * MIB) for _ in range(5)]
        with pytest.raises(ConfigurationError):
            Centaur(sim, devices)


class TestCacheBehaviour:
    def test_second_read_hits_cache(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        run_command(sim, centaur, Command(Opcode.READ, 0x4000, 0))
        t0 = sim.now_ps
        run_command(sim, centaur, Command(Opcode.READ, 0x4000, 1))
        hit_latency = sim.now_ps - t0
        assert centaur.cache.counts.hits >= 1
        # hit path: pipeline + cache_hit + response only
        expected = (
            centaur.config.pipeline_ps
            + centaur.config.extra_delay_ps
            + centaur.config.cache_hit_ps
            + centaur.config.response_ps
        )
        assert hit_latency == expected

    def test_cache_hit_faster_than_miss(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        t0 = sim.now_ps
        run_command(sim, centaur, Command(Opcode.READ, 0x8000, 0))
        miss_latency = sim.now_ps - t0
        t0 = sim.now_ps
        run_command(sim, centaur, Command(Opcode.READ, 0x8000, 1))
        hit_latency = sim.now_ps - t0
        assert hit_latency < miss_latency

    def test_prefetch_fetches_next_line(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        run_command(sim, centaur, Command(Opcode.READ, 0, 0))
        sim.run()  # let the prefetch land
        assert centaur.cache.prefetches_issued == 1
        run_command(sim, centaur, Command(Opcode.READ, 128, 1))
        assert centaur.cache.prefetch_hits == 1

    def test_cache_disabled_config(self):
        sim = Simulator()
        centaur = make_centaur(sim, config=CentaurConfig(cache_enabled=False))
        assert centaur.cache is None
        run_command(sim, centaur, Command(Opcode.READ, 0, 0))

    def test_write_then_read_through_cache_consistent(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        run_command(sim, centaur, Command(Opcode.READ, 0x2000, 0))      # fill
        run_command(sim, centaur, Command(Opcode.WRITE, 0x2000, 1, bytes([9] * 128)))
        resp = run_command(sim, centaur, Command(Opcode.READ, 0x2000, 2))
        assert resp.data == bytes([9] * 128)


class TestLatencyConfigs:
    def test_table2_configs_ordered_by_delay(self):
        delays = [cfg.extra_delay_ps for cfg in TABLE2_CONFIGS]
        assert delays == sorted(delays)
        assert TABLE2_CONFIGS[0] is LATENCY_OPTIMIZED
        assert TABLE2_CONFIGS[-1] is RELAXED

    def test_extra_delay_slows_reads(self):
        def read_latency(config):
            sim = Simulator()
            centaur = make_centaur(sim, config=config)
            t0 = sim.now_ps
            run_command(sim, centaur, Command(Opcode.READ, 0x8000, 0))
            return sim.now_ps - t0

        assert read_latency(RELAXED) > read_latency(CONSERVATIVE) > read_latency(DEFAULT)

    def test_delay_delta_matches_config(self):
        def read_latency(config):
            sim = Simulator()
            centaur = make_centaur(sim, config=config)
            t0 = sim.now_ps
            run_command(sim, centaur, Command(Opcode.READ, 0x8000, 0))
            return sim.now_ps - t0

        delta = read_latency(RELAXED) - read_latency(LATENCY_OPTIMIZED)
        assert delta == RELAXED.extra_delay_ps - LATENCY_OPTIMIZED.extra_delay_ps

    def test_service_latency_recorded(self):
        sim = Simulator()
        centaur = make_centaur(sim)
        with TraceSession("unit") as session:
            run_command(sim, centaur, Command(Opcode.READ, 0, 0))
        registry = session.registry
        assert registry.histogram("buffer.service_ps").count == 1
        assert registry.counter("buffer.centaur.commands").count == 1
