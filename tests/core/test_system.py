"""Tests for the ContuttoSystem builder and results tables."""

import pytest

from repro import CardSpec, ContuttoSystem, ResultTable
from repro.buffer import LATENCY_OPTIMIZED
from repro.errors import ConfigurationError
from repro.telemetry import TraceSession
from repro.units import GIB, MIB


class TestCardSpec:
    def test_defaults(self):
        spec = CardSpec(slot=0)
        assert spec.kind == "centaur"
        assert spec.memory == "dram"

    def test_centaur_cannot_drive_mram(self):
        with pytest.raises(ConfigurationError):
            CardSpec(slot=0, kind="centaur", memory="mram")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CardSpec(slot=0, kind="zynq")

    def test_unknown_memory_rejected(self):
        with pytest.raises(ConfigurationError):
            CardSpec(slot=0, kind="contutto", memory="optane")


class TestSystemBuild:
    def test_single_centaur_system(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, centaur_config=LATENCY_OPTIMIZED)]
        )
        assert system.boot_report.booted
        assert system.total_memory_bytes == 4 * GIB

    def test_single_contutto_system(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=2 * GIB)]
        )
        assert system.boot_report.booted
        assert system.slots_of_kind("contutto") == [0]

    def test_mixed_system_with_mram(self):
        system = ContuttoSystem.build(
            [
                CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
                CardSpec(slot=0, kind="contutto", memory="mram",
                         capacity_per_dimm=128 * MIB),
            ]
        )
        nvm = system.socket.memory_map.nvm_regions()
        assert len(nvm) == 1
        assert nvm[0].memory_type == "mram"
        assert nvm[0].os_size == 256 * MIB

    def test_empty_system_rejected(self):
        with pytest.raises(ConfigurationError):
            ContuttoSystem.build([])

    def test_measure_latency_by_kind(self):
        system = ContuttoSystem.build([CardSpec(slot=0)])
        latency = system.measure_latency_ns("centaur", samples=8)
        assert 70 <= latency <= 130

    def test_measure_unknown_kind_raises(self):
        system = ContuttoSystem.build([CardSpec(slot=0)])
        with pytest.raises(ConfigurationError):
            system.measure_latency_ns("contutto")

    def test_pmem_region_requires_nvm(self):
        system = ContuttoSystem.build([CardSpec(slot=0)])
        with pytest.raises(ConfigurationError):
            system.pmem_region()

    def test_deterministic_given_seed(self):
        def build_and_measure():
            system = ContuttoSystem.build([CardSpec(slot=0)], seed=7)
            return system.measure_latency_ns("centaur", samples=8)

        assert build_and_measure() == build_and_measure()

    def test_functional_memory_after_boot(self):
        system = ContuttoSystem.build([CardSpec(slot=0)])
        payload = bytes(range(128))
        system.sim.run_until_signal(system.socket.write_line(0x4000, payload))
        data = system.sim.run_until_signal(system.socket.read_line(0x4000))
        assert data == payload


class TestResultTable:
    def test_add_and_fetch(self):
        table = ResultTable("T", ["a", "b"])
        table.add_row("x", 1.0)
        assert table.cell("a", "x", "b") == 1.0

    def test_wrong_arity_rejected(self):
        table = ResultTable("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_missing_row_raises(self):
        table = ResultTable("T", ["a"])
        with pytest.raises(KeyError):
            table.row_by("a", "nope")

    def test_format_contains_all_cells(self):
        table = ResultTable("My Table", ["name", "value"])
        table.add_row("alpha", 42.0)
        table.add_note("a note")
        text = table.format()
        assert "My Table" in text
        assert "alpha" in text
        assert "42" in text
        assert "note: a note" in text

    def test_markdown_shape(self):
        table = ResultTable("T", ["a", "b"])
        table.add_row(1, 2)
        md = table.to_markdown()
        assert md.startswith("### T")
        assert "| a | b |" in md

    def test_column_extraction(self):
        table = ResultTable("T", ["k", "v"])
        table.add_row("a", 1)
        table.add_row("b", 2)
        assert table.column("v") == [1, 2]


class TestBootJourneys:
    #: every card kind and memory type, each in a system firmware boots
    #: (DRAM from address 0, so non-DRAM cards ride on channel 2 or
    #: behind their own DRAM tier)
    BUILDS = {
        "centaur/dram": [CardSpec(slot=0)],
        "contutto/dram": [CardSpec(slot=0, kind="contutto")],
        "contutto/mram": [
            CardSpec(slot=2, kind="centaur"),
            CardSpec(slot=0, kind="contutto", memory="mram",
                     capacity_per_dimm=128 * MIB),
        ],
        "contutto/nvdimm": [
            CardSpec(slot=0, kind="contutto", capacity_per_dimm=256 * MIB),
            CardSpec(slot=2, kind="contutto", memory="nvdimm"),
        ],
        "contutto/tiered": [
            CardSpec(slot=0, kind="contutto", memory="tiered",
                     capacity_per_dimm=256 * MIB),
        ],
    }

    def test_building_begins_no_journey(self):
        # boot traffic is never journeyed, so experiments need no boot
        # scenario label to keep it out of their measurements
        for name, specs in self.BUILDS.items():
            with TraceSession() as session:
                ContuttoSystem.build(specs)
            tracker = session.journeys
            begun = len(tracker.completed) + tracker.active_count + tracker.dropped
            assert begun == 0, name
