"""Tests for the IPL (boot) flow, including mixed configurations."""

from repro.buffer import Centaur
from repro.dmi import TrainingConfig
from repro.firmware import (
    CardDescriptor,
    CentaurFsiSlave,
    ConTuttoFsiSlave,
    CsrBlock,
    IplFlow,
    PowerSequencer,
    ServiceProcessor,
)
from repro.fpga import ConTuttoBuffer
from repro.memory import DdrDram, SttMram, spd_for_device
from repro.processor import Power8Socket
from repro.sim import Rng, Simulator
from repro.units import GIB, MIB


def contutto_card(sim, slot, devices=None, name=None):
    devices = devices or [
        DdrDram(4 * GIB, name=f"s{slot}d{i}") for i in range(2)
    ]
    buffer = ConTuttoBuffer(sim, devices, name=name or f"ct{slot}")
    spd_images = [spd_for_device(d).encode() for d in devices]
    return CardDescriptor(
        slot=slot,
        buffer=buffer,
        fsi_slave=ConTuttoFsiSlave(sim, CsrBlock(f"fpga{slot}"), spd_images),
        sequencer=PowerSequencer(sim, name=f"pwr{slot}"),
    )


def centaur_card(sim, slot, capacity=1 * GIB):
    buffer = Centaur(
        sim,
        [DdrDram(capacity, name=f"s{slot}c{i}") for i in range(4)],
        name=f"cent{slot}",
    )
    return CardDescriptor(slot=slot, buffer=buffer, fsi_slave=CentaurFsiSlave(sim, f"fsi{slot}"))


class TestSingleCardBoot:
    def test_centaur_only_boot(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(2))
        flow = IplFlow(sim, socket)
        report = flow.boot([centaur_card(sim, 0)])
        assert report.booted
        assert report.trained_channels == [0]
        assert socket.memory_map.dram_bytes == 4 * GIB

    def test_contutto_boot_with_power_sequence(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(2))
        flow = IplFlow(sim, socket)
        card = contutto_card(sim, 0)
        report = flow.boot([card])
        assert report.booted
        assert card.sequencer.sequences_completed == 1
        assert report.duration_ps > 0

    def test_training_retries_via_fpga_reset(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(21))
        # low per-phase lock probability forces whole-training retries
        flow = IplFlow(
            sim, socket,
            training=TrainingConfig(phase_lock_probability=0.28, max_phase_attempts=2),
        )
        card = contutto_card(sim, 0)
        report = flow.boot([card])
        if report.booted:
            assert report.training_attempts[0] >= 1
            # retries reset only the FPGA, never the whole system
            assert card.fsi_slave.fpga_resets == report.training_attempts[0] - 1
        else:
            assert report.deconfigured_channels == [0]

    def test_hopeless_training_deconfigures_channel(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(2))
        fsp = ServiceProcessor(sim)
        flow = IplFlow(
            sim, socket, fsp=fsp,
            training=TrainingConfig(phase_lock_probability=0.0, max_phase_attempts=2),
        )
        report = flow.boot([contutto_card(sim, 0)])
        assert not report.booted
        assert report.deconfigured_channels == [0]
        assert fsp.is_deconfigured("slot0")


class TestMixedConfigurations:
    def test_one_contutto_six_cdimm(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(4))
        flow = IplFlow(sim, socket)
        cards = [contutto_card(sim, 0, devices=[
            DdrDram(4 * GIB, name=f"ctd{i}") for i in range(2)
        ])] + [centaur_card(sim, slot) for slot in range(2, 8)]
        report = flow.boot(cards)
        assert sorted(report.trained_channels) == [0, 2, 3, 4, 5, 6, 7]
        # DRAM from all cards forms one contiguous block
        assert socket.memory_map.dram_is_contiguous_from_zero
        assert socket.memory_map.dram_bytes == 8 * GIB + 6 * 4 * GIB

    def test_two_contutto_four_cdimm(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(4))
        flow = IplFlow(sim, socket)
        cards = [contutto_card(sim, 0), contutto_card(sim, 2)] + [
            centaur_card(sim, slot) for slot in range(4, 8)
        ]
        report = flow.boot(cards)
        assert len(report.trained_channels) == 6

    def test_mram_contutto_placed_at_top_of_map(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(4))
        flow = IplFlow(sim, socket)
        mram_devices = [SttMram(256 * MIB, name=f"m{i}") for i in range(2)]
        cards = [
            centaur_card(sim, 2),
            contutto_card(sim, 0, devices=mram_devices),
        ]
        report = flow.boot(cards)
        assert len(report.trained_channels) == 2
        nvm = socket.memory_map.nvm_regions()
        assert len(nvm) == 1
        assert nvm[0].memory_type == "mram"
        assert nvm[0].os_size == 512 * MIB
        assert nvm[0].hw_size == 4 * GIB  # the firmware "lie"
        assert nvm[0].contents_preserved

    def test_functional_access_after_boot(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(4))
        flow = IplFlow(sim, socket)
        flow.boot([centaur_card(sim, 2), contutto_card(sim, 0)])
        payload = bytes([0x5A] * 128)
        sim.run_until_signal(socket.write_line(0, payload))
        data = sim.run_until_signal(socket.read_line(0))
        assert data == payload
