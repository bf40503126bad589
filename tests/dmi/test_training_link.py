"""Tests for link training, FRTL measurement, and the serial link model."""

import pytest

from repro.dmi import (
    BundleScrambler,
    DataChunk,
    DownstreamFrame,
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    SerialLink,
    TrainingConfig,
)
from repro.errors import ConfigurationError, FrtlBudgetError, LinkTrainingError
from repro.sim import Rng, Simulator, dmi_link_clock
from repro.units import ns_to_ps

from .test_channel import make_channel


def frame(fill: int, seq: int = 0) -> DownstreamFrame:
    """A write-data frame whose 16 payload bytes are all ``fill``."""
    return DownstreamFrame(seq, chunk=DataChunk(0, 0, bytes([fill]) * 16))


class TestSerialLink:
    def test_frame_wire_time_at_8ghz(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        # 16 UI at 125 ps = 2 ns per frame
        assert link.frame_wire_ps == 2_000

    def test_delivery_latency(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(lambda rx: seen.append((sim.now_ps, rx)))
        sent = frame(0x01)
        link.send(sent)
        sim.run()
        assert len(seen) == 1
        t, rx = seen[0]
        assert t == link.frame_wire_ps + link.latency_ps
        assert rx is sent  # clean link: the object itself crosses the wire

    def test_cdr_capture_adds_latency(self):
        sim = Simulator()
        fwd = SerialLink(sim, "fwd", 14, dmi_link_clock(8.0), cdr_capture=False)
        cdr = SerialLink(sim, "cdr", 14, dmi_link_clock(8.0), cdr_capture=True)
        assert cdr.latency_ps - fwd.latency_ps == SerialLink.CDR_EXTRA_PS

    def test_back_to_back_frames_serialize(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(lambda rx: seen.append(sim.now_ps))
        link.send(frame(ord("a")))
        link.send(frame(ord("b"), seq=1))
        sim.run()
        assert seen[1] - seen[0] == link.frame_wire_ps

    def test_error_model_flips_bits(self):
        sim = Simulator()
        link = SerialLink(
            sim, "l", 14, dmi_link_clock(8.0),
            error_model=LinkErrorModel(frame_error_rate=1.0),
            rng=Rng(3, "l"),
        )
        seen = []
        link.connect(seen.append)
        sent = frame(0x00)
        link.send(sent)
        sim.run()
        assert seen[0] != sent.pack()
        assert len(seen[0]) == sent.packed_len()
        assert link.frames_corrupted == 1

    def test_unconnected_send_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        with pytest.raises(ConfigurationError):
            link.send(DownstreamFrame(0))

    def test_double_connect_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        link.connect(lambda rx: None)
        with pytest.raises(ConfigurationError):
            link.connect(lambda rx: None)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            SerialLink(Simulator(), "l", 0, dmi_link_clock(8.0))


class TestKeystreamCarry:
    """The link carries each scrambled frame's keystream in its arrival
    event and sends clean frames as objects; these pin the behaviours that
    must survive both optimizations."""

    def test_forced_corruption_detected(self):
        # force_drops exercises the scrambled branch: the corrupted wire
        # frame must still descramble to original-plus-bit-flip
        sim = Simulator()
        link = SerialLink(
            sim, "l", 14, dmi_link_clock(8.0),
            error_model=LinkErrorModel(force_drops=1),
        )
        seen = []
        link.connect(seen.append)
        first, second = frame(0x00), frame(0x07, seq=1)
        link.send(first)
        link.send(second)
        sim.run()
        packed = first.pack()
        assert seen[0] == bytes([packed[0] ^ 1]) + packed[1:]  # the injected flip
        assert seen[1] is second  # next frame is clean again
        assert link.frames_corrupted == 1

    def test_resync_with_frames_in_flight_desyncs_receiver(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(seen.append)
        first, second = frame(0x55), frame(0xAA, seq=1)
        link.send(first)
        link.resync()  # before the frame arrives: receiver loses lockstep
        link.send(second)  # post-resync traffic stays garbled too
        sim.run()
        assert seen[0] != first.pack()
        assert seen[1] != second.pack()
        assert link.frames_corrupted == 2
        # Exactly the garbage of real hardware: the in-flight frame left
        # unscrambled (its keystream was skipped), then met the freshly
        # reset receive LFSR; the next one was scrambled by the fresh
        # transmit LFSR but descrambled one frame further on.
        tx, rx = BundleScrambler(14), BundleScrambler(14)
        assert seen[0] == rx.process(first.pack())
        assert seen[1] == rx.process(tx.process(second.pack()))

    def test_clean_resync_restores_lockstep(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(seen.append)
        link.send(frame(0x55))
        link.resync()  # mid-flight: desync
        sim.run()      # drain the garbled frame
        link.resync()  # nothing in flight: both sides restart together
        last = frame(0x33, seq=1)
        link.send(last)
        sim.run()
        assert seen[-1] == last.pack()
        assert link.frames_corrupted == 1


class TestTraining:
    def test_training_measures_positive_frtl(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**10)
        result = proc.result
        assert result.frtl_ps > 0
        assert channel.host_endpoint.frtl_ps == result.frtl_ps
        assert channel.buffer_endpoint.frtl_ps == result.frtl_ps

    def test_frtl_reflects_buffer_pipeline_depth(self):
        def measure(overhead_ps):
            sim = Simulator()
            config = EndpointConfig(
                tx_overhead_ps=overhead_ps, rx_overhead_ps=overhead_ps,
                replay_prep_ps=0, freeze_workaround=False,
            )
            channel, _ = make_channel(sim, buffer_config=config)
            trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
            proc = trainer.train(channel)
            sim.run_until_signal(proc.done, timeout_ps=10**10)
            return proc.result.frtl_ps

        slow, fast = measure(8_000), measure(1_000)
        # two pipeline crossings deeper -> 2 x 7 ns more FRTL
        assert slow - fast == 14_000

    def test_frtl_budget_violation_fails_training(self):
        sim = Simulator()
        config = EndpointConfig(tx_overhead_ps=500_000, rx_overhead_ps=500_000)
        channel, _ = make_channel(sim, buffer_config=config)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        trainer.train(channel)
        with pytest.raises(FrtlBudgetError):
            sim.run()

    def test_alignment_retries_recorded(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        config = TrainingConfig(phase_lock_probability=0.3)
        trainer = LinkTrainer(sim, config, Rng(21, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        result = proc.result
        assert len(result.phase_attempts) == 3
        assert result.total_attempts >= 3

    def test_hopeless_alignment_raises(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        config = TrainingConfig(phase_lock_probability=0.0, max_phase_attempts=3)
        trainer = LinkTrainer(sim, config, Rng(2, "t"))
        trainer.train(channel)
        with pytest.raises(LinkTrainingError):
            sim.run()

    def test_training_survives_bit_errors(self):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.10, seed=17)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        assert proc.result.frtl_ps > 0

    def test_training_duration_positive(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        assert proc.result.duration_ps >= ns_to_ps(6_000)  # 3 phases x 2 us min
