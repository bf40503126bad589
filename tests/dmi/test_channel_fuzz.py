"""Property-based fuzzing of the DMI channel.

The protocol's job is simple to state: any sequence of commands completes
correctly — right data, every tag retired — no matter how the link
corrupts frames.  Hypothesis generates operation sequences and error rates
and checks exactly that against a reference dict.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dmi import Command, Opcode
from repro.sim import Simulator
from repro.units import CACHE_LINE_BYTES

from .test_channel import make_channel, train

# an op is (kind, line_number, fill_byte)
op_strategy = st.tuples(
    st.sampled_from(["read", "write", "partial"]),
    st.integers(0, 63),
    st.integers(0, 255),
)


class TestChannelFuzz:
    @given(
        ops=st.lists(op_strategy, min_size=1, max_size=24),
        error_rate=st.sampled_from([0.0, 0.02, 0.06]),
        seed=st.integers(0, 2**16),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_sequence_completes_correctly(self, ops, error_rate, seed):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=error_rate, seed=seed)
        train(sim, channel)

        reference = {}
        next_tag = 0
        for kind, line, fill in ops:
            addr = line * CACHE_LINE_BYTES
            tag = next_tag % 32
            next_tag += 1
            if kind == "write":
                data = bytes([fill]) * CACHE_LINE_BYTES
                reference[addr] = data
                sig = channel.host.issue(Command(Opcode.WRITE, addr, tag, data))
                sim.run_until_signal(sig, timeout_ps=10**12)
            elif kind == "partial":
                data = bytes([fill]) * CACHE_LINE_BYTES
                mask = bytes([1 if i % 2 == 0 else 0 for i in range(CACHE_LINE_BYTES)])
                old = bytearray(reference.get(addr, bytes(CACHE_LINE_BYTES)))
                for i in range(0, CACHE_LINE_BYTES, 2):
                    old[i] = fill
                reference[addr] = bytes(old)
                sig = channel.host.issue(
                    Command(Opcode.PARTIAL_WRITE, addr, tag, data, mask)
                )
                sim.run_until_signal(sig, timeout_ps=10**12)
            else:
                sig = channel.host.issue(Command(Opcode.READ, addr, tag))
                resp = sim.run_until_signal(sig, timeout_ps=10**12)
                expected = reference.get(addr, bytes(CACHE_LINE_BYTES))
                assert resp.data == expected, (
                    f"read {addr:#x} returned wrong data under "
                    f"error_rate={error_rate}"
                )

        assert channel.operational
        assert channel.host.in_flight == 0
        assert channel.host.counts.commands_issued == channel.host.counts.commands_completed

    def test_stale_ack_wrap_regression(self):
        """Regression: replayed frames must refresh their piggybacked ACK.

        Seed 11230 once drove this exact scenario into a protocol
        violation: a replayed upstream frame carried the ACK value it was
        originally packed with; after the 6-bit sequence space wrapped,
        that stale value aliased into the host's live transmit window and
        retired eight write frames the buffer had never received — the
        write's chunks vanished without replay and assembly wedged.
        """
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.02, seed=11230)
        train(sim, channel)
        for wave in range(4):
            signals = [
                channel.host.issue(
                    Command(
                        Opcode.WRITE,
                        (wave * 32 + tag) * CACHE_LINE_BYTES,
                        tag,
                        bytes([tag]) * CACHE_LINE_BYTES,
                    )
                )
                for tag in range(32)
            ]
            for sig in signals:
                sim.run_until_signal(sig, timeout_ps=10**12)
        assert channel.operational
        assert channel.host.counts.commands_completed == 128

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_pipelined_tag_storm(self, seed):
        """All 32 tags in flight simultaneously, repeatedly."""
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.02, seed=seed)
        train(sim, channel)
        for wave in range(3):
            signals = [
                channel.host.issue(
                    Command(
                        Opcode.WRITE,
                        (wave * 32 + tag) * CACHE_LINE_BYTES,
                        tag,
                        bytes([tag]) * CACHE_LINE_BYTES,
                    )
                )
                for tag in range(32)
            ]
            for sig in signals:
                sim.run_until_signal(sig, timeout_ps=10**12)
        assert channel.operational
        assert channel.host.counts.commands_completed == 96
