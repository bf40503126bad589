"""Tests for the microprogram library and the binary executable format."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.accel import (
    AccessProcessor,
    INSTRUCTION_BYTES,
    Instruction,
    Op,
    block_move,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    image_size_bytes,
    minmax_words,
    pointer_chase_program,
    strided_gather,
    sum_words,
)
from repro.errors import AssemblerError
from repro.memory import DdrDram, MemoryController
from repro.sim import Simulator
from repro.units import MIB

CHUNK = 8 << 10


def make_ap(sim):
    dimms = [DdrDram(64 * MIB, refresh_enabled=False) for _ in range(2)]
    return AccessProcessor(sim, [MemoryController(sim, d) for d in dimms]), dimms


def flat_write(dimms, addr, data):
    """Write through the Access processor's flat (chunk-interleaved) space."""
    pos = 0
    while pos < len(data):
        a = addr + pos
        chunk_no, offset = divmod(a, CHUNK)
        take = min(CHUNK - offset, len(data) - pos)
        dimms[chunk_no % 2].backing.write(
            (chunk_no // 2) * CHUNK + offset, data[pos : pos + take]
        )
        pos += take


def run(sim, ap, program, threads=1):
    ap.load_program(program)
    proc = ap.run(threads=threads)
    sim.run()
    return proc.result


class TestBinaryEncoding:
    def test_word_size(self):
        word = encode_instruction(Instruction(Op.LDI, rd=3, imm=12345))
        assert len(word) == INSTRUCTION_BYTES

    @given(
        st.sampled_from(list(Op)),
        st.integers(0, 15), st.integers(0, 15), st.integers(0, 15),
        st.integers(-(2**63), 2**63 - 1),
        st.integers(0, 2**16),
    )
    def test_instruction_roundtrip(self, op, rd, ra, rb, imm, target):
        instr = Instruction(op, rd=rd, ra=ra, rb=rb, imm=imm, target=target)
        assert decode_instruction(encode_instruction(instr)) == instr

    def test_program_roundtrip(self):
        program = sum_words(0, 8)
        assert decode_program(encode_program(program)) == program

    def test_checksum_detects_corruption(self):
        image = bytearray(encode_program(sum_words(0, 4)))
        image[10] ^= 0xFF
        with pytest.raises(AssemblerError):
            decode_program(bytes(image))

    def test_bad_magic_rejected(self):
        image = bytearray(encode_program(sum_words(0, 4)))
        image[0] = 0x00
        with pytest.raises(AssemblerError):
            decode_program(bytes(image))

    def test_image_size_helper(self):
        program = sum_words(0, 4)
        assert len(encode_program(program)) == image_size_bytes(len(program))


class TestProgramLibrary:
    def test_sum_words(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        values = [3, 14, 15, 92, 65, 35]
        flat_write(dimms, 0, b"".join(v.to_bytes(8, "little") for v in values))
        contexts = run(sim, ap, sum_words(0, len(values)))
        assert contexts[0].regs[4] == sum(values)

    def test_minmax_words(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        values = [50, 7, 993, 12, 400]
        flat_write(dimms, 4096, b"".join(v.to_bytes(8, "little") for v in values))
        contexts = run(sim, ap, minmax_words(4096, len(values)))
        assert contexts[0].regs[4] == 7
        assert contexts[0].regs[5] == 993

    def test_minmax_single_element(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        flat_write(dimms, 0, (77).to_bytes(8, "little"))
        contexts = run(sim, ap, minmax_words(0, 1))
        assert contexts[0].regs[4] == contexts[0].regs[5] == 77

    def test_block_move(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        payload = bytes(range(256)) * 64  # 16 KiB, spans both ports
        flat_write(dimms, 0, payload)
        run(sim, ap, block_move(0, 128 * 1024, len(payload)))
        assert ap.stream_buffer(0) == payload  # via the stream buffer

    def test_strided_gather(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        for i in range(8):
            flat_write(dimms, i * 64, (i + 1).to_bytes(8, "little"))
        contexts = run(sim, ap, strided_gather(0, 64, 8))
        assert contexts[0].regs[4] == sum(range(1, 9))

    def test_pointer_chase(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        # chain: 0 -> 512 -> 1024 -> 64
        for src, nxt in [(0, 512), (512, 1024), (1024, 64)]:
            flat_write(dimms, src, nxt.to_bytes(8, "little"))
        contexts = run(sim, ap, pointer_chase_program(0, 3))
        assert contexts[0].regs[4] == 64

    def test_pointer_chase_pays_serial_latency(self):
        # no MLP: k hops cost ~k times one load's latency
        def chase_time(hops):
            sim = Simulator()
            ap, dimms = make_ap(sim)
            addr = 0
            for i in range(hops):
                nxt = (i + 1) * 4096
                flat_write(dimms, addr, nxt.to_bytes(8, "little"))
                addr = nxt
            run(sim, ap, pointer_chase_program(0, hops))
            return sim.now_ps

        assert chase_time(16) > 3.5 * chase_time(4)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(AssemblerError):
            sum_words(0, 0)
        with pytest.raises(AssemblerError):
            strided_gather(0, 4, 10)  # stride below one word


class TestLoadFromMemory:
    def test_dynamic_reprogramming(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        # data the program will process
        values = [11, 22, 33]
        flat_write(dimms, 0, b"".join(v.to_bytes(8, "little") for v in values))
        # the executable image lives in the DIMMs too
        program = sum_words(0, len(values))
        image = encode_program(program)
        flat_write(dimms, 1 * MIB, image)

        loader = ap.load_program_from_memory(1 * MIB, len(program))
        sim.run()
        assert loader.result == len(program)
        proc = ap.run()
        sim.run()
        assert proc.result[0].regs[4] == 66

    def test_corrupted_image_fails_load(self):
        sim = Simulator()
        ap, dimms = make_ap(sim)
        image = bytearray(encode_program(sum_words(0, 2)))
        image[12] ^= 0x5A
        flat_write(dimms, 0, bytes(image))
        ap.load_program_from_memory(0, 2)
        with pytest.raises(AssemblerError):
            sim.run()
