"""Instruction set and assembler for the Access processor.

Section 4.3 describes the Access processor as "a programmable state
machine" that arbitrates and schedules loads/stores to the DDR3 DIMMs on
behalf of accelerators, supports multithreading, and is programmed by
loading pre-compiled executable code.  The paper defers its ISA to future
work; we define a small, regular register ISA sufficient for the published
functions (access generation, address mapping, streaming control):

====================  =============================================
``LDI rd, imm``       load a 64-bit immediate
``MOV rd, ra``        register copy
``ADD/SUB rd,ra,rb``  integer arithmetic
``ADDI rd, ra, imm``  add immediate
``MIN/MAX rd,ra,rb``  select ops (the min/max kernels)
``LD rd, [ra]``       load 8 bytes from DIMM space at address in ra
``ST [ra], rb``       store 8 bytes
``DMARD rd, ra, rb``  block read:  addr ra, len rb -> stream buffer, rd=bytes
``DMAWR rd, ra, rb``  block write: addr ra, len rb from stream buffer
``BEQ/BNE/BLT ra,rb,label``  conditional branches
``JMP label``         unconditional branch
``YIELD``             hand the pipeline to the next hardware thread
``HALT``              stop this thread
====================  =============================================

Sixteen 64-bit registers per hardware thread.  The assembler accepts one
instruction per line, ``;`` comments, and ``label:`` definitions.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import AssemblerError

NUM_REGISTERS = 16


class Op(enum.Enum):
    """Access-processor opcodes (see the module docstring for semantics)."""

    LDI = "ldi"
    MOV = "mov"
    ADD = "add"
    SUB = "sub"
    ADDI = "addi"
    MIN = "min"
    MAX = "max"
    LD = "ld"
    ST = "st"
    DMARD = "dmard"
    DMAWR = "dmawr"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    JMP = "jmp"
    YIELD = "yield"
    HALT = "halt"


@dataclass(frozen=True)
class Instruction:
    """One decoded instruction."""

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0
    target: int = 0  # resolved branch target (instruction index)

    @property
    def is_memory(self) -> bool:
        return self.op in (Op.LD, Op.ST, Op.DMARD, Op.DMAWR)

    @property
    def is_branch(self) -> bool:
        return self.op in (Op.BEQ, Op.BNE, Op.BLT, Op.JMP)


_REG_RE = re.compile(r"^r(\d+)$")
_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):$")


def _reg(token: str, line_no: int) -> int:
    match = _REG_RE.match(token.strip())
    if not match:
        raise AssemblerError(f"line {line_no}: expected register, got {token!r}")
    reg = int(match.group(1))
    if not 0 <= reg < NUM_REGISTERS:
        raise AssemblerError(f"line {line_no}: register r{reg} out of range")
    return reg


def _imm(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"line {line_no}: expected immediate, got {token!r}")


def _mem_operand(token: str, line_no: int) -> int:
    token = token.strip()
    if not (token.startswith("[") and token.endswith("]")):
        raise AssemblerError(f"line {line_no}: expected [reg], got {token!r}")
    return _reg(token[1:-1], line_no)


def assemble(source: str) -> List[Instruction]:
    """Assemble source text into an executable instruction list."""
    # pass 1: collect labels and raw statements
    statements: List[Tuple[int, str]] = []
    labels: Dict[str, int] = {}
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in labels:
                raise AssemblerError(f"line {line_no}: duplicate label {name!r}")
            labels[name] = len(statements)
            continue
        statements.append((line_no, line))

    # pass 2: decode
    program: List[Instruction] = []
    for index, (line_no, line) in enumerate(statements):
        mnemonic, _, rest = line.partition(" ")
        mnemonic = mnemonic.lower()
        args = [a for a in (part.strip() for part in rest.split(",")) if a]
        try:
            op = Op(mnemonic)
        except ValueError:
            raise AssemblerError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
        program.append(_decode(op, args, labels, line_no))
    _check_targets(program)
    return program


def _decode(op: Op, args: List[str], labels: Dict[str, int], line_no: int) -> Instruction:
    def need(n: int) -> None:
        if len(args) != n:
            raise AssemblerError(
                f"line {line_no}: {op.value} takes {n} operands, got {len(args)}"
            )

    def label(token: str) -> int:
        if token not in labels:
            raise AssemblerError(f"line {line_no}: undefined label {token!r}")
        return labels[token]

    if op is Op.LDI:
        need(2)
        return Instruction(op, rd=_reg(args[0], line_no), imm=_imm(args[1], line_no))
    if op is Op.MOV:
        need(2)
        return Instruction(op, rd=_reg(args[0], line_no), ra=_reg(args[1], line_no))
    if op in (Op.ADD, Op.SUB, Op.MIN, Op.MAX):
        need(3)
        return Instruction(
            op, rd=_reg(args[0], line_no), ra=_reg(args[1], line_no),
            rb=_reg(args[2], line_no),
        )
    if op is Op.ADDI:
        need(3)
        return Instruction(
            op, rd=_reg(args[0], line_no), ra=_reg(args[1], line_no),
            imm=_imm(args[2], line_no),
        )
    if op is Op.LD:
        need(2)
        return Instruction(op, rd=_reg(args[0], line_no), ra=_mem_operand(args[1], line_no))
    if op is Op.ST:
        need(2)
        return Instruction(op, ra=_mem_operand(args[0], line_no), rb=_reg(args[1], line_no))
    if op in (Op.DMARD, Op.DMAWR):
        need(3)
        return Instruction(
            op, rd=_reg(args[0], line_no), ra=_reg(args[1], line_no),
            rb=_reg(args[2], line_no),
        )
    if op in (Op.BEQ, Op.BNE, Op.BLT):
        need(3)
        return Instruction(
            op, ra=_reg(args[0], line_no), rb=_reg(args[1], line_no),
            target=label(args[2]),
        )
    if op is Op.JMP:
        need(1)
        return Instruction(op, target=label(args[0]))
    if op in (Op.YIELD, Op.HALT):
        need(0)
        return Instruction(op)
    raise AssemblerError(f"line {line_no}: unhandled op {op}")  # pragma: no cover


def _check_targets(program: List[Instruction]) -> None:
    for instr in program:
        if instr.is_branch and not 0 <= instr.target <= len(program):
            raise AssemblerError(f"branch target {instr.target} out of program")


# ---------------------------------------------------------------------------
# Binary encoding: "pre-compiled executable code ... retrieved from the DDR3
# DIMMs into an internal instruction memory" (Section 4.3)
# ---------------------------------------------------------------------------

#: fixed-width instruction word: op(1) rd(1) ra(1) rb(1) target(4) imm(8)
INSTRUCTION_BYTES = 16
PROGRAM_MAGIC = b"APv1"

_OP_CODES = {op: i for i, op in enumerate(Op)}
_CODE_OPS = {i: op for op, i in _OP_CODES.items()}


def encode_instruction(instr: Instruction) -> bytes:
    """Pack one instruction into its 16-byte executable form."""
    imm = instr.imm & ((1 << 64) - 1)
    return (
        bytes([_OP_CODES[instr.op], instr.rd, instr.ra, instr.rb])
        + instr.target.to_bytes(4, "little")
        + imm.to_bytes(8, "little")
    )


def decode_instruction(word: bytes) -> Instruction:
    if len(word) != INSTRUCTION_BYTES:
        raise AssemblerError(f"instruction word must be {INSTRUCTION_BYTES} bytes")
    code = word[0]
    if code not in _CODE_OPS:
        raise AssemblerError(f"unknown opcode byte {code}")
    imm = int.from_bytes(word[8:16], "little")
    if imm >= 1 << 63:
        imm -= 1 << 64
    return Instruction(
        op=_CODE_OPS[code], rd=word[1], ra=word[2], rb=word[3],
        target=int.from_bytes(word[4:8], "little"), imm=imm,
    )


def encode_program(program: List[Instruction]) -> bytes:
    """Executable image: magic + count + instruction words + checksum."""
    body = PROGRAM_MAGIC + len(program).to_bytes(4, "little")
    for instr in program:
        body += encode_instruction(instr)
    checksum = sum(body) & 0xFFFF_FFFF
    return body + checksum.to_bytes(4, "little")


def decode_program(image: bytes) -> List[Instruction]:
    """Parse and checksum-verify an executable image."""
    if len(image) < len(PROGRAM_MAGIC) + 8:
        raise AssemblerError("executable image truncated")
    if image[: len(PROGRAM_MAGIC)] != PROGRAM_MAGIC:
        raise AssemblerError("bad executable magic")
    body, trailer = image[:-4], image[-4:]
    if sum(body) & 0xFFFF_FFFF != int.from_bytes(trailer, "little"):
        raise AssemblerError("executable image checksum mismatch")
    count = int.from_bytes(image[4:8], "little")
    expected = len(PROGRAM_MAGIC) + 4 + count * INSTRUCTION_BYTES + 4
    if len(image) != expected:
        raise AssemblerError(
            f"executable image is {len(image)} bytes, expected {expected}"
        )
    program = []
    offset = 8
    for _ in range(count):
        program.append(decode_instruction(image[offset : offset + INSTRUCTION_BYTES]))
        offset += INSTRUCTION_BYTES
    _check_targets(program)
    return program


def image_size_bytes(num_instructions: int) -> int:
    """On-DIMM size of an executable with ``num_instructions``."""
    return len(PROGRAM_MAGIC) + 4 + num_instructions * INSTRUCTION_BYTES + 4
