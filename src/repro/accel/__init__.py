"""Near-memory acceleration: Access processor, block + in-line accelerators."""

from .access_processor import (
    DMA_CHUNK_BYTES,
    AccessProcessor,
    PerfCounters,
    ThreadContext,
)
from .block import (
    CONTROL_BLOCK_BYTES,
    STATUS_DONE,
    STATUS_ERROR,
    STATUS_IDLE,
    STATUS_RUNNING,
    BlockAccelerator,
    ControlBlock,
)
from .fft import BLOCK_BYTES, FFT_POINTS, KERNEL_FFT, FftEngineFarm, radix2_fft
from .inline import InlineAccelClient, pack_lanes, unpack_lanes
from .isa import (
    INSTRUCTION_BYTES,
    NUM_REGISTERS,
    Instruction,
    Op,
    assemble,
    decode_instruction,
    decode_program,
    encode_instruction,
    encode_program,
    image_size_bytes,
)
from .programs import (
    block_move,
    minmax_words,
    pointer_chase_program,
    strided_gather,
    sum_words,
)
from .memcopy import KERNEL_MEMCOPY, MemcopyEngine
from .minmax import KERNEL_MINMAX, MinMaxEngine
from .software_baseline import SoftwareBaselines, SoftwareMachine

__all__ = [
    "AccessProcessor",
    "BLOCK_BYTES",
    "BlockAccelerator",
    "CONTROL_BLOCK_BYTES",
    "ControlBlock",
    "DMA_CHUNK_BYTES",
    "FFT_POINTS",
    "FftEngineFarm",
    "InlineAccelClient",
    "Instruction",
    "KERNEL_FFT",
    "KERNEL_MEMCOPY",
    "KERNEL_MINMAX",
    "MemcopyEngine",
    "MinMaxEngine",
    "NUM_REGISTERS",
    "Op",
    "PerfCounters",
    "STATUS_DONE",
    "STATUS_ERROR",
    "STATUS_IDLE",
    "STATUS_RUNNING",
    "SoftwareBaselines",
    "SoftwareMachine",
    "INSTRUCTION_BYTES",
    "ThreadContext",
    "assemble",
    "block_move",
    "decode_instruction",
    "decode_program",
    "encode_instruction",
    "encode_program",
    "image_size_bytes",
    "minmax_words",
    "pack_lanes",
    "pointer_chase_program",
    "radix2_fft",
    "strided_gather",
    "sum_words",
    "unpack_lanes",
]
