"""Near-memory FFT accelerator farm (Table 5, row 3).

Calculates 1024-point FFTs over 8-byte complex samples (two float32 per
sample).  Per the paper, "the FFTs are calculated in parallel on multiple
FFT accelerators, in such a way that ... sample and result transfers
between a given accelerator and the DIMMs are overlapped with computation
on the other accelerators" — so the farm, like the other kernels, runs at
the DIMM ports' bandwidth (1.3 Gsamples/s ~ 10.4 GB/s of sample reads).

The FFT is functionally real: every DMA batch of up to 32 1024-sample
blocks is transformed in one call of an in-library radix-2 implementation
(validated against ``numpy.fft``) and the spectra are written back to the
DIMMs, so a read-back sees actual spectra.  Compute time per engine is
modeled as a pipelined radix-2 core at the fabric clock; with enough
engines the transfers dominate.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import AccelError
from .block import BlockAccelerator, ControlBlock

KERNEL_FFT = 0x12

FFT_POINTS = 1024
SAMPLE_BYTES = 8  # complex64
BLOCK_BYTES = FFT_POINTS * SAMPLE_BYTES  # 8 KiB — exactly one DMA chunk


@lru_cache(maxsize=None)
def _plan(n: int):
    """Bit-reversal permutation and per-stage twiddles of an n-point FFT."""
    bits = n.bit_length() - 1
    # one array axis per index bit: reversing the axes reverses the bits
    rev = np.arange(n).reshape((2,) * bits).T.ravel()
    # the twiddle bits set the bits of every spectrum written back to the
    # DIMMs: computing them any other way can break the golden spectra
    return rev, [np.exp(-2j * np.pi / (2 << s) * np.arange(1 << s)) for s in range(bits)]


def radix2_fft(samples: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT FFT over the last axis of complex64 samples.

    This is the algorithm the hardware pipeline implements; kept separate
    so tests can validate it against numpy's FFT.  Every block of a
    ``(..., n)`` input is transformed at once, in one in-place numpy pass
    per butterfly stage, and sees the same float operations as it would
    in a transform of its own.
    """
    x = np.asarray(samples)
    n = x.shape[-1]
    if n & (n - 1) or not n:
        raise AccelError(f"FFT size {n} is not a power of two")
    rev, twiddles = _plan(n)
    # C order, so the stage reshapes below are views: gathering with a
    # trailing index array returns F order
    data = np.ascontiguousarray(x.reshape(-1, n)[:, rev], dtype=np.complex128)
    scratch = np.empty(data.size // 2, dtype=np.complex128)
    for w in twiddles:
        half = len(w)
        pairs = data.reshape(len(data), n // (2 * half), 2 * half)
        even, odd = pairs[..., :half], pairs[..., half:]
        t = scratch.reshape(even.shape)
        np.multiply(odd, w, out=t)
        np.subtract(even, t, out=odd)
        np.add(even, t, out=even)
    return data.astype(np.complex64).reshape(x.shape)


class FftEngineFarm(BlockAccelerator):
    """Multiple FFT engines fed round-robin by the Access processor."""

    resource_block = "fft_engine"

    #: fabric cycles one engine needs per 1024-point transform: a streaming
    #: multi-path radix core consumes 4 samples/cycle plus pipeline fill
    CYCLES_PER_BLOCK = FFT_POINTS // 4 + 64  # 320 cycles ~ 1.3 us

    def __init__(self, sim, access, num_engines: int = 8, name: str = ""):
        super().__init__(sim, access, name or "fftfarm")
        if num_engines < 1:
            raise AccelError("FFT farm needs at least one engine")
        self.num_engines = num_engines
        self.blocks_transformed = 0

    def _kernel(self, cb: ControlBlock):
        if cb.opcode != KERNEL_FFT:
            raise AccelError(f"{self.name}: unexpected opcode {cb.opcode:#x}")
        if cb.length % BLOCK_BYTES != 0:
            raise AccelError(
                f"{self.name}: length must be a multiple of {BLOCK_BYTES}B blocks"
            )
        num_blocks = cb.length // BLOCK_BYTES
        compute_ps = self.CYCLES_PER_BLOCK * self.access.clock.period_ps
        pending_write = None
        # stream several blocks per DMA so row bursts stay pipelined on both
        # ports; the Access processor schedules result transfers of one batch
        # under the sample transfers of the next
        blocks_per_batch = 32
        done_blocks = 0
        while done_blocks < num_blocks:
            batch = min(blocks_per_batch, num_blocks - done_blocks)
            src = cb.src + done_blocks * BLOCK_BYTES
            dst = cb.dst + done_blocks * BLOCK_BYTES
            read_proc = self.access.dma_read(src, batch * BLOCK_BYTES)
            yield read_proc.done
            samples = np.frombuffer(read_proc.result, dtype=np.complex64)
            spectra = radix2_fft(samples.reshape(batch, FFT_POINTS))
            # the farm retires one block per compute_ps / num_engines once
            # its pipelines are saturated
            farm_ready = self.sim.now_ps + batch * (compute_ps // self.num_engines)
            self.blocks_transformed += batch
            if farm_ready > self.sim.now_ps + compute_ps:
                # compute-bound: wait for the farm to drain past the batch
                yield farm_ready - self.sim.now_ps
            if pending_write is not None and not pending_write.finished:
                yield pending_write.done
            pending_write = self.access.dma_write(dst, spectra.tobytes())
            done_blocks += batch
        if pending_write is not None and not pending_write.finished:
            yield pending_write.done
        return (num_blocks, 0)
