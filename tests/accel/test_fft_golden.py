"""Golden tests pinning the batched radix-2 FFT to the per-block loop.

``golden_fft`` is the historical one-block-at-a-time implementation, kept
verbatim as the reference: a Python bit-reversal swap loop and one slice
butterfly per block per stage.  The batched ``radix2_fft`` must reproduce
its bytes exactly on finite input, because the Table 5 farm writes these
spectra back to the DIMMs.  On arbitrary bit patterns only the NaN
*payloads* may differ (NaN propagation is not bit-stable across numpy's
loop variants); the NaN positions and every other byte must match.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import (
    BLOCK_BYTES,
    FFT_POINTS,
    KERNEL_FFT,
    STATUS_DONE,
    ControlBlock,
    FftEngineFarm,
    radix2_fft,
)
from repro.errors import AccelError
from repro.units import MIB

from .test_engines import fresh, read_flat, seed


def golden_fft(samples: np.ndarray) -> np.ndarray:
    """Iterative radix-2 DIT FFT over complex64 samples, one block."""
    n = len(samples)
    if n & (n - 1):
        raise AccelError(f"FFT size {n} is not a power of two")
    data = np.asarray(samples, dtype=np.complex128).copy()
    # bit-reversal permutation
    j = 0
    for i in range(1, n):
        bit = n >> 1
        while j & bit:
            j ^= bit
            bit >>= 1
        j |= bit
        if i < j:
            data[i], data[j] = data[j], data[i]
    # butterflies
    length = 2
    while length <= n:
        ang = -2j * np.pi / length
        w_len = np.exp(ang * np.arange(length // 2))
        for start in range(0, n, length):
            half = length // 2
            # copy: the slice is a view and is overwritten before its second use
            even = data[start : start + half].copy()
            odd = data[start + half : start + length] * w_len
            data[start : start + half] = even + odd
            data[start + half : start + length] = even - odd
        length <<= 1
    return data.astype(np.complex64)


def golden_blocks(x: np.ndarray) -> np.ndarray:
    return np.stack([golden_fft(block) for block in x])


def finite_samples(rng, batch, n, raw_bits):
    """Finite complex64 blocks: random float32 bit patterns with every
    non-finite lane zeroed (all exponents, subnormals, signed zeros), or
    normal samples spread over 40 decades."""
    if raw_bits:
        lanes = np.frombuffer(rng.bytes(batch * n * 8), dtype=np.float32).copy()
        lanes[~np.isfinite(lanes)] = 0.0
        return lanes.view(np.complex64).reshape(batch, n)
    scale = 10.0 ** rng.integers(-20, 21, size=(batch, n))
    parts = rng.standard_normal((2, batch, n)) * scale
    return (parts[0] + 1j * parts[1]).astype(np.complex64)


sizes = st.integers(1, 10).map(lambda log2n: 1 << log2n)
batches = st.integers(1, 32)
seeds = st.integers(0, 2**32 - 1)


class TestBatchedMatchesGolden:
    @given(n=sizes, batch=batches, seed=seeds, raw_bits=st.booleans())
    @settings(deadline=None)
    def test_finite_input_is_byte_identical(self, n, batch, seed, raw_bits):
        x = finite_samples(np.random.default_rng(seed), batch, n, raw_bits)
        with np.errstate(over="ignore"):  # float32 extremes overflow the cast back
            assert radix2_fft(x).tobytes() == golden_blocks(x).tobytes()

    @given(n=sizes, batch=batches, seed=seeds)
    @settings(deadline=None)
    def test_raw_bytes_match_outside_nan_payloads(self, n, batch, seed):
        raw = np.random.default_rng(seed).bytes(batch * n * 8)
        x = np.frombuffer(raw, dtype=np.complex64).reshape(batch, n)
        with np.errstate(all="ignore"):
            got = radix2_fft(x).view(np.float32)
            expect = golden_blocks(x).view(np.float32)
        nan = np.isnan(expect)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == expect[~nan].tobytes()

    def test_one_dimensional_input_keeps_its_shape(self):
        x = finite_samples(np.random.default_rng(1), 1, 64, raw_bits=False)[0]
        got = radix2_fft(x)
        assert got.shape == (64,) and got.dtype == np.complex64
        assert got.tobytes() == golden_fft(x).tobytes()


class TestFarmWriteBack:
    @pytest.mark.parametrize("blocks", [33, 77])
    def test_partial_last_batch_matches_golden(self, blocks):
        sim, dimms, ap = fresh()
        x = finite_samples(np.random.default_rng(blocks), blocks, FFT_POINTS, False)
        seed(dimms, x.tobytes())
        farm = FftEngineFarm(sim, ap, num_engines=8)
        cb = farm.run_to_completion(
            ControlBlock(opcode=KERNEL_FFT, src=0, dst=16 * MIB, length=blocks * BLOCK_BYTES)
        )
        assert cb.status == STATUS_DONE and cb.result0 == blocks
        assert farm.blocks_transformed == blocks
        for b in range(blocks):
            written = read_flat(dimms, 16 * MIB + b * BLOCK_BYTES, BLOCK_BYTES)
            assert written == golden_fft(x[b]).tobytes(), f"block {b}"
