"""Golden-keystream tests pinning the table-driven scrambler rewrite.

The hex vectors below were captured from the historical bit-serial
implementation (``LfsrStream.next_byte`` looping ``next_bit``) before the
table-driven fast path existed; ``BitSerialLfsr`` keeps those two steps
verbatim as the reference.  They pin three independent layers:

* the per-lane LFSR keystream itself (seed mixing included);
* the bundle striping (round-robin across lanes, restarting at lane 0
  each frame) for the lane counts the DMI actually uses (14 down, 21 up)
  plus the degenerate 1- and 2-lane configurations;
* the lazy-skip path, which must leave lane state byte-identical to
  generating the keystream.

Any change to these bytes changes every wire byte in the simulator, so a
failure here means artifact reproducibility is broken.
"""

import random

from repro.dmi.scrambler import BundleScrambler, LaneScrambler, LfsrStream, _step_bits


class BitSerialLfsr(LfsrStream):
    """The historical bit-serial keystream steps, one LFSR bit at a time."""

    def next_bit(self) -> int:
        """Bit-serial reference step (golden path; the hot path uses tables)."""
        self.state, bit = _step_bits(self.state, 1)
        return bit

    def next_byte(self) -> int:
        value = 0
        for i in range(8):
            value |= self.next_bit() << i
        return value


#: first 32 keystream bytes per lane, from the bit-serial implementation
LANE_GOLDEN = {
    0: "46eb01d5a1aabc4b13afab18ba7b80df114cf53682ea97cc9d0d56a9430abdf7",
    1: "d1d3be229729568959276396ba14d16e674e87749adce2d359096ac839"
       "56adbb",
    2: "370ec7e3190a732d93add2596a1cba37fed3bd07bdbe51e9d6f4ee91f7056874",
    13: "d646ccd517331a5f50a2c06783f63b27d9ac319cf31c654fe369e8fabbb971a9",
    20: "561961e451ead77ec31b37ef88ddeb1934ffb836c803aeeb92f710062f5ef848",
}

#: BundleScrambler.process over three all-zero frames of lengths 56/33/7
#: (scrambling zeros exposes the striped keystream), per lane count
BUNDLE_GOLDEN = {
    1: [
        "46eb01d5a1aabc4b13afab18ba7b80df114cf53682ea97cc9d0d56a9430abdf7"
        "2fe4e5fc77a22a981e71d31b59a77ed0f009c26ec1098f49",
        "176251c5ba48c04d8816ef5aae1d2ec48c1d48e2d8a30024411cc8de9f69f626a9",
        "f907b3bf7269b3",
    ],
    2: [
        "46d1ebd301bed522a197aa29bc564b891359af27ab631896baba7b1480d1df6e"
        "11674c4ef5873674829aeadc97e2ccd39d590d09566aa9c8",
        "43390a56bdadf7bb2feae41ce5d3fc6677b1a2b02ac298eb1e2d7152d38c1b4659",
        "a7e07e36d007f0",
    ],
    14: [
        "46d137fec4ec1a4f87951306e8d6ebd30e7de0c7a05aee2cfdb7ce4601bec719"
        "7be70d6d3cc3f26d87ccd522e3eb8324cab17edc2dd1dad5",
        "a19719b9deecad561ee407682717aa290a889b2dbbfb3206e9362233bc56732261",
        "4b892dc17ffaf3",
    ],
    21: [
        "46d137fec4ec1a4f87951306e8d6f8179cab959656ebd30e7de0c7a05aee2cfd"
        "b7ce46ca741035f1fb1901bec7197be70d6d3cc3f26d87cc",
        "d522e3eb8324cab17edc2dd1dad52e4b8640f91e61a19719b9deecad561ee40768",
        "aa290a889b2dbb",
    ],
}


class TestLaneGolden:
    def test_bit_serial_reference_matches_golden(self):
        for lane, expect in LANE_GOLDEN.items():
            stream = BitSerialLfsr(lane)
            got = bytes(stream.next_byte() for _ in range(32))
            assert got.hex() == expect, f"lane {lane}"

    def test_table_blocks_match_golden(self):
        for lane, expect in LANE_GOLDEN.items():
            assert LfsrStream(lane).next_block(32).hex() == expect, f"lane {lane}"

    def test_table_blocks_match_bit_serial_any_size(self):
        # odd/even/large block sizes all continue the same stream
        for size in (1, 2, 3, 7, 8, 31, 64, 257):
            a, b = LfsrStream(5), BitSerialLfsr(5)
            got = a.next_block(size)
            ref = bytes(b.next_byte() for _ in range(size))
            assert got == ref, f"size {size}"

    def test_skip_bytes_matches_generation(self):
        for skip in (1, 2, 5, 100, 1023):
            a, b = LfsrStream(3), LfsrStream(3)
            a.skip_bytes(skip)
            b.next_block(skip)
            assert a.state == b.state, f"skip {skip}"


class TestBundleGolden:
    def test_striped_keystream_matches_golden(self):
        for lanes, frames in BUNDLE_GOLDEN.items():
            bundle = BundleScrambler(lanes)
            for expect in frames:
                got = bundle.process(bytes(len(expect) // 2))
                assert got.hex() == expect, f"lanes {lanes}"

    def test_keystream_frame_equals_scrambled_zeros(self):
        for lanes, frames in BUNDLE_GOLDEN.items():
            bundle = BundleScrambler(lanes)
            for expect in frames:
                got = bundle.keystream_frame(len(expect) // 2)
                assert got.hex() == expect, f"lanes {lanes}"

    def test_lane_scrambler_consumption_matches_bundle(self):
        # the bundle's inlined striping must consume per-lane keystream
        # exactly like the public LaneScrambler.keystream API
        for lanes in (2, 14, 21):
            bundle = BundleScrambler(lanes)
            reference = [LaneScrambler(i) for i in range(lanes)]
            for n in (7, 33, 56, 8, 25, 43):
                striped = bundle.keystream_frame(n)
                base, rem = divmod(n, lanes)
                for i, lane in enumerate(reference):
                    count = base + 1 if i < rem else base
                    assert striped[i::lanes] == lane.keystream(count)


class TestLazySkip:
    def test_skip_then_generate_matches_generate_only(self):
        rng = random.Random(11)
        for lanes in (1, 2, 3, 14, 21):
            generated = BundleScrambler(lanes)
            skipped = BundleScrambler(lanes)
            for _ in range(rng.randint(1, 30)):
                n = rng.randint(1, 60)
                generated.keystream_frame(n)
                skipped.skip_frame(n)
            for probe in (rng.randint(1, 60), 1, 43):
                assert skipped.keystream_frame(probe) == generated.keystream_frame(
                    probe
                ), f"lanes {lanes}"

    def test_resync_discards_pending_skips(self):
        bundle = BundleScrambler(14)
        bundle.skip_frame(33)
        bundle.resync()
        fresh = BundleScrambler(14)
        assert bundle.keystream_frame(40) == fresh.keystream_frame(40)
