import random

import pytest

from uecc import trivium
from uecc.field import CurveId, PARAMS
from uecc.reference import trivium_bits, trivium_words

# Keystream prefixes for the standard known-answer inputs, packed LSB-first
# per byte.  Frozen from the independent bit-serial oracle; the zero-key and
# single-key-bit streams match the published eSTREAM Trivium vectors.
KAT = [
    ("00000000000000000000", "00000000000000000000",
     "fbe0bf265859051b517a2e4e239fc97f563203161907cf2de7a8790fa1b2e9cd"
     "f75292030268b7382b4c1a759aa2599a285549986e74805903801a4cb5a5d4f2"),
    ("80000000000000000000", "00000000000000000000",
     "38eb86ff730d7a9caf8df13a4420540dbb7b651464c87501552041c249f29a64"
     "d2fbf515610921ebe06c8f92cecf7f8098ff20cccc6a62b97be8ef7454fc80f9"),
    ("00000000000000000000", "80000000000000000000",
     "f8901736640549e3ba7d42ea2d07b9f49233c18d773008bd755585b1a8cbab86"
     "c1e9a9b91f1ad33483fd6ee3696d659c9374260456a36aae11f033a519cbd5d7"),
]


class ScriptedPrng:  # a PRNG for `gen_lambda` that returns `words` in order
    def __init__(self, words):
        self.words = list(words)
        self.next64_calls = 0

    def _step64(self):
        return self.words.pop(0)


class TestInit:
    def test_key_iv_length_checked(self):
        with pytest.raises(ValueError):
            trivium.TriviumState(bytes(9), bytes(10))
        with pytest.raises(ValueError):
            trivium.TriviumState(bytes(10), bytes(11))

    def test_determinism(self):
        # two states of one key/IV, read in turn, share no state
        a, b = (trivium.TriviumState(*trivium.DEFAULT_SEED) for _ in range(2))
        assert [trivium.next64(a) == trivium.next64(b) for _ in range(2)] == [True, True]

    def test_single_iv_bit_changes_first_128_bits(self):
        key = bytes(10)
        base = trivium.TriviumState(key, bytes(10))
        base_words = [trivium.next64(base) for _ in range(2)]
        for bit in (0, 37, 79):
            iv = bytearray(10)
            iv[bit // 8] |= 1 << (bit % 8)
            other = trivium.TriviumState(key, bytes(iv))
            assert [trivium.next64(other) for _ in range(2)] != base_words


class TestKeystream:
    def test_reference_vectors(self):
        for key_hex, iv_hex, want_hex in KAT:
            st = trivium.TriviumState(bytes.fromhex(key_hex), bytes.fromhex(iv_hex))
            got = trivium.keystream_bytes(st, len(want_hex) // 2)
            assert got.hex() == want_hex, (key_hex, iv_hex)

    def test_reference_vectors_from_bit_serial_oracle(self):
        for key_hex, iv_hex, want_hex in KAT:
            words = trivium_words(bytes.fromhex(key_hex), bytes.fromhex(iv_hex), 8)
            data = b"".join(w.to_bytes(8, "little") for w in words)
            assert data.hex() == want_hex

    def test_word_packing_lsb_first(self):
        key, iv = bytes(10), bytes(10)
        bits = list(trivium_bits(key, iv, 64))
        assert trivium_words(key, iv, 1)[0] == sum(b << i for i, b in enumerate(bits))

    def test_consecutive_calls_are_disjoint_segments(self):
        # word-sized `keystream_bytes` calls continue where the last stopped
        one, two = (trivium.TriviumState(*trivium.DEFAULT_SEED) for _ in range(2))
        halves = trivium.keystream_bytes(one, 8) + trivium.keystream_bytes(one, 8)
        assert halves == trivium.keystream_bytes(two, 16)

    def test_partial_word_rejected_before_any_draw(self):
        # a partial last word would drop the rest of it, so the next call
        # would skip keystream; -8 is a multiple of 8 that draws nothing
        st = trivium.TriviumState(*trivium.DEFAULT_SEED)
        for nbytes in (12, -8):
            with pytest.raises(ValueError, match=f"8-byte words, got {nbytes} bytes"):
                trivium.keystream_bytes(st, nbytes)
        assert st.next64_calls == 0

    def test_call_counter(self):
        st = trivium.TriviumState(bytes(10), bytes(10))
        assert st.next64_calls == 0  # warm-up emits nothing
        trivium.next64(st)
        trivium.next64(st)
        assert st.next64_calls == 2


class TestGenLambda:
    def test_word_budget(self):
        st = trivium.TriviumState(bytes(range(10)), bytes(range(10, 20)))
        trivium.gen_lambda(st, CurveId.CURVE25519)
        assert st.next64_calls == 4
        trivium.gen_lambda(st, CurveId.CURVE448)
        assert st.next64_calls == 4 + 7
        assert trivium.lambda_words(CurveId.CURVE25519) == 4
        assert trivium.lambda_words(CurveId.CURVE448) == 7

    def test_result_nonzero_canonical(self):
        rng = random.Random(42)
        for curve in (CurveId.CURVE25519, CurveId.CURVE448):
            p = PARAMS[curve].p
            for _ in range(10):
                st = trivium.TriviumState(rng.randbytes(10), rng.randbytes(10))
                lam = trivium.gen_lambda(st, curve)
                assert 1 <= lam < p
                assert type(lam) is int

    def test_zero_draw_regenerated(self):
        # first draw is all-zero words -> lambda would be 0 -> redrawn
        prng = ScriptedPrng([0, 0, 0, 0, 5, 0, 0, 0])
        lam = trivium.gen_lambda(prng, CurveId.CURVE25519)
        assert lam == 5
        assert prng.next64_calls == 8

    def test_stuck_prng_raises(self):
        prng = ScriptedPrng([0] * 7 * trivium.MAX_LAMBDA_DRAWS)
        with pytest.raises(RuntimeError, match="stuck"):
            trivium.gen_lambda(prng, CurveId.CURVE448)
        assert prng.next64_calls == 7 * trivium.MAX_LAMBDA_DRAWS

    def test_truncation_keeps_low_bits(self):
        # lambda is the low scalar_bits bits of the draw's words, LSW first, mod p
        for curve, params in PARAMS.items():
            words = trivium_words(*trivium.DEFAULT_SEED, trivium.lambda_words(curve))
            value = sum(w << (64 * i) for i, w in enumerate(words))
            lam = trivium.gen_lambda(trivium.TriviumState(*trivium.DEFAULT_SEED), curve)
            assert lam == (value & ((1 << params.scalar_bits) - 1)) % params.p

    def test_curve_must_be_a_curve_id(self):
        # the curve's name is not its CurveId, and nothing is drawn for it
        st = trivium.TriviumState(*trivium.DEFAULT_SEED)
        with pytest.raises(TypeError, match="curve must be a CurveId, got '25519'"):
            trivium.gen_lambda(st, "25519")
        assert st.next64_calls == 0

    def test_curve25519_mask_to_255_bits(self):
        # an all-ones draw: the mask drops bit 255, leaving (2^255 - 1) % p = 18
        assert trivium.gen_lambda(ScriptedPrng([2**64 - 1] * 4), CurveId.CURVE25519) == 18
