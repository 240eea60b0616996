import random

import pytest

from uecc import field
from uecc.bigmul import counters, mul_schoolbook
from uecc.ecsm import RAW, decode_u
from uecc.field import CurveId, P25519, P448, PARAMS, PHI, fe, mul_int, mul_small_int
from uecc.ffau import RegisterFile, write_register
from uecc.selftest import add_sub

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


def add(a, b, curve):
    return add_sub(curve, a, b)[0]


def sub(a, b, curve):
    return add_sub(curve, a, b)[1]


class TestParams:
    def test_moduli(self):
        assert PARAMS[CurveId.CURVE25519].p == 2**255 - 19
        assert PARAMS[CurveId.CURVE448].p == 2**448 - 2**224 - 1
        assert P448 == PHI * PHI - PHI - 1

    def test_ladder_constants(self):
        assert PARAMS[CurveId.CURVE25519].a24 == 121665
        assert PARAMS[CurveId.CURVE448].a24 == 39081

    def test_iteration_and_inversion_counts(self):
        assert PARAMS[CurveId.CURVE25519].scalar_bits == 255
        assert PARAMS[CurveId.CURVE448].scalar_bits == 448
        assert len(field.INVERSION_CHAINS[CurveId.CURVE25519]) == 265
        assert len(field.INVERSION_CHAINS[CurveId.CURVE448]) == 462


class TestAddSub:
    """The FFAU's add/sub operand selectors, run through `execute_wave`."""

    def test_wraparound(self):
        for curve in CURVES:
            p = PARAMS[curve].p
            assert add(p - 1, 1, curve) == 0

    def test_identity(self):
        for curve in CURVES:
            assert add(0, 12345, curve) == 12345

    def test_self_cancel(self):
        for curve in CURVES:
            assert sub(98765, 98765, curve) == 0

    def test_negation(self):
        for curve in CURVES:
            p = PARAMS[curve].p
            assert sub(0, 1, curve) == p - 1

    def test_random_against_oracle(self):
        rng = random.Random(10)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(1000):
                a, b = rng.randrange(p), rng.randrange(p)
                assert add_sub(curve, a, b) == ((a + b) % p, (a - b) % p)

    def test_curve_mismatch(self):
        # operands reach the selectors only through the register file,
        # which rejects an element of the other curve
        with pytest.raises(ValueError):
            write_register(RegisterFile(CurveId.CURVE25519), 0, fe(1, CurveId.CURVE448))


class TestReduce:
    def test_p25519_congruence(self):
        assert field.reduce25519_int(2**256) == 38
        assert field.reduce25519_int(P25519) == 0

    def test_p448_congruence(self):
        assert field.reduce448_int(2**448) == 2**224 + 1
        assert field.reduce448_int(PHI * PHI) == PHI + 1

    def test_random_against_oracle(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = rng.getrandbits(512)
            assert field.reduce25519_int(x) == x % P25519
            y = rng.getrandbits(896)
            assert field.reduce448_int(y) == y % P448

    def test_all_ones_inputs(self):
        # the widest value of every bit length reaches each fold's bound
        for bits in range(1, 897):
            x = (1 << bits) - 1
            if bits <= 512:
                assert field.reduce25519_int(x) == x % P25519
            assert field.reduce448_int(x) == x % P448


class TestMul:
    def test_known_values(self):
        assert mul_int(2**128, 2**128, CurveId.CURVE25519) == 38
        assert mul_int(PHI, PHI, CurveId.CURVE448) == PHI + 1

    def test_random_against_oracle(self):
        rng = random.Random(12)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(1000):
                a, b = rng.randrange(p), rng.randrange(p)
                assert mul_int(a, b, curve) == a * b % p

    def test_golden_ratio_path_equals_wide_mul(self):
        # the engine's golden-ratio multiply against schoolbook + reduction
        rng = random.Random(13)
        for _ in range(500):
            a, b = rng.randrange(P448), rng.randrange(P448)
            assert mul_int(a, b, CurveId.CURVE448) == field.reduce448_int(mul_schoolbook(a, b))

    def test_multiplier_unit_counts(self):
        # one 256-bit product per Curve25519 multiply, four per Curve448 multiply
        for curve, want in ((CurveId.CURVE25519, (9, 3, 1)), (CurveId.CURVE448, (36, 12, 4))):
            before = counters.snapshot()
            mul_int(3, 5, curve)
            assert tuple(b - a for a, b in zip(before, counters.snapshot())) == want


class TestReductionBounds:
    """The fused reductions end in one masked subtraction; operands at the
    edges of the field, and the FFAU's unreduced selectors up to 2p - 1,
    drive each fold to its bound."""

    @staticmethod
    def grid(curve):
        p = PARAMS[curve].p
        edges = [0, 1, 2, p - 1, p - 2, (p - 1) // 2]
        # unreduced operands: a sum A + B or a difference A - B + p is below 2p
        edges += [p, p + 1, 2 * p - 2, 2 * p - 1]
        if curve is CurveId.CURVE448:
            # halves at phi all-ones or near-max: the largest golden-ratio partials,
            # and the largest top half of an operand below 2p with a zero bottom half
            edges += [PHI - 1, PHI, p - PHI, (2 * p - 1) // PHI * PHI]
        return edges

    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_mul_int_on_edge_grid(self, curve):
        p = PARAMS[curve].p
        edges = self.grid(curve)
        for a in edges:
            for b in edges:
                got = mul_int(a, b, curve)
                assert got == a * b % p and got < p, (hex(a), hex(b))

    @staticmethod
    def folds_to_at_least_p(curve):
        """An operand a < p whose product with a24 folds into [p, 2p), so the
        masked subtraction must act: with 2^w = p + k and a*a24 = m*2^w - t,
        one fold gives p + k*m - t."""
        p, c = PARAMS[curve].p, PARAMS[curve].a24
        w = p.bit_length()
        k = 2**w - p
        m = next(m for m in range(1, c) if (m << w) % c <= k * m)
        a = ((m << w) - (m << w) % c) // c
        assert a < p
        return a

    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_mul_small_int_on_edges(self, curve):
        p, a24 = PARAMS[curve].p, PARAMS[curve].a24
        for a in self.grid(curve) + [self.folds_to_at_least_p(curve)]:
            got = mul_small_int(a, a24, curve)
            assert got == a * a24 % p and got < p, hex(a)


class TestFieldAxioms:
    def test_axioms_random(self):
        rng = random.Random(14)
        for curve in CURVES:
            p = PARAMS[curve].p

            def mul(x, y):
                return mul_int(x, y, curve)

            for _ in range(100):
                a, b, c = (rng.randrange(p) for _ in range(3))
                assert add(a, b, curve) == add(b, a, curve)
                assert mul(a, b) == mul(b, a)
                assert add(add(a, b, curve), c, curve) == add(a, add(b, c, curve), curve)
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c, curve)) == add(mul(a, b), mul(a, c), curve)
                assert mul(a, add(b, c, curve)) == a * (b + c) % p


class TestMulA24:
    def test_unit(self):
        assert mul_small_int(1, 121665, CurveId.CURVE25519) == 121665
        assert mul_small_int(1, 39081, CurveId.CURVE448) == 39081

    def test_zero(self):
        for curve in CURVES:
            assert mul_small_int(0, PARAMS[curve].a24, curve) == 0

    def test_equals_full_multiplication(self):
        rng = random.Random(15)
        for curve in CURVES:
            p = PARAMS[curve].p
            a24 = PARAMS[curve].a24
            for _ in range(300):
                a = rng.randrange(p)
                assert mul_small_int(a, a24, curve) == mul_int(a, a24, curve)


class TestBytes:
    """Field elements from the wire: the engine's u-coordinate decoding with the
    octets taken verbatim (`RAW`), and the little-endian encoding of x_Q."""

    def test_zero(self):
        assert decode_u(bytes(32), CurveId.CURVE25519, RAW).n == 0
        assert decode_u(bytes(56), CurveId.CURVE448, RAW).n == 0

    def test_base_point_u(self):
        data = bytes([9]) + bytes(31)
        assert decode_u(data, CurveId.CURVE25519, RAW).n == 9

    def test_round_trip(self):
        rng = random.Random(18)
        for curve in CURVES:
            p = PARAMS[curve].p
            nbytes = PARAMS[curve].field_bytes
            for _ in range(100):
                data = rng.randbytes(nbytes)
                a = decode_u(data, curve, RAW)
                assert a.n == int.from_bytes(data, "little") % p
                assert decode_u(a.n.to_bytes(nbytes, "little"), curve, RAW) == a

    def test_non_canonical_reduced(self):
        data = (P25519 + 5).to_bytes(32, "little")
        assert decode_u(data, CurveId.CURVE25519, RAW).n == 5

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            decode_u(bytes(56), CurveId.CURVE25519, RAW)
        with pytest.raises(ValueError):
            decode_u(bytes(32), CurveId.CURVE448, RAW)

    def test_canonical_required(self):
        with pytest.raises(ValueError):
            field.FieldElement(P25519, CurveId.CURVE25519)
