import random

import pytest

from uecc import field
from uecc.bigmul import WideInt, counters
from uecc.field import (
    CurveId,
    P25519,
    P448,
    PARAMS,
    PHI,
    add,
    fe,
    from_bytes,
    mul,
    mul_a24,
    mul_wide,
    reduce_p25519,
    reduce_p448,
    sub,
    to_bytes,
)
from uecc.ffau import RegisterFile, execute_wave, write_register
from uecc.program import Z2, build_inversion_program

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


def invert(a):
    """Run the inversion chain as the FFAU program on Z2 = a; the inverse is in Z2."""
    state = RegisterFile(a.curve)
    write_register(state, Z2, a)
    for wave in build_inversion_program(a.curve).waves:
        execute_wave(state, wave)
    return state


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
    def test_wraparound(self):
        for curve in CURVES:
            p = PARAMS[curve].p
            assert add(fe(p - 1, curve), fe(1, curve)).n == 0

    def test_identity(self):
        for curve in CURVES:
            a = fe(12345, curve)
            assert add(fe(0, curve), a) == a

    def test_self_cancel(self):
        for curve in CURVES:
            a = fe(98765, curve)
            assert sub(a, a).n == 0

    def test_negation(self):
        for curve in CURVES:
            p = PARAMS[curve].p
            assert sub(fe(0, curve), fe(1, curve)).n == p - 1

    def test_random_against_oracle(self):
        rng = random.Random(10)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(1000):
                a, b = rng.randrange(p), rng.randrange(p)
                assert add(fe(a, curve), fe(b, curve)).n == (a + b) % p
                assert sub(fe(a, curve), fe(b, curve)).n == (a - b) % p

    def test_curve_mismatch(self):
        with pytest.raises(ValueError):
            add(fe(1, CurveId.CURVE25519), fe(1, CurveId.CURVE448))


class TestReduce:
    def test_p25519_congruence(self):
        assert reduce_p25519(WideInt.from_int(2**256, 512)).n == 38
        assert reduce_p25519(WideInt.from_int(P25519, 512)).n == 0

    def test_p448_congruence(self):
        assert reduce_p448(WideInt.from_int(2**448, 896)).n == 2**224 + 1
        assert reduce_p448(WideInt.from_int(PHI * PHI, 896)).n == PHI + 1

    def test_random_against_oracle(self):
        rng = random.Random(11)
        for _ in range(1000):
            x = rng.getrandbits(512)
            assert reduce_p25519(WideInt.from_int(x, 512)).n == x % P25519
            y = rng.getrandbits(896)
            assert reduce_p448(WideInt.from_int(y, 896)).n == y % P448

    def test_all_ones_inputs(self):
        # the widest value of every bit length reaches each fold's bound
        for bits in range(1, 897):
            x = (1 << bits) - 1
            if bits <= 512:
                assert field.reduce25519_int(x) == x % P25519
            assert field.reduce448_int(x) == x % P448

    def test_width_checks(self):
        with pytest.raises(ValueError):
            reduce_p25519(WideInt.from_int(1, 896))
        with pytest.raises(ValueError):
            reduce_p448(WideInt.from_int(1, 512))


class TestMul:
    def test_known_values(self):
        assert mul(fe(2**128, CurveId.CURVE25519), fe(2**128, CurveId.CURVE25519)).n == 38
        assert mul(fe(PHI, CurveId.CURVE448), fe(PHI, CurveId.CURVE448)).n == PHI + 1

    def test_random_against_oracle(self):
        rng = random.Random(12)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(1000):
                a, b = rng.randrange(p), rng.randrange(p)
                assert mul(fe(a, curve), fe(b, curve)).n == a * b % p

    def test_golden_ratio_path_equals_wide_mul(self):
        rng = random.Random(13)
        for _ in range(500):
            a = fe(rng.randrange(P448), CurveId.CURVE448)
            b = fe(rng.randrange(P448), CurveId.CURVE448)
            assert mul(a, b) == mul_wide(a, b)

    def test_curve_mismatch(self):
        with pytest.raises(ValueError):
            mul(fe(1, CurveId.CURVE25519), fe(1, CurveId.CURVE448))

    def test_multiplier_unit_counts(self):
        # one 256-bit product per Curve25519 multiply, four per Curve448 multiply
        for curve, want in ((CurveId.CURVE25519, (9, 3, 1)), (CurveId.CURVE448, (36, 12, 4))):
            before = counters.snapshot()
            mul(fe(3, curve), fe(5, curve))
            assert tuple(b - a for a, b in zip(before, counters.snapshot())) == want


class TestReductionBounds:
    """The fused reductions end in one masked subtraction; operands at the
    edges of the field drive each fold to its bound."""

    @staticmethod
    def grid(curve):
        p = PARAMS[curve].p
        edges = [0, 1, 2, p - 1, p - 2, (p - 1) // 2]
        if curve is CurveId.CURVE448:
            # halves at phi all-ones or near-max: the largest golden-ratio partials
            edges += [PHI - 1, PHI, p - PHI]
        return edges

    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_mul_int_on_edge_grid(self, curve):
        p = PARAMS[curve].p
        edges = self.grid(curve)
        for a in edges:
            for b in edges:
                got = field.mul_int(a, b, curve)
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
            got = field.mul_small_int(a, a24, curve)
            assert got == a * a24 % p and got < p, hex(a)


class TestFieldAxioms:
    def test_axioms_random(self):
        rng = random.Random(14)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(100):
                a, b, c = (fe(rng.randrange(p), curve) for _ in range(3))
                assert add(a, b) == add(b, a)
                assert mul(a, b) == mul(b, a)
                assert add(add(a, b), c) == add(a, add(b, c))
                assert mul(mul(a, b), c) == mul(a, mul(b, c))
                assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                assert mul(a, add(b, c)).n == a.n * (b.n + c.n) % p


class TestMulA24:
    def test_unit(self):
        assert mul_a24(fe(1, CurveId.CURVE25519)).n == 121665
        assert mul_a24(fe(1, CurveId.CURVE448)).n == 39081

    def test_zero(self):
        for curve in CURVES:
            assert mul_a24(fe(0, curve)).n == 0

    def test_equals_full_multiplication(self):
        rng = random.Random(15)
        for curve in CURVES:
            p = PARAMS[curve].p
            a24 = PARAMS[curve].a24
            for _ in range(300):
                a = fe(rng.randrange(p), curve)
                assert mul_a24(a) == mul(a, fe(a24, curve))


class TestInv:
    def test_one(self):
        for curve in CURVES:
            assert invert(fe(1, curve)).regs[Z2] == 1

    def test_two_curve25519(self):
        # 2 * (2^254 - 9) = p + 1
        assert invert(fe(2, CurveId.CURVE25519)).regs[Z2] == 2**254 - 9

    def test_random_self_check(self):
        rng = random.Random(16)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(10):
                a = fe(rng.randrange(1, p), curve)
                assert mul(a, fe(invert(a).regs[Z2], curve)).n == 1

    def test_chain_lengths(self):
        # one multiplication per cycle: 254 + 11 and 447 + 15 chain steps
        rng = random.Random(17)
        lengths = {CurveId.CURVE25519: 265, CurveId.CURVE448: 462}
        for curve in CURVES:
            a = fe(rng.randrange(1, PARAMS[curve].p), curve)
            assert invert(a).cycles == lengths[curve]

    def test_chain_is_fixed_sequence(self):
        # data-independent: same step list regardless of operand
        chain = field.INVERSION_CHAINS[CurveId.CURVE25519]
        assert chain is field.INVERSION_CHAINS[CurveId.CURVE25519]
        squarings = sum(1 for s in chain if s[0] == "sq")
        mults = sum(1 for s in chain if s[0] == "mul")
        assert (squarings, mults) == (254, 11)
        chain448 = field.INVERSION_CHAINS[CurveId.CURVE448]
        squarings = sum(1 for s in chain448 if s[0] == "sq")
        mults = sum(1 for s in chain448 if s[0] == "mul")
        assert (squarings, mults) == (447, 15)


class TestBytes:
    def test_zero(self):
        assert from_bytes(bytes(32), CurveId.CURVE25519).n == 0
        assert from_bytes(bytes(56), CurveId.CURVE448).n == 0

    def test_base_point_u(self):
        data = bytes([9]) + bytes(31)
        assert from_bytes(data, CurveId.CURVE25519).n == 9

    def test_round_trip(self):
        rng = random.Random(18)
        for curve in CURVES:
            p = PARAMS[curve].p
            nbytes = PARAMS[curve].field_bytes
            for _ in range(100):
                data = rng.randbytes(nbytes)
                a = from_bytes(data, curve)
                assert a.n == int.from_bytes(data, "little") % p
                assert to_bytes(from_bytes(to_bytes(a), curve)) == to_bytes(a)

    def test_non_canonical_reduced(self):
        data = (P25519 + 5).to_bytes(32, "little")
        assert from_bytes(data, CurveId.CURVE25519).n == 5

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            from_bytes(bytes(56), CurveId.CURVE25519)
        with pytest.raises(ValueError):
            from_bytes(bytes(32), CurveId.CURVE448)

    def test_canonical_required(self):
        with pytest.raises(ValueError):
            field.FieldElement(P25519, CurveId.CURVE25519)
