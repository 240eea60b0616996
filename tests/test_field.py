import random

import pytest

from uecc import ecsm, ffau, field, selftest
from uecc.bigmul import counters
from uecc.ecsm import RAW, decode_u
from uecc.field import CurveId, P25519, P448, PARAMS, PHI
from uecc.ffau import mul_int, registers
from uecc.program import build_inversion_program

from spec import programs

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


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
        assert len(build_inversion_program(CurveId.CURVE25519).waves) == 265
        assert len(build_inversion_program(CurveId.CURVE448).waves) == 462


class TestMul:
    def test_known_values(self):
        assert mul_int(2**128, 2**128, CurveId.CURVE25519) == 38
        assert mul_int(PHI, PHI, CurveId.CURVE448) == PHI + 1

    def test_field_check_expects_the_reference_a24(self, monkeypatch):
        # the kernels are built from `field.PARAMS`, and the check's expected
        # values come from `reference`: a wrong model a24 fails the check
        # instead of moving its oracle too.  The kernel cache is cleared
        # before, so the kernels are rebuilt from the wrong a24, and after,
        # so none built from it outlives the test
        curve = CurveId.CURVE448
        try:
            monkeypatch.setitem(field.PARAMS, curve, PARAMS[curve]._replace(a24=39082))
            ffau.compile_ops.cache_clear()
            assert not selftest.field_ops(random.Random(81), 1)
        finally:
            monkeypatch.undo()
            ffau.compile_ops.cache_clear()

    # 256-bit unit products charged per issue of each program, pinned as
    # literals: `ffau.UNITS` per full-width op (one on Curve25519, four on
    # Curve448), none per a24 op
    PROGRAM_PRODUCTS = {
        CurveId.CURVE25519: {"ladder": 10, "ladder-dpa": 11, "inversion": 265, "init": 2, "final": 1},
        CurveId.CURVE448: {"ladder": 40, "ladder-dpa": 44, "inversion": 1848, "init": 8, "final": 4},
    }

    def test_multiplier_unit_counts(self, monkeypatch):
        # each program's charge is pinned, and issuing the program makes
        # exactly that many calls to the unit and charges exactly that many
        # products, each as one 2-level Karatsuba product (9, 3, 1)
        calls = 0

        def unit(x, y):
            # the modelled unit is 256 bits wide: a wider operand is a
            # reduction fault, which must fail here, not grow on each wave
            assert x >> 256 == 0 and y >> 256 == 0, "operand wider than the 256-bit unit"
            nonlocal calls
            calls += 1
            return x * y

        monkeypatch.setattr(field, "kar256_int", unit)
        rng = random.Random(14)
        for curve, want in self.PROGRAM_PRODUCTS.items():
            p = PARAMS[curve].p
            for name, prog in programs(curve).items():
                regs = registers(*(rng.randrange(p) for _ in range(ffau.NUM_REGISTERS)))
                calls = 0
                before = counters.snapshot()
                ecsm._issue(prog, regs, None)
                charged = tuple(b - a for a, b in zip(before, counters.snapshot()))
                assert prog.products == calls == want[name], (curve, name)
                assert charged == (9 * calls, 3 * calls, calls), (curve, name)


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

    def test_curve_must_be_a_curve_id(self):
        # a clear error, not a bare KeyError from the PARAMS lookup
        for curve in ("25519", CurveId.CURVE25519.value, 448, None):
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                field.FieldElement(9, curve)
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                field.fe(9, curve)
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                field.check_width(bytes(32), curve, "u-coordinate")
