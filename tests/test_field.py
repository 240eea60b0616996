import random

import pytest

from uecc import ecsm, ffau, field
from uecc.bigmul import counters
from uecc.field import CurveId, P25519, P448, PARAMS, PHI
from uecc.ffau import mul_int, registers
from uecc.program import build_inversion_program

from spec import programs


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
    """`FieldElement` inputs that its rows in `tests/test_sources.py` do not
    hold, and `fe`; decoding from the wire is `tests/test_ecsm.py::TestDecodeU`'s."""

    def test_non_canonical_reduced(self):
        # `fe` reduces any integer, a negative one too
        assert [field.fe(n, CurveId.CURVE25519).n for n in (P25519 + 5, -1)] == [5, P25519 - 1]

    def test_canonical_required(self):
        with pytest.raises(ValueError, match="value not canonical"):
            field.FieldElement(-1, CurveId.CURVE25519)

    def test_curve_must_be_a_curve_id(self):
        # a clear error, not a bare KeyError from the PARAMS lookup
        for curve in ("25519", CurveId.CURVE25519.value, 448, None):
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                field.fe(9, curve)
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                field.check_width(bytes(32), curve, "u-coordinate")
