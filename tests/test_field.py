import itertools
import random

import pytest

from uecc import ecsm, field
from uecc.bigmul import counters
from uecc.ecsm import EcsmConfig, Scalar, scalar_mult
from uecc.field import CurveId, P25519, P448, PARAMS, PHI, fe
from uecc.ffau import mul_int
from uecc.program import build_inversion_program

from spec import CURVES, programs, spy


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
        # whole ECSMs in every configuration, the ladder issued once with the
        # scalar's bits as its steps: the unit calls logged since the previous
        # issue are the issued program's pinned charge (`products`) times its
        # steps, and the ECSM charges exactly those calls, each as one 2-level
        # Karatsuba product (9, 3, 1)
        def unit(x, y):
            # the modelled unit is 256 bits wide: a wider operand is a
            # reduction fault, which must fail here, not grow on each wave
            assert x >> 256 == 0 and y >> 256 == 0, "operand wider than the 256-bit unit"
            return x * y

        names = {prog: name for curve in CURVES for name, prog in programs(curve).items()}
        log = []
        spy(monkeypatch, field, "kar256_int", log, call=unit)
        spy(monkeypatch, ecsm, "_issue", log,
            record=lambda prog, regs, issued, k=0, steps=1: (names[prog], steps))
        rng = random.Random(14)
        for curve, dpa in itertools.product(CURVES, (False, True)):
            params, want = PARAMS[curve], self.PROGRAM_PRODUCTS[curve]
            assert {name: prog.products for name, prog in programs(curve).items()} == want
            cfg = EcsmConfig(dpa, prng_seed=(rng.randbytes(10), rng.randbytes(10)))
            log.clear()
            before = counters.snapshot()
            k, x_p = Scalar(rng.getrandbits(params.scalar_bits), curve), fe(rng.randrange(params.p), curve)
            scalar_mult(k, x_p, cfg)
            charged = tuple(b - a for a, b in zip(before, counters.snapshot()))
            calls, issues = 0, []
            for name, recorded, _ in log:
                if name == "kar256_int":
                    calls += 1
                    continue
                program, steps = recorded
                assert calls == want[program] * steps, (curve, dpa, program)
                issues.append(recorded)
                calls = 0
            assert calls == 0, (curve, dpa)  # no product after the last issue
            ladder = ("ladder-dpa" if dpa else "ladder", params.scalar_bits)
            assert issues == [("init", 1)] * dpa + [ladder, ("inversion", 1), ("final", 1)]
            total = sum(name == "kar256_int" for name, _, _ in log)
            assert charged == (9 * total, 3 * total, total), (curve, dpa)


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
