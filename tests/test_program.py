import random

import pytest

from uecc.field import CurveId, PARAMS
from uecc.ffau import NUM_REGISTERS, ScheduleError, Wave, execute_wave, mul_int, mul_op
from uecc.program import (
    R_RND,
    ScheduledProgram,
    X1,
    X2,
    X3,
    Z1,
    Z2,
    Z3,
    build_inversion_program,
    build_ladder_program,
    dump_program,
    _ladder_ops,
)
from uecc.reference import ladder_step

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


def run_program(regs, prog):
    """Execute `prog` on the register list `regs`, one checked wave per
    cycle, and return the cycles executed."""
    for cycles, wave in enumerate(prog.waves, 1):
        execute_wave(regs, wave, prog.curve)
    return cycles


def ladder_state(vals, rnd=0):
    """X1, Z1, X2, Z2, X3, Z3 = vals, and R_RND = rnd."""
    regs = list(vals) + [0] * (NUM_REGISTERS + 1 - len(vals))
    regs[R_RND] = rnd
    return regs


def inversion_state(z2, x2=0):
    regs = [0] * (NUM_REGISTERS + 1)
    regs[X2], regs[Z2] = x2, z2
    return regs


class TestLadderProgram:
    def test_op_counts(self):
        for curve in CURVES:
            assert build_ladder_program(curve, dpa=False).op_count == 11
            assert build_ladder_program(curve, dpa=True).op_count == 12

    def test_wave_counts(self):
        assert len(build_ladder_program(CurveId.CURVE25519, False).waves) == 3
        assert len(build_ladder_program(CurveId.CURVE25519, True).waves) == 3
        assert len(build_ladder_program(CurveId.CURVE448, False).waves) == 10
        assert len(build_ladder_program(CurveId.CURVE448, True).waves) == 11

    @pytest.mark.parametrize("curve, dpa, waves", [
        (CurveId.CURVE25519, False, 3), (CurveId.CURVE25519, True, 3),
        (CurveId.CURVE448, False, 10), (CurveId.CURVE448, True, 11),
    ])
    def test_wave_counts_meet_the_lower_bound(self, curve, dpa, waves):
        # No schedule of the step's ops issues in fewer waves than the longest
        # chain of ops each reading the previous one's result, nor than its
        # issue slots over the slots of one wave: four ops on Curve25519, one
        # full-width op on Curve448, where the a24 op rides along (Wave.check).
        # Each ladder meets that bound, so its cycle total is minimal for its ops
        ops = _ladder_ops(dpa)
        depth_of, depth = {}, 0  # register -> chain depth of its latest writer
        for op in ops:
            depth_of[op.dst] = 1 + max((depth_of.get(reg, 0) for reg in op.reads()), default=0)
            depth = max(depth, depth_of[op.dst])
        if curve is CurveId.CURVE25519:
            slots, per_wave = len(ops), 4
        else:
            slots, per_wave = sum(not op.const_tag for op in ops), 1
        bound = max(depth, -(-slots // per_wave))
        assert depth == 3
        assert len(build_ladder_program(curve, dpa).waves) == bound == waves

    def test_programs_validate(self):
        for curve in CURVES:
            for dpa in (False, True):
                for wave in build_ladder_program(curve, dpa).waves:
                    wave.check(curve)

    def test_programs_cached(self):
        assert build_ladder_program(CurveId.CURVE448, False) is build_ladder_program(
            CurveId.CURVE448, False
        )

    def test_scheduled_equals_straight_line(self):
        rng = random.Random(31)
        for curve in CURVES:
            p = PARAMS[curve].p
            for dpa in (False, True):
                prog = build_ladder_program(curve, dpa)
                for _ in range(50):
                    vals = [rng.randrange(p) for _ in range(6)]
                    regs = ladder_state(vals)
                    run_program(regs, prog)
                    assert (regs[X2], regs[Z2], regs[X3], regs[Z3]) == ladder_step(curve, *vals)
                    # difference point is never written
                    assert regs[X1] == vals[0] and regs[Z1] == vals[1]

    def test_dpa_variant_equivalence_at_z1_one(self):
        # with Z1 = 1 the 12-op program leaves the full register file identical
        rng = random.Random(32)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(20):
                vals = [rng.randrange(p) for _ in range(6)]
                vals[1] = 1  # Z1
                rnd = rng.randrange(p)
                plain, dpa = ladder_state(vals, rnd), ladder_state(vals, rnd)
                run_program(plain, build_ladder_program(curve, False))
                run_program(dpa, build_ladder_program(curve, True))
                assert plain == dpa

    def test_dpa_residue_register_only_difference(self):
        rng = random.Random(33)
        curve = CurveId.CURVE25519
        p = PARAMS[curve].p
        vals = [rng.randrange(p) for _ in range(6)]
        plain, dpa = ladder_state(vals, rnd=7), ladder_state(vals, rnd=7)
        run_program(plain, build_ladder_program(curve, False))
        run_program(dpa, build_ladder_program(curve, True))
        assert plain[:R_RND] == dpa[:R_RND]
        assert dpa[R_RND] == 7 * vals[1] % p


class TestInversionProgram:
    def test_wave_counts(self):
        assert len(build_inversion_program(CurveId.CURVE25519).waves) == 265
        assert len(build_inversion_program(CurveId.CURVE448).waves) == 462

    def test_single_op_waves(self):
        for curve in CURVES:
            prog = build_inversion_program(curve)
            assert all(len(w.ops) == 1 for w in prog.waves)

    def test_inverse_of_two(self):
        regs = inversion_state(2)
        run_program(regs, build_inversion_program(CurveId.CURVE25519))
        assert regs[Z2] == 2**254 - 9

    def test_matches_pow(self):
        rng = random.Random(34)
        for curve in CURVES:
            p = PARAMS[curve].p
            for a in (1, 2, p - 1, *(rng.randrange(1, p) for _ in range(3))):
                regs = inversion_state(a)
                run_program(regs, build_inversion_program(curve))
                assert regs[Z2] == pow(a, -1, p)

    def test_zero_maps_to_zero(self):
        # branch-free handling of the point at infinity
        for curve in CURVES:
            regs = inversion_state(0)
            run_program(regs, build_inversion_program(curve))
            assert regs[Z2] == 0

    def test_random_self_check(self):
        rng = random.Random(16)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(10):
                a = rng.randrange(1, p)
                regs = inversion_state(a)
                run_program(regs, build_inversion_program(curve))
                assert mul_int(a, regs[Z2], curve) == 1

    def test_chain_lengths(self):
        # one multiplication per cycle: 254 + 11 and 447 + 15 chain steps
        rng = random.Random(17)
        for curve, cycles in ((CurveId.CURVE25519, 265), (CurveId.CURVE448, 462)):
            regs = inversion_state(rng.randrange(1, PARAMS[curve].p))
            assert run_program(regs, build_inversion_program(curve)) == cycles

    def test_chain_is_fixed_sequence(self):
        # data-independent: one fixed program of squarings (both factors one
        # register) and multiplications, whatever the operand
        for curve, counts in ((CurveId.CURVE25519, (254, 11)), (CurveId.CURVE448, (447, 15))):
            prog = build_inversion_program(curve)
            assert prog is build_inversion_program(curve)
            squares = sum(op.src_a == op.src_c for wave in prog.waves for op in wave.ops)
            assert (squares, prog.op_count - squares) == counts

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.value)
    def test_chain_computes_p_minus_2_for_every_input(self, curve):
        # a proof, not a sample: track the exponent of a in each register
        # over the whole chain.  Every op is a plain mul_op, so dst = a * c
        # adds the exponents, and Z2 = a^(p-2) = 1/a (0 for a = 0).
        exp = {Z2: 1}
        for wave in build_inversion_program(curve).waves:
            (op,) = wave.ops
            assert op == mul_op(op.src_a, op.src_c, op.dst), op
            exp[op.dst] = exp[op.src_a] + exp[op.src_c]
        assert exp[Z2] == PARAMS[curve].p - 2

    def test_preserves_x2(self):
        regs = inversion_state(2, x2=123456)
        run_program(regs, build_inversion_program(CurveId.CURVE25519))
        assert regs[X2] == 123456


class TestScheduledProgram:
    def test_hashes_by_identity(self):
        # the cached `compiled` must not hash every wave and op on each call
        for curve in CURVES:
            progs = [build_ladder_program(curve, dpa) for dpa in (False, True)]
            progs.append(build_inversion_program(curve))
            for prog in progs:
                assert hash(prog) == object.__hash__(prog)
                assert prog.compiled() is prog.compiled()


class TestValidateSchedule:
    # a program is checked when it is built, so an invalid one never exists
    def test_detects_hazard(self):
        wave = Wave((mul_op(0, 1, 6), mul_op(6, 2, 7)))
        with pytest.raises(ScheduleError, match="wave 0: register 6 read and written"):
            ScheduledProgram((wave,), "ladder", CurveId.CURVE25519)

    def test_detects_issue_width(self):
        single = Wave((mul_op(0, 1, 6),))
        wave = Wave((mul_op(0, 1, 6), mul_op(2, 3, 7)))
        ScheduledProgram((wave,), "ladder", CurveId.CURVE25519)
        with pytest.raises(ScheduleError, match="wave 1: Curve448 wave is one full-width op"):
            ScheduledProgram((single, wave), "ladder", CurveId.CURVE448)

    def test_five_op_wave_unconstructible(self):
        with pytest.raises(ValueError):
            Wave((mul_op(0, 1, 6),) * 5)


class TestDump:
    def test_dump_lists_every_op(self):
        for curve in CURVES:
            prog = build_ladder_program(curve, dpa=True)
            text = dump_program(prog)
            assert text.count("<-") == 12
            assert "a24" in text
        text = dump_program(build_inversion_program(CurveId.CURVE25519))
        assert text.count("<-") == 265
