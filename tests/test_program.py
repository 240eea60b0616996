import random

import pytest

from uecc.field import INVERSION_CHAINS, CurveId, PARAMS, mul_int
from uecc.ffau import RegisterFile, Wave, execute_wave, mul_op, write_register
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
    validate_schedule,
)
from uecc.reference import ladder_step

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


def run_program(state, prog):
    for wave in prog.waves:
        execute_wave(state, wave)
    return state


def ladder_state(curve, vals, rnd=0):
    state = RegisterFile(curve)
    for addr, v in enumerate(vals):
        write_register(state, addr, v)
    write_register(state, R_RND, rnd)
    return state


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

    def test_programs_validate(self):
        for curve in CURVES:
            for dpa in (False, True):
                assert validate_schedule(build_ladder_program(curve, dpa)).valid

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
                    state = run_program(ladder_state(curve, vals), prog)
                    want = ladder_step(curve, *vals)
                    assert (
                        state.regs[X2],
                        state.regs[Z2],
                        state.regs[X3],
                        state.regs[Z3],
                    ) == want
                    # difference point is never written
                    assert state.regs[X1] == vals[0] and state.regs[Z1] == vals[1]

    def test_dpa_variant_equivalence_at_z1_one(self):
        # with Z1 = 1 the 12-op program leaves the full register file identical
        rng = random.Random(32)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(20):
                vals = [rng.randrange(p) for _ in range(6)]
                vals[1] = 1  # Z1
                rnd = rng.randrange(p)
                plain = run_program(ladder_state(curve, vals, rnd), build_ladder_program(curve, False))
                dpa = run_program(ladder_state(curve, vals, rnd), build_ladder_program(curve, True))
                assert plain.regs == dpa.regs

    def test_dpa_residue_register_only_difference(self):
        rng = random.Random(33)
        curve = CurveId.CURVE25519
        p = PARAMS[curve].p
        vals = [rng.randrange(p) for _ in range(6)]
        plain = run_program(ladder_state(curve, vals, rnd=7), build_ladder_program(curve, False))
        dpa = run_program(ladder_state(curve, vals, rnd=7), build_ladder_program(curve, True))
        assert plain.regs[:R_RND] == dpa.regs[:R_RND]
        assert dpa.regs[R_RND] == 7 * vals[1] % p


class TestInversionProgram:
    def test_wave_counts(self):
        assert len(build_inversion_program(CurveId.CURVE25519).waves) == 265
        assert len(build_inversion_program(CurveId.CURVE448).waves) == 462

    def test_single_op_waves(self):
        for curve in CURVES:
            prog = build_inversion_program(curve)
            assert all(len(w.ops) == 1 for w in prog.waves)
            assert validate_schedule(prog).valid

    def test_inverse_of_two(self):
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, Z2, 2)
        run_program(state, build_inversion_program(CurveId.CURVE25519))
        assert state.regs[Z2] == 2**254 - 9

    def test_matches_pow(self):
        rng = random.Random(34)
        for curve in CURVES:
            p = PARAMS[curve].p
            for a in (1, 2, p - 1, *(rng.randrange(1, p) for _ in range(3))):
                state = RegisterFile(curve)
                write_register(state, Z2, a)
                run_program(state, build_inversion_program(curve))
                assert state.regs[Z2] == pow(a, -1, p)

    def test_zero_maps_to_zero(self):
        # branch-free handling of the point at infinity
        for curve in CURVES:
            state = RegisterFile(curve)
            run_program(state, build_inversion_program(curve))
            assert state.regs[Z2] == 0

    def test_random_self_check(self):
        rng = random.Random(16)
        for curve in CURVES:
            p = PARAMS[curve].p
            for _ in range(10):
                a = rng.randrange(1, p)
                state = RegisterFile(curve)
                write_register(state, Z2, a)
                run_program(state, build_inversion_program(curve))
                assert mul_int(a, state.regs[Z2], curve) == 1

    def test_chain_lengths(self):
        # one multiplication per cycle: 254 + 11 and 447 + 15 chain steps
        rng = random.Random(17)
        for curve, cycles in ((CurveId.CURVE25519, 265), (CurveId.CURVE448, 462)):
            state = RegisterFile(curve)
            write_register(state, Z2, rng.randrange(1, PARAMS[curve].p))
            assert run_program(state, build_inversion_program(curve)).cycles == cycles

    def test_chain_is_fixed_sequence(self):
        # data-independent: same step list regardless of operand
        for curve, counts in ((CurveId.CURVE25519, (254, 11)), (CurveId.CURVE448, (447, 15))):
            chain = INVERSION_CHAINS[curve]
            assert chain is INVERSION_CHAINS[curve]
            assert (sum(s[0] == "sq" for s in chain), sum(s[0] == "mul" for s in chain)) == counts

    def test_preserves_x2(self):
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, X2, 123456)
        write_register(state, Z2, 2)
        run_program(state, build_inversion_program(CurveId.CURVE25519))
        assert state.regs[X2] == 123456


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
    def test_detects_hazard(self):
        wave = Wave((mul_op(0, 1, 6), mul_op(6, 2, 7)))
        prog = ScheduledProgram((wave,), "ladder", CurveId.CURVE25519)
        report = validate_schedule(prog)
        assert not report.valid
        assert "read and written" in report.violations[0]

    def test_detects_issue_width(self):
        wave = Wave((mul_op(0, 1, 6), mul_op(2, 3, 7)))
        report = validate_schedule(ScheduledProgram((wave,), "ladder", CurveId.CURVE448))
        assert not report.valid

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
