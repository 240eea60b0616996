import itertools
import random

import pytest

from uecc import ffau, program
from uecc.ecsm import FINAL_WAVE, INIT_WAVES
from uecc.field import CurveId, PARAMS, fe
from uecc.ffau import (
    NUM_REGISTERS,
    OP_ADD,
    OP_SUB,
    OpSel,
    QuadOpInstruction,
    DatapathError,
    RegisterFile,
    ScheduleError,
    Wave,
    ZERO,
    a24_op,
    execute_compiled_wave,
    execute_wave,
    mul_op,
    quad_op,
    read_register,
    write_register,
)

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


class TestRegisterFile:
    def test_write_read_round_trip(self):
        for curve in CURVES:
            state = RegisterFile(curve)
            write_register(state, 3, fe(777, curve))
            assert read_register(state, 3) == fe(777, curve)

    def test_write_isolation(self):
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, 4, 111)
        write_register(state, 3, 222)
        assert read_register(state, 4).n == 111

    def test_stray_high_bits_cleared(self):
        # canonical storage means bits 255..447 always read back zero
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, 0, (1 << 300) | 5)
        assert read_register(state, 0).n >> 255 == 0

    def test_zero_slot_pinned(self):
        state = RegisterFile(CurveId.CURVE25519)
        assert state.regs[ZERO] == 0

    def test_address_range(self):
        state = RegisterFile(CurveId.CURVE25519)
        with pytest.raises(ValueError):
            write_register(state, 12, 1)
        with pytest.raises(ValueError):
            read_register(state, -1)


class TestInstructionValidation:
    def test_address_bounds(self):
        with pytest.raises(ValueError):
            quad_op(OP_ADD, 13, 0, OP_ADD, 0, 0, 0)
        with pytest.raises(ValueError):
            quad_op(OP_ADD, 0, 0, OP_ADD, 0, 0, ZERO)  # dst can't be the zero slot

    def test_opsel_bits(self):
        with pytest.raises(ValueError):
            OpSel(2, 0)

    def test_wave_size(self):
        op = mul_op(0, 1, 2)
        with pytest.raises(ValueError):
            Wave(())
        with pytest.raises(ValueError):
            Wave((op,) * 5)

    def test_curve448_issue_width(self):
        two_full = Wave((mul_op(0, 1, 2), mul_op(3, 4, 5)))
        two_full.check(CurveId.CURVE25519)
        with pytest.raises(ScheduleError):
            two_full.check(CurveId.CURVE448)
        dual = Wave((mul_op(0, 1, 2), a24_op(OP_SUB, 3, 4, 5)))
        dual.check(CurveId.CURVE448)

    def test_intra_wave_hazard(self):
        hazard = Wave((mul_op(0, 1, 2), mul_op(2, 3, 4)))  # op2 reads op1's dst
        with pytest.raises(ScheduleError):
            hazard.check(CurveId.CURVE25519)

    def test_double_write_hazard(self):
        wave = Wave((mul_op(0, 1, 5), mul_op(2, 3, 5)))
        with pytest.raises(ScheduleError):
            wave.check(CurveId.CURVE25519)

    def test_same_op_may_overwrite_own_source(self):
        Wave((mul_op(0, 1, 0),)).check(CurveId.CURVE448)


class TestExecuteWave:
    def test_sum_times_difference(self):
        # (A+B)*(A-B) with A=2, B=1 -> 3
        for curve in CURVES:
            state = RegisterFile(curve)
            write_register(state, 0, 2)
            write_register(state, 1, 1)
            wave = Wave((quad_op(OP_ADD, 0, 1, OP_SUB, 0, 1, 2),))
            execute_wave(state, wave)
            assert read_register(state, 2).n == 3

    def test_identity_multiply(self):
        for curve in CURVES:
            state = RegisterFile(curve)
            write_register(state, 0, 424242)
            write_register(state, 1, 1)
            execute_wave(state, Wave((mul_op(0, 1, 2),)))
            assert read_register(state, 2).n == 424242

    def test_full_wave_against_per_op_oracle(self):
        rng = random.Random(21)
        p = PARAMS[CurveId.CURVE25519].p
        for _ in range(50):
            state = RegisterFile(CurveId.CURVE25519)
            vals = [rng.randrange(p) for _ in range(8)]
            for addr, v in enumerate(vals):
                write_register(state, addr, v)
            ops = (
                quad_op(OP_ADD, 0, 1, OP_SUB, 2, 3, 8),
                quad_op(OP_SUB, 4, 5, OP_ADD, 6, 7, 9),
                quad_op(OP_ADD, 0, 2, OP_ADD, 4, 6, 10),
                quad_op(OP_SUB, 1, 3, OP_SUB, 5, 7, 11),
            )
            execute_wave(state, Wave(ops))
            assert state.regs[8] == (vals[0] + vals[1]) * (vals[2] - vals[3]) % p
            assert state.regs[9] == (vals[4] - vals[5]) * (vals[6] + vals[7]) % p
            assert state.regs[10] == (vals[0] + vals[2]) * (vals[4] + vals[6]) % p
            assert state.regs[11] == (vals[1] - vals[3]) * (vals[5] - vals[7]) % p

    def test_single_mul_op_equals_field_mul(self):
        rng = random.Random(22)
        for curve in CURVES:
            p = PARAMS[curve].p
            a, c = fe(rng.randrange(p), curve), fe(rng.randrange(p), curve)
            state = RegisterFile(curve)
            write_register(state, 0, a)
            write_register(state, 1, c)
            execute_wave(state, Wave((mul_op(0, 1, 2),)))
            assert read_register(state, 2).n == a.n * c.n % p

    def test_a24_const_op(self):
        rng = random.Random(23)
        for curve in CURVES:
            p = PARAMS[curve].p
            a24 = PARAMS[curve].a24
            x, y = rng.randrange(p), rng.randrange(p)
            state = RegisterFile(curve)
            write_register(state, 0, x)
            write_register(state, 1, y)
            execute_wave(state, Wave((a24_op(OP_SUB, 0, 1, 2),)))
            assert state.regs[2] == (x - y) % p * a24 % p

    def test_ops_read_pre_wave_state(self):
        # an op may overwrite its own source; the read sees the pre-wave value
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, 0, 3)
        write_register(state, 1, 5)
        write_register(state, 2, 7)
        wave = Wave((mul_op(0, 1, 0), mul_op(2, 2, 3)))
        execute_wave(state, wave)
        assert state.regs[0] == 15 and state.regs[3] == 49

    def test_wave_permutation_invariance(self):
        rng = random.Random(24)
        p = PARAMS[CurveId.CURVE25519].p
        vals = [rng.randrange(p) for _ in range(6)]
        ops = (
            quad_op(OP_ADD, 0, 1, OP_ADD, 0, 1, 6),
            quad_op(OP_SUB, 0, 1, OP_SUB, 0, 1, 7),
            quad_op(OP_ADD, 2, 3, OP_SUB, 0, 1, 8),
            quad_op(OP_SUB, 2, 3, OP_ADD, 0, 1, 9),
        )
        results = []
        for perm in itertools.permutations(ops):
            state = RegisterFile(CurveId.CURVE25519)
            for addr, v in enumerate(vals):
                write_register(state, addr, v)
            execute_wave(state, Wave(perm))
            results.append(list(state.regs))
        assert all(r == results[0] for r in results)

    def test_registers_stay_canonical(self):
        rng = random.Random(25)
        for curve in CURVES:
            p = PARAMS[curve].p
            state = RegisterFile(curve)
            for addr in range(6):
                write_register(state, addr, rng.randrange(p))
            execute_wave(state, Wave((quad_op(OP_ADD, 0, 1, OP_ADD, 2, 3, 6),)))
            execute_wave(state, Wave((quad_op(OP_SUB, 4, 5, OP_SUB, 0, 6, 7),)))
            assert all(0 <= v < p for v in state.regs[:NUM_REGISTERS])

    def test_hazardous_wave_rejected_at_execute(self):
        # op2 reads r2, which op1 writes: rejected before any register changes
        state = RegisterFile(CurveId.CURVE25519)
        for addr in range(5):
            write_register(state, addr, 10 + addr)
        before = list(state.regs)
        with pytest.raises(ScheduleError):
            execute_wave(state, Wave((mul_op(0, 1, 2), mul_op(2, 3, 4))))
        assert state.regs == before and state.cycles == 0

    def test_unreduced_write_raises_datapath_error(self, monkeypatch):
        monkeypatch.setattr(ffau, "mul_int", lambda a, b, curve: a * b)
        for curve in CURVES:
            p = PARAMS[curve].p
            state = RegisterFile(curve)
            write_register(state, 0, p - 1)
            with pytest.raises(DatapathError):
                execute_wave(state, Wave((mul_op(0, 0, 1),)))

    def test_cycle_charge(self):
        state = RegisterFile(CurveId.CURVE25519)
        write_register(state, 1, 1)
        execute_wave(state, Wave((mul_op(0, 1, 2),)))
        execute_wave(state, Wave((mul_op(0, 1, 3),)))
        assert state.cycles == 2


def _snapshot_wave(regs, ops, curve):
    """Reference semantics: every op reads a copy of the pre-wave registers,
    and all writes land after the last read."""
    p, a24 = PARAMS[curve].p, PARAMS[curve].a24
    pre = list(regs)
    for sl, sr, a, b, c, d, dst, const in ops:
        lhs = (pre[a] - pre[b] if sl else pre[a] + pre[b]) % p
        rhs = a24 if const else (pre[c] - pre[d] if sr else pre[c] + pre[d]) % p
        regs[dst] = lhs * rhs % p


def _every_wave(curve):
    waves = [*INIT_WAVES, FINAL_WAVE, *program.build_inversion_program(curve).waves]
    for dpa in (False, True):
        waves += program.build_ladder_program(curve, dpa).waves
    return waves


class TestInPlaceWrites:
    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_every_program_wave_matches_snapshot_reference(self, curve):
        # the engine writes each destination as it goes; on every wave it issues
        # that must equal reading all operands from the pre-wave registers
        rng = random.Random(26)
        p = PARAMS[curve].p
        for wave in _every_wave(curve):
            wave.check(curve)
            ops = wave.compiled()
            for _ in range(3):
                regs = [rng.randrange(p) for _ in range(NUM_REGISTERS)] + [0]
                want = list(regs)
                _snapshot_wave(want, ops, curve)
                execute_compiled_wave(regs, ops, curve)
                assert regs == want, wave.text
