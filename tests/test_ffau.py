import itertools
import random

import pytest

from uecc import field, program
from uecc.ecsm import FINAL_WAVE, INIT_WAVES
from uecc.field import CurveId, PARAMS
from uecc.ffau import (
    NUM_REGISTERS,
    OP_ADD,
    OP_SUB,
    QuadOpInstruction,
    ScheduleError,
    Wave,
    ZERO,
    a24_op,
    execute_compiled_wave,
    execute_wave,
    mul_op,
    registers,
)

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


class TestInstructionValidation:
    def test_address_bounds(self):
        with pytest.raises(ValueError):
            QuadOpInstruction(OP_ADD, 13, 0, OP_ADD, 0, 0, 0)
        with pytest.raises(ValueError):
            QuadOpInstruction(OP_ADD, 0, 0, OP_ADD, 0, 0, ZERO)  # dst can't be the zero slot

    def test_opsel_bits(self):
        with pytest.raises(ValueError, match="left opsel"):
            QuadOpInstruction(2, 0, 0, OP_ADD, 0, 0, 1)
        with pytest.raises(ValueError, match="right opsel"):
            QuadOpInstruction(OP_ADD, 0, 0, 2, 0, 0, 1)

    def test_wave_size(self):
        op = mul_op(0, 1, 2)
        with pytest.raises(ValueError):
            Wave(())
        with pytest.raises(ValueError):
            Wave((op,) * 5)

    def test_wave_holds_a_tuple_of_ops(self):
        # a list would be kept as is and fail in the kernel cache, a stray
        # element only once the wave executes
        op = mul_op(0, 1, 2)
        assert type(Wave([op]).ops) is tuple
        assert Wave([op]) == Wave((op,))
        with pytest.raises(TypeError, match="wave op 'x' is not a QuadOpInstruction"):
            Wave((op, "x"))
        with pytest.raises(TypeError, match=r"wave op \(0, 1, 2\) is not"):
            Wave([(0, 1, 2)])

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


def test_registers_fill_from_r0_with_the_zero_source_last():
    regs = registers(*range(1, NUM_REGISTERS + 1))
    assert regs[:NUM_REGISTERS] == list(range(1, NUM_REGISTERS + 1)) and regs[ZERO] == 0
    assert registers(5) == [5] + [0] * NUM_REGISTERS
    with pytest.raises(ValueError, match="13 values for 12 registers"):
        registers(*range(NUM_REGISTERS + 1))


class TestExecuteWave:
    def test_sum_times_difference(self):
        # (A+B)*(A-B) with A=2, B=1 -> 3
        for curve in CURVES:
            regs = registers(2, 1)
            execute_wave(regs, Wave((QuadOpInstruction(OP_ADD, 0, 1, OP_SUB, 0, 1, 2),)), curve)
            assert regs[2] == 3

    def test_identity_multiply(self):
        for curve in CURVES:
            regs = registers(424242, 1)
            execute_wave(regs, Wave((mul_op(0, 1, 2),)), curve)
            assert regs[2] == 424242

    def test_full_wave_against_per_op_oracle(self):
        rng = random.Random(21)
        p = PARAMS[CurveId.CURVE25519].p
        ops = (
            QuadOpInstruction(OP_ADD, 0, 1, OP_SUB, 2, 3, 8),
            QuadOpInstruction(OP_SUB, 4, 5, OP_ADD, 6, 7, 9),
            QuadOpInstruction(OP_ADD, 0, 2, OP_ADD, 4, 6, 10),
            QuadOpInstruction(OP_SUB, 1, 3, OP_SUB, 5, 7, 11),
        )
        for _ in range(50):
            regs = registers(*(rng.randrange(p) for _ in range(8)))
            want = list(regs)
            execute_wave(regs, Wave(ops), CurveId.CURVE25519)
            _snapshot_wave(want, ops, CurveId.CURVE25519)
            assert regs == want

    def test_a24_const_op(self):
        rng = random.Random(23)
        for curve in CURVES:
            p = PARAMS[curve].p
            a24 = PARAMS[curve].a24
            x, y = rng.randrange(p), rng.randrange(p)
            regs = registers(x, y)
            execute_wave(regs, Wave((a24_op(OP_SUB, 0, 1, 2),)), curve)
            assert regs[2] == (x - y) % p * a24 % p

    def test_ops_read_pre_wave_state(self):
        # an op may overwrite its own source; the read sees the pre-wave value
        regs = registers(3, 5, 7)
        execute_wave(regs, Wave((mul_op(0, 1, 0), mul_op(2, 2, 3))), CurveId.CURVE25519)
        assert regs[0] == 15 and regs[3] == 49

    def test_wave_writes_only_its_destinations(self):
        for curve in CURVES:
            regs = registers(*range(10, 10 + NUM_REGISTERS))
            before = list(regs)
            execute_wave(regs, Wave((mul_op(0, 1, 3), a24_op(OP_ADD, 4, 5, 6))), curve)
            assert [i for i, (a, b) in enumerate(zip(before, regs)) if a != b] == [3, 6]

    def test_wave_permutation_invariance(self):
        rng = random.Random(24)
        p = PARAMS[CurveId.CURVE25519].p
        vals = [rng.randrange(p) for _ in range(6)]
        ops = (
            QuadOpInstruction(OP_ADD, 0, 1, OP_ADD, 0, 1, 6),
            QuadOpInstruction(OP_SUB, 0, 1, OP_SUB, 0, 1, 7),
            QuadOpInstruction(OP_ADD, 2, 3, OP_SUB, 0, 1, 8),
            QuadOpInstruction(OP_SUB, 2, 3, OP_ADD, 0, 1, 9),
        )
        results = []
        for perm in itertools.permutations(ops):
            regs = registers(*vals)
            execute_wave(regs, Wave(perm), CurveId.CURVE25519)
            results.append(regs)
        assert all(r == results[0] for r in results)

    def test_registers_stay_canonical(self):
        rng = random.Random(25)
        for curve in CURVES:
            p = PARAMS[curve].p
            regs = registers(*(rng.randrange(p) for _ in range(6)))
            execute_wave(regs, Wave((QuadOpInstruction(OP_ADD, 0, 1, OP_ADD, 2, 3, 6),)), curve)
            execute_wave(regs, Wave((QuadOpInstruction(OP_SUB, 4, 5, OP_SUB, 0, 6, 7),)), curve)
            assert all(0 <= v < p for v in regs[:NUM_REGISTERS])

    def test_hazardous_wave_rejected_at_execute(self):
        # op2 reads r2, which op1 writes: rejected before any register changes
        regs = registers(*range(10, 15))
        before = list(regs)
        with pytest.raises(ScheduleError):
            execute_wave(regs, Wave((mul_op(0, 1, 2), mul_op(2, 3, 4))), CurveId.CURVE25519)
        assert regs == before

    def test_too_wide_unit_product_is_written_canonical(self, monkeypatch):
        # a unit product of 2^1024 or more is written canonical, as the true
        # product times 2^512 (every fold is a congruence), not raised
        monkeypatch.setattr(field, "kar256_int", lambda x, y: x * y << 512)
        wave = Wave((mul_op(0, 0, 1),))
        for curve in CURVES:
            p = PARAMS[curve].p
            regs, expected = registers(p - 1), registers(p - 1)
            execute_wave(regs, wave, curve)
            _snapshot_wave(expected, wave.ops, curve)
            assert all(0 <= v < p for v in regs[:NUM_REGISTERS])
            assert regs[1] == expected[1] * pow(2, 512, p) % p != expected[1]


def _snapshot_wave(regs, ops, curve):
    """Reference semantics: every op reads a copy of the pre-wave registers,
    and all writes land after the last read."""
    p, a24 = PARAMS[curve].p, PARAMS[curve].a24
    pre = list(regs)
    for op in ops:
        a, b, c, d = (pre[op.src_a], pre[op.src_b], pre[op.src_c], pre[op.src_d])
        lhs = (a - b if op.sub_left else a + b) % p
        rhs = a24 if op.const_tag else (c - d if op.sub_right else c + d) % p
        regs[op.dst] = lhs * rhs % p


def _every_wave(curve):
    waves = [*INIT_WAVES, FINAL_WAVE, *program.build_inversion_program(curve).waves]
    for dpa in (False, True):
        waves += program.build_ladder_program(curve, dpa).waves
    return waves


class TestInPlaceWrites:
    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_every_program_wave_matches_snapshot_reference(self, curve):
        # the engine writes each destination as it goes; on every wave it issues
        # that must equal reading all operands from the pre-wave registers.
        # Besides random states, edge states drive the unreduced selectors to
        # their extremes: every register at p - 1 gives sums of 2p - 2, and
        # X2 = p - 1 with Z2 = 0 (and the reverse) differences of 2p - 1 and 1
        rng = random.Random(26)
        p = PARAMS[curve].p
        edges = [[p - 1] * NUM_REGISTERS]
        for zeroed in (program.Z2, program.X2):
            edges.append([0 if addr == zeroed else p - 1 for addr in range(NUM_REGISTERS)])
        for wave in _every_wave(curve):
            wave.check(curve)
            ops = wave.compiled(curve)
            states = [[rng.randrange(p) for _ in range(NUM_REGISTERS)] for _ in range(3)]
            for state in states + edges:
                regs = registers(*state)
                want = list(regs)
                _snapshot_wave(want, ops, curve)
                execute_compiled_wave(regs, ops, curve)
                assert regs == want, wave.text
