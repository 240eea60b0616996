import pytest

from uecc import field, reference
from uecc.field import CurveId
from uecc.ffau import (
    NUM_REGISTERS,
    OP_ADD,
    OP_SUB,
    QuadOpInstruction,
    ScheduleError,
    Wave,
    ZERO,
    a24_op,
    compile_ops,
    execute_wave,
    mul_op,
    registers,
)

from spec import CURVES, spec_wave


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
    def test_known_values(self):
        # (2 + 1)(2 - 1) = 3, and an op that overwrites its own source reads
        # the pre-wave value: r0 <- 3 x 5 beside r3 <- 7 x 7
        for curve in CURVES:
            regs = registers(2, 1)
            execute_wave(regs, Wave((QuadOpInstruction(OP_ADD, 0, 1, OP_SUB, 0, 1, 2),)), curve)
            assert regs[2] == 3
        regs = registers(3, 5, 7)
        execute_wave(regs, Wave((mul_op(0, 1, 0), mul_op(2, 2, 3))), CurveId.CURVE25519)
        assert regs[:4] == [15, 5, 7, 49]

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
            p = reference.P[curve]
            regs, expected = registers(p - 1), registers(p - 1)
            execute_wave(regs, wave, curve)
            spec_wave(expected, wave.ops, curve)
            assert all(0 <= v < p for v in regs[:NUM_REGISTERS])
            assert regs[1] == expected[1] * pow(2, 512, p) % p != expected[1]

    def test_waves_of_one_op_pattern_share_one_code_object(self):
        # r2 <- r0 x r1 and r5 <- r3 x r4 are one op pattern: one code object
        # with each wave's addresses bound, so each writes only its own
        # destination
        waves = (Wave((mul_op(0, 1, 2),)), Wave((mul_op(3, 4, 5),)))
        for curve in CURVES:
            kernels = [compile_ops(wave.ops, curve).kernel for wave in waves]
            assert kernels[0] is not kernels[1] and kernels[0].__code__ is kernels[1].__code__
            for wave, kernel in zip(waves, kernels):
                regs = registers(*range(2, 2 + NUM_REGISTERS))
                expected = list(regs)
                spec_wave(expected, wave.ops, curve)
                kernel(regs)
                assert regs == expected
