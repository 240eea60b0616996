import pytest

from uecc import ecsm, ffau, program, reference, selftest
from uecc.field import CurveId, PARAMS
from uecc.ffau import (
    NUM_REGISTERS, OP_ADD, OP_SUB, ZERO, ScheduleError, Wave, a24_op, mul_op, registers,
)
from uecc.program import (
    FINAL_WAVE,
    INIT_WAVES,
    R_RND,
    ScheduledProgram,
    T0,
    T1,
    T2,
    T3,
    X1,
    Z1,
    Z2,
    Z3,
    build_inversion_program,
    build_ladder_program,
    pack,
    _ladder_ops,
)
from uecc.reference import ladder_step

from spec import CURVES, Poly, programs, spec_wave, spy


def spec_run(prog):
    """The registers after `prog` runs through `spec_wave` on `Poly`
    registers, each register its own variable: what the program computes
    for every input."""
    regs = Poly.registers(reference.P[prog.curve])
    for wave in prog.waves:
        spec_wave(regs, wave.ops, prog.curve)
    return regs


class TestLadderProgram:
    @pytest.mark.parametrize("curve, dpa, waves", [
        (CurveId.CURVE25519, False, 3), (CurveId.CURVE25519, True, 3),
        (CurveId.CURVE448, False, 10), (CurveId.CURVE448, True, 11),
    ])
    def test_wave_counts_meet_the_lower_bound(self, curve, dpa, waves):
        # No schedule of the step's ops issues in fewer waves than the longest
        # chain of ops each reading the previous one's result, nor than the
        # multiplier array allows (Wave, Wave.check): its ops over the
        # MULTIPLIERS issue slots, its full-width ops' UNITS over the
        # MULTIPLIERS units, or its a24 ops, one per wave on the one constant
        # multiplier.  Each ladder meets that bound, so its cycle total is
        # minimal for its ops
        ops = _ladder_ops(dpa)
        depth_of, depth = {}, 0  # register -> chain depth of its latest writer
        for op in ops:
            depth_of[op.dst] = 1 + max((depth_of.get(reg, 0) for reg in op.reads()), default=0)
            depth = max(depth, depth_of[op.dst])
        units = ffau.UNITS[curve] * sum(not op.const_tag for op in ops)
        a24s = sum(op.const_tag for op in ops)
        bound = max(depth, -(-len(ops) // ffau.MULTIPLIERS), -(-units // ffau.MULTIPLIERS), a24s)
        assert depth == 3
        assert len(build_ladder_program(curve, dpa).waves) == bound == waves

    def test_programs_cached(self):
        assert build_ladder_program(CurveId.CURVE448, False) is build_ladder_program(
            CurveId.CURVE448, False
        )

    # The ladder's waves and the ECSM's cycles as a function of the multiplier
    # array: MULTIPLIERS units, of which one Curve448 full-width op takes
    # UNITS[CURVE448] (3 for Hamburg's three-partial golden-ratio product).
    # The inversion and the overhead do not change.  None: the array cannot
    # issue one Curve448 op, so no program can be built.
    # (UNITS[CURVE448], MULTIPLIERS): {(curve, dpa): (ladder waves, ECSM cycles)}
    ARRAY_CYCLES = {
        (4, 1): {(CurveId.CURVE25519, False): (11, 3072), (CurveId.CURVE25519, True): (12, 3333),
                 (CurveId.CURVE448, False): None, (CurveId.CURVE448, True): None},
        (4, 2): {(CurveId.CURVE25519, False): (6, 1797), (CurveId.CURVE25519, True): (6, 1803),
                 (CurveId.CURVE448, False): None, (CurveId.CURVE448, True): None},
        (4, 4): {(CurveId.CURVE25519, False): (3, 1032), (CurveId.CURVE25519, True): (3, 1038),
                 (CurveId.CURVE448, False): (10, 4944), (CurveId.CURVE448, True): (11, 5401)},
        (4, 8): {(CurveId.CURVE25519, False): (3, 1032), (CurveId.CURVE25519, True): (3, 1038),
                 (CurveId.CURVE448, False): (5, 2704), (CurveId.CURVE448, True): (6, 3161)},
        (4, 16): {(CurveId.CURVE25519, False): (3, 1032), (CurveId.CURVE25519, True): (3, 1038),
                  (CurveId.CURVE448, False): (3, 1808), (CurveId.CURVE448, True): (3, 1817)},
        (3, 4): {(CurveId.CURVE448, False): (10, 4944), (CurveId.CURVE448, True): (11, 5401)},
        (3, 6): {(CurveId.CURVE448, False): (5, 2704), (CurveId.CURVE448, True): (6, 3161)},
        (3, 12): {(CurveId.CURVE448, False): (3, 1808), (CurveId.CURVE448, True): (3, 1817)},
    }

    @pytest.mark.parametrize("c, u, curve, dpa, want", [
        pytest.param(c, u, curve, dpa, want, id=f"c{c}-u{u}-{curve.value[5:]}{'-dpa' * dpa}")
        for (c, u), row in ARRAY_CYCLES.items() for (curve, dpa), want in row.items()
    ])
    def test_cycles_as_a_function_of_the_multiplier_array(self, monkeypatch, c, u, curve, dpa, want):
        # read before the array is patched, so the cached builders keep the
        # committed programs; under the patch every program is built afresh
        committed = build_ladder_program(curve, dpa)
        budget = selftest.DESIGN[curve, dpa][2]
        monkeypatch.setattr(ffau, "MULTIPLIERS", u)
        monkeypatch.setitem(ffau.UNITS, CurveId.CURVE448, c)
        if want is None:
            with pytest.raises(ScheduleError, match="wave 0: wave takes 4 multiplier units"):
                ScheduledProgram(pack(_ladder_ops(dpa), curve), "ladder", curve, dpa)
            return
        ladder = ScheduledProgram(pack(_ladder_ops(dpa), curve), "ladder", curve, dpa)
        inversion = ScheduledProgram(program._INVERSION_WAVES[curve], "inversion", curve)
        ScheduledProgram(INIT_WAVES, "init", curve, dpa=True)
        ScheduledProgram((FINAL_WAVE,), "final", curve)
        assert len(inversion.waves) == budget.inversion_cycles
        cycles = budget._replace(ladder_cycles=PARAMS[curve].scalar_bits * len(ladder.waves)).total
        assert (len(ladder.waves), cycles) == want
        if (c, u) == (4, 4):
            assert repr(ladder.waves) == repr(committed.waves)

    @pytest.mark.parametrize("curve, dpa", [(c, d) for c in CURVES for d in (False, True)],
                             ids=["25519", "25519-dpa", "448", "448-dpa"])
    def test_step_equals_reference_for_every_input(self, curve, dpa):
        # a proof, not a sample: the ladder program runs through `spec_wave`
        # on registers that each start as their own variable.  X1 and Z1 are
        # never written, X2, Z2, X3, Z3 equal the straight-line step as
        # polynomials, every register below R_RND, temporaries included,
        # ends as the plain program leaves it, and R_RND ends as R_RND * Z1
        # with DPA and unchanged without
        start = Poly.registers(reference.P[curve])
        regs = spec_run(build_ladder_program(curve, dpa))
        assert regs[:Z3 + 1] == [start[X1], start[Z1], *ladder_step(curve, *start[:Z3 + 1])]
        assert regs[:R_RND] == spec_run(build_ladder_program(curve, False))[:R_RND]
        assert regs[R_RND] == (start[R_RND] * start[Z1] if dpa else start[R_RND])


class TestInversionProgram:
    def test_zero_maps_to_zero(self):
        # branch-free handling of the point at infinity
        for curve in CURVES:
            regs = registers()
            ecsm._issue(build_inversion_program(curve), regs, [])
            assert regs[Z2] == 0

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
        # a proof, not a sample: the chain runs through `spec_wave` on
        # registers that each start as their own variable.  Z2 ends as the
        # monomial Z2^(p-2) = 1/Z2 (0 for Z2 = 0), built here directly, as
        # `Poly.__pow__` would multiply p - 2 times; every register outside
        # Z2 and the temporaries T0..T3 keeps its own variable
        p = reference.P[curve]
        start = Poly.registers(p)
        regs = spec_run(build_inversion_program(curve))
        assert regs[Z2] == Poly({tuple(p - 2 if i == Z2 else 0 for i in range(NUM_REGISTERS)): 1}, p)
        kept = [i for i in range(NUM_REGISTERS + 1) if i not in (Z2, T0, T1, T2, T3)]
        assert [regs[i] for i in kept] == [start[i] for i in kept]


class TestScheduledProgram:
    def test_hashes_by_identity(self):
        # the cached `compiled` must not hash every wave and op on each call
        for curve in CURVES:
            progs = [build_ladder_program(curve, dpa) for dpa in (False, True)]
            progs.append(build_inversion_program(curve))
            for prog in progs:
                assert hash(prog) == object.__hash__(prog)
                assert prog.compiled() is prog.compiled()

    def test_checks_and_compiles_each_distinct_wave_once(self, monkeypatch):
        # the inversion chains repeat one wave object per run of squarings:
        # 265 / 462 waves, 31 / 38 objects
        calls = []
        spy(monkeypatch, Wave, "check", calls)
        spy(monkeypatch, Wave, "compiled", calls)
        for curve in CURVES:
            wave = Wave((mul_op(0, 0, 6),))
            calls.clear()
            prog = ScheduledProgram((wave,) * 100, "inversion", curve)
            assert prog.products == 100 * ffau.UNITS[curve]
            assert len(prog.compiled()) == 100
            assert [name for name, _, _ in calls] == ["check", "compiled"]
        # a failing wave reports the index of its first occurrence
        bad = Wave((mul_op(0, 1, 6), mul_op(6, 2, 7)))
        with pytest.raises(ScheduleError, match="wave 1: register 6 read and written"):
            ScheduledProgram((wave, bad, bad), "ladder", CurveId.CURVE25519)


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
        with pytest.raises(ScheduleError, match="wave 1: wave takes 8 multiplier units and 0 a24 ops"):
            ScheduledProgram((single, wave), "ladder", CurveId.CURVE448)
        # a24 ops take no unit, but share the one constant multiplier
        a24s = Wave((a24_op(0, 0, 1, 2), a24_op(1, 0, 1, 3), a24_op(0, 4, 5, 6), a24_op(1, 4, 5, 7)))
        for curve in CURVES:
            with pytest.raises(ScheduleError, match="wave 0: wave takes 0 multiplier units and 4 a24"):
                ScheduledProgram((a24s,), "ladder", curve)

    def test_five_op_wave_unconstructible(self):
        # a row of `tests/test_sources.py` states the size rule; a list is counted too
        with pytest.raises(ValueError, match="got 5"):
            Wave([mul_op(0, 1, 6)] * 5)

    # `pack` keeps program order and opens a new wave exactly where the
    # issue rules reject the op: (curve, ops, ops per packed wave)
    @pytest.mark.parametrize("curve, ops, sizes", [
        (CurveId.CURVE25519, (mul_op(0, 1, 6), mul_op(6, 2, 7)), [1, 1]),
        (CurveId.CURVE25519, (mul_op(0, 1, 6), mul_op(2, 3, 0)), [1, 1]),
        (CurveId.CURVE25519, tuple(mul_op(0, 1, dst) for dst in range(6, 11)), [4, 1]),
        (CurveId.CURVE448, (mul_op(0, 1, 6), mul_op(2, 3, 7)), [1, 1]),
        (CurveId.CURVE448, (mul_op(0, 1, 6), a24_op(OP_ADD, 2, ZERO, 7)), [2]),
        (CurveId.CURVE25519, (a24_op(OP_ADD, 0, 1, 2), a24_op(OP_SUB, 0, 1, 3),
                              a24_op(OP_ADD, 4, 5, 6), mul_op(4, 5, 7)), [1, 1, 2]),
    ], ids=["reads-last-dst", "writes-a-read", "fifth-op", "448-second-full-width",
            "448-a24-joins", "25519-second-a24"])
    def test_pack_opens_a_wave_where_the_rules_reject(self, curve, ops, sizes):
        waves = pack(ops, curve)
        assert [len(w.ops) for w in waves] == sizes
        assert tuple(op for w in waves for op in w.ops) == ops

    @pytest.mark.parametrize("curve", CURVES, ids=lambda c: c.value)
    def test_hand_written_programs_are_packed(self, curve):
        # the chains, init and final programs issue one op per wave because
        # each op depends on the one before it, not by choice
        for name in ("inversion", "init", "final"):
            waves = programs(curve)[name].waves
            assert pack([op for w in waves for op in w.ops], curve) == waves
