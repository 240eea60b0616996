r"""LUT instruction programs: the restructured ladder and the inversion chains.

Register map (fixed for the whole scalar multiplication):

    r0  X1   difference-point X (x_P, or lambda*x_P with randomization)
    r1  Z1   difference-point Z (1, or lambda)
    r2  X2 \ running pair that the ladder step doubles
    r3  Z2 /
    r4  X3 \ running pair produced by the differential addition
    r5  Z3 /
    r6..r10  ladder temporaries (AA, BB, CB, DA, a24-term)
    r11      randomization residue (touched only by the DPA-mode ladder)

One ladder step, written as quad-operations (11 of them, absorbing the 8
additions/subtractions into the operand selectors):

    AA  = (X2+Z2)^2             Xa' = AA*BB
    BB  = (X2-Z2)^2             Za' = (AA-BB)*(AA + a24*(AA-BB))
    CB  = (X3+Z3)*(X2-Z2)       Xb' = Z1*(DA+CB)^2
    DA  = (X3-Z3)*(X2+Z2)       Zb' = X1*(DA-CB)^2

The Z1 multiplication is issued unconditionally (Z1 is 1 when randomization
is off), which is what lets one fixed LUT serve both modes; with the DPA
countermeasure enabled a 12th op multiplies the residue register by Z1,
keeping the multiplier array busy on randomized data for one extra issue
slot.  Curve25519 packs the step into 3 waves of four; Curve448 issues one
op per wave except that the short a24 product shares a cycle with AA*BB,
giving 10 waves (11 with DPA).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .field import CurveId, INVERSION_CHAINS
from .ffau import OP_ADD, OP_SUB, ScheduleError, Wave, a24_op, format_op, mul_op, quad_op

# register aliases
X1, Z1, X2, Z2, X3, Z3 = range(6)
R_AA, R_BB, R_CB, R_DA, R_F = 6, 7, 8, 9, 10
R_RND = 11

# slot -> register map shared by both inversion chains ("z" is Z2 in place)
_INV_SLOT_REG = {"z": Z2, "t0": 6, "t1": 7, "t2": 8, "t3": 9}

# randomization: X3 <- Z1*X1 (lambda*x_P), then X1 <- Z1*X1 in place
INIT_WAVES = (Wave((mul_op(Z1, X1, X3),)), Wave((mul_op(Z1, X1, X1),)))
# output: x_Q = X2 * Z2 once the inversion program has replaced Z2 by 1/Z2
FINAL_WAVE = Wave((mul_op(X2, Z2, X2),))


# eq=False: programs hash by identity, so the cached `compiled` finds its tuple
# without hashing every wave and op; nothing compares programs by value.
@dataclass(frozen=True, eq=False)
class ScheduledProgram:
    waves: tuple[Wave, ...]
    phase_tag: str  # ladder | inversion | init | final
    curve: CurveId
    dpa: bool = False

    @property
    def op_count(self) -> int:
        return sum(len(w.ops) for w in self.waves)

    @functools.cache
    def compiled(self) -> tuple:
        return tuple(w.compiled() for w in self.waves)


def _ladder_ops(dpa: bool):
    ops = [
        quad_op(OP_ADD, X2, Z2, OP_ADD, X2, Z2, R_AA),   # AA = (X2+Z2)^2
        quad_op(OP_SUB, X2, Z2, OP_SUB, X2, Z2, R_BB),   # BB = (X2-Z2)^2
        quad_op(OP_ADD, X3, Z3, OP_SUB, X2, Z2, R_CB),   # CB = (X3+Z3)*(X2-Z2)
        quad_op(OP_SUB, X3, Z3, OP_ADD, X2, Z2, R_DA),   # DA = (X3-Z3)*(X2+Z2)
        mul_op(R_AA, R_BB, X2),                          # X2' = AA*BB
        a24_op(OP_SUB, R_AA, R_BB, R_F),                 # F = a24*(AA-BB)
        quad_op(OP_ADD, R_DA, R_CB, OP_ADD, R_DA, R_CB, X3),  # G = (DA+CB)^2
        quad_op(OP_SUB, R_DA, R_CB, OP_SUB, R_DA, R_CB, Z3),  # H = (DA-CB)^2
        quad_op(OP_SUB, R_AA, R_BB, OP_ADD, R_AA, R_F, Z2),   # Z2' = (AA-BB)*(AA+F)
        mul_op(Z1, X3, X3),                              # X3' = Z1*G
        mul_op(X1, Z3, Z3),                              # Z3' = X1*H
    ]
    if dpa:
        ops.append(mul_op(R_RND, Z1, R_RND))             # residue *= Z1
    return ops


@functools.cache
def build_ladder_program(curve: CurveId, dpa: bool = False) -> ScheduledProgram:
    ops = _ladder_ops(dpa)
    if curve is CurveId.CURVE25519:
        waves = [Wave(tuple(ops[0:4])), Wave(tuple(ops[4:8])), Wave(tuple(ops[8:]))]
    else:
        # a24 product rides along with AA*BB; everything else is one op per cycle
        waves = [Wave((op,)) for op in ops[0:4]]
        waves.append(Wave((ops[4], ops[5])))
        waves.extend(Wave((op,)) for op in ops[6:])
    prog = ScheduledProgram(tuple(waves), "ladder", curve, dpa)
    report = validate_schedule(prog)
    if not report.valid:
        raise ScheduleError(report.violations[0])
    return prog


@functools.cache
def build_inversion_program(curve: CurveId) -> ScheduledProgram:
    waves = []
    for step in INVERSION_CHAINS[curve]:
        if step[0] == "sq":
            _, dst, src = step
            src_a = src_c = _INV_SLOT_REG[src]
        else:
            _, dst, sa, sb = step
            src_a = _INV_SLOT_REG[sa]
            src_c = _INV_SLOT_REG[sb]
        waves.append(Wave((mul_op(src_a, src_c, _INV_SLOT_REG[dst]),)))
    prog = ScheduledProgram(tuple(waves), "inversion", curve)
    report = validate_schedule(prog)
    if not report.valid:
        raise ScheduleError(report.violations[0])
    return prog


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...] = ()


def validate_schedule(prog: ScheduledProgram) -> ValidationReport:
    """Check issue-width limits and intra-wave hazards of every wave.

    Address ranges need no check here: `QuadOpInstruction` rejects an
    out-of-range source or destination when the op is built.
    """
    violations = []
    for i, wave in enumerate(prog.waves):
        try:
            wave.check(prog.curve)
        except ScheduleError as exc:
            violations.append(f"wave {i}: {exc}")
    return ValidationReport(not violations, tuple(violations))


def dump_program(prog: ScheduledProgram) -> str:
    """One instruction per line: wave index, opsel bits, source/dst addresses."""
    lines = [
        f"# phase={prog.phase_tag} curve={prog.curve.value} dpa={'on' if prog.dpa else 'off'}"
        f" waves={len(prog.waves)} ops={prog.op_count}"
    ]
    for i, wave in enumerate(prog.waves):
        for op in wave.ops:
            sel = f"{op.opsel.add_or_sub_left}{op.opsel.add_or_sub_right}"
            lines.append(f"wave {i:3d}  opsel={sel}  {format_op(op)}")
    return "\n".join(lines)
