r"""LUT instruction programs: the restructured ladder and the inversion chains.

Register map (fixed for the whole scalar multiplication):

    r0  X1   difference-point X (x_P, or lambda*x_P with randomization)
    r1  Z1   difference-point Z (1, or lambda)
    r2  X2 \ running pair that the ladder step doubles
    r3  Z2 /
    r4  X3 \ running pair produced by the differential addition
    r5  Z3 /
    r6..r10  ladder temporaries (AA, BB, CB, DA, a24-term)
    r6..r9   inversion temporaries (T0..T3; the inversion replaces Z2 by 1/Z2)
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
slot.  The step is written once, as its list of ops in program order, and
`pack` derives its waves: each op joins the last wave unless the curve's
issue rules (`ffau.Wave`) reject it.  Curve25519 issues the step as waves
of 4+4+3 ops (4+4+4 with DPA); on Curve448 a full-width op takes all four
multiplier units (`ffau.UNITS`), so one issues per wave, with the short a24
product sharing AA*BB's cycle, giving 10 waves (11 with DPA).

The inversion chains, and the init and final programs, are written directly
as waves of one square or multiply each, so the waves that the engine issues
are the only copy of each chain.  Each op reads the result of the op before
it or overwrites one of its operands, so `pack` gives back the same waves.
"""

from __future__ import annotations

import functools

from .field import CurveId
from .ffau import OP_ADD, OP_SUB, QuadOpInstruction, ScheduleError, Wave, a24_op, format_op, mul_op

# register aliases
X1, Z1, X2, Z2, X3, Z3 = range(6)
R_AA, R_BB, R_CB, R_DA, R_F = 6, 7, 8, 9, 10
R_RND = 11
T0, T1, T2, T3 = 6, 7, 8, 9  # inversion temporaries

# randomization: X3 <- Z1*X1 (lambda*x_P), then X1 <- Z1*X1 in place
INIT_WAVES = (Wave((mul_op(Z1, X1, X3),)), Wave((mul_op(Z1, X1, X1),)))
# output: x_Q = X2 * Z2 once the inversion program has replaced Z2 by 1/Z2
FINAL_WAVE = Wave((mul_op(X2, Z2, X2),))

# the phases of an ECSM, in the order they issue; each program belongs to one
PHASES = ("init", "ladder", "inversion", "final")


# A plain class, so programs hash and compare by identity: the cached
# `compiled` finds its tuple without hashing every wave and op, and nothing
# compares programs by value.
class ScheduledProgram:
    """Waves issued in order, one per cycle.  Every wave is checked against
    the curve's issue rules (`Wave.check`) when the program is built, so a
    program that exists can issue, and `products` sums the units they count.
    A wave object that recurs (a chain of squarings repeats one) is checked,
    and compiled, once."""

    def __init__(self, waves: tuple[Wave, ...], phase_tag: str, curve: CurveId, dpa: bool = False):
        if phase_tag not in PHASES:  # a misspelt phase would reach the trace and the cycles
            raise ValueError(f"phase_tag must be one of {PHASES}, got {phase_tag!r}")
        units = {}  # id of each distinct wave object: the units it takes
        for i, wave in enumerate(waves):
            if id(wave) not in units:
                try:
                    units[id(wave)] = wave.check(curve)
                except ScheduleError as exc:
                    raise ScheduleError(f"wave {i}: {exc}") from None
        self.products = sum(units[id(wave)] for wave in waves)  # 256-bit products per issue
        self.waves = waves
        self.phase_tag = phase_tag
        self.curve = curve
        self.dpa = dpa

    @property
    def op_count(self) -> int:
        return sum(len(w.ops) for w in self.waves)

    @functools.cache
    def compiled(self) -> tuple:
        distinct = {id(w): w for w in self.waves}
        compiled = {key: w.compiled(self.curve) for key, w in distinct.items()}
        return tuple(compiled[id(w)] for w in self.waves)


def _ladder_ops(dpa: bool):
    ops = [
        QuadOpInstruction(OP_ADD, X2, Z2, OP_ADD, X2, Z2, R_AA),        # AA = (X2+Z2)^2
        QuadOpInstruction(OP_SUB, X2, Z2, OP_SUB, X2, Z2, R_BB),        # BB = (X2-Z2)^2
        QuadOpInstruction(OP_ADD, X3, Z3, OP_SUB, X2, Z2, R_CB),        # CB = (X3+Z3)*(X2-Z2)
        QuadOpInstruction(OP_SUB, X3, Z3, OP_ADD, X2, Z2, R_DA),        # DA = (X3-Z3)*(X2+Z2)
        mul_op(R_AA, R_BB, X2),                                         # X2' = AA*BB
        a24_op(OP_SUB, R_AA, R_BB, R_F),                                # F = a24*(AA-BB)
        QuadOpInstruction(OP_ADD, R_DA, R_CB, OP_ADD, R_DA, R_CB, X3),  # G = (DA+CB)^2
        QuadOpInstruction(OP_SUB, R_DA, R_CB, OP_SUB, R_DA, R_CB, Z3),  # H = (DA-CB)^2
        QuadOpInstruction(OP_SUB, R_AA, R_BB, OP_ADD, R_AA, R_F, Z2),   # Z2' = (AA-BB)*(AA+F)
        mul_op(Z1, X3, X3),                                             # X3' = Z1*G
        mul_op(X1, Z3, Z3),                                             # Z3' = X1*H
    ]
    if dpa:
        ops.append(mul_op(R_RND, Z1, R_RND))                            # residue *= Z1
    return ops


def pack(ops, curve: CurveId) -> tuple[Wave, ...]:
    """The waves that issue `ops` in program order on `curve`: each op joins
    the last wave unless the issue rules (`Wave`'s size, `Wave.check`)
    reject the result, and then opens a new wave.  No op moves ahead of an
    op before it, so the waves compute what the ops do one at a time."""
    waves = []
    for op in ops:
        if waves:
            try:
                wave = Wave(waves[-1].ops + (op,))
                wave.check(curve)
            except ValueError:  # a size error, or a ScheduleError
                pass
            else:
                waves[-1] = wave
                continue
        waves.append(Wave((op,)))
    return tuple(waves)


@functools.cache
def build_ladder_program(curve: CurveId, dpa: bool = False) -> ScheduledProgram:
    return ScheduledProgram(pack(_ladder_ops(dpa), curve), "ladder", curve, dpa)


def _sq(src, dst, n=1):
    """The waves of `n` squarings, dst = src^(2^n): the first reads src, the
    rest square dst in place."""
    return (Wave((mul_op(src, src, dst),)),) + (Wave((mul_op(dst, dst, dst),)),) * (n - 1)


def _mul(a, b, dst):
    """The wave of dst = a * b."""
    return Wave((mul_op(a, b, dst),))


def _tower(src, dst, n, mul_by):
    """The waves of dst = src^(2^n) * mul_by."""
    return (*_sq(src, dst, n), _mul(dst, mul_by, dst))


# Fermat inversion: Z2 = a becomes a^(p-2) = 1/a in place, one square or
# multiply per wave: 265 waves on Curve25519 (254 squarings and 11
# multiplications) and 462 on Curve448 (447 and 15).  A comment gives the
# exponent of a that its line leaves in the destination.
_INVERSION_WAVES = {
    CurveId.CURVE25519: (
        *_sq(Z2, T0),                   # 2
        *_sq(T0, T1, 2),                # 8
        _mul(Z2, T1, T1),               # 9
        _mul(T0, T1, T0),               # 11
        *_sq(T0, T2),                   # 22
        _mul(T1, T2, T1),               # 2^5 - 1
        *_sq(T1, T2, 5),
        _mul(T2, T1, T1),               # 2^10 - 1
        *_sq(T1, T2, 10),
        _mul(T2, T1, T2),               # 2^20 - 1
        *_sq(T2, T3, 20),
        _mul(T3, T2, T2),               # 2^40 - 1
        *_sq(T2, T2, 10),
        _mul(T2, T1, T1),               # 2^50 - 1
        *_sq(T1, T2, 50),
        _mul(T2, T1, T2),               # 2^100 - 1
        *_sq(T2, T3, 100),
        _mul(T3, T2, T2),               # 2^200 - 1
        *_sq(T2, T2, 50),
        _mul(T2, T1, T1),               # 2^250 - 1
        *_sq(T1, T1, 5),
        _mul(T1, T0, Z2),               # 2^255 - 21 = p - 2
    ),
    CurveId.CURVE448: (
        *_tower(Z2, T0, 1, Z2),         # 2^2 - 1
        *_tower(T0, T0, 1, Z2),         # 2^3 - 1
        *_tower(T0, T1, 3, T0),         # 2^6 - 1
        *_tower(T1, T2, 6, T1),         # 2^12 - 1
        *_tower(T2, T2, 1, Z2),         # 2^13 - 1
        *_tower(T2, T1, 13, T2),        # 2^26 - 1
        *_tower(T1, T1, 1, Z2),         # 2^27 - 1
        *_tower(T1, T2, 27, T1),        # 2^54 - 1
        *_tower(T2, T2, 1, Z2),         # 2^55 - 1
        *_tower(T2, T1, 55, T2),        # 2^110 - 1
        *_tower(T1, T1, 1, Z2),         # 2^111 - 1
        *_tower(T1, T2, 111, T1),       # 2^222 - 1, kept in T2 for the tail
        *_tower(T2, T1, 1, Z2),         # 2^223 - 1
        *_sq(T1, T1, 223),              # 2^446 - 2^223
        _mul(T1, T2, T1),               # 2^446 - 2^222 - 1
        *_sq(T1, T1, 2),                # 2^448 - 2^224 - 4
        _mul(T1, Z2, Z2),               # 2^448 - 2^224 - 3 = p - 2
    ),
}


@functools.cache
def build_inversion_program(curve: CurveId) -> ScheduledProgram:
    return ScheduledProgram(_INVERSION_WAVES[curve], "inversion", curve)


def dump_program(prog: ScheduledProgram) -> str:
    """One instruction per line: wave index, opsel bits, source/dst addresses."""
    lines = [
        f"# phase={prog.phase_tag} curve={prog.curve.value} dpa={'on' if prog.dpa else 'off'}"
        f" waves={len(prog.waves)} ops={prog.op_count}"
    ]
    for i, wave in enumerate(prog.waves):
        for op in wave.ops:
            sel = f"{op.sub_left}{op.sub_right}"
            lines.append(f"wave {i:3d}  opsel={sel}  {format_op(op)}")
    return "\n".join(lines)
