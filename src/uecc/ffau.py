"""Finite field arithmetic unit: (A +/- B) x (C +/- D) quad-operations.

One wave of quad-ops executes per simulated clock cycle against the 12-entry
register file.  All operands are read from the pre-wave state, so ops inside
a wave are simultaneous.  Because the schedule rules forbid an op from reading
another op's destination in the same wave, the model writes each destination
in place as its op completes and still reads only pre-wave values.
Curve25519 issues up to four ops per wave (the four 256-bit multipliers run in
parallel); Curve448 consumes all four multipliers for one full-width product
per wave, optionally sharing the cycle with one short a24-constant
multiplication.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .field import PARAMS, CurveId, FieldElement, mul_int, mul_small_int

NUM_REGISTERS = 12
REGISTER_BITS = 448
# Hardwired pseudo-source: reads as 0, consumes no register slot.
ZERO = 12

OP_ADD = 0
OP_SUB = 1


class ScheduleError(ValueError):
    """Wave violates an issue rule (size, address, or intra-wave hazard)."""


class DatapathError(ArithmeticError):
    """A register value no longer fits the 448-bit datapath: some reduction
    left it non-canonical, and every further product would double its width."""


@dataclass(frozen=True)
class OpSel:
    add_or_sub_left: int = OP_ADD
    add_or_sub_right: int = OP_ADD

    def __post_init__(self):
        if self.add_or_sub_left not in (OP_ADD, OP_SUB):
            raise ValueError("left opsel must be 0 (add) or 1 (sub)")
        if self.add_or_sub_right not in (OP_ADD, OP_SUB):
            raise ValueError("right opsel must be 0 (add) or 1 (sub)")


@dataclass(frozen=True)
class QuadOpInstruction:
    """dst := ((A +/- B) * (C +/- D)) mod p, sources by register address.

    With const_tag set, the right-hand factor is the curve constant a24 and
    src_c/src_d are ignored.
    """

    opsel: OpSel
    src_a: int
    src_b: int
    src_c: int
    src_d: int
    dst: int
    const_tag: bool = False

    def __post_init__(self):
        for name in ("src_a", "src_b", "src_c", "src_d"):
            addr = getattr(self, name)
            if not 0 <= addr <= ZERO:
                raise ValueError(f"{name} address {addr} out of range")
        if not 0 <= self.dst < NUM_REGISTERS:
            raise ValueError(f"dst address {self.dst} out of range")

    def reads(self) -> frozenset[int]:
        srcs = {self.src_a, self.src_b}
        if not self.const_tag:
            srcs.add(self.src_c)
            srcs.add(self.src_d)
        srcs.discard(ZERO)
        return frozenset(srcs)

    def compiled(self) -> tuple:
        return (
            self.opsel.add_or_sub_left,
            self.opsel.add_or_sub_right,
            self.src_a,
            self.src_b,
            self.src_c,
            self.src_d,
            self.dst,
            self.const_tag,
        )


_OPSEL_CH = {OP_ADD: "+", OP_SUB: "-"}


def format_op(op: QuadOpInstruction) -> str:
    """Assembly text of one op, e.g. ``r6 <- (r2 + r3) x (r2 + r3)``."""

    def src(addr):
        return "0" if addr == ZERO else f"r{addr}"

    lhs = f"({src(op.src_a)} {_OPSEL_CH[op.opsel.add_or_sub_left]} {src(op.src_b)})"
    if op.const_tag:
        rhs = "a24"
    else:
        rhs = f"({src(op.src_c)} {_OPSEL_CH[op.opsel.add_or_sub_right]} {src(op.src_d)})"
    return f"r{op.dst} <- {lhs} x {rhs}"


def quad_op(sl, a, b, sr, c, d, dst, const=False) -> QuadOpInstruction:
    return QuadOpInstruction(OpSel(sl, sr), a, b, c, d, dst, const)


def mul_op(a, c, dst) -> QuadOpInstruction:
    """Two-operand multiplication, encoded as (A + 0) x (C + 0)."""
    return QuadOpInstruction(OpSel(), a, ZERO, c, ZERO, dst)


def a24_op(sl, a, b, dst) -> QuadOpInstruction:
    """(A +/- B) x a24 with the constant multiplier."""
    return QuadOpInstruction(OpSel(sl, OP_ADD), a, b, ZERO, ZERO, dst, const_tag=True)


@dataclass(frozen=True)
class Wave:
    """Quad-ops issued in one clock cycle."""

    ops: tuple[QuadOpInstruction, ...]

    def __post_init__(self):
        if not 1 <= len(self.ops) <= 4:
            raise ValueError(f"wave must hold 1-4 ops, got {len(self.ops)}")

    def check(self, curve: CurveId):
        """Raise ScheduleError if this wave cannot issue for the given curve."""
        if curve is CurveId.CURVE448:
            full = [op for op in self.ops if not op.const_tag]
            consts = [op for op in self.ops if op.const_tag]
            if len(full) > 1 or len(consts) > 1:
                raise ScheduleError(
                    "Curve448 wave is one full-width op plus at most one a24 op"
                )
        written = set()
        for op in self.ops:
            if op.dst in written:
                raise ScheduleError(f"register {op.dst} written twice in one wave")
            written.add(op.dst)
        for op in self.ops:
            clash = op.reads() & (written - {op.dst})
            if clash:
                raise ScheduleError(
                    f"register {min(clash)} read and written by different ops in one wave"
                )

    def compiled(self) -> tuple:
        return tuple(op.compiled() for op in self.ops)

    @functools.cached_property
    def text(self) -> str:
        """The wave's ops as trace text, rendered once per wave object."""
        return "; ".join(format_op(op) for op in self.ops)


class RegisterFile:
    """12 x 448-bit working registers plus the hardwired zero source.

    `regs[ZERO]` is pinned to 0.  In Curve25519 mode every register value is
    canonical mod 2^255-19, so bits 255..447 are always zero (the hardware
    clock-gates the top 193 bits).
    """

    __slots__ = ("regs", "curve", "cycles")

    def __init__(self, curve: CurveId):
        self.curve = curve
        self.regs = [0] * (NUM_REGISTERS + 1)
        self.cycles = 0


def write_register(state: RegisterFile, addr: int, value) -> RegisterFile:
    """Store a value; out-of-range values are reduced into canonical form."""
    if not 0 <= addr < NUM_REGISTERS:
        raise ValueError(f"register address {addr} out of range")
    if isinstance(value, FieldElement):
        if value.curve is not state.curve:
            raise ValueError("curve mismatch")
        n = value.n
    else:
        n = int(value) % PARAMS[state.curve].p
    state.regs[addr] = n
    return state


def read_register(state: RegisterFile, addr: int) -> FieldElement:
    if not 0 <= addr < NUM_REGISTERS:
        raise ValueError(f"register address {addr} out of range")
    return FieldElement(state.regs[addr], state.curve)


def execute_wave(state: RegisterFile, wave: Wave) -> RegisterFile:
    """Execute one wave in one cycle on the register file's curve.

    This is the checked path: the wave must pass `Wave.check` (the registers
    are untouched if it does not), and every value written must fit the
    448-bit registers, or `DatapathError` is raised."""
    wave.check(state.curve)
    execute_compiled_wave(state.regs, wave.compiled(), state.curve)
    state.cycles += 1
    for op in wave.ops:
        if state.regs[op.dst] >> REGISTER_BITS:
            raise DatapathError(f"r{op.dst} exceeds {REGISTER_BITS} bits: a reduction fault")
    return state


def execute_compiled_wave(regs: list[int], ops: tuple, curve: CurveId):
    """Hot path shared with the scalar-multiplication engine (pre-validated ops).

    Each op writes its destination as soon as it is computed.  That equals
    reading every operand from the pre-wave registers, because `Wave.check`
    forbids any op from reading another op's destination in the same wave:
    an op only ever overwrites registers that no later op of the wave reads."""
    params = PARAMS[curve]
    p = params.p
    for sl, sr, a, b, c, d, dst, const in ops:
        lhs = regs[a] - regs[b] if sl else regs[a] + regs[b]
        if lhs >= p:
            lhs -= p
        elif lhs < 0:
            lhs += p
        if const:
            regs[dst] = mul_small_int(lhs, params.a24, curve)
        else:
            rhs = regs[c] - regs[d] if sr else regs[c] + regs[d]
            if rhs >= p:
                rhs -= p
            elif rhs < 0:
                rhs += p
            regs[dst] = mul_int(lhs, rhs, curve)
