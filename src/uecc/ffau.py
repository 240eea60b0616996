"""Finite field arithmetic unit: (A +/- B) x (C +/- D) quad-operations.

One wave of quad-ops executes per simulated clock cycle against the 12-entry
register file: a plain list of 13 ints, the last the hardwired zero source
`regs[ZERO]`, which no op writes, laid out by `registers` alone.  Registers
hold canonical values, so on Curve25519 bits 255..447 are always zero (the
hardware clock-gates the top 193 bits).  All operands are read from the
pre-wave state, so ops inside a wave are simultaneous.  Each distinct wave
runs, per curve, as a generated straight-line function, its kernel: the
kernel reads every distinct operand selector (A + B, A - B + p, or plain A)
from the pre-wave registers into a local, then computes each op's product and
fold inline, and writes the result in place as `x % p`.  Like the hardware's
one datapath driven by the LUT's register addresses, a kernel's code takes
the addresses as parameters: it is compiled once per op pattern and curve,
and each wave's kernel binds its own addresses to that shared code.
`kernel_source` composes every kernel from the curve's product and fold
text in `field`, which composes nothing.  Every read precedes every write,
so the pre-wave semantics hold by construction.  The selectors are left
unreduced, below 2p, which the fold and `% p` absorb.  Every write is a
`% p`, so every register is canonical whatever integer the multiplier unit
returns.
The multiplier array is stated once, in `MULTIPLIERS` and `UNITS`, and the
issue rule (`Wave`, `Wave.check`) and the product charge
(`program.ScheduledProgram.products`) both read it.

`_kernel_code`, which `compile_ops` calls, is the package's one code
generator.  Every whole program, the engine's and the checks', runs its
kernels through `execute_compiled_wave` in `ecsm._issue`.  The checked
`execute_wave` runs single ad-hoc waves: `mul_int`, `mul_small_int` and
`selftest.add_sub` issue theirs that way.
"""

from __future__ import annotations

import collections
import functools
import types

from . import field
from .field import PARAMS, CurveId

NUM_REGISTERS = 12
# Hardwired pseudo-source: reads as 0, consumes no register slot.
ZERO = 12

OP_ADD = 0
OP_SUB = 1

# The multiplier array: 256-bit units, one issue slot each, and the units one
# full-width op takes; an a24 op runs on the one constant multiplier instead.
MULTIPLIERS = 4
UNITS = {CurveId.CURVE25519: 1, CurveId.CURVE448: 4}


class ScheduleError(ValueError):
    """Wave violates an issue rule (size, address, or intra-wave hazard)."""


class QuadOpInstruction(collections.namedtuple(
        "QuadOpInstruction", "sub_left src_a src_b sub_right src_c src_d dst const_tag")):
    """dst := ((A +/- B) * (C +/- D)) mod p, sources by register address.

    `sub_left`/`sub_right` select the sum (OP_ADD) or the difference (OP_SUB)
    of each factor.  With const_tag set, the right-hand factor is the curve
    constant a24 and sub_right/src_c/src_d are ignored.
    """

    __slots__ = ()

    def __new__(cls, sub_left, src_a, src_b, sub_right, src_c, src_d, dst, const_tag=False):
        fields = (sub_left, src_a, src_b, sub_right, src_c, src_d, dst)
        for name, value in zip(cls._fields, fields):
            if type(value) is not int:  # a bool or a float would pass the range checks
                raise TypeError(f"{name} must be an int, got {value!r}")
        if type(const_tag) is not bool:  # a truthy "no" must not make an a24 op
            raise TypeError(f"const_tag must be a bool, got {const_tag!r}")
        if sub_left not in (OP_ADD, OP_SUB):
            raise ValueError("left opsel must be 0 (add) or 1 (sub)")
        if sub_right not in (OP_ADD, OP_SUB):
            raise ValueError("right opsel must be 0 (add) or 1 (sub)")
        for name, addr in (("src_a", src_a), ("src_b", src_b), ("src_c", src_c), ("src_d", src_d)):
            if not 0 <= addr <= ZERO:
                raise ValueError(f"{name} address {addr} out of range")
        if not 0 <= dst < NUM_REGISTERS:
            raise ValueError(f"dst address {dst} out of range")
        return super().__new__(cls, sub_left, src_a, src_b, sub_right, src_c, src_d, dst, const_tag)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def reads(self) -> frozenset[int]:
        srcs = {self.src_a, self.src_b}
        if not self.const_tag:
            srcs.add(self.src_c)
            srcs.add(self.src_d)
        srcs.discard(ZERO)
        return frozenset(srcs)


_OPSEL_CH = {OP_ADD: "+", OP_SUB: "-"}


def format_op(op: QuadOpInstruction) -> str:
    """Assembly text of one op, e.g. ``r6 <- (r2 + r3) x (r2 + r3)``."""

    def src(addr):
        return "0" if addr == ZERO else f"r{addr}"

    lhs = f"({src(op.src_a)} {_OPSEL_CH[op.sub_left]} {src(op.src_b)})"
    if op.const_tag:
        rhs = "a24"
    else:
        rhs = f"({src(op.src_c)} {_OPSEL_CH[op.sub_right]} {src(op.src_d)})"
    return f"r{op.dst} <- {lhs} x {rhs}"


def mul_op(a, c, dst) -> QuadOpInstruction:
    """Two-operand multiplication, encoded as (A + 0) x (C + 0)."""
    return QuadOpInstruction(OP_ADD, a, ZERO, OP_ADD, c, ZERO, dst)


def a24_op(sl, a, b, dst) -> QuadOpInstruction:
    """(A +/- B) x a24 with the constant multiplier."""
    return QuadOpInstruction(sl, a, b, OP_ADD, ZERO, ZERO, dst, const_tag=True)


class Wave(collections.namedtuple("Wave", "ops")):
    """Quad-ops issued in one clock cycle: `ops`, a tuple of 1 to
    `MULTIPLIERS` `QuadOpInstruction`s."""

    __slots__ = ()

    def __new__(cls, ops):
        ops = tuple(ops)
        if not 1 <= len(ops) <= MULTIPLIERS:
            raise ValueError(f"wave must hold 1-{MULTIPLIERS} ops, got {len(ops)}")
        for op in ops:
            if not isinstance(op, QuadOpInstruction):
                raise TypeError(f"wave op {op!r} is not a QuadOpInstruction")
        return super().__new__(cls, ops)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    def check(self, curve: CurveId) -> int:
        """The multiplier units (`UNITS`) this wave takes on `curve`; ScheduleError
        if it takes over `MULTIPLIERS`, more than one a24 op, or has a hazard."""
        written, consts = set(), 0
        for op in self.ops:
            if op.dst in written:
                raise ScheduleError(f"register {op.dst} written twice in one wave")
            written.add(op.dst)
            consts += op.const_tag
        units = (len(self.ops) - consts) * UNITS[curve]
        if units > MULTIPLIERS or consts > 1:
            raise ScheduleError(f"wave takes {units} multiplier units and {consts} a24 ops;"
                                f" the array has {MULTIPLIERS} and one constant multiplier")
        for op in self.ops:
            clash = op.reads() & (written - {op.dst})
            if clash:
                raise ScheduleError(
                    f"register {min(clash)} read and written by different ops in one wave"
                )
        return units

    def compiled(self, curve: CurveId | None = None) -> tuple:
        """The wave's `CompiledWave` on `curve`.  Without a curve, the op
        tuple, which the wave compiled on every curve compares equal to."""
        return self.ops if curve is None else compile_ops(self.ops, curve)

    @property
    def text(self) -> str:
        """The wave's ops as trace text."""
        return "; ".join(format_op(op) for op in self.ops)


class CompiledWave(tuple):
    """A wave's ops, carrying in `kernel(regs)` the generated function that
    executes them on one curve, its register addresses bound as defaults.
    It compares, hashes and unpacks as the wave's op tuple."""


def kernel_source(ops: tuple[QuadOpInstruction, ...],
                  curve: CurveId) -> tuple[str, tuple[int, ...]]:
    """(source, addresses): the Python source of the straight-line function
    executing the wave `ops` on `curve`, over its register addresses as
    parameters, and the wave's addresses in parameter order.  This is the
    one place that composes a kernel from `field`'s text.

    The kernel is `def kernel(r, g0, g1, ..., w0, w1, ...)`: `g0`, `g1`, ...
    are the distinct source addresses in order of first read, and `w0`,
    `w1`, ... the ops' destinations.  The text depends only on the wave's
    op pattern: its add/sub flags, a24 flags, zero sources and which source
    addresses are equal, so waves of one pattern share it.  Each distinct
    operand selector is read once from the pre-wave registers: `A + 0` as
    `r[g0]`, a sum as `r[g0] + r[g1]` and a difference as
    `r[g0] - r[g1] + p`, each below 2p and left unreduced.  Then, in op
    order, each op's product and fold (`field.PRODUCT`, or
    `field.PRODUCT_A24` with the curve's a24) is followed by the `x % p`
    that writes its destination; a square passes one selector as both
    factors.  On Curve448 each full-width factor is first split at phi
    (`field.SPLIT448`), once, before its first product.  The selectors are
    named `s0`, `s1`, ..., which neither a product's locals (`x`, `h`, `h1`,
    `p11`, `p00`, and the halves `s0h`, `s0l`, ...) nor the parameters
    collide with."""
    sources, reads, names, split, products = {}, [], {}, set(), []
    p = field.PRIME[curve]

    def address(x):
        return sources.setdefault(x, f"g{len(sources)}")

    def selector(sub, x, y):
        x = address(x)
        if y == ZERO:
            key, expr = (x,), f"r[{x}]"
        else:
            y = address(y)
            key, expr = (sub, x, y), f"r[{x}] - r[{y}] + {p}" if sub else f"r[{x}] + r[{y}]"
        if key not in names:
            names[key] = f"s{len(names)}"
            reads.append(f"{names[key]} = {expr}\n")
        return names[key]

    for w, op in enumerate(ops):
        a = selector(op.sub_left, op.src_a, op.src_b)
        if op.const_tag:
            b, product = PARAMS[curve].a24, field.PRODUCT_A24
        else:
            b, product = selector(op.sub_right, op.src_c, op.src_d), field.PRODUCT[curve]
            if curve is CurveId.CURVE448:
                for v in (a, b):
                    if v not in split:
                        split.add(v)
                        products.append(field.SPLIT448.format(v=v))
        products.append(product.format(a=a, b=b) + f"r[w{w}] = x % {p}\n")
    params = ", ".join(["r", *sources.values(), *(f"w{w}" for w in range(len(ops)))])
    body = "".join(reads + products)
    source = f"def kernel({params}):\n" + "".join("    " + line for line in body.splitlines(True))
    return source, (*sources, *(op.dst for op in ops))


@functools.cache
def _kernel_code(source: str) -> types.CodeType:
    """The code object of the kernel `source`, compiled once per distinct
    text: the package's one code generator."""
    namespace = {}
    exec(compile(source, "<ffau kernel>", "exec"), namespace)
    return namespace["kernel"].__code__


@functools.cache
def compile_ops(ops: tuple[QuadOpInstruction, ...], curve: CurveId) -> CompiledWave:
    """The `CompiledWave` of a wave's ops on `curve`, built once per distinct
    (op tuple, curve).  Its kernel is a function over its op pattern's
    shared code (`_kernel_code`), with the wave's register addresses bound
    as the parameters' defaults, so waves of one pattern compile once.  The
    kernel runs in `field`'s globals, so it looks up the unit `kar256_int`
    there at call time."""
    source, addresses = kernel_source(ops, curve)
    wave = CompiledWave(ops)
    wave.kernel = types.FunctionType(_kernel_code(source), vars(field), "kernel", addresses)
    return wave


def registers(*values: int) -> list[int]:
    """A register list as the engine holds it: `values` from r0 up, every
    other register 0, and the hardwired zero source `regs[ZERO]` last."""
    if len(values) > NUM_REGISTERS:
        raise ValueError(f"{len(values)} values for {NUM_REGISTERS} registers")
    return [*values] + [0] * (NUM_REGISTERS + 1 - len(values))


def execute_wave(regs: list[int], wave: Wave, curve: CurveId):
    """Execute one wave in one cycle on `regs`, the engine's register list.

    This is the checked path: the wave must pass `Wave.check`, and the
    registers are untouched if it does not."""
    wave.check(curve)
    execute_compiled_wave(regs, wave.compiled(curve), curve)


def execute_compiled_wave(regs: list[int], ops: CompiledWave, curve: CurveId):
    """Hot path shared with the scalar-multiplication engine (pre-validated
    ops): run the wave's generated kernel, compiled for `curve`, on `regs`.

    The kernel reads every operand selector before it writes any destination,
    so each op sees the pre-wave registers.  Its selectors are unreduced
    (below 2p), and each op writes its folded product `% p`, so registers
    stay canonical from wave to wave."""
    ops.kernel(regs)


# the single-op waves of the field checks: r2 <- r0 x r1, and r1 <- r0 x a24
_MUL = Wave((mul_op(0, 1, 2),))
_MUL_SMALL = Wave((a24_op(OP_ADD, 0, ZERO, 1),))


def mul_int(a: int, b: int, curve: CurveId) -> int:
    """a * b mod p, canonical, for operands below 2p (the unreduced selector
    range): one `mul_op` wave issued through `execute_wave` on a scratch
    register list, so it runs the engine's kernel."""
    regs = registers(a, b)
    execute_wave(regs, _MUL, curve)
    return regs[2]


def mul_small_int(a: int, curve: CurveId) -> int:
    """a * a24 mod p, canonical, for an operand below 2p: one `a24_op` wave
    issued through `execute_wave`, like `mul_int`."""
    regs = registers(a)
    execute_wave(regs, _MUL_SMALL, curve)
    return regs[1]
