"""The quad-op's meaning, stated once for the tests, and the programs it runs.

`spec_wave` is the tests' one statement of what a wave computes: every op,
dst := (A +/- B) x (C +/- D) mod p or (A +/- B) x a24 mod p, reads the
pre-wave registers, with p and a24 from `reference` (RFC 7748), not from
the constants the kernels are built from.  On `Poly` registers, each
register its own variable, it proves for every input a whole program, and
in `test_sources.kernel_bounds` each kernel.  `programs` names every
program the engine issues, and `CURVES` every curve.  `spy` is the tests'
one recording wrapper: it logs the calls of a function the engine looks up
at call time, and a fake that changes behaviour is a plain `monkeypatch`.
"""

import itertools
import math

from uecc import ecsm
from uecc.field import CurveId
from uecc.ffau import NUM_REGISTERS
from uecc.program import build_inversion_program, build_ladder_program
from uecc.reference import A24, P

# every curve, Curve25519 first: the order the tests run them in
CURVES = (CurveId.CURVE25519, CurveId.CURVE448)


def spy(monkeypatch, owner, name, log, call=None, record=None):
    """Replace `owner.name`, through `monkeypatch`, with a wrapper that calls
    `call` (by default the original) and, once it returns, appends
    `(name, record(*args) if record else args, result)` to `log`.  `record`
    sees the arguments as the call was made, before the call mutates them.
    Spies that share a log leave their calls in it in completion order."""
    call = call or getattr(owner, name)

    def wrapper(*args):
        recorded = record(*args) if record else args
        result = call(*args)
        log.append((name, recorded, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)


def spec_wave(regs, ops, curve):
    """Apply the wave `ops` to `regs` in place: every op reads a copy of the
    pre-wave registers, and all writes land after the last read."""
    p, a24 = P[curve], A24[curve]
    pre = list(regs)

    def factor(sub, a, b):
        return pre[a] - pre[b] if sub else pre[a] + pre[b]

    for op in ops:
        right = a24 if op.const_tag else factor(op.sub_right, op.src_c, op.src_d)
        regs[op.dst] = factor(op.sub_left, op.src_a, op.src_b) * right % p


class Poly:
    """A polynomial over GF(p) in the variables x_0, x_1, ..., as {exponent
    tuple: coefficient}; a tuple may have any length, and its trailing zeros
    are stripped, so the register variables and any fresh ones mix.  Its
    `% p` is a no-op, so `spec_wave` and `reference.ladder_step` run on it
    unchanged."""

    def __init__(self, terms, p):
        self.terms, self.p = {}, p
        for e, c in terms.items():
            e = tuple(e)[:max([i + 1 for i, n in enumerate(e) if n], default=0)]
            if c := (self.terms.pop(e, 0) + c) % p:
                self.terms[e] = c

    @classmethod
    def registers(cls, p):
        """A register list whose register i is the variable x_i, and whose
        zero source is the zero polynomial."""
        return [cls({(0,) * i + (1,): 1}, p) for i in range(NUM_REGISTERS)] + [cls({}, p)]

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms, self.p)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({e: c * other for e, c in self.terms.items()}, self.p)
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(sum, itertools.zip_longest(e1, e2, fillvalue=0)))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms, self.p)

    __rmul__ = __mul__

    def __pow__(self, k):
        return math.prod([self] * k)

    def __mod__(self, p):
        return self

    def __eq__(self, other):
        return self.terms == other.terms


def programs(curve):
    """Every program the engine issues on `curve`, by name."""
    return {
        "init": ecsm._INIT[curve],
        "ladder": build_ladder_program(curve, False),
        "ladder-dpa": build_ladder_program(curve, True),
        "inversion": build_inversion_program(curve),
        "final": ecsm._FINAL[curve],
    }
