"""Arithmetic in F_(2^255-19) and F_(2^448-2^224-1).

Multiplication always funnels through the 256-bit multiplier unit
`kar256_int`: one product for Curve25519, four 224x224 partial products for
Curve448 via the golden ratio split of its Solinas prime
(p = phi^2 - phi - 1, phi = 2^224).  Reduction is fused into `mul_int` per
curve: two folds of 2^255 = 19 for Curve25519; for Curve448 the partials
folded once more by phi^2 = phi + 1, then one fold of 2^448 = 2^224 + 1.
For operands below 2p (the FFAU's unreduced operand selectors) either leaves
the value below 2p, so one masked conditional subtraction finishes, and the
sequence of operations never depends on operand values.

The unit (`bigmul.kar256_int`) is the builtin integer product; the
structural Karatsuba recursion is the reference that the tests check against
schoolbook.  Nothing here counts products: each stands for one 2-level
Karatsuba product, and `ecsm._issue` charges a program's products
(`perf.products`) when it issues the program.  The multiplies look the unit
up through this module's name `kar256_int`, so replacing `field.kar256_int`
(with the reference kernel, or a timing wrapper) reaches every engine product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .bigmul import kar256_int


class CurveId(enum.Enum):
    CURVE25519 = "curve25519"
    CURVE448 = "curve448"

    # Members are singletons compared by identity; Enum's own __hash__ is a
    # Python-level call, paid on every PARAMS[curve] lookup in the hot path.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class CurveParams:
    p: int
    a24: int
    scalar_bits: int
    field_bytes: int


P25519 = 2**255 - 19
P448 = 2**448 - 2**224 - 1
PHI = 2**224  # golden ratio of the Solinas prime: P448 = PHI**2 - PHI - 1

PARAMS = {
    CurveId.CURVE25519: CurveParams(
        p=P25519,
        a24=121665,
        scalar_bits=255,
        field_bytes=32,
    ),
    CurveId.CURVE448: CurveParams(
        p=P448,
        a24=39081,
        scalar_bits=448,
        field_bytes=56,
    ),
}

_C25519 = CurveId.CURVE25519  # module global: cheaper to load than the enum attribute

_M224 = (1 << 224) - 1
_M255 = (1 << 255) - 1
_M448 = (1 << 448) - 1


class FieldElement:
    """Canonical element of the selected prime field."""

    __slots__ = ("n", "curve")

    def __init__(self, n: int, curve: CurveId):
        p = PARAMS[curve].p
        if not 0 <= n < p:
            raise ValueError("value not canonical")
        self.n = n
        self.curve = curve

    def __eq__(self, other):
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.n == other.n and self.curve == other.curve

    def __hash__(self):
        return hash((self.n, self.curve))

    def __repr__(self):
        return f"FieldElement(0x{self.n:x}, {self.curve.value})"


def fe(n: int, curve: CurveId) -> FieldElement:
    """Element from any integer, reduced into canonical range."""
    return FieldElement(n % PARAMS[curve].p, curve)


# ---------------------------------------------------------------------------
# int-level kernels
#
# Each reduction folds with the prime's special form a fixed number of times,
# which leaves x < 2p, so one masked subtraction finishes; the bound of each
# step is noted beside it.  `mul_int` and `mul_small_int` are the engine's hot
# path, with the folds fused in; the `reduce*_int` functions take a product of
# any width up to 2 x 448 bits, and the checks reduce the schoolbook oracle's
# products with them.

def reduce25519_int(x: int) -> int:
    # 2^255 = 19 (mod p).  x < 2^512: the first fold leaves x < 2^262 and the
    # second x < 2^255 + 19 * 2^7 < 2p.
    x = (x & _M255) + 19 * (x >> 255)
    x = (x & _M255) + 19 * (x >> 255)
    return x - (P25519 & -(x >= P25519))


def reduce448_int(x: int) -> int:
    # 2^448 = 2^224 + 1 (mod p).  x < 2^896: the folds leave x < 2^673, then
    # x < 2^450, then x < 2^448 + 2^226 + 4 < 2p.
    h = x >> 448
    x = (x & _M448) + (h << 224) + h
    h = x >> 448
    x = (x & _M448) + (h << 224) + h
    h = x >> 448
    x = (x & _M448) + (h << 224) + h
    return x - (P448 & -(x >= P448))


def mul_int(a: int, b: int, curve: CurveId) -> int:
    """a * b mod p, canonical, for operands below 2p (the FFAU's unreduced
    selectors), with the curve's reduction fused in: fixed folds, then one
    masked subtraction."""
    if curve is _C25519:
        x = kar256_int(a, b)
        # 2^255 = 19 (mod p).  Operands < 2p < 2^256, so x < 2^512: the first
        # fold leaves x < 2^262 and the second x < 2^255 + 19 * 2^7 < 2p.
        x = (x & _M255) + 19 * (x >> 255)
        x = (x & _M255) + 19 * (x >> 255)
        return x - (P25519 & -(x >= P25519))
    # phi^2 = phi + 1 (mod p), so with A = a1*phi + a0, B = b1*phi + b0:
    # A*B = p11 + p00 + H*phi with H = p10 + p01 + p11, four 256-bit partials.
    # Operands < 2p < 2^449, so the halves a1, b1 < 2^225 and a0, b0 < 2^224:
    # p11 < 2^450, p10 + p01 < 2^450 and H < 2^451.  Splitting H = h1*phi + h0
    # and folding phi^2 again: H*phi = h1 + (h0 + h1)*phi with h1 < 2^227, so
    # x < 2^450 + 2^448 + 2^227 + (2^224 + 2^227) * 2^224 < 2^452.
    a1 = a >> 224
    a0 = a & _M224
    b1 = b >> 224
    b0 = b & _M224
    p11 = kar256_int(a1, b1)
    p00 = kar256_int(a0, b0)
    h = kar256_int(a1, b0) + kar256_int(a0, b1) + p11
    h1 = h >> 224
    x = p11 + p00 + h1 + (((h & _M224) + h1) << 224)
    # 2^448 = 2^224 + 1 (mod p).  One fold of the top 4 bits leaves
    # x < 2^448 + 2^228 + 16 < 2p.
    h = x >> 448
    x = (x & _M448) + (h << 224) + h
    return x - (P448 & -(x >= P448))


def mul_small_int(a: int, c: int, curve: CurveId) -> int:
    """a * c mod p, canonical, for an operand below 2p and the curve's a24
    as c (the a24 path)."""
    x = a * c
    if curve is _C25519:
        # a < 2^256 and a24 < 2^17: one fold leaves x < 2^255 + 19 * 2^18 < 2p
        x = (x & _M255) + 19 * (x >> 255)
        return x - (P25519 & -(x >= P25519))
    # a < 2^449 and a24 < 2^16: one fold leaves x < 2^448 + 2^241 + 2^17 < 2p
    h = x >> 448
    x = (x & _M448) + (h << 224) + h
    return x - (P448 & -(x >= P448))


# ---------------------------------------------------------------------------
# Fermat inversion chains
#
# The chains compute a^(p-2) as a fixed sequence of squarings and
# multiplications over five working slots; total step counts are exactly
# 265 (Curve25519: 254 squarings + 11 multiplications) and 462 (Curve448:
# 447 squarings + 15 multiplications).  Steps are ("sq", dst, src) or
# ("mul", dst, src_a, src_b); slot "z" holds the input and, at the end,
# the result.  The chains are data: `program.build_inversion_program` turns
# them into the FFAU waves that compute every inverse.

def _chain25519():
    steps = []
    sq = lambda d, s: steps.append(("sq", d, s))
    mul = lambda d, a, b: steps.append(("mul", d, a, b))
    sq("t0", "z")                    # 2
    sq("t1", "t0")                   # 4
    sq("t1", "t1")                   # 8
    mul("t1", "z", "t1")             # 9
    mul("t0", "t0", "t1")            # 11
    sq("t2", "t0")                   # 22
    mul("t1", "t1", "t2")            # 2^5 - 1
    sq("t2", "t1")
    for _ in range(4):
        sq("t2", "t2")
    mul("t1", "t2", "t1")            # 2^10 - 1
    sq("t2", "t1")
    for _ in range(9):
        sq("t2", "t2")
    mul("t2", "t2", "t1")            # 2^20 - 1
    sq("t3", "t2")
    for _ in range(19):
        sq("t3", "t3")
    mul("t2", "t3", "t2")            # 2^40 - 1
    for _ in range(10):
        sq("t2", "t2")
    mul("t1", "t2", "t1")            # 2^50 - 1
    sq("t2", "t1")
    for _ in range(49):
        sq("t2", "t2")
    mul("t2", "t2", "t1")            # 2^100 - 1
    sq("t3", "t2")
    for _ in range(99):
        sq("t3", "t3")
    mul("t2", "t3", "t2")            # 2^200 - 1
    for _ in range(50):
        sq("t2", "t2")
    mul("t1", "t2", "t1")            # 2^250 - 1
    for _ in range(5):
        sq("t1", "t1")
    mul("z", "t1", "t0")             # 2^255 - 21 = p - 2
    return tuple(steps)


def _chain448():
    steps = []
    sq = lambda d, s: steps.append(("sq", d, s))
    mul = lambda d, a, b: steps.append(("mul", d, a, b))

    def tower(dst, src, doublings, mul_by):
        # dst = src^(2^doublings) * mul_by
        sq(dst, src)
        for _ in range(doublings - 1):
            sq(dst, dst)
        mul(dst, dst, mul_by)

    tower("t0", "z", 1, "z")         # 2^2 - 1
    tower("t0", "t0", 1, "z")        # 2^3 - 1
    tower("t1", "t0", 3, "t0")       # 2^6 - 1
    tower("t2", "t1", 6, "t1")       # 2^12 - 1
    tower("t2", "t2", 1, "z")        # 2^13 - 1
    tower("t1", "t2", 13, "t2")      # 2^26 - 1
    tower("t1", "t1", 1, "z")        # 2^27 - 1
    tower("t2", "t1", 27, "t1")      # 2^54 - 1
    tower("t2", "t2", 1, "z")        # 2^55 - 1
    tower("t1", "t2", 55, "t2")      # 2^110 - 1
    tower("t1", "t1", 1, "z")        # 2^111 - 1
    tower("t2", "t1", 111, "t1")     # 2^222 - 1 (kept for the tail)
    tower("t1", "t2", 1, "z")        # 2^223 - 1
    # tail: ((2^223-1)*2 shifted 222, merge 2^222-1, shift 2, merge z)
    sq("t1", "t1")                   # 2^224 - 2
    for _ in range(222):
        sq("t1", "t1")               # 2^446 - 2^223
    mul("t1", "t1", "t2")            # 2^446 - 2^222 - 1
    sq("t1", "t1")
    sq("t1", "t1")                   # 2^448 - 2^224 - 4
    mul("z", "t1", "z")              # 2^448 - 2^224 - 3 = p - 2
    return tuple(steps)


INVERSION_CHAINS = {
    CurveId.CURVE25519: _chain25519(),
    CurveId.CURVE448: _chain448(),
}

assert len(INVERSION_CHAINS[CurveId.CURVE25519]) == 265
assert len(INVERSION_CHAINS[CurveId.CURVE448]) == 462


def check_width(data: bytes, curve: CurveId, what: str) -> None:
    """Reject an octet string that is not exactly one field element wide."""
    n = PARAMS[curve].field_bytes
    if len(data) != n:
        raise ValueError(f"{curve.value} {what} must be {n} bytes, got {len(data)}")
