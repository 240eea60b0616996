"""Arithmetic in F_(2^255-19) and F_(2^448-2^224-1).

Every full-width product funnels through the 256-bit multiplier unit
`kar256_int`, `ffau.UNITS[curve]` times per product: on Curve448 these are
the 224x224 partial products of the golden ratio split of its Solinas prime
(p = phi^2 - phi - 1, phi = 2^224), where a square splits its operand once.
Each full-width product is folded once by the prime's special form: by
2^255 = 19 on Curve25519, and on Curve448 the partials are recombined by
phi^2 = phi + 1.  For operands below 2p (the FFAU's unreduced operand
selectors) the fold, or the short a24 product alone, leaves the value below
2^30 * p, so the one `% p` that writes each result has a quotient of one
30-bit digit of the host's integers, and the sequence of operations never
depends on operand values.

Each curve's product and fold are written once, as statement text with
their bound comments (`PRODUCT`, `PRODUCT_A24`, `SPLIT448`).  This
module holds only curve facts and that text, and composes nothing:
`ffau.kernel_source` composes each wave kernel from it, one product per op,
and the kernels run in this module's globals.  `ffau.mul_int` and
`ffau.mul_small_int` issue one wave each, so the checks that call them run
the engine's own kernels.

The unit (`bigmul.kar256_int`) is the builtin integer product; the
structural Karatsuba recursion is the reference that the tests check against
schoolbook.  Nothing here counts products: each stands for one 2-level
Karatsuba product, and `ecsm._issue` charges a program's products
(`ScheduledProgram.products`, from `ffau.UNITS`, times the steps issued)
when it issues the program.
The kernels look the unit up through this module's name `kar256_int` at call
time, so replacing `field.kar256_int` (with the reference kernel, a timing
wrapper or a fault) reaches every engine product.
"""

from __future__ import annotations

import collections
import enum

from .bigmul import kar256_int


class CurveId(enum.Enum):
    CURVE25519 = "curve25519"
    CURVE448 = "curve448"


# scalar_bits and cofactor: RFC 7748's `bits` (section 5) and cofactor (sections 4.1, 4.2)
CurveParams = collections.namedtuple("CurveParams", "p a24 scalar_bits field_bytes cofactor")


P25519 = 2**255 - 19
P448 = 2**448 - 2**224 - 1
PHI = 2**224  # golden ratio of the Solinas prime: P448 = PHI**2 - PHI - 1

PARAMS = {
    CurveId.CURVE25519: CurveParams(
        p=P25519,
        a24=121665,
        scalar_bits=255,
        field_bytes=32,
        cofactor=8,
    ),
    CurveId.CURVE448: CurveParams(
        p=P448,
        a24=39081,
        scalar_bits=448,
        field_bytes=56,
        cofactor=4,
    ),
}


def curve_params(curve: CurveId) -> CurveParams:
    """`PARAMS[curve]`, or TypeError if `curve` is not a `CurveId`."""
    try:
        return PARAMS[curve]
    except (KeyError, TypeError):
        raise TypeError(f"curve must be a CurveId, got {curve!r}") from None


_M224 = (1 << 224) - 1
_M255 = (1 << 255) - 1


class FieldElement(collections.namedtuple("FieldElement", "n curve")):
    """Canonical element of the selected prime field."""

    __slots__ = ()

    def __new__(cls, n, curve):
        if not isinstance(n, int):
            raise TypeError(f"n must be an int, got {n!r}")
        if not 0 <= n < curve_params(curve).p:
            raise ValueError("value not canonical")
        return super().__new__(cls, n, curve)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace


def fe(n: int, curve: CurveId) -> FieldElement:
    """Element from any integer, reduced into canonical range."""
    return FieldElement(n % curve_params(curve).p, curve)


# ---------------------------------------------------------------------------
# Multiply and fold, as text
#
# A product folds x once by the prime's special form, which leaves x within a
# few bits of p (below 2^30 * p), so the one `% p` that finishes it has a
# one-digit quotient; the bound of each step is noted beside it.  The
# statements below are the only copy of each curve's product and fold;
# `ffau.kernel_source` composes every wave kernel from them (split, product
# and fold, `% p`), and each kernel runs in this module's globals.

# the name of each curve's prime in this module
PRIME = {CurveId.CURVE25519: "P25519", CurveId.CURVE448: "P448"}

# x = A * B (mod p) through the unit, for factors A = {a} and B = {b} below
# 2p (the FFAU's unreduced selectors), folded once by the prime's form.
PRODUCT = {
    # A, B < 2^256, so the product is below 2^512, and one fold of
    # 2^255 = 19 (mod p) leaves x < 2^255 + 19 * 2^257 < 2^262.
    CurveId.CURVE25519: "x = kar256_int({a}, {b})\nx = (x & _M255) + 19 * (x >> 255)\n",
    # phi^2 = phi + 1 (mod p), so with A = ah*phi + al, B = bh*phi + bl
    # (the halves that SPLIT448 names): A*B = p11 + p00 + H*phi with
    # H = p10 + p01 + p11, four 256-bit partials.  A, B < 2^449, so ah, bh <
    # 2^225 and al, bl < 2^224: p11 < 2^450, p10 + p01 < 2^450 and H < 2^451.
    # Splitting H = h1*phi + h0 and folding phi^2 again: H*phi = h1 + (h0 +
    # h1)*phi with h1 < 2^227, so x < 2^450 + 2^448 + 2^227 + (2^224 + 2^227)
    # * 2^224 < 2^452.
    CurveId.CURVE448: """\
p11 = kar256_int({a}h, {b}h)
p00 = kar256_int({a}l, {b}l)
h = kar256_int({a}h, {b}l) + kar256_int({a}l, {b}h) + p11
h1 = h >> 224
x = p11 + p00 + h1 + (((h & _M224) + h1) << 224)
""",
}

# A Curve448 factor {v} split at phi into {v}h and {v}l, once per name.
SPLIT448 = "{v}h = {v} >> 224\n{v}l = {v} & _M224\n"

# x = A * c for the a24 op, A = {a} below 2p and c = {b} the curve's a24
# constant, on the short constant multiplier, with no fold: on Curve25519
# A < 2^256 and a24 < 2^17, so x < 2^273; on Curve448 A < 2^449 and
# a24 < 2^16, so x < 2^465.
PRODUCT_A24 = "x = {a} * {b}\n"


# the octet types the package takes, for an encoded input or a PRNG seed
BYTES_LIKE = (bytes, bytearray, memoryview)


def check_width(data: bytes, curve: CurveId, what: str) -> bytes:
    """`data` copied to `bytes`, and so measured in octets, not in a view's
    items: TypeError unless `BYTES_LIKE` (a hex `str` is not its octets),
    ValueError unless exactly one field element wide."""
    if not isinstance(data, BYTES_LIKE):
        raise TypeError(f"{what} must be bytes, bytearray or memoryview, got {type(data).__name__}")
    octets = bytes(data)
    n = curve_params(curve).field_bytes
    if len(octets) != n:
        raise ValueError(f"{curve.value} {what} must be {n} bytes, got {len(octets)}")
    return octets
