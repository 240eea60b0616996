"""Wide unsigned multiplication: the 256-bit multiplier unit, its 2-level
Karatsuba structure, and a schoolbook oracle.

The datapath's 256x256 multiplier is a 256-bit unit built from three 128-bit
units, each built from three 64x64 products, so one 256-bit product costs
exactly 9 base multiplications.  Only the output value and that cost are
contractual.  The engine's unit, `kar256_int`, is therefore the builtin
integer product, and the cost is charged per issued program rather than per
call: `ecsm._issue` adds the program's product count (`perf.products`) to
`counters`, each product standing for one Karatsuba product (9 base, 3 mid,
1 top).  `kar256_structural_int` spells the recursion out (carry-save
compressors and adder trees as plain additions); it is the reference that the
tests and `uecc selftest` check against schoolbook.
"""

from __future__ import annotations

# The engine's 256-bit multiplier unit: the same value as
# `kar256_structural_int`, with no Python frame per product.
from operator import mul as kar256_int  # noqa: F401

LIMB_BITS = 64
LIMB_MASK = (1 << 64) - 1

_M128 = (1 << 128) - 1


class MulCounters:
    """Running totals of multiplier-unit invocations (see `counters`).

    `units` counts the engine's 256-bit products, charged by `ecsm._issue`
    once per issued program from the count the program's ops imply
    (`perf.products`); each stands for one 2-level Karatsuba product, so its
    9 base, 3 mid and 1 top multiplications are derived from that count when
    read.  The structural reference tallies each level in `ref64`, `ref128`
    and `ref256` as it recurses.  `mul64`, `mul128`, `mul256` and
    `snapshot()` report the sum of both.
    """

    __slots__ = ("units", "ref64", "ref128", "ref256")

    def __init__(self):
        self.reset()

    def reset(self):
        self.units = 0
        self.ref64 = 0
        self.ref128 = 0
        self.ref256 = 0

    @property
    def mul64(self) -> int:
        return 9 * self.units + self.ref64

    @property
    def mul128(self) -> int:
        return 3 * self.units + self.ref128

    @property
    def mul256(self) -> int:
        return self.units + self.ref256

    def snapshot(self):
        return (self.mul64, self.mul128, self.mul256)


counters = MulCounters()


def kar128_int(x: int, y: int) -> int:
    """One Karatsuba level: 128x128 via three 64x64 base products."""
    counters.ref64 += 3
    x1 = x >> 64
    x0 = x & LIMB_MASK
    y1 = y >> 64
    y0 = y & LIMB_MASK
    p00 = x0 * y0
    p11 = x1 * y1
    sx = x0 + x1
    sy = y0 + y1
    # 65-bit middle operands: peel the carry bit, fold it back as shifted adds
    cx = sx >> 64
    cy = sy >> 64
    sx &= LIMB_MASK
    sy &= LIMB_MASK
    mid = sx * sy
    if cx:
        mid += sy << 64
    if cy:
        mid += sx << 64
    if cx and cy:
        mid += 1 << 128
    return (p11 << 128) + ((mid - p00 - p11) << 64) + p00


def kar256_structural_int(x: int, y: int) -> int:
    """Second Karatsuba level: 256x256 via three 128-bit units (9 base products)."""
    counters.ref128 += 3
    counters.ref256 += 1
    x1 = x >> 128
    x0 = x & _M128
    y1 = y >> 128
    y0 = y & _M128
    z0 = kar128_int(x0, y0)
    z2 = kar128_int(x1, y1)
    sx = x0 + x1
    sy = y0 + y1
    cx = sx >> 128
    cy = sy >> 128
    sx &= _M128
    sy &= _M128
    mid = kar128_int(sx, sy)
    if cx:
        mid += sy << 128
    if cy:
        mid += sx << 128
    if cx and cy:
        mid += 1 << 256
    return (z2 << 256) + ((mid - z0 - z2) << 128) + z0


def mul_schoolbook(x: int, y: int) -> int:
    """Independent limb-by-limb oracle; shares no code with the Karatsuba path."""
    xl = [(x >> s) & LIMB_MASK for s in range(0, x.bit_length(), LIMB_BITS)]
    yl = [(y >> s) & LIMB_MASK for s in range(0, y.bit_length(), LIMB_BITS)]
    out = [0] * (len(xl) + len(yl))
    for i, xi in enumerate(xl):
        if xi == 0:
            continue
        carry = 0
        for j, yj in enumerate(yl):
            t = out[i + j] + xi * yj + carry
            out[i + j] = t & LIMB_MASK
            carry = t >> LIMB_BITS
        k = i + len(yl)
        while carry:
            t = out[k] + carry
            out[k] = t & LIMB_MASK
            carry = t >> LIMB_BITS
            k += 1
    return sum(limb << (LIMB_BITS * i) for i, limb in enumerate(out))
