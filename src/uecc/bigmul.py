"""Wide unsigned multiplication: the 256-bit multiplier unit, its 2-level
Karatsuba structure, and a schoolbook oracle.

The datapath's 256x256 multiplier is a 256-bit unit built from three 128-bit
units, each built from three 64x64 products, so one 256-bit product costs
exactly 9 base multiplications.  Only the output value and that cost are
contractual.  The engine's unit, `kar256_int`, is therefore the builtin
integer product, and the cost is charged per issued program rather than per
call: `ecsm._issue` adds `ScheduledProgram.products` (from `ffau.UNITS`) to
`counters`, each product standing for one Karatsuba product (9 base, 3 mid,
1 top).  `kar256_structural_int` spells the recursion out as two levels of
`karatsuba_level` (carry-save compressors and adder trees as plain additions);
it is the reference that the tests and `uecc selftest` check against
schoolbook, and it writes no global.
"""

from __future__ import annotations

from operator import mul

# The engine's 256-bit multiplier unit: the same value as
# `kar256_structural_int`, with no Python frame per product.
kar256_int = mul

LIMB_BITS = 64
LIMB_MASK = (1 << 64) - 1


class MulCounters:
    """Running total of the engine's multiplier-unit products (see `counters`).

    `units` counts the engine's 256-bit products, charged by `ecsm._issue`
    once per issued program from the count the program's ops imply
    (`ScheduledProgram.products`); each stands for one 2-level Karatsuba
    product, so its 9 base, 3 mid and 1 top multiplications are derived from
    that count when read.
    """

    __slots__ = ("units",)

    def __init__(self):
        self.units = 0

    @property
    def mul64(self) -> int:
        return 9 * self.units

    @property
    def mul128(self) -> int:
        return 3 * self.units

    @property
    def mul256(self) -> int:
        return self.units

    def snapshot(self):
        return (self.mul64, self.mul128, self.mul256)


counters = MulCounters()


def karatsuba_level(x: int, y: int, b: int, sub) -> int:
    """One Karatsuba level: x*y for x, y < 2^(2b) via three b-bit products by
    `sub`.  The (b+1)-bit middle operands have their carry bits peeled, and
    the carries folded back as shifted adds."""
    mask = (1 << b) - 1
    x1 = x >> b
    x0 = x & mask
    y1 = y >> b
    y0 = y & mask
    z0 = sub(x0, y0)
    z2 = sub(x1, y1)
    sx = x0 + x1
    sy = y0 + y1
    cx = sx >> b
    cy = sy >> b
    sx &= mask
    sy &= mask
    mid = sub(sx, sy)
    if cx:
        mid += sy << b
    if cy:
        mid += sx << b
    if cx and cy:
        mid += 1 << (2 * b)
    return (z2 << (2 * b)) + ((mid - z0 - z2) << b) + z0


def kar128_int(x: int, y: int) -> int:
    """128x128 via three 64x64 base products."""
    return karatsuba_level(x, y, 64, mul)


def kar256_structural_int(x: int, y: int) -> int:
    """256x256 via three 128-bit units (9 base products)."""
    return karatsuba_level(x, y, 128, kar128_int)


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
