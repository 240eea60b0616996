"""Independent reference paths used by self-tests.

Everything here deliberately avoids the accelerator-model code, reading only
the `CurveId` it is keyed by: the curve constants are RFC 7748's own, arithmetic
is plain Python big-integer `% p`, the ladder is the branching textbook loop of
the scalar-multiplication algorithm, and Trivium is clocked one bit at a
time straight from the cipher definition.  Agreement between these and the
datapath model is the core correctness argument.
"""

from __future__ import annotations

from .field import CurveId

# RFC 7748 section 4: the prime p, a24 = (A - 2) / 4 and the scalar bits of each curve
P = {CurveId.CURVE25519: 2**255 - 19, CurveId.CURVE448: 2**448 - 2**224 - 1}
A24 = {CurveId.CURVE25519: (486662 - 2) // 4, CurveId.CURVE448: (156326 - 2) // 4}
BITS = {CurveId.CURVE25519: 255, CurveId.CURVE448: 448}


def ladder_step(curve: CurveId, x1, z1, x2, z2, x3, z3):
    """One general differential add-and-double; returns (x2', z2', x3', z3')."""
    p, a24 = P[curve], A24[curve]
    a = (x2 + z2) % p
    b = (x2 - z2) % p
    c = (x3 + z3) % p
    d = (x3 - z3) % p
    aa = a * a % p
    bb = b * b % p
    e = (aa - bb) % p
    cb = c * b % p
    da = d * a % p
    new_x2 = aa * bb % p
    new_z2 = e * (aa + a24 * e) % p
    new_x3 = z1 * (da + cb) ** 2 % p
    new_z3 = x1 * (da - cb) ** 2 % p
    return new_x2, new_z2, new_x3, new_z3


def ladder(curve: CurveId, k: int, t: int, x1, z1, x2, z2, x3, z3):
    """The branching ladder over bits t - 1 down to 0 of `k`, from the
    difference (x1 : z1) and the running pairs (x2 : z2), (x3 : z3): a step
    on (R1, R0) for a one-bit, on (R0, R1) for a zero-bit.  Returns
    (x2, z2, x3, z3)."""
    for i in range(t - 1, -1, -1):
        if (k >> i) & 1:
            x3, z3, x2, z2 = ladder_step(curve, x1, z1, x3, z3, x2, z2)
        else:
            x2, z2, x3, z3 = ladder_step(curve, x1, z1, x2, z2, x3, z3)
    return x2, z2, x3, z3


def scalar_mult_ref(curve: CurveId, k: int, x_p: int) -> int:
    """Branching double-and-add ladder over projective x-coordinates."""
    p = P[curve]
    x2, z2, _, _ = ladder(curve, k, BITS[curve], x_p % p, 1, 1, 0, x_p % p, 1)
    if z2 == 0:
        return 0
    return x2 * pow(z2, p - 2, p) % p


def trivium_bits(key: bytes, iv: bytes, nbits: int):
    """Bit-serial Trivium keystream (key/IV little-endian ints, MSB into s1/s94)."""
    key_int = int.from_bytes(key, "little")
    iv_int = int.from_bytes(iv, "little")
    s = [0] * 289  # s[1..288]
    for k in range(1, 81):
        s[k] = (key_int >> (80 - k)) & 1
        s[93 + k] = (iv_int >> (80 - k)) & 1
    s[286] = s[287] = s[288] = 1
    for step in range(4 * 288 + nbits):
        t1 = s[66] ^ s[93]
        t2 = s[162] ^ s[177]
        t3 = s[243] ^ s[288]
        if step >= 4 * 288:
            yield t1 ^ t2 ^ t3
        t1 ^= (s[91] & s[92]) ^ s[171]
        t2 ^= (s[175] & s[176]) ^ s[264]
        t3 ^= (s[286] & s[287]) ^ s[69]
        s[2:94] = s[1:93]
        s[95:178] = s[94:177]
        s[179:289] = s[178:288]
        s[1] = t3
        s[94] = t1
        s[178] = t2


def trivium_words(key: bytes, iv: bytes, nwords: int) -> list[int]:
    """Bit-serial keystream packed into 64-bit words, earliest bit in the LSB."""
    words = []
    word = 0
    for j, bit in enumerate(trivium_bits(key, iv, 64 * nwords)):
        word |= bit << (j % 64)
        if j % 64 == 63:
            words.append(word)
            word = 0
    return words
