"""Trivium stream cipher PRNG, stepped 64 keystream bits per clock cycle.

The 288-bit state is held as the three shift registers A (s1..s93),
B (s94..s177) and C (s178..s288), each packed into an int with bit 0 at the
register's output end (s93/s177/s288).  Because every tap sits more than 64
positions away from a register's input, 64 steps of the bit-serial recurrence
collapse into whole-register shift/XOR/AND expressions, mirroring how the
hardware unrolls the cipher 64x.

Bit conventions (fixed here, pinned by the keystream tests): key and IV bytes
are read as little-endian 80-bit integers whose most significant bit feeds
register position 1 (so K73..K80 come from byte 0, MSB first); the keystream
bit produced at step j lands in bit j of the 64-bit output word, earliest bit
in the LSB.  Under these conventions the all-zero key/IV keystream begins
fb e0 bf 26 ... and the key 80 00 .. 00 keystream begins 38 eb 86 ff ...,
matching the published reference vectors.
"""

from __future__ import annotations

from .field import PARAMS, CurveId

_M64 = (1 << 64) - 1
_MA = (1 << 93) - 1
_MB = (1 << 84) - 1
_MC = (1 << 111) - 1

WARMUP_STEPS = 4 * 288
# The documented default (key, iv): the CLI's, unless given by flag or
# environment, and the seed of `uecc selftest`'s DPA runs.
DEFAULT_SEED = (bytes(range(10)), bytes(range(10, 20)))
# A draw reduces to 0 with probability at most about 2^-255, so this many in a row
# means the generator is stuck, not unlucky.
MAX_LAMBDA_DRAWS = 16


class TriviumState:
    """Keyed cipher context; `next64` advances one simulated clock cycle."""

    __slots__ = ("a", "b", "c", "next64_calls")

    def __init__(self, key: bytes, iv: bytes):
        if len(key) != 10 or len(iv) != 10:
            raise ValueError("Trivium key and IV must be 10 bytes (80 bits) each")
        kbits = int.from_bytes(key, "little")
        ivbits = int.from_bytes(iv, "little")
        # A bit i holds s(93-i); key bit K_k = bit (80-k) of kbits lands at s_k,
        # bit 93-k of A, so the whole key is kbits << 13.  Likewise IV bit IV_k
        # lands at s(93+k), bit 84-k of B.
        self.a = kbits << 13
        self.b = ivbits << 4
        self.c = 7  # s286..s288 = 1
        self.next64_calls = 0
        for _ in range(WARMUP_STEPS // 64):
            self._step64()

    def _step64(self) -> int:
        a = self.a
        b = self.b
        c = self.c
        t1 = (a >> 27) ^ a
        t2 = (b >> 15) ^ b
        t3 = (c >> 45) ^ c
        z = (t1 ^ t2 ^ t3) & _M64
        n1 = (t1 ^ ((a >> 2) & (a >> 1)) ^ (b >> 6)) & _M64
        n2 = (t2 ^ ((b >> 2) & (b >> 1)) ^ (c >> 24)) & _M64
        n3 = (t3 ^ ((c >> 2) & (c >> 1)) ^ (a >> 24)) & _M64
        self.a = ((a >> 64) | (n3 << 29)) & _MA
        self.b = ((b >> 64) | (n1 << 20)) & _MB
        self.c = ((c >> 64) | (n2 << 47)) & _MC
        return z


def next64(state: TriviumState) -> int:
    """Next 64 keystream bits (earliest bit in the LSB); one cycle."""
    state.next64_calls += 1
    return state._step64()


def keystream_bytes(state: TriviumState, nbytes: int) -> bytes:
    """Packed keystream (LSB-first within each byte), for vector checks, in
    whole 64-bit words: ValueError, before any word is drawn, unless `nbytes`
    is a multiple of 8, so consecutive calls skip no keystream."""
    if nbytes % 8:
        raise ValueError(f"keystream is drawn in 8-byte words, got {nbytes} bytes")
    return b"".join(next64(state).to_bytes(8, "little") for _ in range(nbytes // 8))


def lambda_words(curve: CurveId) -> int:
    """64-bit PRNG words (one cycle each) that one lambda draw takes."""
    return -(-PARAMS[curve].scalar_bits // 64)


def gen_lambda(state: TriviumState, curve: CurveId) -> int:
    """Nonzero randomization scalar lambda < p: ceil(bits/64) draws, truncate,
    reduce.

    A draw that reduces to 0 is redrawn; after MAX_LAMBDA_DRAWS such draws in
    a row the PRNG is taken to be stuck and RuntimeError is raised.
    """
    params = PARAMS[curve]
    words = lambda_words(curve)
    mask = (1 << params.scalar_bits) - 1
    for _ in range(MAX_LAMBDA_DRAWS):
        value = 0
        for i in range(words):
            value |= next64(state) << (64 * i)
        value = (value & mask) % params.p
        if value:
            return value
    raise RuntimeError(
        f"PRNG produced {MAX_LAMBDA_DRAWS} zero lambda draws in a row; it is stuck"
    )
