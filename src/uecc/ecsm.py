"""Scalar multiplication: constant-structure ladder loop over the datapath model.

The executed instruction stream for a given (curve, dpa) configuration is
fixed: scalar bits only steer the masked conditional swaps, never which waves
issue.  `scalar_mult` holds its registers in a plain list, loaded in one
block (with DPA: lambda drawn from a fresh Trivium, then the init program).
Every wave issues through `_issue`, which executes, records and counts one
program, so the trace, the cycle report and the product count are what ran.
Each wave writes its results `% p`, so every register is canonical at every
cycle, whatever integer the multiplier unit returns, and the loop checks no
register width.  The register layout follows the register map in `program`.
"""

from __future__ import annotations

import collections
import functools

from . import perf
from .bigmul import counters
from .field import PARAMS, CurveId, FieldElement, check_width, curve_params, fe
from .ffau import NUM_REGISTERS, execute_compiled_wave
from .program import (
    FINAL_WAVE, INIT_WAVES, R_RND, X1, X2, X3, Z1, Z2, Z3, ScheduledProgram, build_inversion_program,
    build_ladder_program,
)
from .trivium import TriviumState, gen_lambda

RFC_CLAMPED = "rfc_clamped"
RAW = "raw"

# the randomization and output phases of each curve, checked when built and issued like
# the ladder and inversion
_INIT = {c: ScheduledProgram(INIT_WAVES, "init", c, dpa=True) for c in CurveId}
_FINAL = {c: ScheduledProgram((FINAL_WAVE,), "final", c) for c in CurveId}


class Scalar(collections.namedtuple("Scalar", "bits curve")):
    __slots__ = ()

    def __new__(cls, bits, curve):
        if not 0 <= bits < (1 << curve_params(curve).scalar_bits):
            raise ValueError("scalar out of range")
        return super().__new__(cls, bits, curve)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace


def _clamps(clamp_mode: str) -> bool:
    """Whether `clamp_mode` clamps (RFC_CLAMPED) or not (RAW); any other
    mode raises ValueError rather than decode the input some third way."""
    if clamp_mode not in (RFC_CLAMPED, RAW):
        raise ValueError(f"unknown clamp mode {clamp_mode!r}")
    return clamp_mode == RFC_CLAMPED


class EcsmConfig(collections.namedtuple("EcsmConfig", "dpa_enabled clamp_mode prng_seed")):
    """`prng_seed` is None or the Trivium (key, iv), 10 bytes each."""

    __slots__ = ()

    def __new__(cls, dpa_enabled=False, clamp_mode=RFC_CLAMPED, prng_seed=None):
        _clamps(clamp_mode)
        if dpa_enabled and prng_seed is None:
            raise ValueError("dpa_enabled requires a prng_seed (key, iv)")
        if prng_seed is not None:
            if not (isinstance(prng_seed, tuple) and len(prng_seed) == 2
                    and all(isinstance(part, (bytes, bytearray)) for part in prng_seed)):
                raise ValueError("prng_seed must be a (key, iv) tuple of bytes")
            key, iv = prng_seed
            if len(key) != 10 or len(iv) != 10:
                raise ValueError("prng_seed parts must be 10 bytes each")
        return super().__new__(cls, dpa_enabled, clamp_mode, prng_seed)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace


# x_q: FieldElement; cycles: perf.CycleReport; trace: the events, when asked for
EcsmResult = collections.namedtuple("EcsmResult", "x_q cycles trace", defaults=(None,))


def clamp_scalar(data: bytes, curve: CurveId) -> Scalar:
    """Scalar decoding with the standard clamp (cofactor bits cleared, top bit set)."""
    check_width(data, curve, "scalar")
    buf = bytearray(data)
    if curve is CurveId.CURVE25519:
        buf[0] &= 248
        buf[31] &= 127
        buf[31] |= 64
    else:
        buf[0] &= 252
        buf[55] |= 128
    return Scalar(int.from_bytes(buf, "little"), curve)


def raw_scalar(data: bytes, curve: CurveId) -> Scalar:
    """Scalar bytes taken verbatim as a t-bit little-endian integer."""
    check_width(data, curve, "scalar")
    mask = (1 << PARAMS[curve].scalar_bits) - 1
    return Scalar(int.from_bytes(data, "little") & mask, curve)


def decode_scalar(data: bytes, curve: CurveId, clamp_mode: str) -> Scalar:
    if _clamps(clamp_mode):
        return clamp_scalar(data, curve)
    return raw_scalar(data, curve)


def decode_u(data: bytes, curve: CurveId, clamp_mode: str) -> FieldElement:
    """u-coordinate decoding; the ignored Curve25519 top bit is masked when clamping."""
    check_width(data, curve, "u-coordinate")
    value = int.from_bytes(data, "little")
    if _clamps(clamp_mode) and curve is CurveId.CURVE25519:
        value &= (1 << 255) - 1
    return fe(value, curve)


def _cswap_running_pairs(regs: list[int], swap_bit: int) -> None:
    """Masked swap of (X2,Z2) with (X3,Z3) in place; no data-dependent branches.
    The mask -swap_bit is all zeros or all ones, and the registers are
    non-negative, so the swapped values keep their width."""
    mask = -swap_bit
    d = (regs[X2] ^ regs[X3]) & mask
    regs[X2] ^= d
    regs[X3] ^= d
    d = (regs[Z2] ^ regs[Z3]) & mask
    regs[Z2] ^= d
    regs[Z3] ^= d


def _issue(prog: ScheduledProgram, regs: list[int], events: list | None) -> int:
    """Issue every wave of `prog` on `regs`, one cycle each, charge its
    products (`prog.products`, from `ffau.UNITS`) to `counters`, and append
    the same program's wave events to `events` when tracing.  Returns the
    cycles issued.  The engine issues waves, and charges products, nowhere else."""
    curve = prog.curve
    waves, recorded = _waves_and_events(prog)
    for ops in waves:
        execute_compiled_wave(regs, ops, curve)
    counters.units += prog.products
    if events is not None:
        events.extend(recorded)
    return len(waves)


@functools.cache
def _waves_and_events(prog: ScheduledProgram) -> tuple[tuple, tuple]:
    """The compiled waves of `prog` and their trace events (each with its
    rendered line), built once per program."""
    return prog.compiled(), tuple(perf.wave_event(prog.phase_tag, w) for w in prog.waves)


def scalar_mult(
    k: Scalar, x_p: FieldElement, cfg: EcsmConfig = EcsmConfig(), want_trace: bool = False
) -> EcsmResult:
    """Algorithm: ladder init (randomized by lambda when dpa), t masked-swap
    ladder iterations, Fermat inversion of Z2, final multiplication X2 * Z2.

    Every phase issues its waves through `_issue`, and the `CycleReport` sums
    the cycles it returns, plus the PRNG words and the load/store cycle that
    latches x_Q."""
    if k.curve is not x_p.curve:
        raise ValueError("scalar and point curves differ")
    curve = k.curve
    regs = [0] * (NUM_REGISTERS + 1)
    events = [] if want_trace else None

    # the plain initialization: X1 = X3 = x_P, Z1 = X2 = Z3 = 1, Z2 = 0.  With
    # DPA, Z1 = X2 = Z3 = R_RND = lambda, drawn from a fresh PRNG, and the init
    # program scales X1 and X3 by lambda.
    regs[X1] = regs[X3] = x_p.n
    regs[Z1] = regs[X2] = regs[Z3] = 1
    prng_cycles = overhead_cycles = 0
    if cfg.dpa_enabled:
        prng = TriviumState(*cfg.prng_seed)
        lam = gen_lambda(prng, curve)
        prng_cycles = prng.next64_calls
        if events is not None:
            events.extend([perf.PRNG_EVENT] * prng_cycles)
        regs[Z1] = regs[X2] = regs[Z3] = regs[R_RND] = lam
        overhead_cycles = _issue(_INIT[curve], regs, events)

    ladder = build_ladder_program(curve, cfg.dpa_enabled)
    ladder_cycles = 0
    swap = 0
    kbits = k.bits
    for i in range(PARAMS[curve].scalar_bits - 1, -1, -1):
        bit = (kbits >> i) & 1
        swap ^= bit
        _cswap_running_pairs(regs, swap)
        swap = bit
        ladder_cycles += _issue(ladder, regs, events)
    _cswap_running_pairs(regs, swap)

    inversion_cycles = _issue(build_inversion_program(curve), regs, events)
    overhead_cycles += _issue(_FINAL[curve], regs, events) + 1  # + the load/store cycle
    if events is not None:
        events.append(perf.LOADSTORE_EVENT)

    return EcsmResult(
        x_q=FieldElement(regs[X2], curve),
        cycles=perf.CycleReport(ladder_cycles, inversion_cycles, overhead_cycles, prng_cycles),
        trace=tuple(events) if events is not None else None,
    )


def scalar_mult_bytes(
    scalar: bytes, u: bytes, curve: CurveId, cfg: EcsmConfig = EcsmConfig(),
) -> bytes:
    """Octet-level entry point matching the 32/56-byte little-endian wire format."""
    k = decode_scalar(scalar, curve, cfg.clamp_mode)
    x_p = decode_u(u, curve, cfg.clamp_mode)
    result = scalar_mult(k, x_p, cfg)
    return result.x_q.n.to_bytes(PARAMS[curve].field_bytes, "little")
