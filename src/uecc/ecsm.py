"""Scalar multiplication: constant-structure ladder loop over the datapath model.

The executed instruction stream for a given (curve, dpa) configuration is
fixed: scalar bits only steer the masked conditional swaps, never which waves
issue.  Every wave issues through `_issue`, which executes, records and counts
one program, so the trace, the cycle report and the product count are what
ran.  Layout and per-phase cycle charges follow the register map in `program`
and the accounting in `perf`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import perf
from .bigmul import counters
from .field import PARAMS, CurveId, FieldElement, check_width, fe
from .ffau import REGISTER_BITS, DatapathError, RegisterFile, execute_compiled_wave
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


@dataclass(frozen=True)
class Scalar:
    bits: int
    curve: CurveId

    def __post_init__(self):
        if not 0 <= self.bits < (1 << PARAMS[self.curve].scalar_bits):
            raise ValueError("scalar out of range")


@dataclass(frozen=True)
class EcsmConfig:
    dpa_enabled: bool = False
    clamp_mode: str = RFC_CLAMPED
    prng_seed: tuple[bytes, bytes] | None = None

    def __post_init__(self):
        if self.clamp_mode not in (RFC_CLAMPED, RAW):
            raise ValueError(f"unknown clamp mode {self.clamp_mode!r}")
        if self.dpa_enabled and self.prng_seed is None:
            raise ValueError("dpa_enabled requires a prng_seed (key, iv)")
        if self.prng_seed is not None:
            key, iv = self.prng_seed
            if len(key) != 10 or len(iv) != 10:
                raise ValueError("prng_seed parts must be 10 bytes each")


@dataclass(frozen=True)
class EcsmResult:
    x_q: FieldElement
    cycles: perf.CycleReport
    trace: tuple | None = None


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
    if clamp_mode == RFC_CLAMPED:
        return clamp_scalar(data, curve)
    return raw_scalar(data, curve)


def decode_u(data: bytes, curve: CurveId, clamp_mode: str) -> FieldElement:
    """u-coordinate decoding; the ignored Curve25519 top bit is masked when clamping."""
    check_width(data, curve, "u-coordinate")
    value = int.from_bytes(data, "little")
    if clamp_mode == RFC_CLAMPED and curve is CurveId.CURVE25519:
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


def initialize_state(state: RegisterFile, x_p: FieldElement, lam: int) -> None:
    """Load the ladder registers; with lam == 1 this is the plain initialization.

    The two lambda*x_P products are issued as FFAU waves by the caller, so
    here X1/X3 hold the raw x_P and Z-side registers hold lambda.
    """
    regs = state.regs
    regs[X1] = x_p.n
    regs[Z1] = lam
    regs[X2] = lam
    regs[Z2] = 0
    regs[X3] = x_p.n
    regs[Z3] = lam
    regs[R_RND] = lam


def _issue(prog: ScheduledProgram, regs: list[int], events: list | None) -> int:
    """Issue every wave of `prog` on `regs`, one cycle each, charge its
    multiplier-unit products to `counters`, and append the same program's
    wave events to `events` when tracing.  Returns the cycles issued.  The
    engine issues waves, and charges products, nowhere else."""
    curve = prog.curve
    waves, recorded, products = _waves_and_events(prog)
    for ops in waves:
        execute_compiled_wave(regs, ops, curve)
    counters.units += products
    if events is not None:
        events.extend(recorded)
    return len(waves)


@functools.cache
def _waves_and_events(prog: ScheduledProgram) -> tuple[tuple, tuple, int]:
    """The compiled waves of `prog`, their trace events (each with its
    rendered line) and the program's product count, built once per program."""
    events = tuple(perf.wave_event(prog.phase_tag, w) for w in prog.waves)
    return prog.compiled(), events, perf.products(prog)


def randomize_initial_state(state: RegisterFile, x_p: FieldElement, prng: TriviumState,
                            events: list | None = None) -> int:
    """Draw a nonzero lambda from a fresh `prng` and set X1 = lam*x_P, X2 = lam,
    X3 = lam*x_P, Z1 = lam, Z2 = 0, Z3 = lam by issuing the init program.
    Records the PRNG words and the init waves when tracing; returns the init cycles."""
    lam = gen_lambda(prng, state.curve)
    if events is not None:
        events.extend([perf.PRNG_EVENT] * prng.next64_calls)
    initialize_state(state, x_p, lam.n)
    return _issue(_INIT[state.curve], state.regs, events)


def scalar_mult(
    k: Scalar, x_p: FieldElement, cfg: EcsmConfig = EcsmConfig(), want_trace: bool = False
) -> EcsmResult:
    """Algorithm: ladder init (randomized when dpa), t masked-swap ladder
    iterations, Fermat inversion of Z2, final multiplication X2 * Z2.

    Every phase issues its waves through `_issue`, and the `CycleReport` sums
    the cycles it returns, plus the PRNG words and the load/store cycle that
    latches x_Q.

    Raises `DatapathError` if after any ladder iteration the running pair no
    longer fits the 448-bit registers."""
    if k.curve is not x_p.curve:
        raise ValueError("scalar and point curves differ")
    curve = k.curve
    state = RegisterFile(curve)
    regs = state.regs
    events = [] if want_trace else None

    prng_cycles = overhead_cycles = 0
    if cfg.dpa_enabled:
        prng = TriviumState(*cfg.prng_seed)
        overhead_cycles = randomize_initial_state(state, x_p, prng, events)
        prng_cycles = prng.next64_calls
    else:
        initialize_state(state, x_p, 1)
        regs[R_RND] = 0

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
        if (regs[X2] | regs[Z2] | regs[X3] | regs[Z3]) >> REGISTER_BITS:
            # a reduction fault: stop before each product doubles the excess
            raise DatapathError(f"running pair exceeds {REGISTER_BITS} bits at scalar bit {i}")
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
