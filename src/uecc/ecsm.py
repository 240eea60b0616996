"""Scalar multiplication: constant-structure ladder loop over the datapath model.

The executed instruction stream for a given (curve, dpa) configuration is
fixed: scalar bits only steer the masked conditional swaps, never which waves
issue.  `scalar_mult` holds its registers in a plain list, loaded in one
block by `ffau.registers` (with DPA: lambda drawn from a fresh Trivium, then
the init program).
Every wave issues through `_issue`, which executes, records and counts one
program, so the trace, the cycle report and the product count are what ran.
Each program issues once per ECSM: the ladder's call carries the scalar, and
`_issue` runs its bit loop and masked swaps itself.
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
from .ffau import execute_compiled_wave, registers
from .program import (
    FINAL_WAVE, INIT_WAVES, R_RND, X2, X3, Z1, Z2, Z3, ScheduledProgram, build_inversion_program,
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
        if not isinstance(bits, int):
            raise TypeError(f"bits must be an int, got {bits!r}")
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
    """`dpa_enabled` is a bool; `prng_seed` is None or the Trivium (key, iv),
    10 bytes each, kept as a tuple of `bytes`."""

    __slots__ = ()

    def __new__(cls, dpa_enabled=False, clamp_mode=RFC_CLAMPED, prng_seed=None):
        if not isinstance(dpa_enabled, bool):  # a truthy "no" must not turn DPA on
            raise TypeError(f"dpa_enabled must be a bool, got {dpa_enabled!r}")
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
            prng_seed = (bytes(key), bytes(iv))  # a caller's bytearray is copied, not kept
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


def _issue(prog: ScheduledProgram, regs: list[int], events: list | None, k: int = 0,
           steps: int = 1) -> int:
    """Issue `prog` on `regs` `steps` times, every wave one cycle, charge
    its products (`prog.products`, from `ffau.UNITS`) to `counters` once per
    step, and extend `events` with the program's wave events once per step
    when tracing.  Returns the cycles issued.  The engine issues waves, and
    charges products, nowhere else, and the checks issue whole programs
    through it too.

    The ladder passes the scalar `k` and its t bits as `steps`: before step
    i (from t - 1 down to 0) the running pairs swap masked by bit i of
    k ^ (k >> 1), the previous bit xor this one, and after the last step by
    k & 1.  A program issued once passes no scalar, and k = 0 masks every
    swap off."""
    curve = prog.curve
    waves, recorded = _waves_and_events(prog)
    swaps = k ^ (k >> 1)
    for i in range(steps - 1, -1, -1):
        _cswap_running_pairs(regs, (swaps >> i) & 1)
        for ops in waves:
            execute_compiled_wave(regs, ops, curve)
    _cswap_running_pairs(regs, k & 1)
    counters.units += prog.products * steps
    if events is not None:
        events.extend(recorded * steps)
    return len(waves) * steps


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

    Every phase issues its program through one `_issue` call, the ladder's
    with the scalar, and the `CycleReport` sums the cycles they return, plus
    the PRNG words and the load/store cycle that latches x_Q."""
    if k.curve is not x_p.curve:
        raise ValueError("scalar and point curves differ")
    curve = k.curve
    events = [] if want_trace else None

    # the plain initialization: X1 = X3 = x_P, Z1 = X2 = Z3 = 1, Z2 = 0.  With
    # DPA, Z1 = X2 = Z3 = R_RND = lambda, drawn from a fresh PRNG, and the init
    # program scales X1 and X3 by lambda.
    regs = registers(x_p.n, 1, 1, 0, x_p.n, 1)
    prng_cycles = overhead_cycles = 0
    if cfg.dpa_enabled:
        prng = TriviumState(*cfg.prng_seed)
        lam = gen_lambda(prng, curve)
        prng_cycles = prng.next64_calls
        if events is not None:
            events.extend([perf.PRNG_EVENT] * prng_cycles)
        regs[Z1] = regs[X2] = regs[Z3] = regs[R_RND] = lam
        overhead_cycles = _issue(_INIT[curve], regs, events)

    ladder_cycles = _issue(build_ladder_program(curve, cfg.dpa_enabled), regs, events, k.bits,
                           PARAMS[curve].scalar_bits)
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
