"""Scalar multiplication: constant-structure ladder loop over the datapath model,
its records (`Scalar`, `EcsmConfig`, `CycleReport`, `EcsmResult`) and its
RFC 7748 wire format (`decode_scalar`, `decode_u`, read off `field.PARAMS`).

The executed instruction stream for a given (curve, dpa) configuration is
fixed: scalar bits only steer the masked conditional swaps, never which waves
issue.  `scalar_mult` holds its registers in a plain list, loaded in one
block by `ffau.registers` (with DPA: lambda drawn from a fresh Trivium, then
the init program).
Every wave issues through `_issue`, which executes, counts and records one
program in the issue log, so the trace, the `CycleReport` and the product
count are what ran.  An `EcsmResult` holds what ran, its issue log and its
PRNG word count, and derives the rest from them: `cycles` sums the log by
phase (`_cycles`), and `trace` is text built from it on first read, a
cached function of the log (`_trace`), so every scalar of a configuration
shares one string.
Each program issues once per ECSM: the ladder's call carries the scalar, and
`_issue` runs its bit loop and masked swaps itself.
Each wave writes its results `% p`, so every register is canonical at every
cycle, whatever integer the multiplier unit returns, and the loop checks no
register width.  The register layout follows the register map in `program`.
"""

from __future__ import annotations

import collections
import functools

from .bigmul import counters
from .field import BYTES_LIKE, PARAMS, CurveId, FieldElement, check_width, curve_params, fe
from .ffau import execute_compiled_wave, registers
from .program import (
    FINAL_WAVE, INIT_WAVES, PHASES, R_RND, X2, X3, Z1, Z2, Z3, ScheduledProgram,
    build_inversion_program, build_ladder_program,
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
                    and all(isinstance(part, BYTES_LIKE) for part in prng_seed)):
                raise ValueError("prng_seed must be a (key, iv) tuple of bytes")
            prng_seed = tuple(map(bytes, prng_seed))  # a caller's buffer is copied, not kept
            if any(len(part) != 10 for part in prng_seed):
                raise ValueError("prng_seed parts must be 10 bytes each")
        return super().__new__(cls, dpa_enabled, clamp_mode, prng_seed)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace


CLOCK_MHZ = 100


def _check_count(name: str, value) -> None:
    """TypeError unless `value` is an int (a bool or a float is not a count
    of cycles), ValueError if it is negative, each naming the field `name`."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


class CycleReport(collections.namedtuple(
        "CycleReport", "ladder_cycles inversion_cycles overhead_cycles prng_cycles")):
    """An ECSM's cycles by phase, as `_cycles` derives them from its issue
    log; `selftest.DESIGN` states each configuration's published
    decomposition as a literal report."""

    __slots__ = ()

    def __new__(cls, ladder_cycles, inversion_cycles, overhead_cycles, prng_cycles):
        self = super().__new__(cls, ladder_cycles, inversion_cycles, overhead_cycles, prng_cycles)
        for name, cycles in zip(self._fields, self):
            _check_count(name, cycles)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    @property
    def total(self) -> int:
        return sum(self)

    @property
    def latency_us(self) -> float:
        """Modeled latency at the design's 100 MHz clock."""
        return self.total / CLOCK_MHZ

    def as_kv(self) -> str:
        return "\n".join(
            [
                f"ladder_cycles={self.ladder_cycles}",
                f"inversion_cycles={self.inversion_cycles}",
                f"overhead_cycles={self.overhead_cycles}",
                f"prng_cycles={self.prng_cycles}",
                f"total_cycles={self.total}",
                f"modeled_latency_us={self.latency_us:.2f}",
            ]
        )

    def as_text(self) -> str:
        return (
            f"cycles: ladder={self.ladder_cycles} inversion={self.inversion_cycles} "
            f"overhead={self.overhead_cycles} prng={self.prng_cycles} "
            f"total={self.total} ({self.latency_us:.2f} us @ {CLOCK_MHZ} MHz)"
        )


class EcsmResult(collections.namedtuple("EcsmResult", "x_q prng_cycles issued")):
    """What an ECSM ran: `x_q` is a `FieldElement`, `prng_cycles` the PRNG
    words it drew, and `issued` its issue log, the `(program, steps)` it
    issued in order, as a tuple.  `cycles` and `trace` derive from the last
    two."""

    __slots__ = ()

    def __new__(cls, x_q, prng_cycles, issued):
        _check_arg("x_q", x_q, FieldElement)
        _check_count("prng_cycles", prng_cycles)
        if not isinstance(issued, tuple):  # `_trace` caches by the log, so it must hash
            raise TypeError(f"issued must be a tuple, got {type(issued).__name__}")
        return super().__new__(cls, x_q, prng_cycles, issued)

    _make = classmethod(lambda cls, fields: cls(*fields))  # checked, and so is _replace

    @property
    def cycles(self):
        """The `CycleReport` (`_cycles`): the cycles by phase of what issued."""
        return _cycles(self.issued, self.prng_cycles)

    @property
    def trace(self) -> str:
        """The trace text (`_trace`): one line per cycle, shared by every
        scalar of the configuration."""
        return _trace(self.issued, self.prng_cycles)


def decode_scalar(data: bytes, curve: CurveId, clamp_mode: str) -> Scalar:
    """RFC 7748's scalar decoding: the low `scalar_bits` bits of the
    little-endian octets, and when clamping the cofactor's bits cleared and
    the top bit set."""
    data = check_width(data, curve, "scalar")
    params = PARAMS[curve]
    bits = int.from_bytes(data, "little") & ((1 << params.scalar_bits) - 1)
    if _clamps(clamp_mode):
        bits = bits & -params.cofactor | 1 << (params.scalar_bits - 1)
    return Scalar(bits, curve)


def decode_u(data: bytes, curve: CurveId, clamp_mode: str) -> FieldElement:
    """RFC 7748's u-coordinate decoding: when clamping, the low `scalar_bits`
    bits (the ignored Curve25519 top bit masked), reduced mod p."""
    data = check_width(data, curve, "u-coordinate")
    value = int.from_bytes(data, "little")
    if _clamps(clamp_mode):
        value &= (1 << PARAMS[curve].scalar_bits) - 1
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


def _issue(prog: ScheduledProgram, regs: list[int], issued: list, k: int = 0,
           steps: int = 1) -> None:
    """Issue `prog` on `regs` `steps` times, every wave one cycle, charge
    its products (`prog.products`, from `ffau.UNITS`) to `counters` once per
    step, and record `(prog, steps)` in the issue log `issued`, the one
    record of the cycles issued (`_cycles`).  The engine issues waves, and
    charges products, nowhere else, and the checks issue whole programs
    through it too.

    The ladder passes the scalar `k` and its t bits as `steps`: before step
    i (from t - 1 down to 0) the running pairs swap masked by bit i of
    k ^ (k >> 1), the previous bit xor this one, and after the last step by
    k & 1.  A program issued once passes no scalar, and k = 0 masks every
    swap off."""
    curve = prog.curve
    waves = prog.compiled()
    swaps = k ^ (k >> 1)
    for i in range(steps - 1, -1, -1):
        _cswap_running_pairs(regs, (swaps >> i) & 1)
        for ops in waves:
            execute_compiled_wave(regs, ops, curve)
    _cswap_running_pairs(regs, k & 1)
    counters.units += prog.products * steps
    issued.append((prog, steps))


def _cycles(issued, prng_cycles: int) -> CycleReport:
    """The `CycleReport` of an ECSM that drew `prng_cycles` PRNG words and
    then issued the issue log `issued`, its `(program, steps)` in order:
    each program's waves times its steps, summed by phase, with the init
    and final phases and the load/store cycle that latches x_Q as
    overhead."""
    phase = dict.fromkeys(PHASES, 0)
    for prog, steps in issued:
        phase[prog.phase_tag] += len(prog.waves) * steps
    return CycleReport(phase["ladder"], phase["inversion"], phase["init"] + phase["final"] + 1,
                       prng_cycles)


@functools.cache
def _trace(issued: tuple, prng_cycles: int) -> str:
    """The trace text of an ECSM that drew `prng_cycles` PRNG words and then
    issued the issue log `issued`, its `(program, steps)` in order: one line
    per cycle, `cycle N` and then a PRNG word, a wave with its program's
    phase, or the load/store cycle.  Each program's wave lines are rendered
    once and repeated `steps` times.  Built once per issue log and PRNG word
    count."""
    lines = ["prng       next64\n"] * prng_cycles
    for prog, steps in issued:
        lines += [f"{prog.phase_tag:9s}  {wave.text}\n" for wave in prog.waves] * steps
    lines.append("overhead   load/store\n")
    return "".join([f"cycle {cycle:5d}  {line}" for cycle, line in enumerate(lines)])


def _check_arg(name: str, value, kind: type) -> None:
    """TypeError naming the argument `name` unless `value` is a `kind`.  The
    message gives the type, not the value, which may be a secret scalar."""
    if not isinstance(value, kind):
        raise TypeError(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")


def scalar_mult(k: Scalar, x_p: FieldElement, cfg: EcsmConfig = EcsmConfig()) -> EcsmResult:
    """Algorithm: ladder init (randomized by lambda when dpa), t masked-swap
    ladder iterations, Fermat inversion of Z2, final multiplication X2 * Z2.

    Every phase issues its program through one `_issue` call, the ladder's
    with the scalar.  The result keeps the PRNG words drawn and the issue
    log, from which `EcsmResult.cycles` and `EcsmResult.trace` derive."""
    _check_arg("k", k, Scalar)
    _check_arg("x_p", x_p, FieldElement)
    _check_arg("cfg", cfg, EcsmConfig)
    if k.curve is not x_p.curve:
        raise ValueError("scalar and point curves differ")
    curve = k.curve
    issued = []

    # the plain initialization: X1 = X3 = x_P, Z1 = X2 = Z3 = 1, Z2 = 0.  With
    # DPA, Z1 = X2 = Z3 = R_RND = lambda, drawn from a fresh PRNG, and the init
    # program scales X1 and X3 by lambda.
    regs = registers(x_p.n, 1, 1, 0, x_p.n, 1)
    prng_cycles = 0
    if cfg.dpa_enabled:
        prng = TriviumState(*cfg.prng_seed)
        lam = gen_lambda(prng, curve)
        prng_cycles = prng.next64_calls
        regs[Z1] = regs[X2] = regs[Z3] = regs[R_RND] = lam
        _issue(_INIT[curve], regs, issued)

    _issue(build_ladder_program(curve, cfg.dpa_enabled), regs, issued, k.bits,
           PARAMS[curve].scalar_bits)
    _issue(build_inversion_program(curve), regs, issued)
    _issue(_FINAL[curve], regs, issued)

    return EcsmResult(x_q=FieldElement(regs[X2], curve), prng_cycles=prng_cycles,
                      issued=tuple(issued))


def scalar_mult_bytes(
    scalar: bytes, u: bytes, curve: CurveId, cfg: EcsmConfig = EcsmConfig(),
) -> bytes:
    """Octet-level entry point matching the 32/56-byte little-endian wire format."""
    _check_arg("cfg", cfg, EcsmConfig)
    k = decode_scalar(scalar, curve, cfg.clamp_mode)
    x_p = decode_u(u, curve, cfg.clamp_mode)
    result = scalar_mult(k, x_p, cfg)
    return result.x_q.n.to_bytes(PARAMS[curve].field_bytes, "little")
