"""Cycle accounting: one cycle per issued wave, one per PRNG word, fixed overheads.

Totals reproduce the design's nominal cycle budget exactly:

    Curve25519: 255*3 + 265 + 2             = 1032   (DPA off)
                255*3 + 265 + 2 + (4 + 2)   = 1038   (DPA on)
    Curve448:   448*10 + 462 + 2            = 4944
                448*11 + 462 + 2 + (7 + 2)  = 5401

The 2-cycle base overhead is the final multiplication x_Q = X2 * Z2 plus one
load/store cycle; the DPA overhead is the lambda generation (4 or 7 PRNG
words) plus the two randomization multiplications.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import PARAMS, CurveId

CLOCK_MHZ = 100


@dataclass(frozen=True)
class CycleReport:
    ladder_cycles: int
    inversion_cycles: int
    overhead_cycles: int
    prng_cycles: int

    def __post_init__(self):
        for name in ("ladder_cycles", "inversion_cycles", "overhead_cycles", "prng_cycles"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @property
    def total(self) -> int:
        return (
            self.ladder_cycles
            + self.inversion_cycles
            + self.overhead_cycles
            + self.prng_cycles
        )

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


@dataclass(frozen=True)
class CycleModel:
    """Per-curve wave budgets; defaults reproduce the nominal design totals."""

    ladder_waves_25519: int = 3
    ladder_waves_448: int = 10
    ladder_waves_448_dpa: int = 11
    base_overhead: int = 2
    dpa_extra_overhead: int = 2  # the two randomization multiplications

    def ladder_waves(self, curve: CurveId, dpa: bool) -> int:
        if curve is CurveId.CURVE25519:
            return self.ladder_waves_25519
        return self.ladder_waves_448_dpa if dpa else self.ladder_waves_448

    def prng_words(self, curve: CurveId) -> int:
        return -(-PARAMS[curve].scalar_bits // 64)

    def expected(self, curve: CurveId, dpa: bool) -> CycleReport:
        params = PARAMS[curve]
        return CycleReport(
            ladder_cycles=params.ladder_iterations * self.ladder_waves(curve, dpa),
            inversion_cycles=params.inversion_mult_count,
            overhead_cycles=self.base_overhead + (self.dpa_extra_overhead if dpa else 0),
            prng_cycles=self.prng_words(curve) if dpa else 0,
        )


DEFAULT_MODEL = CycleModel()

# event kinds in an execution trace
EV_WAVE = "wave"
EV_PRNG = "prng_next64"
EV_LOADSTORE = "load_store"

_OVERHEAD_PHASES = ("init", "final")


def tally(trace) -> CycleReport:
    """Fold an executed event stream into a CycleReport.

    Events are tuples: ("wave", phase_tag, wave) for issued waves,
    ("prng_next64",) per PRNG word, and ("load_store",) for the output
    latching cycle.  One cycle is charged per event.
    """
    ladder = inversion = overhead = prng = 0
    for ev in trace:
        kind = ev[0]
        if kind == EV_WAVE:
            phase = ev[1]
            if phase == "ladder":
                ladder += 1
            elif phase == "inversion":
                inversion += 1
            elif phase in _OVERHEAD_PHASES:
                overhead += 1
            else:
                raise ValueError(f"unknown wave phase {phase!r}")
        elif kind == EV_PRNG:
            prng += 1
        elif kind == EV_LOADSTORE:
            overhead += 1
        else:
            raise ValueError(f"unknown trace event {kind!r}")
    return CycleReport(ladder, inversion, overhead, prng)

