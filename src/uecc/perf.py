"""Cycle accounting: one cycle per issued wave, one per PRNG word, fixed overheads.

`expected` reads the budget off what the engine runs: the ladder program's
waves once per scalar bit, the inversion program's waves, the randomization
waves (DPA only), the final multiplication plus the load/store cycle that
latches x_Q, and the PRNG words one lambda draw takes.  The design totals:

    Curve25519: 255*3 + 265 + 2             = 1032   (DPA off)
                255*3 + 265 + 2 + (4 + 2)   = 1038   (DPA on)
    Curve448:   448*10 + 462 + 2            = 4944
                448*11 + 462 + 2 + (7 + 2)  = 5401

The tests pin these totals as literals, so the programs are checked against
the design rather than against themselves.

A program's 256-bit multiplier-unit products are `ScheduledProgram.products`,
counted from `ffau.UNITS` when the program is checked; `ecsm._issue` charges
them to `bigmul.counters` once per issue.

A traced run records one `Event` per cycle, of three kinds: a wave
(`wave_event`: `EV_WAVE`, its program's phase tag and the `ffau.Wave`), a
PRNG word (`PRNG_EVENT`) and the load/store cycle that latches x_Q
(`LOADSTORE_EVENT`).  Each event is a tuple, so `tally` and trace
comparisons read it as one, and carries its trace line in `Event.line`,
rendered once when the event is built: `ecsm` builds a program's wave
events once per process, so `uecc trace` joins cached lines and renders
none.
"""

from __future__ import annotations

import collections

from .field import PARAMS, CurveId
from .program import INIT_WAVES, build_inversion_program, build_ladder_program
from .trivium import lambda_words

CLOCK_MHZ = 100


class CycleReport(collections.namedtuple(
        "CycleReport", "ladder_cycles inversion_cycles overhead_cycles prng_cycles")):
    __slots__ = ()

    def __new__(cls, ladder_cycles, inversion_cycles, overhead_cycles, prng_cycles):
        self = super().__new__(cls, ladder_cycles, inversion_cycles, overhead_cycles, prng_cycles)
        for name, cycles in zip(self._fields, self):
            if cycles < 0:
                raise ValueError(f"{name} must be non-negative")
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


# event kinds in an execution trace
EV_WAVE = "wave"
EV_PRNG = "prng_next64"
EV_LOADSTORE = "load_store"


class Event(tuple):
    """A trace event, carrying in `line` its rendered trace line (without the
    `cycle N` prefix).  It compares, hashes and unpacks as the plain event
    tuple."""


def _event(fields: tuple, unit: str, text: str) -> Event:
    ev = Event(fields)
    ev.line = f"{unit:9s}  {text}\n"
    return ev


def wave_event(phase: str, wave) -> Event:
    """The event of one issued `wave` of a `phase` program."""
    return _event((EV_WAVE, phase, wave), phase, wave.text)


PRNG_EVENT = _event((EV_PRNG,), "prng", "next64")
LOADSTORE_EVENT = _event((EV_LOADSTORE,), "overhead", "load/store")

_OVERHEAD_PHASES = ("init", "final")


def tally(trace) -> CycleReport:
    """Fold an executed event stream into a CycleReport.

    Events are tuples: ("wave", phase_tag, wave) for issued waves,
    ("prng_next64",) per PRNG word, and ("load_store",) for the output
    latching cycle; an `Event` reads as the same tuple.  One cycle is
    charged per event.
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


def expected(curve: CurveId, dpa: bool) -> CycleReport:
    """The modeled cycle budget of one scalar multiplication, read off the programs."""
    return CycleReport(
        ladder_cycles=PARAMS[curve].scalar_bits * len(build_ladder_program(curve, dpa).waves),
        inversion_cycles=len(build_inversion_program(curve).waves),
        # the final multiplication's wave, then the cycle that latches x_Q
        overhead_cycles=(len(INIT_WAVES) if dpa else 0) + 2,
        prng_cycles=lambda_words(curve) if dpa else 0,
    )
