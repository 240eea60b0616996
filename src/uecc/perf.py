"""Cycle records: the `CycleReport` of one ECSM and the events of a traced run.

`ecsm.scalar_mult` is the one model of an ECSM's cycles: it charges one
cycle per issued wave, one per PRNG word and one for the load/store cycle
that latches x_Q, and returns the sums as a `CycleReport`.  `selftest.DESIGN`
states the published decomposition of each (curve, dpa) as a literal
`CycleReport`, and `selftest.cycle_totals` checks every report against it.

A traced run records one `Event` per cycle, of three kinds: a wave
(`wave_event`: `EV_WAVE`, its program's phase tag and the `ffau.Wave`), a
PRNG word (`PRNG_EVENT`) and the load/store cycle that latches x_Q
(`LOADSTORE_EVENT`).  Each event is a tuple, so trace comparisons read it as
one, and carries its trace line in `Event.line`, rendered once when the event
is built: `ecsm` builds a program's wave events once per process, so
`uecc trace` joins cached lines and renders none.
"""

from __future__ import annotations

import collections

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
