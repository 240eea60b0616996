"""Cycle records: the `CycleReport` of one ECSM.

`ecsm.scalar_mult` is the one model of an ECSM's cycles: it charges one
cycle per issued wave, one per PRNG word and one for the load/store cycle
that latches x_Q, and returns the sums as a `CycleReport`.  `selftest.DESIGN`
states the published decomposition of each (curve, dpa) as a literal
`CycleReport`, and `selftest.cycle_totals` checks every report against it.
A traced run's trace is its text, built by `ecsm._trace`.
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

