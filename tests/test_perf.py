import pytest

from uecc import perf, selftest
from uecc.ecsm import EcsmConfig, Scalar, scalar_mult
from uecc.field import PARAMS, fe
from uecc.program import FINAL_WAVE, INIT_WAVES, build_inversion_program, build_ladder_program
from uecc.trivium import DEFAULT_SEED, lambda_words


class TestCycleReport:
    def test_total_is_component_sum(self):
        r = perf.CycleReport(10, 20, 3, 4)
        assert r.total == 37

    def test_non_negative(self):
        with pytest.raises(ValueError):
            perf.CycleReport(-1, 0, 0, 0)

    def test_kv_rendering(self):
        text = perf.CycleReport(255 * 3, 265, 2, 0).as_kv()
        assert "total_cycles=1032" in text
        assert "modeled_latency_us=10.32" in text


def reference_line(ev):
    """The trace line of one event, rendered here independently of `perf`."""
    if ev[0] == perf.EV_WAVE:
        return f"{ev[1]:9s}  {ev[2].text}\n"
    if ev[0] == perf.EV_PRNG:
        return "prng       next64\n"
    assert ev == (perf.EV_LOADSTORE,)
    return "overhead   load/store\n"


class TestEventLines:
    """The trace carries its rendered text, each event's line after its cycle
    number, is one object for every scalar of a configuration, and still
    reads as the plain tuple of event tuples."""

    @pytest.mark.parametrize(
        "curve, dpa", list(selftest.DESIGN), ids=["25519", "25519-dpa", "448", "448-dpa"]
    )
    def test_lines_match_a_reference_renderer(self, curve, dpa):
        # the trace is a cached function of the issue log, which no scalar
        # changes, so two scalars get the very same object and its text
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=DEFAULT_SEED if dpa else None)
        trace, other = (scalar_mult(Scalar(bits, curve), fe(9, curve), cfg, want_trace=True).trace
                        for bits in (12345, 2 ** 200 + 54321))
        assert isinstance(trace, perf.Trace) and trace is other
        assert len(trace) == selftest.DESIGN[curve, dpa][0]
        assert all(isinstance(ev, perf.Event) for ev in trace)
        assert trace.text == "".join(
            "cycle " + str(cycle).rjust(5) + "  " + reference_line(ev) for cycle, ev in enumerate(trace)
        )

        plain = tuple(tuple(ev) for ev in trace)
        assert trace == plain and hash(trace) == hash(plain)
        ladder, inversion = build_ladder_program(curve, dpa), build_inversion_program(curve)
        prng = [(perf.EV_PRNG,)] * lambda_words(curve)
        init = [(perf.EV_WAVE, "init", w) for w in INIT_WAVES]
        assert list(plain) == (
            (prng + init if dpa else [])
            + [(perf.EV_WAVE, "ladder", w) for w in ladder.waves] * PARAMS[curve].scalar_bits
            + [(perf.EV_WAVE, "inversion", w) for w in inversion.waves]
            + [(perf.EV_WAVE, "final", FINAL_WAVE), (perf.EV_LOADSTORE,)]
        )
