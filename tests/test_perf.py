import pytest

from uecc import perf
from uecc.ecsm import EcsmConfig, Scalar, scalar_mult
from uecc.field import CurveId, PARAMS, fe
from uecc.program import FINAL_WAVE, INIT_WAVES, build_inversion_program, build_ladder_program
from uecc.trivium import lambda_words

SEED = (bytes(range(10)), bytes(range(10, 20)))

DESIGN_TOTALS = {
    (CurveId.CURVE25519, False): 1032,
    (CurveId.CURVE25519, True): 1038,
    (CurveId.CURVE448, False): 4944,
    (CurveId.CURVE448, True): 5401,
}


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
    """Each recorded event carries its rendered trace line and still reads as
    the plain event tuple."""

    @pytest.mark.parametrize(
        "curve, dpa", list(DESIGN_TOTALS), ids=["25519", "25519-dpa", "448", "448-dpa"]
    )
    def test_lines_match_a_reference_renderer(self, curve, dpa):
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=SEED if dpa else None)
        trace = scalar_mult(Scalar(12345, curve), fe(9, curve), cfg, want_trace=True).trace
        assert len(trace) == DESIGN_TOTALS[curve, dpa]
        assert all(isinstance(ev, perf.Event) for ev in trace)
        assert [ev.line for ev in trace] == [reference_line(ev) for ev in trace]

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
