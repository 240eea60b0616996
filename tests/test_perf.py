import pytest

from uecc import perf, selftest
from uecc.ecsm import EcsmConfig, Scalar, scalar_mult
from uecc.ffau import format_op
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


class TestEventLines:
    """The trace is its text, one line per cycle after its cycle number, and
    one object for every scalar of a configuration."""

    @pytest.mark.parametrize(
        "curve, dpa", list(selftest.DESIGN), ids=["25519", "25519-dpa", "448", "448-dpa"]
    )
    def test_lines_match_a_reference_renderer(self, curve, dpa):
        # the trace is a cached function of the issue log, which no scalar
        # changes, so two scalars get the very same object
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=DEFAULT_SEED if dpa else None)
        trace, other = (scalar_mult(Scalar(bits, curve), fe(9, curve), cfg, want_trace=True).trace
                        for bits in (12345, 2 ** 200 + 54321))
        assert isinstance(trace, str) and trace is other
        assert trace.count("\n") == selftest.DESIGN[curve, dpa][0]

        # the lines rendered here from the programs, independently of `ecsm`
        def wave_lines(phase, waves):
            return [phase.ljust(9) + "  " + "; ".join(map(format_op, w.ops)) + "\n" for w in waves]

        ladder, inversion = build_ladder_program(curve, dpa), build_inversion_program(curve)
        lines = (["prng       next64\n"] * lambda_words(curve) + wave_lines("init", INIT_WAVES)
                 if dpa else [])
        lines += wave_lines("ladder", ladder.waves) * PARAMS[curve].scalar_bits
        lines += wave_lines("inversion", inversion.waves) + wave_lines("final", [FINAL_WAVE])
        lines.append("overhead   load/store\n")
        assert trace == "".join(
            "cycle " + str(cycle).rjust(5) + "  " + line for cycle, line in enumerate(lines)
        )
