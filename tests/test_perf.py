from uecc.ecsm import CycleReport


class TestCycleReport:
    """`uecc scalarmult --cycles --format kv`'s rendering of the report's
    phases, one line each in field order; criterion 7 checks its total and
    latency lines."""

    def test_kv_rendering(self):
        lines = CycleReport(448 * 11, 462, 4, 7).as_kv().splitlines()
        assert lines[:4] == ["ladder_cycles=4928", "inversion_cycles=462", "overhead_cycles=4",
                             "prng_cycles=7"]
