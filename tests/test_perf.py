from uecc.ecsm import CycleReport


class TestCycleReport:
    """`uecc scalarmult --cycles --format kv`'s rendering of the report: the
    CLI's test renders Curve25519's, this one Curve448's with DPA."""

    def test_kv_rendering(self):
        text = CycleReport(448 * 11, 462, 4, 7).as_kv()
        assert "total_cycles=5401" in text
        assert "modeled_latency_us=54.01" in text
