from uecc.ecsm import CycleReport


class TestCycleReport:
    """The cycle report's `key=value` rendering, which `uecc scalarmult
    --cycles --format kv` prints."""

    def test_kv_rendering(self):
        text = CycleReport(255 * 3, 265, 2, 0).as_kv()
        assert "total_cycles=1032" in text
        assert "modeled_latency_us=10.32" in text
