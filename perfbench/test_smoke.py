"""Smoke test for the benchmark: every workload at a tiny size, both modes.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run prints every metric BENCHMARK.json names, with its
unit, that the traced counts reconcile to their exact per-ECSM values, and
that a wrong expected output is counted as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Exact per-ECSM values for the workload mixes (one DPA request in four on x25519/x448).
EXPECTED = {
    "x25519": {"modeled_cycles_per_ecsm": (3 * 1032 + 1038) / 4,
               "bigmul.kar256.calls": (3 * 2816 + 3073) / 4,
               "ffau.wave.calls": (3 * 1031 + 1033) / 4, "trivium.next64.calls": 4 / 4},
    "x448": {"modeled_cycles_per_ecsm": (3 * 4944 + 5401) / 4,
             "bigmul.kar256.calls": (3 * 19772 + 21572) / 4,
             "ffau.wave.calls": (3 * 4943 + 5393) / 4, "trivium.next64.calls": 7 / 4},
    "trace25519": {"modeled_cycles_per_ecsm": 1032, "bigmul.kar256.calls": 2816,
                   "ffau.wave.calls": 1031, "trivium.next64.calls": 0},
}


def bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_metrics_present_and_counts_reconcile(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.BLOCK
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, want in EXPECTED[workload].items():
        if name in result["metrics"]:
            assert result["metrics"][name]["value"] == want, name


def test_wrong_expected_value_counts_as_failed():
    wl = run.WORKLOADS["x25519"]
    target = next(run.request_blocks(wl, 7))[1].scalar
    oracle = run.Oracle()

    def wrong_once(curve, req):
        out = oracle(curve, req)
        return bytes([out[0] ^ 1]) + out[1:] if req.scalar == target else out

    result = run.run(wl, 7, 1, 0, oracle=wrong_once)
    assert not result["correct"]
    assert result["failed"] == 1
    assert result["report"]["failed_ratio"] == 1 / result["attempted"]
