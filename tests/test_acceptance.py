"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 2-6, and criterion 1's single-shot vectors, run the oracle checks
of `uecc.selftest` (the checks behind `uecc selftest`) with this suite's
seeds and sample counts; criterion 7 checks how an ECSM's report displays
the published cycles and latency.  Each function is its check's one
implementation: no unit test loops over a comparison one of them makes, and
the unit tests keep only the inputs that no check draws.

Run with `pytest tests/test_acceptance.py -v -s`.  The optional
million-iteration test is gated behind UECC_RUN_1M=1 (hours in pure Python).
"""

import os
import random

import pytest

from uecc import ecsm, field, selftest
from uecc.trivium import DEFAULT_SEED
from uecc.vectors import ITERATED, iterate

from spec import CURVES


def _report(name: str, ok: bool):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def test_criterion_1_rfc_vector_conformance():
    ok = selftest.rfc_single_shot(None, 0)
    for curve in CURVES:
        for count in (1, 1000):
            ok &= iterate(curve, count).hex() == ITERATED[curve][count]
    _report("1. RFC vector conformance (single-shot + 1/1000 iterations, bit-exact)", ok)


@pytest.mark.skipif(os.environ.get("UECC_RUN_1M") != "1", reason="set UECC_RUN_1M=1 to run")
def test_criterion_1_optional_million_iterations():
    ok = True
    for curve in CURVES:
        ok &= iterate(curve, 1000000).hex() == ITERATED[curve][1000000]
    _report("1b. optional 1,000,000-iteration vectors", ok)


def test_criterion_2_cycle_reproduction():
    ok = selftest.cycle_totals(random.Random(72), 3)
    _report("2. cycle totals exactly 1032/1038 and 4944/5401, scalar-independent", ok)


def test_criterion_3_multiplier_oracle_equivalence():
    rng = random.Random(73)
    ok = selftest.karatsuba(rng, 10**4) & selftest.golden_ratio(rng, 10**4)
    _report("3. karatsuba == schoolbook and golden-ratio == wide multiply, 10^4 each", ok)


def test_criterion_4_field_arithmetic_oracle():
    rng = random.Random(74)
    ok = selftest.field_ops(rng, 10**4) & selftest.inversion(rng, 20)
    _report("4. field ops match big-integer oracle (10^4 each); inv chains = 265/462", ok)


def test_criterion_5_schedule_validity_and_equivalence():
    ok = selftest.ladder(random.Random(75), 500)  # per (curve, dpa): 10^3 states per curve
    _report("5. schedules valid; waves 3/3 and 10/11; scheduled == straight-line on 10^3 states", ok)


def test_criterion_6_countermeasure_properties():
    rng = random.Random(76)
    ok = selftest.lambda_invariance(rng, 100)
    ok &= selftest.trace_constancy(rng, 10)
    ok &= selftest.trivium_words(rng, 16)
    _report("6. lambda-invariance (100 seeds), trace constancy (10 scalars/config), Trivium vectors", ok)


def test_criterion_7_modeled_latency_display():
    # ASIC power/energy/area are out of scope; the model substitutes cycle
    # counts and displays cycles / 100 MHz as modeled latency.  One random
    # ECSM per configuration shows the published total and microseconds in
    # both renderings of its report.
    rng, ok = random.Random(77), True
    for (curve, dpa), (total, latency_us, _, _) in selftest.DESIGN.items():
        k = ecsm.Scalar(rng.getrandbits(field.PARAMS[curve].scalar_bits), curve)
        cfg = ecsm.EcsmConfig(dpa, prng_seed=DEFAULT_SEED)  # the seed is unused without DPA
        cycles = ecsm.scalar_mult(k, field.fe(9, curve), cfg).cycles
        ok &= f"total={total} ({latency_us:.2f} us @ 100 MHz)" in cycles.as_text()
        ok &= f"total_cycles={total}\nmodeled_latency_us={latency_us:.2f}" in cycles.as_kv()
    _report("7. modeled latency = cycles / 100 MHz -> 10.32/10.38/49.44/54.01 us", ok)
