"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The optional
million-iteration test is gated behind UECC_RUN_1M=1 (hours in pure Python).
"""

import os
import random

import pytest

from uecc import field, perf, trivium
from uecc.bigmul import WideInt, counters, mul_karatsuba_256, mul_schoolbook
from uecc.ecsm import EcsmConfig, Scalar, scalar_mult, scalar_mult_bytes
from uecc.field import CurveId, PARAMS, fe, mul, mul_wide
from uecc.ffau import RegisterFile, execute_wave, write_register
from uecc.program import (
    R_RND,
    X2,
    Z2,
    X3,
    Z3,
    build_inversion_program,
    build_ladder_program,
    validate_schedule,
)
from uecc.reference import ladder_step, trivium_words
from uecc.vectors import BASE_U, ITERATED, SINGLE_SHOT

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)
SEED = (bytes(range(10)), bytes(range(10, 20)))

DESIGN_CYCLES = {
    (CurveId.CURVE25519, False): 1032,
    (CurveId.CURVE25519, True): 1038,
    (CurveId.CURVE448, False): 4944,
    (CurveId.CURVE448, True): 5401,
}
INVERSION_CYCLES = {CurveId.CURVE25519: 265, CurveId.CURVE448: 462}


def _report(name: str, ok: bool):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _iterate(curve: CurveId, count: int) -> str:
    k = u = BASE_U[curve]
    for _ in range(count):
        k, u = scalar_mult_bytes(k, u, curve), k
    return k.hex()


def test_criterion_1_rfc_vector_conformance():
    ok = True
    for curve in CURVES:
        for scalar_hex, u_hex, want in SINGLE_SHOT[curve]:
            got = scalar_mult_bytes(bytes.fromhex(scalar_hex), bytes.fromhex(u_hex), curve)
            ok &= got.hex() == want
        for count in (1, 1000):
            ok &= _iterate(curve, count) == ITERATED[curve][count]
    # live dual route against an independent implementation (OpenSSL)
    try:
        from cryptography.hazmat.primitives.asymmetric import x25519, x448
    except ImportError:
        x25519 = x448 = None
    if x25519 is not None:
        rng = random.Random(71)
        for _ in range(3):
            k, u = rng.randbytes(32), rng.randbytes(32)
            theirs = (
                x25519.X25519PrivateKey.from_private_bytes(k)
                .exchange(x25519.X25519PublicKey.from_public_bytes(u))
            )
            ok &= scalar_mult_bytes(k, u, CurveId.CURVE25519) == theirs
            k, u = rng.randbytes(56), rng.randbytes(56)
            theirs = (
                x448.X448PrivateKey.from_private_bytes(k)
                .exchange(x448.X448PublicKey.from_public_bytes(u))
            )
            ok &= scalar_mult_bytes(k, u, CurveId.CURVE448) == theirs
    _report("1. RFC vector conformance (single-shot + 1/1000 iterations, bit-exact)", ok)


@pytest.mark.skipif(os.environ.get("UECC_RUN_1M") != "1", reason="set UECC_RUN_1M=1 to run")
def test_criterion_1_optional_million_iterations():
    ok = True
    for curve in CURVES:
        ok &= _iterate(curve, 1000000) == ITERATED[curve][1000000]
    _report("1b. optional 1,000,000-iteration vectors", ok)


def test_criterion_2_cycle_reproduction():
    rng = random.Random(72)
    ok = True
    for (curve, dpa), want in DESIGN_CYCLES.items():
        params = PARAMS[curve]
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=SEED if dpa else None)
        totals = set()
        for _ in range(3):
            k = Scalar(rng.getrandbits(params.scalar_bits), curve)
            x_p = fe(rng.randrange(params.p), curve)
            totals.add(scalar_mult(k, x_p, cfg).cycles.total)
        ok &= totals == {want}
        ok &= perf.expected(curve, dpa).total == want
    _report("2. cycle totals exactly 1032/1038 and 4944/5401, scalar-independent", ok)


def test_criterion_3_multiplier_oracle_equivalence():
    rng = random.Random(73)
    ok = True
    before = counters.snapshot()
    for _ in range(10**4):
        x = WideInt.from_int(rng.getrandbits(256), 256)
        y = WideInt.from_int(rng.getrandbits(256), 256)
        ok &= mul_karatsuba_256(x, y) == mul_schoolbook(x, y)
    d64, d128, d256 = (a - b for a, b in zip(counters.snapshot(), before))
    ok &= (d64, d128, d256) == (9 * 10**4, 3 * 10**4, 10**4)
    p = PARAMS[CurveId.CURVE448].p
    for _ in range(10**4):
        a = fe(rng.randrange(p), CurveId.CURVE448)
        b = fe(rng.randrange(p), CurveId.CURVE448)
        ok &= mul(a, b) == mul_wide(a, b)
    _report("3. karatsuba == schoolbook and golden-ratio == wide multiply, 10^4 each", ok)


def test_criterion_4_field_arithmetic_oracle():
    rng = random.Random(74)
    ok = True
    for curve in CURVES:
        p = PARAMS[curve].p
        for _ in range(10**4):
            a, b = rng.randrange(p), rng.randrange(p)
            fa, fb = fe(a, curve), fe(b, curve)
            ok &= field.add(fa, fb).n == (a + b) % p
            ok &= field.sub(fa, fb).n == (a - b) % p
            ok &= field.mul(fa, fb).n == a * b % p
        for _ in range(10**4):
            x = rng.getrandbits(512)
            ok &= field.reduce25519_int(x) == x % PARAMS[CurveId.CURVE25519].p
            y = rng.getrandbits(896)
            ok &= field.reduce448_int(y) == y % PARAMS[CurveId.CURVE448].p
        inversion = build_inversion_program(curve)
        for _ in range(20):
            a = rng.randrange(1, p)
            state = RegisterFile(curve)
            write_register(state, Z2, a)
            for wave in inversion.waves:
                execute_wave(state, wave)
            ok &= a * state.regs[Z2] % p == 1
            ok &= state.cycles == INVERSION_CYCLES[curve]
    _report("4. field ops match big-integer oracle (10^4 each); inv chains = 265/462", ok)


def test_criterion_5_schedule_validity_and_equivalence():
    rng = random.Random(75)
    ok = True
    want_waves = {
        (CurveId.CURVE25519, False): 3,
        (CurveId.CURVE25519, True): 3,
        (CurveId.CURVE448, False): 10,
        (CurveId.CURVE448, True): 11,
    }
    for (curve, dpa), waves in want_waves.items():
        prog = build_ladder_program(curve, dpa)
        ok &= validate_schedule(prog).valid
        ok &= len(prog.waves) == waves
        ok &= prog.op_count == (12 if dpa else 11)
    for curve in CURVES:
        ok &= validate_schedule(build_inversion_program(curve)).valid
        p = PARAMS[curve].p
        for dpa in (False, True):
            prog = build_ladder_program(curve, dpa)
            for _ in range(10**3 // 2):
                vals = [rng.randrange(p) for _ in range(6)]
                state = RegisterFile(curve)
                for addr, v in enumerate(vals):
                    write_register(state, addr, v)
                write_register(state, R_RND, rng.randrange(p))
                for wave in prog.waves:
                    execute_wave(state, wave)
                got = (state.regs[X2], state.regs[Z2], state.regs[X3], state.regs[Z3])
                ok &= got == ladder_step(curve, *vals)
    _report("5. schedules valid; waves 3/3 and 10/11; scheduled == straight-line on 10^3 states", ok)


def test_criterion_6_countermeasure_properties():
    rng = random.Random(76)
    ok = True
    # lambda-invariance over 100 random PRNG seeds
    for curve in CURVES:
        params = PARAMS[curve]
        k = Scalar(rng.getrandbits(params.scalar_bits), curve)
        x_p = fe(rng.randrange(params.p), curve)
        plain = scalar_mult(k, x_p).x_q
        for _ in range(100):
            seed = (rng.randbytes(10), rng.randbytes(10))
            cfg = EcsmConfig(dpa_enabled=True, prng_seed=seed)
            ok &= scalar_mult(k, x_p, cfg).x_q == plain
    # trace constancy across >= 10 scalars per configuration
    for curve in CURVES:
        params = PARAMS[curve]
        for dpa in (False, True):
            cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=SEED if dpa else None)
            traces = set()
            for _ in range(10):
                k = Scalar(rng.getrandbits(params.scalar_bits), curve)
                x_p = fe(rng.randrange(params.p), curve)
                traces.add(scalar_mult(k, x_p, cfg, want_trace=True).trace)
            ok &= len(traces) == 1
    # Trivium reference keystream (see tests/test_trivium.py for more)
    st = trivium.init(bytes(10), bytes(10))
    ok &= trivium.keystream_bytes(st, 16).hex() == "fbe0bf265859051b517a2e4e239fc97f"
    key, iv = rng.randbytes(10), rng.randbytes(10)
    st = trivium.init(key, iv)
    ok &= [trivium.next64(st) for _ in range(16)] == trivium_words(key, iv, 16)
    _report("6. lambda-invariance (100 seeds), trace constancy (10 scalars/config), Trivium vectors", ok)


def test_criterion_7_modeled_latency_display():
    # ASIC power/energy/area are out of scope; the model substitutes cycle
    # counts and displays cycles / 100 MHz as modeled latency.
    want = {
        (CurveId.CURVE25519, False): 10.32,
        (CurveId.CURVE25519, True): 10.38,
        (CurveId.CURVE448, False): 49.44,
        (CurveId.CURVE448, True): 54.01,
    }
    ok = True
    for (curve, dpa), us in want.items():
        report = perf.expected(curve, dpa)
        ok &= report.latency_us == pytest.approx(us)
        ok &= f"{report.latency_us:.2f}" == f"{us:.2f}"
    _report("7. modeled latency = cycles / 100 MHz -> 10.32/10.38/49.44/54.01 us", ok)
