"""Oracle-equivalence self tests behind `uecc selftest`.

Each check pits the datapath model against an independent route: schoolbook
limbs or native big integers for the multipliers, the branching reference
ladder for the engine, and the bit-serial cipher for the 64-wide Trivium.
"""

from __future__ import annotations

import random

from . import perf, reference, trivium
from .bigmul import WideInt, mul_karatsuba_256, mul_schoolbook
from .ecsm import EcsmConfig, Scalar, scalar_mult
from .field import PARAMS, CurveId, fe, mul, mul_wide
from .ffau import RegisterFile, execute_wave, write_register
from .program import build_ladder_program

_SEED = 20240901


def _check(name: str, ok: bool) -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return ok


def _karatsuba_vs_schoolbook(rng, samples) -> bool:
    for _ in range(samples):
        x = WideInt.from_int(rng.getrandbits(256), 256)
        y = WideInt.from_int(rng.getrandbits(256), 256)
        kar = mul_karatsuba_256(x, y)
        sch = mul_schoolbook(x, y)
        if kar != sch or kar.to_int() != x.to_int() * y.to_int():
            return False
    return True


def _field_vs_native(rng, samples) -> bool:
    for curve in CurveId:
        p = PARAMS[curve].p
        for _ in range(samples):
            a = rng.randrange(p)
            b = rng.randrange(p)
            if mul(fe(a, curve), fe(b, curve)).n != a * b % p:
                return False
    return True


def _golden_ratio_vs_wide(rng, samples) -> bool:
    p = PARAMS[CurveId.CURVE448].p
    for _ in range(samples):
        a = fe(rng.randrange(p), CurveId.CURVE448)
        b = fe(rng.randrange(p), CurveId.CURVE448)
        if mul(a, b) != mul_wide(a, b):
            return False
    return True


def _ladder_vs_reference(rng, samples) -> bool:
    for curve in CurveId:
        p = PARAMS[curve].p
        prog = build_ladder_program(curve, dpa=False)
        for _ in range(samples):
            vals = [rng.randrange(p) for _ in range(6)]
            state = RegisterFile(curve)
            for addr, v in enumerate(vals):
                write_register(state, addr, v)
            for wave in prog.waves:
                execute_wave(state, wave)
            want = reference.ladder_step(curve, *vals)
            got = (state.regs[2], state.regs[3], state.regs[4], state.regs[5])
            if got != want:
                return False
    return True


def _trivium_wide_vs_serial(rng, words) -> bool:
    key = rng.randbytes(10)
    iv = rng.randbytes(10)
    st = trivium.init(key, iv)
    wide = [trivium.next64(st) for _ in range(words)]
    return wide == reference.trivium_words(key, iv, words)


def _ecsm_vs_reference(rng, samples) -> bool:
    for curve in CurveId:
        params = PARAMS[curve]
        for _ in range(samples):
            k = Scalar(rng.getrandbits(params.scalar_bits), curve)
            x_p = fe(rng.randrange(params.p), curve)
            got = scalar_mult(k, x_p).x_q.n
            if got != reference.scalar_mult_ref(curve, k.bits, x_p.n):
                return False
    return True


def _cycle_totals(rng) -> bool:
    seed = (rng.randbytes(10), rng.randbytes(10))
    expected = {
        (CurveId.CURVE25519, False): 1032,
        (CurveId.CURVE25519, True): 1038,
        (CurveId.CURVE448, False): 4944,
        (CurveId.CURVE448, True): 5401,
    }
    for (curve, dpa), total in expected.items():
        params = PARAMS[curve]
        k = Scalar(rng.getrandbits(params.scalar_bits), curve)
        x_p = fe(rng.randrange(params.p), curve)
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=seed if dpa else None)
        report = scalar_mult(k, x_p, cfg).cycles
        if report.total != total or report != perf.expected(curve, dpa):
            return False
    return True


def run(quick: bool = False) -> int:
    rng = random.Random(_SEED)
    n_mul = 500 if quick else 2000
    n_field = 200 if quick else 1000
    n_ladder = 20 if quick else 100
    n_ecsm = 1 if quick else 3
    ok = True
    ok &= _check("karatsuba == schoolbook == native product", _karatsuba_vs_schoolbook(rng, n_mul))
    ok &= _check("field mul == native big-int mod p", _field_vs_native(rng, n_field))
    ok &= _check("golden-ratio mul == wide mul + reduce", _golden_ratio_vs_wide(rng, n_field))
    ok &= _check("scheduled ladder == straight-line step", _ladder_vs_reference(rng, n_ladder))
    ok &= _check("trivium 64-wide == bit-serial", _trivium_wide_vs_serial(rng, 64))
    ok &= _check("engine ECSM == branching reference ladder", _ecsm_vs_reference(rng, n_ecsm))
    ok &= _check("cycle totals = 1032/1038/4944/5401", _cycle_totals(rng))
    print("selftest:", "all checks passed" if ok else "FAILURES")
    return 0 if ok else 1
