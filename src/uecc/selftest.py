"""The oracle checks behind `uecc selftest` and `tests/test_acceptance.py`.

Each `check(rng, n) -> bool` pits the model against an independent route or
against the published figures, which stay literals here and are never read
off the programs.  A check that runs waves loads a plain register list, as
the engine does, and issues each wave through the checked `ffau.execute_wave`.
`CHECKS` holds the sample counts `uecc selftest` uses.
"""

from __future__ import annotations

import random

from . import field, perf, program, reference, trivium
from .bigmul import karatsuba_level, kar256_structural_int, mul_schoolbook
from .ecsm import EcsmConfig, Scalar, scalar_mult
from .field import PARAMS, CurveId, fe
from .ffau import (
    NUM_REGISTERS, OP_ADD, OP_SUB, ZERO, QuadOpInstruction, Wave, execute_wave, mul_int,
    mul_small_int,
)

_SEED = 20240901
PRNG_SEED = (bytes(range(10)), bytes(range(10, 20)))  # the CLI's default key and IV

# (curve, dpa): cycles, modeled latency in us, ladder waves and ops per scalar bit
DESIGN = {
    (CurveId.CURVE25519, False): (1032, 10.32, 3, 11),
    (CurveId.CURVE25519, True): (1038, 10.38, 3, 12),
    (CurveId.CURVE448, False): (4944, 49.44, 10, 11),
    (CurveId.CURVE448, True): (5401, 54.01, 11, 12),
}
INVERSION_CYCLES = {CurveId.CURVE25519: 265, CurveId.CURVE448: 462}


def _random_input(rng, curve: CurveId) -> tuple[Scalar, field.FieldElement]:
    params = PARAMS[curve]
    return Scalar(rng.getrandbits(params.scalar_bits), curve), fe(rng.randrange(params.p), curve)


def karatsuba(rng, n) -> bool:
    """Structural Karatsuba == schoolbook == native, `n` products, and 9/3/1
    sub-products per product of a two-level `karatsuba_level` composition
    that tallies each level."""
    tally = [0, 0, 0]  # 64-, 128- and 256-bit products

    def base(x, y):
        tally[0] += 1
        return x * y

    def mid(x, y):
        tally[1] += 1
        return karatsuba_level(x, y, 64, base)

    def top(x, y):
        tally[2] += 1
        return karatsuba_level(x, y, 128, mid)

    ok = True
    for _ in range(n):
        x, y = rng.getrandbits(256), rng.getrandbits(256)
        ok &= kar256_structural_int(x, y) == mul_schoolbook(x, y) == x * y == top(x, y)
    return ok and tally == [9 * n, 3 * n, n]


def golden_ratio(rng, n) -> bool:
    """The engine's golden-ratio Curve448 multiply (`ffau.mul_int`) ==
    schoolbook product mod p, `n` samples."""
    p = PARAMS[CurveId.CURVE448].p
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
    return all(mul_int(a, b, CurveId.CURVE448) == mul_schoolbook(a, b) % p for a, b in pairs)


# r3 = (r0 + r1) x (r2 + 0) and r4 = (r0 - r1) x (r2 + 0), with r2 = 1
_ADD_SUB = (Wave((QuadOpInstruction(OP_ADD, 0, 1, OP_ADD, 2, ZERO, 3),)),
            Wave((QuadOpInstruction(OP_SUB, 0, 1, OP_ADD, 2, ZERO, 4),)))


def add_sub(curve: CurveId, a: int, b: int) -> tuple[int, int]:
    """(a + b, a - b) mod p from the FFAU's add/sub operand selectors, run
    through `execute_wave` with the other factor held at 1."""
    regs = [a, b, 1] + [0] * (NUM_REGISTERS - 2)
    for wave in _ADD_SUB:
        execute_wave(regs, wave, curve)
    return regs[3], regs[4]


def _edge_operands(curve: CurveId) -> tuple[int, ...]:
    """Operands at the bounds of the fused reductions: 0, 1, 2, p-1, p-2,
    (p-1)/2, the FFAU's unreduced selector values p, p+1, 2p-2 and 2p-1, and
    for Curve448 the values whose halves at phi = 2^224 are all-ones or
    near-max (the largest golden-ratio partials), and the largest top half of
    an operand below 2p with a zero bottom half."""
    p = PARAMS[curve].p
    edges = (0, 1, 2, p - 1, p - 2, (p - 1) // 2, p, p + 1, 2 * p - 2, 2 * p - 1)
    if curve is CurveId.CURVE448:
        phi = field.PHI
        edges += (phi - 1, phi, p - phi, (2 * p - 1) // phi * phi)
    return edges


def field_ops(rng, n) -> bool:
    """The FFAU add/sub selectors and `mul_int` == `% p`, `n` samples per
    curve, plus `mul_int`/`mul_small_int` on every pair of edge operands."""
    ok = True
    for curve in CurveId:
        p, a24 = PARAMS[curve].p, PARAMS[curve].a24
        for _ in range(n):
            a, b = rng.randrange(p), rng.randrange(p)
            ok &= add_sub(curve, a, b) == ((a + b) % p, (a - b) % p)
            ok &= mul_int(a, b, curve) == a * b % p
        edges = _edge_operands(curve)
        for a in edges:
            ok &= mul_small_int(a, curve) == a * a24 % p
            ok &= all(mul_int(a, b, curve) == a * b % p for b in edges)
    return ok


def inversion(rng, n) -> bool:
    """The inversion program turns Z2 = a into 1/a in 265/462 cycles, `n` samples per curve."""
    ok = True
    for curve, cycles in INVERSION_CYCLES.items():
        p = PARAMS[curve].p
        for _ in range(n):
            a = rng.randrange(1, p)
            regs = [0] * (NUM_REGISTERS + 1)
            regs[program.Z2] = a
            for issued, wave in enumerate(program.build_inversion_program(curve).waves, 1):
                execute_wave(regs, wave, curve)
            ok &= a * regs[program.Z2] % p == 1 and issued == cycles
    return ok


def ladder(rng, n) -> bool:
    """Ladders of 3/3 and 10/11 waves and 11/12 ops, and scheduled step ==
    straight-line step on `n` random register states per (curve, dpa), with
    X1 and Z1 never written.  The programs' issue rules are checked when they
    are built."""
    ok = True
    for (curve, dpa), (*_, waves, ops) in DESIGN.items():
        prog = program.build_ladder_program(curve, dpa)
        ok &= (len(prog.waves), prog.op_count) == (waves, ops)
    for curve in CurveId:
        p = PARAMS[curve].p
        for dpa in (False, True):
            for _ in range(n):
                vals = [rng.randrange(p) for _ in range(6)]  # X1, Z1, X2, Z2, X3, Z3
                regs = vals + [0] * (NUM_REGISTERS + 1 - len(vals))
                regs[program.R_RND] = rng.randrange(p)
                for wave in program.build_ladder_program(curve, dpa).waves:
                    execute_wave(regs, wave, curve)
                got = tuple(regs[:program.Z3 + 1])  # X1, Z1, X2, Z2, X3, Z3
                ok &= got == (*vals[:2], *reference.ladder_step(curve, *vals))
    return ok


def trivium_words(rng, n) -> bool:
    """All-zero key/IV keystream, and 64-wide == bit-serial on `n` words of a random key/IV."""
    ok = trivium.keystream_bytes(trivium.TriviumState(bytes(10), bytes(10)), 16).hex() == (
        "fbe0bf265859051b517a2e4e239fc97f")
    key, iv = rng.randbytes(10), rng.randbytes(10)
    st = trivium.TriviumState(key, iv)
    return ok and [trivium.next64(st) for _ in range(n)] == reference.trivium_words(key, iv, n)


def ecsm_vs_reference(rng, n) -> bool:
    """Engine ECSM == branching reference ladder, `n` random inputs per curve."""
    inputs = [_random_input(rng, curve) for curve in CurveId for _ in range(n)]
    return all(scalar_mult(k, x_p).x_q.n == reference.scalar_mult_ref(k.curve, k.bits, x_p.n)
               for k, x_p in inputs)


def lambda_invariance(rng, n) -> bool:
    """DPA (lambda) leaves x_Q unchanged: one input per curve, `n` random Trivium seeds."""
    ok = True
    for curve in CurveId:
        k, x_p = _random_input(rng, curve)
        plain = scalar_mult(k, x_p).x_q
        for _ in range(n):
            cfg = EcsmConfig(dpa_enabled=True, prng_seed=(rng.randbytes(10), rng.randbytes(10)))
            ok &= scalar_mult(k, x_p, cfg).x_q == plain
    return ok


def trace_constancy(rng, n) -> bool:
    """One executed event stream for `n` random scalars per (curve, dpa) configuration."""
    ok = True
    for curve, dpa in DESIGN:
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=PRNG_SEED if dpa else None)
        traces = {scalar_mult(*_random_input(rng, curve), cfg, want_trace=True).trace
                  for _ in range(n)}
        ok &= len(traces) <= 1
    return ok


def cycle_totals(rng, n) -> bool:
    """`perf.expected` gives the published cycles and us, and `n` random ECSMs
    per (curve, dpa) report exactly that budget."""
    ok = True
    for (curve, dpa), (total, latency_us, *_) in DESIGN.items():
        want = perf.expected(curve, dpa)
        ok &= want.total == total and f"{want.latency_us:.2f}" == f"{latency_us:.2f}"
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=PRNG_SEED if dpa else None)
        ok &= all(scalar_mult(*_random_input(rng, curve), cfg).cycles == want for _ in range(n))
    return ok


# (PASS-line name, check, quick n, full n), in the order `uecc selftest` runs them
CHECKS = (
    ("karatsuba == schoolbook == native product", karatsuba, 500, 2000),
    ("field mul == native big-int mod p", field_ops, 200, 1000),
    ("golden-ratio mul == schoolbook mod p", golden_ratio, 200, 1000),
    ("inversion program: a * 1/a == 1 in 265/462 cycles", inversion, 2, 10),
    ("scheduled ladder == straight-line step", ladder, 10, 50),
    ("trivium 64-wide == bit-serial", trivium_words, 64, 64),
    ("engine ECSM == branching reference ladder", ecsm_vs_reference, 1, 3),
    ("lambda-invariance: DPA leaves x_Q unchanged", lambda_invariance, 1, 10),
    ("event stream independent of the scalar", trace_constancy, 2, 5),
    ("cycle totals = 1032/1038/4944/5401", cycle_totals, 1, 1),
)


def run(quick: bool = False) -> int:
    rng = random.Random(_SEED)
    ok = True
    for name, check, quick_n, full_n in CHECKS:
        try:
            passed, error = check(rng, quick_n if quick else full_n), None
        except Exception as exc:  # a fault found in one check must not hide the others
            passed, error = False, exc
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
        if error is not None:
            print(f"      {type(error).__name__}: {error}")
        ok &= passed
    print("selftest:", "all checks passed" if ok else "FAILURES")
    return 0 if ok else 1
