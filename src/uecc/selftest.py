"""The oracle checks behind `uecc selftest` and `tests/test_acceptance.py`.

Each `check(rng, n) -> bool` pits the model against an independent route or
against the published figures, which stay literals here and are never read
off the programs: `DESIGN` states each configuration's cycles as a literal
`ecsm.CycleReport`.  A check that runs waves loads `ffau.registers`, as the
engine does.  It issues a whole program through the engine's own seam,
`ecsm._issue`, and a single ad-hoc wave through the checked
`ffau.execute_wave`.  `CHECKS` holds the sample counts `uecc selftest` uses.
"""

from __future__ import annotations

import random

from . import ecsm, field, program, reference, trivium
from .bigmul import karatsuba_level, kar256_int, kar256_structural_int, mul_schoolbook
from .ecsm import CycleReport, EcsmConfig, Scalar, scalar_mult, scalar_mult_bytes
from .field import PARAMS, CurveId, fe
from .ffau import (
    OP_ADD, OP_SUB, ZERO, QuadOpInstruction, Wave, execute_wave, mul_int, mul_small_int, registers,
)
from .vectors import SINGLE_SHOT

_SEED = 20240901

# (curve, dpa): the published cycles and modeled latency in us, their decomposition
# (scalar bits x ladder waves per bit, inversion waves, the randomization and final
# waves plus the load/store cycle, PRNG words), and the ladder's ops per scalar bit
DESIGN = {
    (CurveId.CURVE25519, False): (1032, 10.32, CycleReport(255 * 3, 265, 2, 0), 11),
    (CurveId.CURVE25519, True): (1038, 10.38, CycleReport(255 * 3, 265, 4, 4), 12),
    (CurveId.CURVE448, False): (4944, 49.44, CycleReport(448 * 10, 462, 2, 0), 11),
    (CurveId.CURVE448, True): (5401, 54.01, CycleReport(448 * 11, 462, 4, 7), 12),
}


def _random_input(rng, curve: CurveId) -> tuple[Scalar, field.FieldElement]:
    params = PARAMS[curve]
    return Scalar(rng.getrandbits(params.scalar_bits), curve), fe(rng.randrange(params.p), curve)


# 0, 1, a limb's carry, a 128-bit half's all-ones and carry, and all-ones
_KARATSUBA_EDGES = (0, 1, 2**64, 2**128 - 1, 2**128, 2**256 - 1)


def karatsuba(rng, n) -> bool:
    """Structural Karatsuba == the unit == schoolbook == native on every pair
    of edge operands and `n` random pairs, and 9/3/1 sub-products per product
    of a two-level `karatsuba_level` composition that tallies each level."""
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

    pairs = [(x, y) for x in _KARATSUBA_EDGES for y in _KARATSUBA_EDGES]
    pairs += [(rng.getrandbits(256), rng.getrandbits(256)) for _ in range(n)]
    ok = all(kar256_structural_int(x, y) == kar256_int(x, y) == mul_schoolbook(x, y) == x * y
             == top(x, y) for x, y in pairs)
    return ok and tally == [9 * len(pairs), 3 * len(pairs), len(pairs)]


def golden_ratio(rng, n) -> bool:
    """The engine's golden-ratio Curve448 multiply (`ffau.mul_int`) ==
    schoolbook product mod p, `n` samples."""
    p = reference.P[CurveId.CURVE448]
    pairs = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
    return all(mul_int(a, b, CurveId.CURVE448) == mul_schoolbook(a, b) % p for a, b in pairs)


# r3 = (r0 + r1) x (r2 + 0) and r4 = (r0 - r1) x (r2 + 0), with r2 = 1
_ADD_SUB = (Wave((QuadOpInstruction(OP_ADD, 0, 1, OP_ADD, 2, ZERO, 3),)),
            Wave((QuadOpInstruction(OP_SUB, 0, 1, OP_ADD, 2, ZERO, 4),)))


def add_sub(curve: CurveId, a: int, b: int) -> tuple[int, int]:
    """(a + b, a - b) mod p from the FFAU's add/sub operand selectors, run
    through `execute_wave` with the other factor held at 1."""
    regs = registers(a, b, 1)
    for wave in _ADD_SUB:
        execute_wave(regs, wave, curve)
    return regs[3], regs[4]


def _edge_operands(curve: CurveId) -> tuple[int, ...]:
    """Operands at the bounds of the reductions: 0, 1, 2, p-1, p-2, (p-1)/2,
    the FFAU's unreduced selector values p, p+1, 2p-2 and 2p-1, an operand
    a < p whose product with a24 lies just above a multiple of p, and for
    Curve448 the values whose halves at phi = 2^224 are all-ones or near-max
    (the largest golden-ratio partials), and the largest top half of an
    operand below 2p with a zero bottom half.

    The a24 operand: with 2^w = p + k (w the bit length of p) and
    a*a24 = m*2^w - t, a*a24 = m*p + k*m - t, which is just above m*p for
    the least m with t <= k*m, so its `% p` leaves a small remainder.  The
    constants are `reference`'s, so a wrong model constant moves no edge."""
    p, c = reference.P[curve], reference.A24[curve]
    w = p.bit_length()
    k = 2**w - p
    m = next(m for m in range(1, c) if (m << w) % c <= k * m)
    edges = (0, 1, 2, p - 1, p - 2, (p - 1) // 2, p, p + 1, 2 * p - 2, 2 * p - 1,
             ((m << w) - (m << w) % c) // c)
    if curve is CurveId.CURVE448:
        phi = field.PHI
        edges += (phi - 1, phi, p - phi, (2 * p - 1) // phi * phi)
    return edges


def field_ops(rng, n) -> bool:
    """The FFAU add/sub selectors, `mul_int` and `mul_small_int` == `% p`,
    `n` samples per curve and every pair of edge operands, with p and a24
    from `reference`, not from the constants the kernels are built from."""
    ok = True
    for curve in CurveId:
        p, a24 = reference.P[curve], reference.A24[curve]
        for _ in range(n):
            a, b = rng.randrange(p), rng.randrange(p)
            ok &= add_sub(curve, a, b) == ((a + b) % p, (a - b) % p)
            ok &= mul_int(a, b, curve) == a * b % p
            ok &= mul_small_int(a, curve) == a * a24 % p
        edges = _edge_operands(curve)
        for a in edges:
            ok &= mul_small_int(a, curve) == a * a24 % p
            for b in edges:
                ok &= add_sub(curve, a, b) == ((a + b) % p, (a - b) % p)
                ok &= mul_int(a, b, curve) == a * b % p
    return ok


def inversion(rng, n) -> bool:
    """The inversion program, issued as the engine issues it, turns Z2 = a
    into 1/a in 265/462 cycles, on a = 1, 2 and p - 1 and then `n` random
    samples per curve."""
    ok = True
    for curve in CurveId:
        p, cycles = reference.P[curve], DESIGN[curve, False][2].inversion_cycles
        for a in (1, 2, p - 1, *(rng.randrange(1, p) for _ in range(n))):
            regs = registers()
            regs[program.Z2] = a
            issued = ecsm._issue(program.build_inversion_program(curve), regs, [])
            ok &= a * regs[program.Z2] % p == 1 and issued == cycles
    return ok


def ladder(rng, n) -> bool:
    """Ladders of 3/3 and 10/11 waves and 11/12 ops, and scheduled step ==
    straight-line step on `n` random register states per (curve, dpa), with
    X1 and Z1 never written, one step issued as the engine issues it.  The
    programs' issue rules are checked when they are built."""
    ok = True
    for (curve, dpa), (_, _, cycles, ops) in DESIGN.items():
        prog = program.build_ladder_program(curve, dpa)
        ok &= (PARAMS[curve].scalar_bits * len(prog.waves), prog.op_count) == (
            cycles.ladder_cycles, ops)
    for curve in CurveId:
        p = PARAMS[curve].p
        for dpa in (False, True):
            for _ in range(n):
                vals = [rng.randrange(p) for _ in range(6)]  # X1, Z1, X2, Z2, X3, Z3
                regs = registers(*vals)
                regs[program.R_RND] = rng.randrange(p)
                ecsm._issue(program.build_ladder_program(curve, dpa), regs, [])
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


def _edge_scalars(t: int) -> tuple[int, ...]:
    """t-bit scalars at the ends of the ladder's swap chain: 0, 1, 2, 3,
    2^t - 1, 2^t - 2, 2^(t-1) and the alternating 0101... and 1010..., which
    between them take every (previous bit, bit) swap case at the top and the
    bottom bit and both values of the closing swap."""
    return (0, 1, 2, 3, 2**t - 1, 2**t - 2, 2 ** (t - 1),
            int(("01" * t)[:t], 2), int(("10" * t)[:t], 2))


def ecsm_vs_reference(rng, n) -> bool:
    """Engine ECSM == branching reference ladder on the edge scalars of each
    curve (at one random point), then on `n` random inputs per curve."""
    inputs = []
    for curve in CurveId:
        x_p = fe(rng.randrange(reference.P[curve]), curve)
        inputs += [(Scalar(k, curve), x_p) for k in _edge_scalars(reference.BITS[curve])]
    inputs += [_random_input(rng, curve) for curve in CurveId for _ in range(n)]
    return all(scalar_mult(k, x_p).x_q.n == reference.scalar_mult_ref(k.curve, k.bits, x_p.n)
               for k, x_p in inputs)


def rfc_single_shot(rng, n) -> bool:
    """The RFC 7748 section 5.2 single-shot vectors (`vectors.SINGLE_SHOT`)
    through the byte API, which clamps the scalar and masks u's top bit, ==
    their published hex.  The vectors are fixed: `rng` and `n` are unused."""
    return all(scalar_mult_bytes(bytes.fromhex(k), bytes.fromhex(u), curve).hex() == want
               for curve, vectors in SINGLE_SHOT.items() for k, u, want in vectors)


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
    """One trace text for `n` random scalars per (curve, dpa) configuration.
    The engine builds the trace from its issue log, so a scalar that changed
    what issued would give another trace; the traces are compared by value,
    not by the identity that the cache gives."""
    ok = True
    for curve, dpa in DESIGN:
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=trivium.DEFAULT_SEED if dpa else None)
        traces = {scalar_mult(*_random_input(rng, curve), cfg).trace for _ in range(n)}
        ok &= len(traces) <= 1
    return ok


def cycle_totals(rng, n) -> bool:
    """Each published decomposition sums to the published cycles and us, and
    `n` random ECSMs per (curve, dpa) report exactly that decomposition."""
    ok = True
    for (curve, dpa), (total, latency_us, want, _) in DESIGN.items():
        ok &= want.total == total and f"{want.latency_us:.2f}" == f"{latency_us:.2f}"
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=trivium.DEFAULT_SEED if dpa else None)
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
    ("RFC 7748 single-shot vectors through the byte API", rfc_single_shot, 1, 1),
    ("lambda-invariance: DPA leaves x_Q unchanged", lambda_invariance, 1, 10),
    ("trace independent of the scalar", trace_constancy, 2, 5),
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
