import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from uecc import ecsm, field, perf, selftest, trivium
from uecc.bigmul import counters, kar256_structural_int
from uecc.ecsm import (
    EcsmConfig,
    RAW,
    RFC_CLAMPED,
    Scalar,
    _cswap_running_pairs,
    clamp_scalar,
    decode_scalar,
    decode_u,
    raw_scalar,
    scalar_mult,
    scalar_mult_bytes,
)
from uecc.field import CurveId, PARAMS, fe
from uecc.ffau import NUM_REGISTERS, Wave, mul_op
from uecc.program import R_AA, R_RND, X1, X2, X3, Z1, Z2, Z3, ScheduledProgram, build_ladder_program
from uecc.reference import ladder_step, scalar_mult_ref
from uecc.vectors import BASE_U, SINGLE_SHOT

CURVES = (CurveId.CURVE25519, CurveId.CURVE448)
SEED = (bytes(range(10)), bytes(range(10, 20)))


def dpa_cfg(seed=SEED):
    return EcsmConfig(dpa_enabled=True, prng_seed=seed)


class TestClamp:
    def test_zero_bytes_curve25519(self):
        k = clamp_scalar(bytes(32), CurveId.CURVE25519)
        assert k.bits == 1 << 254

    def test_zero_bytes_curve448(self):
        k = clamp_scalar(bytes(56), CurveId.CURVE448)
        assert k.bits == 1 << 447

    def test_rfc_rules_independent_rederivation(self):
        # Curve25519: clear bits 0-2 and bit 255, set bit 254; Curve448: clear
        # bits 0-1, set bit 447.  Re-derived here at the integer level.
        rng = random.Random(51)
        for _ in range(100):
            data = rng.randbytes(32)
            want = (int.from_bytes(data, "little") & ~7 & ((1 << 255) - 1)) | (1 << 254)
            assert clamp_scalar(data, CurveId.CURVE25519).bits == want
            data = rng.randbytes(56)
            want = (int.from_bytes(data, "little") & ~3) | (1 << 447)
            assert clamp_scalar(data, CurveId.CURVE448).bits == want

    def test_rfc_vector_scalar_decodes(self):
        data = bytes.fromhex(SINGLE_SHOT[CurveId.CURVE25519][0][0])
        k = clamp_scalar(data, CurveId.CURVE25519)
        assert k.bits % 8 == 0
        assert k.bits >> 254 == 1

    def test_raw_mode_masks_to_t_bits(self):
        data = bytes([0xFF] * 32)
        k = raw_scalar(data, CurveId.CURVE25519)
        assert k.bits == (1 << 255) - 1

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            clamp_scalar(bytes(31), CurveId.CURVE25519)
        with pytest.raises(ValueError):
            raw_scalar(bytes(32), CurveId.CURVE448)


class TestDecodeU:
    def test_top_bit_masked_when_clamping(self):
        data = bytearray(32)
        data[0] = 6
        data[31] = 0x80  # the ignored bit
        u_clamped = decode_u(bytes(data), CurveId.CURVE25519, RFC_CLAMPED)
        assert u_clamped.n == 6
        u_raw = decode_u(bytes(data), CurveId.CURVE25519, RAW)
        assert u_raw.n == (6 + (1 << 255)) % PARAMS[CurveId.CURVE25519].p

    def test_reduces_mod_p(self):
        p = PARAMS[CurveId.CURVE448].p
        data = (p + 9).to_bytes(56, "little")
        assert decode_u(data, CurveId.CURVE448, RFC_CLAMPED).n == 9


class TestCswap:
    """The in-place masked swap of (X2, Z2) with (X3, Z3) that the ladder runs."""

    def test_identity(self):
        regs = list(range(NUM_REGISTERS + 1))
        _cswap_running_pairs(regs, 0)
        assert regs == list(range(NUM_REGISTERS + 1))

    def test_swap(self):
        regs = list(range(NUM_REGISTERS + 1))
        want = list(regs)
        want[X2], want[Z2], want[X3], want[Z3] = regs[X3], regs[Z3], regs[X2], regs[Z2]
        _cswap_running_pairs(regs, 1)
        assert regs == want

    def test_involution(self):
        rng = random.Random(52)
        for bit in (0, 1):
            regs = [rng.getrandbits(448) for _ in range(NUM_REGISTERS + 1)]
            before = list(regs)
            _cswap_running_pairs(regs, bit)
            _cswap_running_pairs(regs, bit)
            assert regs == before


class TestInitialization:
    """The registers each program of an ECSM is issued on, up to the ladder,
    seen through a wrapped `ecsm._issue`.  The scalar's top bit is 0, so the
    masked swap before the first ladder step is a no-op, and the registers
    the ladder is issued on are those of its first step."""

    @staticmethod
    def issued_until_ladder(monkeypatch, curve, cfg):
        """(phase, registers before the issue, cycles issued) of each program
        issued before and including the ladder."""
        real = ecsm._issue
        issued = []

        def issue(prog, regs, events, *scalar):
            before = list(regs)
            cycles = real(prog, regs, events, *scalar)
            if not issued or issued[-1][0] != "ladder":
                issued.append((prog.phase_tag, before, cycles))
            return cycles

        with monkeypatch.context() as patch:
            patch.setattr(ecsm, "_issue", issue)
            scalar_mult(Scalar(1, curve), fe(9, curve), cfg)
        return issued

    @staticmethod
    def registers(values):
        regs = [0] * (NUM_REGISTERS + 1)
        for addr, value in values.items():
            regs[addr] = value
        return regs

    def test_lambda_one_degenerate(self, monkeypatch):
        # the plain initialization is the randomized one with lambda = 1 and no
        # init program: X1 = X3 = x_P, Z1 = X2 = Z3 = 1, Z2 = 0, and R_RND = 0
        for curve in CURVES:
            (ladder,) = self.issued_until_ladder(monkeypatch, curve, EcsmConfig())
            assert ladder[:2] == ("ladder", self.registers({X1: 9, X3: 9, Z1: 1, X2: 1, Z3: 1}))

    def test_randomized_state(self, monkeypatch):
        for curve in CURVES:
            p = PARAMS[curve].p
            lam = trivium.gen_lambda(trivium.TriviumState(*SEED), curve)  # the engine's draw
            init, ladder = self.issued_until_ladder(monkeypatch, curve, dpa_cfg())
            z_side = {Z1: lam, X2: lam, Z3: lam, R_RND: lam}
            assert init == ("init", self.registers({X1: 9, X3: 9, **z_side}), 2)
            assert ladder[:2] == ("ladder", self.registers({X1: lam * 9 % p, X3: lam * 9 % p, **z_side}))


class TestScalarMult:
    def test_raw_k1_returns_base(self):
        for curve in CURVES:
            p = PARAMS[curve].p
            x_p = fe(9, curve)
            res = scalar_mult(Scalar(1, curve), x_p, EcsmConfig(clamp_mode=RAW))
            assert res.x_q == x_p

    def test_raw_k0_returns_infinity_as_zero(self):
        for curve in CURVES:
            res = scalar_mult(Scalar(0, curve), fe(9, curve), EcsmConfig(clamp_mode=RAW))
            assert res.x_q.n == 0

    def test_rfc_single_shot_vectors(self):
        for curve in CURVES:
            for scalar_hex, u_hex, want_hex in SINGLE_SHOT[curve]:
                got = scalar_mult_bytes(bytes.fromhex(scalar_hex), bytes.fromhex(u_hex), curve)
                assert got.hex() == want_hex

    def test_matches_branching_reference(self):
        assert selftest.ecsm_vs_reference(random.Random(53), 3)

    def test_matches_branching_reference_100_per_curve(self):
        assert selftest.ecsm_vs_reference(random.Random(57), 100)

    @pytest.mark.parametrize("curve, wrong_a24", [(CurveId.CURVE25519, 121666),
                                                  (CurveId.CURVE448, 39082)], ids=("25519", "448"))
    def test_reference_ladder_keeps_its_own_constants(self, monkeypatch, curve, wrong_a24):
        # the reference states RFC 7748's constants itself: a wrong a24 in the
        # model's `field.PARAMS` must show as a mismatch, not move the oracle too
        rng = random.Random(f"reference-constants:{curve.value}")
        states = [[rng.randrange(PARAMS[curve].p) for _ in range(6)] for _ in range(4)]
        want = [ladder_step(curve, *s) for s in states]
        monkeypatch.setitem(field.PARAMS, curve, PARAMS[curve]._replace(a24=wrong_a24))
        assert [ladder_step(curve, *s) for s in states] == want

    def test_group_law_smoke(self):
        # raw-mode scalar_mult(a*b, P) == scalar_mult(a, scalar_mult(b, P))
        rng = random.Random(55)
        cfg = EcsmConfig(clamp_mode=RAW)
        for curve in CURVES:
            u = decode_u(BASE_U[curve], curve, RAW)
            for _ in range(2):
                a = rng.randrange(2, 1 << 16)
                b = rng.randrange(2, 1 << 16)
                bp = scalar_mult(Scalar(b, curve), u, cfg).x_q
                ab_p = scalar_mult(Scalar(a * b, curve), u, cfg).x_q
                a_bp = scalar_mult(Scalar(a, curve), bp, cfg).x_q
                assert ab_p == a_bp

    def test_curve_mismatch(self):
        with pytest.raises(ValueError):
            scalar_mult(Scalar(1, CurveId.CURVE25519), fe(9, CurveId.CURVE448))

    def test_scalar_range_checked(self):
        with pytest.raises(ValueError):
            Scalar(1 << 255, CurveId.CURVE25519)

    @pytest.mark.parametrize("cfg", [EcsmConfig(), dpa_cfg()], ids=("plain", "dpa"))
    def test_unreduced_product_raises_at_the_first_bit(self, monkeypatch, cfg):
        # named for the width check that once stopped the ladder at its first
        # bit; every register write is now `% p`, so a unit product far too
        # wide for the fold still leaves every register canonical: the ECSM
        # finishes, and only the oracle can tell that x_Q is wrong
        monkeypatch.setattr(field, "kar256_int", lambda x, y: x * y << 512)
        rng = random.Random(60)
        for curve in CURVES:
            params = PARAMS[curve]
            k = Scalar(rng.getrandbits(params.scalar_bits), curve)
            x_p = fe(rng.randrange(2, params.p), curve)
            x_q = scalar_mult(k, x_p, cfg).x_q.n
            assert 0 <= x_q < params.p
            assert x_q != scalar_mult_ref(curve, k.bits, x_p.n)


class TestTrace:
    def test_trace_off_by_default(self):
        res = scalar_mult(Scalar(5, CurveId.CURVE25519), fe(9, CurveId.CURVE25519),
                          EcsmConfig(clamp_mode=RAW))
        assert res.trace is None


def executed_matches_recorded(monkeypatch, runs) -> bool:
    """Run each (k, x_p, cfg) traced, with `ecsm.execute_compiled_wave` wrapped:
    True when every ECSM executed, in order, exactly the ops of the wave events
    in its trace, and the trace holds one event per reported cycle."""
    executed = []
    real = ecsm.execute_compiled_wave

    def execute_compiled_wave(regs, ops, curve):
        executed.append(ops)
        return real(regs, ops, curve)

    monkeypatch.setattr(ecsm, "execute_compiled_wave", execute_compiled_wave)
    ok = True
    for k, x_p, cfg in runs:
        executed.clear()
        result = scalar_mult(k, x_p, cfg, want_trace=True)
        recorded = [ev[2].compiled() for ev in result.trace if ev[0] == perf.EV_WAVE]
        ok &= executed == recorded and len(result.trace) == result.cycles.total
    return ok


CONFIGS = [(curve, dpa) for curve in CURVES for dpa in (False, True)]


def random_runs(rng, configs, n):
    """`n` random (k, x_p, cfg) per (curve, dpa), each DPA run with its own seed."""
    runs = []
    for curve, dpa in configs:
        params = PARAMS[curve]
        for _ in range(n):
            cfg = dpa_cfg((rng.randbytes(10), rng.randbytes(10))) if dpa else EcsmConfig()
            runs.append((Scalar(rng.getrandbits(params.scalar_bits), curve),
                         fe(rng.randrange(params.p), curve), cfg))
    return runs


# X2*Z2 into a ladder temporary, which every later phase writes before reading: x_Q is unchanged
EXTRA_WAVE = Wave((mul_op(X2, Z2, R_AA),))


def inject_on_one_bits(monkeypatch, through_seam):
    """After the ladder, issue one extra wave per one-bit of the scalar,
    through the seam `ecsm._issue` or around it."""
    real = ecsm._issue
    extra = {curve: ScheduledProgram((EXTRA_WAVE,), "ladder", curve) for curve in CURVES}

    def issue(prog, regs, events, k=0, steps=1):
        cycles = real(prog, regs, events, k, steps)
        for _ in range(bin(k).count("1")):  # only the ladder's call carries a scalar
            if through_seam:
                cycles += real(extra[prog.curve], regs, events)
            else:
                ecsm.execute_compiled_wave(regs, EXTRA_WAVE.compiled(prog.curve), prog.curve)
        return cycles

    monkeypatch.setattr(ecsm, "_issue", issue)


class TestIssueSeam:
    """`ecsm._issue` executes, records and counts every wave of an ECSM."""

    def test_issue_runs_and_records_one_program(self):
        for curve in CURVES:
            prog = build_ladder_program(curve, True)
            regs = [0] * (NUM_REGISTERS + 1)
            events = []
            assert ecsm._issue(prog, regs, events) == len(prog.waves)
            assert events == [(perf.EV_WAVE, "ladder", w) for w in prog.waves]
            assert ecsm._issue(prog, regs, None) == len(prog.waves)

    @pytest.mark.parametrize("curve,dpa", CONFIGS, ids=("25519", "25519-dpa", "448", "448-dpa"))
    def test_each_program_issues_once_per_ecsm(self, monkeypatch, curve, dpa):
        # the ladder is one issue that carries the scalar, not one issue per bit
        real = ecsm._issue
        issued = []

        def issue(prog, *args):
            cycles = real(prog, *args)
            issued.append((prog.phase_tag, cycles))
            return cycles

        monkeypatch.setattr(ecsm, "_issue", issue)
        ladder_cycles = PARAMS[curve].scalar_bits * len(build_ladder_program(curve, dpa).waves)
        inversion_cycles = {CurveId.CURVE25519: 265, CurveId.CURVE448: 462}[curve]
        want = [("init", 2)] if dpa else []
        want += [("ladder", ladder_cycles), ("inversion", inversion_cycles), ("final", 1)]
        rng = random.Random(f"issued:{curve.value}:{dpa}")
        for k, x_p, cfg in random_runs(rng, [(curve, dpa)], 2):
            for want_trace in (False, True):
                issued.clear()
                scalar_mult(k, x_p, cfg, want_trace)
                assert issued == want

    @pytest.mark.parametrize("curve,dpa", CONFIGS, ids=("25519", "25519-dpa", "448", "448-dpa"))
    def test_executed_equals_recorded(self, monkeypatch, curve, dpa):
        rng = random.Random(f"executed:{curve.value}:{dpa}")
        assert executed_matches_recorded(monkeypatch, random_runs(rng, [(curve, dpa)], 3))

    def test_wave_injected_through_the_seam_breaks_trace_constancy(self, monkeypatch):
        inject_on_one_bits(monkeypatch, through_seam=True)
        rng = random.Random(62)
        assert selftest.ecsm_vs_reference(rng, 1)  # x_Q is still right
        assert executed_matches_recorded(monkeypatch, random_runs(rng, CONFIGS, 1))
        assert not selftest.trace_constancy(rng, 2)

    def test_wave_injected_around_the_seam_is_caught(self, monkeypatch):
        inject_on_one_bits(monkeypatch, through_seam=False)
        rng = random.Random(63)
        assert selftest.ecsm_vs_reference(rng, 1)
        assert selftest.trace_constancy(rng, 2)  # the recording alone cannot see it
        assert not executed_matches_recorded(monkeypatch, random_runs(rng, CONFIGS, 1))


class TestConfig:
    def test_dpa_requires_seed(self):
        with pytest.raises(ValueError):
            EcsmConfig(dpa_enabled=True)

    def test_seed_length_checked(self):
        with pytest.raises(ValueError):
            EcsmConfig(dpa_enabled=True, prng_seed=(bytes(9), bytes(10)))

    def test_seed_length_checked_without_dpa(self):
        with pytest.raises(ValueError):
            EcsmConfig(prng_seed=(bytes(10), bytes(11)))
        assert EcsmConfig(prng_seed=SEED).prng_seed == SEED

    @pytest.mark.parametrize("seed", [b"x" * 20, ("a" * 10, "b" * 10), (bytes(10),),
                                      (bytes(10), bytes(10), bytes(10)), [bytes(10), bytes(10)]],
                             ids=("bytes", "str-parts", "one-part", "three-parts", "list"))
    def test_malformed_seed_rejected_when_built(self, seed):
        # caught here, not as an unpacking error or inside Trivium at the first DPA run
        for dpa in (False, True):
            with pytest.raises(ValueError, match="prng_seed"):
                EcsmConfig(dpa_enabled=dpa, prng_seed=seed)

    def test_clamp_mode_checked(self):
        with pytest.raises(ValueError):
            EcsmConfig(clamp_mode="sideways")

    def test_scalar_curve_must_be_a_curve_id(self):
        for curve in ("curve25519", "25519", None, [CurveId.CURVE25519]):
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                Scalar(5, curve)

    @pytest.mark.parametrize("mode", ["rfc-clamped", ""])
    def test_decoders_reject_an_unknown_clamp_mode(self, mode):
        # a misspelled mode must not decode some third way: unclamped, or
        # with the Curve25519 top bit of u kept
        for curve in CURVES:
            nbytes = PARAMS[curve].field_bytes
            with pytest.raises(ValueError, match="unknown clamp mode"):
                decode_scalar(bytes(nbytes), curve, mode)
            with pytest.raises(ValueError, match="unknown clamp mode"):
                decode_u(bytes(nbytes), curve, mode)


# 256-bit unit products per ECSM: the ladder program's per scalar bit, the
# inversion's and the final multiplication's (+ the init program's with DPA)
PRODUCTS_PER_ECSM = {
    (CurveId.CURVE25519, False): 2816,
    (CurveId.CURVE25519, True): 3073,
    (CurveId.CURVE448, False): 19772,
    (CurveId.CURVE448, True): 21572,
}


def counting(unit):
    """`unit` wrapped to count its calls in the wrapper's `calls` attribute."""

    def counted(x, y):
        counted.calls += 1
        return unit(x, y)

    counted.calls = 0
    return counted


class TestMultiplierUnit:
    """The engine's builtin 256-bit unit against the structural Karatsuba
    reference, and the products executed against those charged per program."""

    def test_structural_kernel_gives_identical_results(self, monkeypatch):
        rng = random.Random(58)
        runs = []
        for curve in CURVES:
            params = PARAMS[curve]
            inputs = [
                (decode_scalar(bytes.fromhex(k), curve, RFC_CLAMPED),
                 decode_u(bytes.fromhex(u), curve, RFC_CLAMPED))
                for k, u, _ in SINGLE_SHOT[curve]
            ]
            inputs += [
                (Scalar(rng.getrandbits(params.scalar_bits), curve), fe(rng.randrange(params.p), curve))
                for _ in range(2)
            ]
            cfgs = (EcsmConfig(), dpa_cfg(), dpa_cfg((bytes(10), bytes(10))),
                    dpa_cfg((rng.randbytes(10), rng.randbytes(10))))
            runs += [(k, x_p, cfg) for k, x_p in inputs for cfg in cfgs]
        native = [scalar_mult(*run) for run in runs]

        structural = counting(kar256_structural_int)
        monkeypatch.setattr(field, "kar256_int", structural)
        reference = []
        for k, x_p, cfg in runs:
            structural.calls = 0
            before = counters.units
            reference.append(scalar_mult(k, x_p, cfg))
            # the engine really multiplied through the replaced unit, as often as charged
            want = PRODUCTS_PER_ECSM[k.curve, cfg.dpa_enabled]
            assert structural.calls == counters.units - before == want
        assert [(r.x_q, r.cycles) for r in native] == [(r.x_q, r.cycles) for r in reference]

    @pytest.mark.parametrize("curve,dpa,products", [(*key, n) for key, n in PRODUCTS_PER_ECSM.items()])
    def test_products_per_ecsm(self, monkeypatch, curve, dpa, products):
        # the products executed, counted through the replaced unit, against
        # those `_issue` charges from the programs, each as one 2-level
        # Karatsuba product (9 base, 3 mid, 1 top)
        unit = counting(field.kar256_int)
        monkeypatch.setattr(field, "kar256_int", unit)
        params = PARAMS[curve]
        rng = random.Random(59)
        for seed in (SEED, (bytes(10), bytes(10)), (rng.randbytes(10), rng.randbytes(10))):
            k = Scalar(rng.getrandbits(params.scalar_bits), curve)
            x_p = fe(rng.randrange(params.p), curve)
            unit.calls = 0
            before = counters.snapshot()
            scalar_mult(k, x_p, dpa_cfg(seed) if dpa else EcsmConfig())
            got = tuple(b - a for a, b in zip(before, counters.snapshot()))
            assert unit.calls == got[2] == products
            assert got == (9 * products, 3 * products, products)


def openssl_exchange(curve):
    """OpenSSL's X25519/X448 as `exchange(scalar, u) -> bytes`, which raises
    ValueError on an all-zero shared secret."""
    if curve is CurveId.CURVE25519:
        mod = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x25519")
        private, public = mod.X25519PrivateKey, mod.X25519PublicKey
    else:
        mod = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x448")
        private, public = mod.X448PrivateKey, mod.X448PublicKey
    return lambda scalar, u: private.from_private_bytes(scalar).exchange(public.from_public_bytes(u))


def openssl_or_zero(exchange, scalar, u_bytes):
    """OpenSSL's shared secret, or all-zero bytes where OpenSSL rejects it."""
    try:
        return exchange(scalar, u_bytes)
    except ValueError:  # OpenSSL's all-zero check
        return bytes(len(u_bytes))


def edge_configs(rng, clamp_mode=RFC_CLAMPED):
    """DPA off, and DPA on under an all-zero and a random Trivium key/IV."""
    seeds = [(bytes(10), bytes(10)), (rng.randbytes(10), rng.randbytes(10))]
    return [EcsmConfig(clamp_mode=clamp_mode)] + [EcsmConfig(True, clamp_mode, seed) for seed in seeds]


class TestConcurrency:
    """ECSMs running at once in several threads each get the right result and
    cycle report.  `bigmul.counters` is still process-wide, so its totals
    are not checked here."""

    def test_threads_get_openssl_results_and_expected_reports(self):
        rng = random.Random(63)
        jobs = []
        for curve in CURVES:
            exchange = openssl_exchange(curve)
            nbytes = PARAMS[curve].field_bytes
            for dpa in (False, True):
                for _ in range(2):
                    scalar, u = rng.randbytes(nbytes), rng.randbytes(nbytes)
                    cfg = dpa_cfg((rng.randbytes(10), rng.randbytes(10))) if dpa else EcsmConfig()
                    jobs.append((scalar, u, curve, cfg, exchange(scalar, u)))
        rng.shuffle(jobs)  # both curves and both modes in flight at once
        barrier = threading.Barrier(4)

        def run(job):
            scalar, u, curve, cfg, _ = job
            k = decode_scalar(scalar, curve, cfg.clamp_mode)
            x_p = decode_u(u, curve, cfg.clamp_mode)
            barrier.wait(timeout=60)  # each round of four ECSMs starts together
            return scalar_mult(k, x_p, cfg)

        assert len(jobs) % 4 == 0
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside the waves
        try:
            # every job runs before any result is read: `pool.map` would
            # cancel the queued jobs at the first failure, and the threads
            # already at the barrier would then wait out its timeout
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, job) for job in jobs]
        finally:
            sys.setswitchinterval(interval)
        results = [future.result() for future in futures]
        for (_, _, curve, cfg, want), res in zip(jobs, results):
            assert res.x_q.n.to_bytes(PARAMS[curve].field_bytes, "little") == want
            assert res.cycles == selftest.DESIGN[curve, cfg.dpa_enabled][2]


class TestAllZeroOutput:
    """Contract: on u in {0, 1} the model returns x_Q = 0 (all-zero bytes), with
    DPA off and on, where OpenSSL rejects the all-zero shared secret."""

    SEEDS = (SEED, (bytes(10), bytes(10)), (b"\xff" * 10, bytes(range(40, 50))))

    @pytest.mark.parametrize("curve", CURVES)
    @pytest.mark.parametrize("u", (0, 1))
    def test_model_returns_zero_where_openssl_raises(self, curve, u):
        exchange = openssl_exchange(curve)
        nbytes = PARAMS[curve].field_bytes
        u_bytes = u.to_bytes(nbytes, "little")
        rng = random.Random(f"all-zero:{curve.value}:{u}")
        scalars = [bytes.fromhex(SINGLE_SHOT[curve][0][0])] + [rng.randbytes(nbytes) for _ in range(2)]
        configs = [EcsmConfig()] + [dpa_cfg(seed) for seed in self.SEEDS]
        for scalar in scalars:
            for cfg in configs:
                assert scalar_mult_bytes(scalar, u_bytes, curve, cfg) == bytes(nbytes)
            with pytest.raises(ValueError):
                exchange(scalar, u_bytes)


class TestNonCanonicalU:
    """RFC 7748 edge inputs against OpenSSL: u at and above p (reduced mod p),
    u = p - 1, and on Curve25519 the ignored top bit, each with DPA off and on.
    Where OpenSSL rejects an all-zero result (u = p or p + 1, which reduce to
    0 and 1), the model returns zero, as `TestAllZeroOutput` pins."""

    @staticmethod
    def edge_us(curve, rng):
        p = PARAMS[curve].p
        if curve is CurveId.CURVE25519:
            top = 1 << 255
            return [p, p + 1, top - 1, p - 1, 9 | top, (p - 1) | top, (p + 1) | top, (2 * top) - 1]
        return [p, p + 1, p + 9, (1 << 448) - 1, rng.randrange(p, 1 << 448), p - 1]

    @pytest.mark.parametrize("curve", CURVES)
    def test_clamped_against_openssl(self, curve):
        exchange = openssl_exchange(curve)
        nbytes = PARAMS[curve].field_bytes
        rng = random.Random(f"non-canonical:{curve.value}")
        scalar = rng.randbytes(nbytes)
        for u in self.edge_us(curve, rng):
            u_bytes = u.to_bytes(nbytes, "little")
            want = openssl_or_zero(exchange, scalar, u_bytes)
            for cfg in edge_configs(rng):
                assert scalar_mult_bytes(scalar, u_bytes, curve, cfg) == want, (hex(u), cfg)

    @pytest.mark.parametrize("curve", CURVES)
    def test_raw_extreme_scalars_against_reference(self, curve):
        # raw mode keeps every u bit and the scalar as given: 0 and all-ones
        params = PARAMS[curve]
        nbytes = params.field_bytes
        rng = random.Random(f"non-canonical-raw:{curve.value}")
        for scalar in (bytes(nbytes), b"\xff" * nbytes):
            k = int.from_bytes(scalar, "little") & ((1 << params.scalar_bits) - 1)
            for u in self.edge_us(curve, rng):
                want = scalar_mult_ref(curve, k, u).to_bytes(nbytes, "little")
                for cfg in edge_configs(rng, RAW):
                    got = scalar_mult_bytes(scalar, u.to_bytes(nbytes, "little"), curve, cfg)
                    assert got == want, (k == 0, hex(u), cfg)


class TestOpenSSLCorpus:
    """A seeded random corpus and the low-order u against OpenSSL, each with
    DPA off and on (`edge_configs`): the model returns all-zero bytes exactly
    where OpenSSL rejects the shared secret, and OpenSSL's output elsewhere."""

    # the two Curve25519 u of order 8 listed at cr.yp.to/ecdh.html
    ORDER_8 = (
        325606250916557431795983626356110631294008115727848805560023387167927233504,
        39382357235489614581723060781553021112529911719440698176882885853963445705823,
    )

    @pytest.mark.parametrize("curve", CURVES)
    def test_random_corpus(self, curve):
        exchange = openssl_exchange(curve)
        nbytes = PARAMS[curve].field_bytes
        rng = random.Random(f"corpus:{curve.value}")
        for _ in range(16):
            scalar, u_bytes = rng.randbytes(nbytes), rng.randbytes(nbytes)
            want = openssl_or_zero(exchange, scalar, u_bytes)
            for cfg in edge_configs(rng):
                got = scalar_mult_bytes(scalar, u_bytes, curve, cfg)
                assert got == want, (scalar.hex(), u_bytes.hex(), cfg)

    @pytest.mark.parametrize("curve", CURVES)
    def test_low_order_u(self, curve):
        exchange = openssl_exchange(curve)
        p, nbytes = PARAMS[curve].p, PARAMS[curve].field_bytes
        low_order = [0, 1, p - 1] + list(self.ORDER_8 if curve is CurveId.CURVE25519 else ())
        rng = random.Random(f"low-order:{curve.value}")
        for u in low_order:
            # x(8 * P) == 0 in the reference ladder: u has low order, so every
            # clamped scalar (a multiple of the cofactor) gives the all-zero
            # secret OpenSSL rejects
            assert scalar_mult_ref(curve, 8, u) == 0, hex(u)
            u_bytes = u.to_bytes(nbytes, "little")
            for scalar in (bytes.fromhex(SINGLE_SHOT[curve][0][0]), rng.randbytes(nbytes)):
                with pytest.raises(ValueError):
                    exchange(scalar, u_bytes)
                for cfg in edge_configs(rng):
                    assert scalar_mult_bytes(scalar, u_bytes, curve, cfg) == bytes(nbytes), (hex(u), cfg)
