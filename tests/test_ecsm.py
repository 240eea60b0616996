import itertools
import random
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from uecc import ecsm, ffau, field, reference, selftest, trivium
from uecc.bigmul import kar256_structural_int
from uecc.ecsm import (
    EcsmConfig,
    RAW,
    RFC_CLAMPED,
    Scalar,
    decode_scalar,
    decode_u,
    scalar_mult,
    scalar_mult_bytes,
)
from uecc.field import CurveId, FieldElement, PARAMS, fe
from uecc.ffau import NUM_REGISTERS, format_op, registers
from uecc.program import (
    FINAL_WAVE, INIT_WAVES, R_RND, X1, X3, Z3, build_inversion_program, build_ladder_program,
)
from uecc.reference import P as RFC_P, scalar_mult_ref
from uecc.trivium import DEFAULT_SEED, lambda_words
from uecc.vectors import BASE_U, ITERATED, SINGLE_SHOT

from spec import CURVES, programs, spy


def dpa_cfg(seed=trivium.DEFAULT_SEED):
    return EcsmConfig(dpa_enabled=True, prng_seed=seed)


C25519, C448 = CurveId.CURVE25519, CurveId.CURVE448


def decoder_inputs(curve):
    """Octets that both decoders' RFC 7748 rules are checked on: 0, 9, p,
    p + 5, p + 9, all-ones, 6 | 2^255, the single-shot scalars and u, and
    100 random draws.  The other decoding tests take inputs outside these."""
    nbytes, p = len(BASE_U[curve]), RFC_P[curve]
    rng = random.Random(f"decoders:{curve.value}")
    values = (0, 9, p, p + 5, p + 9, 2 ** (8 * nbytes) - 1, 6 | 2**255)
    return ([n.to_bytes(nbytes, "little") for n in values]
            + [bytes.fromhex(h) for k, u, _ in SINGLE_SHOT[curve] for h in (k, u)]
            + [rng.randbytes(nbytes) for _ in range(100)])


def check_wrong_length(decode, what):
    """`decode` refuses, on each curve, a byte short and the other curve's
    width, naming `what` it decodes and both lengths."""
    for curve, other in ((C25519, C448), (C448, C25519)):
        nbytes = len(BASE_U[curve])
        for wrong in (nbytes - 1, len(BASE_U[other])):
            message = f"{curve.value} {what} must be {nbytes} bytes, got {wrong}"
            with pytest.raises(ValueError, match=message):
                decode(bytes(wrong), curve, RAW)


class TestClamp:
    # RFC 7748 section 5, written here rather than read from `field.PARAMS`:
    # decodeScalar25519 clears bits 0-2 and 255 and sets bit 254, and
    # decodeScalar448 clears bits 0-1 and sets bit 447; RAW keeps the low
    # 255 or 448 bits
    RULES = {(C25519, RFC_CLAMPED): lambda n: n & ~7 & (2**255 - 1) | 2**254,
             (C448, RFC_CLAMPED): lambda n: n & ~3 | 2**447,
             (C25519, RAW): lambda n: n & (2**255 - 1), (C448, RAW): lambda n: n}

    def test_rfc_rules_independent_rederivation(self):
        for (curve, mode), rule in self.RULES.items():
            for data in decoder_inputs(curve):
                want = Scalar(rule(int.from_bytes(data, "little")), curve)
                assert decode_scalar(data, curve, mode) == want, (curve, mode, data.hex())

    def test_zero_bytes_curve25519(self):
        # the cofactor's bits alone decode as zero bytes do
        assert decode_scalar(b"\x07" + bytes(31), C25519, RFC_CLAMPED).bits == 1 << 254

    def test_zero_bytes_curve448(self):
        assert decode_scalar(b"\x03" + bytes(55), C448, RFC_CLAMPED).bits == 1 << 447

    def test_rfc_vector_scalar_decodes(self):
        # the first iteration's output, which the next round takes as its scalar
        k = decode_scalar(bytes.fromhex(ITERATED[C25519][1]), C25519, RFC_CLAMPED)
        assert k.bits % 8 == 0 and k.bits >> 254 == 1

    def test_raw_mode_masks_to_t_bits(self):
        assert decode_scalar(bytes(31) + b"\x80", C25519, RAW).bits == 0

    def test_wrong_length(self):
        check_wrong_length(decode_scalar, "scalar")


class TestDecodeU:
    """The engine's u-coordinate decoding from the wire, RFC 7748 section 5's
    decodeUCoordinate written here: when clamping, Curve25519's bit 255 is
    masked; then, in both modes, the value is reduced mod p."""

    def test_round_trip(self):
        # and the canonical encoding of what was decoded decodes to it again
        for curve, mode in itertools.product(CURVES, (RAW, RFC_CLAMPED)):
            mask = 2**255 - 1 if (curve, mode) == (C25519, RFC_CLAMPED) else -1
            for data in decoder_inputs(curve):
                u = decode_u(data, curve, mode)
                assert u == FieldElement((int.from_bytes(data, "little") & mask) % RFC_P[curve], curve)
                assert decode_u(u.n.to_bytes(len(data), "little"), curve, mode) == u

    def test_zero(self):
        # 2p, which fits 32 bytes only on Curve25519
        assert decode_u((2 * RFC_P[C25519]).to_bytes(32, "little"), C25519, RAW).n == 0

    def test_base_point_u(self):
        assert decode_u(BASE_U[C448], C448, RFC_CLAMPED).n == 5

    def test_top_bit_masked_when_clamping(self):
        # Curve448 ignores no bit: its top bit is kept
        assert decode_u((1 << 447).to_bytes(56, "little"), C448, RFC_CLAMPED).n == 1 << 447

    def test_reduces_mod_p(self):
        for mode in (RAW, RFC_CLAMPED):
            assert decode_u((2**255 - 1).to_bytes(32, "little"), C25519, mode).n == 18

    def test_wrong_length(self):
        check_wrong_length(decode_u, "u-coordinate")


class TestInitialization:
    """The registers each program of an ECSM is issued on, up to the ladder,
    seen through a spy on `ecsm._issue`.  The scalar's top bit is 0, so the
    masked swap before the first ladder step is a no-op, and the registers
    the ladder is issued on are those of its first step."""

    @staticmethod
    def issued_until_ladder(monkeypatch, curve, cfg):
        """(phase, registers before the issue, cycles issued) of each program
        issued before and including the ladder."""
        issued = []
        with monkeypatch.context() as patch:
            spy(patch, ecsm, "_issue", issued, record=lambda prog, regs, log, k=0, steps=1: (
                prog.phase_tag, list(regs), len(prog.waves) * steps))
            scalar_mult(Scalar(1, curve), fe(9, curve), cfg)
        phases = [phase for _, (phase, _, _), _ in issued]
        return [recorded for _, recorded, _ in issued[:phases.index("ladder") + 1]]

    def test_lambda_one_degenerate(self, monkeypatch):
        # the plain initialization is the randomized one with lambda = 1 and no
        # init program: X1 = X3 = x_P, Z1 = X2 = Z3 = 1, Z2 = 0, and R_RND = 0
        for curve in CURVES:
            (ladder,) = self.issued_until_ladder(monkeypatch, curve, EcsmConfig())
            assert ladder[:2] == ("ladder", registers(9, 1, 1, 0, 9, 1))  # X1, Z1, X2, Z2, X3, Z3

    def test_randomized_state(self, monkeypatch):
        for curve in CURVES:
            p = PARAMS[curve].p
            cfg = dpa_cfg()
            lam = trivium.gen_lambda(trivium.TriviumState(*cfg.prng_seed), curve)  # the engine's draw
            init, ladder = self.issued_until_ladder(monkeypatch, curve, cfg)
            want = registers(9, lam, lam, 0, 9, lam)  # X1, Z1, X2, Z2, X3, Z3
            want[R_RND] = lam
            assert init == ("init", want, 2)
            want[X1] = want[X3] = lam * 9 % p
            assert ladder[:2] == ("ladder", want)


class TestScalarMult:
    # k = 0 and 1 and the RFC 7748 vectors with DPA on, where lambda scales
    # each Z that the inversion cancels (the checks run them with DPA off)
    def test_raw_k1_returns_base(self):
        for curve in CURVES:
            assert scalar_mult(Scalar(1, curve), fe(9, curve), dpa_cfg()).x_q.n == 9

    def test_raw_k0_returns_infinity_as_zero(self):
        for curve in CURVES:
            assert scalar_mult(Scalar(0, curve), fe(9, curve), dpa_cfg()).x_q.n == 0

    def test_rfc_single_shot_vectors(self):
        for curve, vectors in SINGLE_SHOT.items():
            for k, u, want in vectors:
                assert scalar_mult_bytes(bytes.fromhex(k), bytes.fromhex(u), curve, dpa_cfg()).hex() == want

    def test_matches_branching_reference_100_per_curve(self):
        # a smoke check: the proofs (README, tests) cover every input, 5 per curve sample it
        assert selftest.ecsm_vs_reference(random.Random(57), 5)

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
        # the range is the curve's: 2^255, out of Curve25519's, is in Curve448's
        assert Scalar(1 << 255, C448).bits == 1 << 255
        with pytest.raises(ValueError, match="scalar out of range"):
            Scalar(-1, C25519)


class TestTrace:
    @pytest.mark.parametrize("curve", CURVES, ids=("25519", "448"))
    def test_a_lambda_redraw_reaches_the_trace(self, monkeypatch, curve):
        # the trace is cached per issue log and PRNG word count: a draw that
        # takes one more batch of words must give a trace with those words
        k, x_p = Scalar(12345, curve), fe(9, curve)
        normal = scalar_mult(k, x_p, dpa_cfg()).trace

        def gen_lambda_redrawn(state, curve):
            for _ in range(trivium.lambda_words(curve)):  # a draw that reduced to 0
                trivium.next64(state)
            return trivium.gen_lambda(state, curve)

        monkeypatch.setattr(ecsm, "gen_lambda", gen_lambda_redrawn)
        result = scalar_mult(k, x_p, dpa_cfg())
        words = normal.count("  prng       next64\n")
        assert words == trivium.lambda_words(curve)
        assert result.trace.count("  prng       next64\n") == 2 * words
        assert result.trace.count("\n") == result.cycles.total == normal.count("\n") + words
        assert result.trace != normal

    def test_a_cold_trace_renders_each_issued_wave_once(self, monkeypatch):
        # the first read of a trace renders each wave of each issued program
        # once, however many times the program issues: one `format_op` call
        # per op of the issue log, far below one line per cycle
        calls = []
        spy(monkeypatch, ffau, "format_op", calls)
        for curve, dpa in CONFIGS:
            progs = programs(curve)
            issued = [progs["ladder-dpa" if dpa else "ladder"], progs["inversion"], progs["final"]]
            issued += [progs["init"]] if dpa else []
            ecsm._trace.cache_clear()
            calls.clear()
            cfg = dpa_cfg() if dpa else EcsmConfig()
            result = scalar_mult(Scalar(12345, curve), fe(9, curve), cfg)
            assert calls == []  # the trace is rendered when it is read, not by the ECSM
            assert result.trace.count("\n") == result.cycles.total
            assert len(calls) == sum(prog.op_count for prog in issued) < result.cycles.total
            if (curve, dpa) == (CurveId.CURVE25519, False):
                assert len(calls) == 11 + 265 + 1

    @pytest.mark.parametrize(
        "curve, dpa", list(selftest.DESIGN), ids=["25519", "25519-dpa", "448", "448-dpa"]
    )
    def test_lines_match_a_reference_renderer(self, curve, dpa):
        # the trace is a cached function of the issue log, which no scalar
        # changes, so two scalars get the very same object
        cfg = EcsmConfig(dpa_enabled=dpa, prng_seed=DEFAULT_SEED if dpa else None)
        trace, other = (scalar_mult(Scalar(bits, curve), fe(9, curve), cfg).trace
                        for bits in (12345, 2 ** 200 + 54321))
        assert isinstance(trace, str) and trace is other
        assert trace.count("\n") == selftest.DESIGN[curve, dpa][0]

        # the lines rendered here from the programs, independently of `ecsm`
        def wave_lines(phase, waves):
            return [phase.ljust(9) + "  " + "; ".join(map(format_op, w.ops)) + "\n" for w in waves]

        ladder, inversion = build_ladder_program(curve, dpa), build_inversion_program(curve)
        lines = (["prng       next64\n"] * lambda_words(curve) + wave_lines("init", INIT_WAVES)
                 if dpa else [])
        lines += wave_lines("ladder", ladder.waves) * PARAMS[curve].scalar_bits
        lines += wave_lines("inversion", inversion.waves) + wave_lines("final", [FINAL_WAVE])
        lines.append("overhead   load/store\n")
        assert trace == "".join(
            "cycle " + str(cycle).rjust(5) + "  " + line for cycle, line in enumerate(lines)
        )


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


class TestIssueSeam:
    """`ecsm._issue` executes, records and counts every wave of an ECSM."""

    def test_issue_runs_and_records_one_program(self):
        # the issue log, the only input of the trace and the cycles, gets
        # (program, steps) per issue, and `_issue` returns nothing besides
        for curve in CURVES:
            prog = build_ladder_program(curve, True)
            regs = registers()
            issued = []
            assert ecsm._issue(prog, regs, issued) is None
            assert issued == [(prog, 1)]
            assert ecsm._cycles(issued, 0) == (len(prog.waves), 0, 1, 0)

    @pytest.mark.parametrize("curve,dpa", CONFIGS, ids=("25519", "25519-dpa", "448", "448-dpa"))
    def test_each_program_issues_once_per_ecsm(self, monkeypatch, curve, dpa):
        # the ladder is one issue that carries the scalar, not one issue per
        # bit, each issue's waves times steps are the published cycles of its
        # phase, and the result keeps exactly the issues made, in order
        issued = []
        spy(monkeypatch, ecsm, "_issue", issued,
            record=lambda prog, regs, log, k=0, steps=1: (prog, steps))
        budget = selftest.DESIGN[curve, dpa][2]
        want = [("init", 2)] if dpa else []
        want += [("ladder", budget.ladder_cycles), ("inversion", budget.inversion_cycles), ("final", 1)]
        rng = random.Random(f"issued:{curve.value}:{dpa}")
        for k, x_p, cfg in random_runs(rng, [(curve, dpa)], 2):
            issued.clear()
            result = scalar_mult(k, x_p, cfg)
            assert [(prog.phase_tag, len(prog.waves) * steps)
                    for _, (prog, steps), _ in issued] == want
            assert result.issued == tuple(recorded for _, recorded, _ in issued)

    @pytest.mark.parametrize("curve,dpa", CONFIGS, ids=("25519", "25519-dpa", "448", "448-dpa"))
    def test_executed_equals_recorded(self, monkeypatch, curve, dpa):
        """With a spy on `ecsm.execute_compiled_wave`, every ECSM executes, in
        order, exactly the ops of the wave lines in its trace, the trace holds
        one line per reported cycle, and each executed wave is the very object
        its program's `compiled()` holds.  The traced benchmark run tells
        phases apart by those identities, and the init and final waves by
        equality with their op tuples, which the comparison with the trace's
        op text (rendered here from `ffau.format_op`) checks."""
        executed = []
        spy(monkeypatch, ecsm, "execute_compiled_wave", executed, record=lambda regs, ops, curve: ops)
        compiled = {id(ops) for prog in programs(curve).values() for ops in prog.compiled()}
        rng = random.Random(f"executed:{curve.value}:{dpa}")
        for k, x_p, cfg in random_runs(rng, [(curve, dpa)], 3):
            executed.clear()
            result = scalar_mult(k, x_p, cfg)
            lines = [re.fullmatch(r"cycle +\d+  (\w+) +(.*)", line).groups()
                     for line in result.trace.splitlines()]
            waves = [ops for _, ops, _ in executed]
            assert ["; ".join(map(format_op, ops)) for ops in waves] == [
                text for unit, text in lines if unit not in ("prng", "overhead")]
            assert len(lines) == result.cycles.total
            assert all(id(ops) in compiled for ops in waves)

    @pytest.mark.parametrize("curve,dpa", CONFIGS, ids=("25519", "25519-dpa", "448", "448-dpa"))
    def test_scalar_loop_equals_the_branching_ladder(self, curve, dpa):
        """`_issue`'s bit loop equals `reference.ladder`, the t-bit branching
        ladder over `ladder_step`, by induction over the steps.  With b_i
        bit i of k and b_t = 0, the running pairs hold the branching
        ladder's (R0, R1) before step i, swapped iff b_(i+1).  The swap by bit i of
        k ^ (k >> 1), b_(i+1) ^ b_i, leaves them swapped iff b_i, so the
        program, proved equal to `ladder_step` in `test_program`, takes the
        branch of b_i, and the closing swap by b_0 undoes the last.  As
        `scalar_taint` proves, k reaches the loop only through those swap
        bits, so every k < 2^t, t = 1..5, covers each (b_(i+1), b_i) at the
        first, a middle and the last step, and the closing swap both ways."""
        p, prog = PARAMS[curve].p, build_ladder_program(curve, dpa)
        rng = random.Random(f"scalar-loop:{curve.value}:{dpa}")
        for t in range(1, 6):
            for k in range(1 << t):
                regs = registers(*(rng.randrange(p) for _ in range(NUM_REGISTERS)))
                x1, z1, x2, z2, x3, z3 = regs[:Z3 + 1]
                rnd = regs[R_RND] * pow(z1, t if dpa else 0, p) % p
                ecsm._issue(prog, regs, [], k, t)
                x2, z2, x3, z3 = reference.ladder(curve, k, t, x1, z1, x2, z2, x3, z3)
                assert regs[:Z3 + 1] + [regs[R_RND]] == [x1, z1, x2, z2, x3, z3, rnd], (t, k)


class TestConfig:
    # each record rule is a row of `tests/test_sources.py::test_replace_and_make_
    # check_like_the_constructor`; these keep inputs its rows do not, and accepted ones

    def test_dpa_requires_seed(self):
        # the seed's default is None, so DPA asked for without one is refused
        with pytest.raises(ValueError, match="dpa_enabled requires a prng_seed"):
            EcsmConfig(dpa_enabled=True)

    def test_seed_length_checked(self):
        # 10-byte parts, the rows' bound, are taken
        seed = (b"k" * 10, b"v" * 10)
        assert EcsmConfig(True, RFC_CLAMPED, seed).prng_seed == seed

    def test_seed_length_checked_without_dpa(self):
        assert EcsmConfig(prng_seed=trivium.DEFAULT_SEED).prng_seed == trivium.DEFAULT_SEED

    @pytest.mark.parametrize("seed", [b"x" * 20, ("a" * 10, "b" * 10), (bytes(10),),
                                      (bytes(10), bytes(10), bytes(10)), [bytes(10), bytes(10)]],
                             ids=("bytes", "str-parts", "one-part", "three-parts", "list"))
    def test_malformed_seed_rejected_when_built(self, seed):
        # caught here, not as an unpacking error or inside Trivium at the first DPA run
        with pytest.raises(ValueError, match="prng_seed"):
            EcsmConfig(dpa_enabled=True, prng_seed=seed)

    def test_dpa_enabled_must_be_a_bool(self):
        # a truthy int would run with DPA on, and None with it off
        for dpa in (1, None):
            with pytest.raises(TypeError, match="dpa_enabled must be a bool"):
                EcsmConfig(dpa_enabled=dpa, prng_seed=trivium.DEFAULT_SEED)

    def test_seed_is_copied_to_bytes(self):
        # a caller's bytearrays and memoryviews are not kept: the config
        # hashes, and writing to them later changes neither the config nor
        # its first DPA run
        for kind in (bytearray, lambda n: memoryview(bytearray(n))):
            key, iv = kind(10), kind(10)
            cfg = EcsmConfig(True, RFC_CLAMPED, (key, iv))
            key[0] = iv[9] = 1
            assert cfg.prng_seed == (bytes(10), bytes(10))
            assert all(type(part) is bytes for part in cfg.prng_seed)
            assert hash(cfg) == hash(dpa_cfg((bytes(10), bytes(10))))
            scalar_mult(Scalar(5, CurveId.CURVE25519), fe(9, CurveId.CURVE25519), cfg)

    def test_clamp_mode_checked(self):
        # the constant's name is not its value
        with pytest.raises(ValueError, match="unknown clamp mode"):
            EcsmConfig(clamp_mode="RFC_CLAMPED")

    def test_scalar_curve_must_be_a_curve_id(self):
        # an unhashable curve too, which fails the PARAMS lookup another way
        for curve in ("25519", None, [CurveId.CURVE25519]):
            with pytest.raises(TypeError, match="curve must be a CurveId"):
                Scalar(5, curve)

    @pytest.mark.parametrize("value", [3.0, "3", None], ids=("float", "str", "None"))
    def test_scalar_and_element_values_must_be_ints(self, value):
        # a float passes the range check and would fail only deep in the
        # engine, in the ladder's shifts or the masked swap's xor
        with pytest.raises(TypeError, match="bits must be an int"):
            Scalar(value, C25519)
        with pytest.raises(TypeError, match="n must be an int"):
            FieldElement(value, C25519)

    def test_bool_values_are_ints(self):
        curve = CurveId.CURVE25519
        assert Scalar(True, curve).bits == 1 and FieldElement(False, curve).n == 0

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


class TestMultiplierUnit:
    """The engine's builtin 256-bit unit against the structural Karatsuba
    reference.  That the engine multiplies through the unit it looks up, as
    often as it charges, is `tests/test_field.py::TestMul::test_multiplier_unit_counts`."""

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

        monkeypatch.setattr(field, "kar256_int", kar256_structural_int)
        reference = [scalar_mult(*run) for run in runs]
        assert [(r.x_q, r.cycles) for r in native] == [(r.x_q, r.cycles) for r in reference]


def openssl_or_zero(curve):
    """OpenSSL's X25519/X448 as `exchange(scalar, u) -> bytes`, which returns
    all-zero bytes where OpenSSL rejects the all-zero shared secret."""
    if curve is CurveId.CURVE25519:
        mod = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x25519")
        private, public = mod.X25519PrivateKey, mod.X25519PublicKey
    else:
        mod = pytest.importorskip("cryptography.hazmat.primitives.asymmetric.x448")
        private, public = mod.X448PrivateKey, mod.X448PublicKey

    def exchange(scalar, u):
        try:
            return private.from_private_bytes(scalar).exchange(public.from_public_bytes(u))
        except ValueError:  # OpenSSL's all-zero check
            return bytes(len(u))

    return exchange


class TestConcurrency:
    """ECSMs running at once in several threads each get the right result and
    cycle report.  `bigmul.counters` is still process-wide, so its totals
    are not checked here."""

    def test_threads_get_openssl_results_and_expected_reports(self):
        rng = random.Random(63)
        jobs = []
        for curve in CURVES:
            exchange = openssl_or_zero(curve)
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


# The RFC 7748 input edge space, stated once and checked against OpenSSL by
# the two classes below, each input with DPA off and with DPA on under four
# Trivium key/IVs (`edge_configs`): 16 random (scalar, u) pairs, and under the
# RFC vector's scalar and a random one (`edge_scalars`), the low-order u and
# the edge u.  The model returns all-zero bytes exactly where OpenSSL rejects
# the shared secret, which it does on every low-order u, and OpenSSL's output
# elsewhere.

# the two Curve25519 u of order 8 listed at cr.yp.to/ecdh.html
ORDER_8 = (
    325606250916557431795983626356110631294008115727848805560023387167927233504,
    39382357235489614581723060781553021112529911719440698176882885853963445705823,
)


def low_order_us(curve):
    p = PARAMS[curve].p
    return [0, 1, p - 1] + list(ORDER_8 if curve is CurveId.CURVE25519 else ())


def edge_us(curve, rng):
    """u at and above p, which decode reduced mod p, and on Curve25519 u with
    the ignored top bit set, which clamping masks off."""
    p = PARAMS[curve].p
    if curve is CurveId.CURVE25519:
        top = 1 << 255
        return [p, p + 1, top - 1, 9 | top, (p - 1) | top, (p + 1) | top, (2 * top) - 1]
    return [p, p + 1, p + 9, (1 << 448) - 1, rng.randrange(p, 1 << 448)]


def edge_scalars(curve, rng):
    return [bytes.fromhex(SINGLE_SHOT[curve][0][0]), rng.randbytes(PARAMS[curve].field_bytes)]


def edge_configs(rng, clamp_mode=RFC_CLAMPED):
    """DPA off, and DPA on under the default, an all-zero, an ff.../28...31
    and a random Trivium key/IV."""
    seeds = (trivium.DEFAULT_SEED, (bytes(10), bytes(10)), (b"\xff" * 10, bytes(range(40, 50))),
             (rng.randbytes(10), rng.randbytes(10)))
    return [EcsmConfig(clamp_mode=clamp_mode)] + [EcsmConfig(True, clamp_mode, s) for s in seeds]


def check_against_openssl(curve, pairs, rng):
    """Every (scalar, u) pair under every edge config gives OpenSSL's output,
    all-zero where it rejects the shared secret, as it must on a low-order u."""
    exchange = openssl_or_zero(curve)
    nbytes = PARAMS[curve].field_bytes
    low_order = low_order_us(curve)
    for scalar, u in pairs:
        u_bytes = u.to_bytes(nbytes, "little")
        want = exchange(scalar, u_bytes)
        if u in low_order:
            assert want == bytes(nbytes), hex(u)
        for cfg in edge_configs(rng):
            got = scalar_mult_bytes(scalar, u_bytes, curve, cfg)
            assert got == want, (scalar.hex(), hex(u), cfg)


class TestNonCanonicalU:
    """The edge u: at and above p (reduced mod p) and, on Curve25519, the
    ignored top bit."""

    @pytest.mark.parametrize("curve", CURVES)
    def test_clamped_against_openssl(self, curve):
        rng = random.Random(f"non-canonical:{curve.value}")
        us = edge_us(curve, rng)
        pairs = [(scalar, u) for scalar in edge_scalars(curve, rng) for u in us]
        check_against_openssl(curve, pairs, rng)

    @pytest.mark.parametrize("curve", CURVES)
    def test_raw_extreme_scalars_against_reference(self, curve):
        # raw mode keeps every u bit and the scalar as given: 0 and all-ones,
        # over the low-order and the edge u, against the branching reference
        params = PARAMS[curve]
        nbytes = params.field_bytes
        rng = random.Random(f"non-canonical-raw:{curve.value}")
        for scalar in (bytes(nbytes), b"\xff" * nbytes):
            k = int.from_bytes(scalar, "little") & ((1 << params.scalar_bits) - 1)
            for u in low_order_us(curve) + edge_us(curve, rng):
                want = scalar_mult_ref(curve, k, u).to_bytes(nbytes, "little")
                for cfg in edge_configs(rng, RAW):
                    got = scalar_mult_bytes(scalar, u.to_bytes(nbytes, "little"), curve, cfg)
                    assert got == want, (k == 0, hex(u), cfg)


class TestOpenSSLCorpus:
    """A seeded random corpus and the low-order u."""

    @pytest.mark.parametrize("curve", CURVES)
    def test_random_corpus(self, curve):
        nbytes = PARAMS[curve].field_bytes
        rng = random.Random(f"corpus:{curve.value}")
        pairs = [(rng.randbytes(nbytes), int.from_bytes(rng.randbytes(nbytes), "little")) for _ in range(16)]
        check_against_openssl(curve, pairs, rng)

    @pytest.mark.parametrize("curve", CURVES)
    def test_low_order_u(self, curve):
        """Contract: on every low-order u, 0 and 1 among them, the model
        returns x_Q = 0 (all-zero bytes), with DPA off and on, where OpenSSL
        rejects the all-zero shared secret."""
        low_order = low_order_us(curve)
        for u in low_order:
            # x(8 * P) == 0 in the reference ladder: u has low order, so every
            # clamped scalar (a multiple of the cofactor) gives the all-zero
            # secret OpenSSL rejects
            assert scalar_mult_ref(curve, 8, u) == 0, hex(u)
        rng = random.Random(f"low-order:{curve.value}")
        pairs = [(scalar, u) for scalar in edge_scalars(curve, rng) for u in low_order]
        check_against_openssl(curve, pairs, rng)
