"""The mutant table: one row per fault that some check must catch (mutation
analysis: DeMillo, Lipton & Sayward, IEEE Computer 1978).  Each row edits
one module of a copy of `src/`, `tests/` and `pyproject.toml` and runs its
target in a subprocess from that copy, so no mutant reaches this process or
any cache of it.  A row names the checks that kill it; a later change that
wants to show a check can fail adds a row here, and runs it with
`pytest tests/test_mutants.py -k <row id>`."""

import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from uecc import selftest

ROOT = pathlib.Path(__file__).parents[1]

# `selftest --quick` with every warning an error, as CI's `selftest` job and
# pytest's `filterwarnings` run it, and pytest with no cache to write
SELFTEST = ("-W", "error", "-m", "uecc.cli", "selftest", "--quick")
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider")
SELFTEST_SECONDS, PYTEST_SECONDS = 5, 120

# the FAIL line of each `selftest` check, by the check's function name
FAIL = {check.__name__: f"FAIL  {name}" for name, check, _, _ in selftest.CHECKS}


def fails_selftest(*lines):
    """A target: `selftest --quick` exits 1 and prints exactly `lines`, then
    its FAILURES line, besides its PASS lines."""
    return "selftest", lines


def fails_tests(*ids):
    """A target: pytest exits 1 and lists each node id in `ids` as FAILED."""
    return "pytest", ids


# the checks that multiply through the engine's unit
UNIT_CHECKS = ("field_ops", "golden_ratio", "inversion", "ladder", "ecsm_vs_reference",
               "rfc_single_shot", "lambda_invariance")
RAISED = "      RuntimeError: no keystream"
# tests that several rows name
RECORD = "tests/test_sources.py::test_replace_and_make_check_like_the_constructor"
OWNER = "tests/test_sources.py::test_only_the_owners_name_an_engine_fact"
STEP = "tests/test_program.py::TestLadderProgram::test_step_equals_reference_for_every_input"
KERNEL = "tests/test_sources.py::test_kernel_bounds_hold_for_every_input"
AD_HOC_SQUARE = "tests/test_sources.py::test_kernel_bounds_hold_on_ad_hoc_waves[square]"
WRONG_TYPE = "tests/test_sources.py::test_public_functions_reject_an_argument_of_the_wrong_type"
KEYSTREAM = "tests/test_trivium.py::TestKeystream::test_partial_word_rejected_before_any_draw"
EXECUTED = "tests/test_ecsm.py::TestIssueSeam::test_executed_equals_recorded"
# one extra wave, Z2^2 into r6 (T0): the inversion writes T0 before it reads
# it, so x_Q is unchanged
EXTRA_WAVE = "    from .ffau import Wave, mul_op\n    extra = Wave((mul_op(Z2, Z2, 6),))\n"

# (id, module under src/uecc, old text that occurs exactly once, new text, target)
MUTANTS = [
    # the structural Karatsuba product less one carry fold
    ("carry-fold-cx", "bigmul", "    if cx:\n        mid += sy << b\n", "",
     fails_selftest(FAIL["karatsuba"])),
    ("carry-fold-cy", "bigmul", "    if cy:\n        mid += sx << b\n", "",
     fails_selftest(FAIL["karatsuba"])),
    ("carry-fold-cxcy", "bigmul", "    if cx and cy:\n        mid += 1 << (2 * b)\n", "",
     fails_selftest(FAIL["karatsuba"])),
    # the structural product charging the engine's product count
    ("structural-product-charged", "bigmul", "    return karatsuba_level(x, y, 128, kar128_int)",
     "    counters.units += 1\n    return karatsuba_level(x, y, 128, kar128_int)",
     fails_tests(f"{OWNER}[counters]",
                 "tests/test_bigmul.py::TestKaratsuba::test_structural_reference_writes_no_global")),
    # a faulty engine unit, bound in `field`, where the kernels look it up,
    # so the Karatsuba check, which reads `bigmul`'s, still passes
    ("unit-plus-one", "field", "from .bigmul import kar256_int\n",
     "def kar256_int(x, y):\n    return x * y + 1\n",
     fails_selftest(*(FAIL[name] for name in UNIT_CHECKS))),
    ("unit-shifted", "field", "from .bigmul import kar256_int\n",
     "def kar256_int(x, y):\n    return x * y << 512\n",
     fails_selftest(*(FAIL[name] for name in UNIT_CHECKS))),
    # a wrong model a24: the field and ladder checks read `reference`'s
    # constants, so their oracles do not move with the model
    ("a24-25519", "field", "a24=121665,", "a24=121666,",
     fails_selftest(FAIL["field_ops"], FAIL["ladder"], FAIL["ecsm_vs_reference"],
                    FAIL["rfc_single_shot"])),
    ("a24-448", "field", "a24=39081,", "a24=39082,",
     fails_selftest(FAIL["field_ops"], FAIL["ladder"], FAIL["ecsm_vs_reference"],
                    FAIL["rfc_single_shot"])),
    # the same a24 seen by the field check alone, at its acceptance-test size
    ("a24-448-field-check", "field", "a24=39081,", "a24=39082,",
     fails_tests("tests/test_acceptance.py::test_criterion_4_field_arithmetic_oracle")),
    # a dropped fold still gives right values through the `% p`: only the
    # kernel proof sees the dividend outgrow its bound
    ("25519-no-fold", "field", r"x = (x & _M255) + 19 * (x >> 255)\n", "",
     fails_tests(f"{KERNEL}[curve25519-00]", AD_HOC_SQUARE)),
    ("448-no-second-fold", "field", "h1 = h >> 224\nx = p11 + p00 + h1 + (((h & _M224) + h1) << 224)",
     "x = p11 + p00 + (h << 224)", fails_tests(f"{KERNEL}[curve448-22]", AD_HOC_SQUARE)),
    ("field-element-admits-p", "field", "if not 0 <= n < curve_params(curve).p:",
     "if not 0 <= n <= curve_params(curve).p:", fails_tests(f"{RECORD}[FieldElement]")),
    # the generated kernels' operand selectors
    ("sum-selector-plus-one", "ffau", 'f"r[{x}] + r[{y}]"', 'f"r[{x}] + r[{y}] + 1"',
     fails_selftest(FAIL["field_ops"], FAIL["ladder"], FAIL["ecsm_vs_reference"],
                    FAIL["rfc_single_shot"], FAIL["lambda_invariance"])),
    ("difference-selector-reversed", "ffau", 'f"r[{x}] - r[{y}] + {p}"', 'f"r[{y}] - r[{x}] + {p}"',
     fails_selftest(FAIL["field_ops"], FAIL["ladder"], FAIL["ecsm_vs_reference"],
                    FAIL["rfc_single_shot"])),
    ("selector-names-collide", "ffau", "if key not in names:", "if True:",
     fails_selftest(FAIL["ladder"], FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"],
                    FAIL["lambda_invariance"])),
    # the issue rules and the op record, which `--quick` does not reach
    ("no-hazard-check", "ffau", "            if clash:\n                raise ScheduleError(\n",
     "            if False:\n                raise ScheduleError(\n",
     fails_tests("tests/test_ffau.py::TestInstructionValidation::test_intra_wave_hazard",
                 "tests/test_program.py::TestValidateSchedule::test_detects_hazard")),
    ("no-a24-limit", "ffau", "if units > MULTIPLIERS or consts > 1:", "if units > MULTIPLIERS:",
     fails_tests("tests/test_program.py::TestValidateSchedule::test_detects_issue_width",
                 "tests/test_program.py::TestValidateSchedule::test_pack_opens_a_wave_where_the_rules_reject"
                 "[25519-second-a24]")),
    ("wave-admits-five-ops", "ffau", "if not 1 <= len(ops) <= MULTIPLIERS:",
     "if not 1 <= len(ops) <= MULTIPLIERS + 1:",
     fails_tests(f"{RECORD}[Wave-five-ops]",
                 "tests/test_program.py::TestValidateSchedule::test_five_op_wave_unconstructible")),
    ("op-int-check-dropped", "ffau",
     "        for name, value in zip(cls._fields, fields):\n"
     "            if type(value) is not int:  # a bool or a float would pass the range checks\n"
     "                raise TypeError(f\"{name} must be an int, got {value!r}\")\n", "",
     fails_tests(*(f"{RECORD}[QuadOpInstruction-{case}]"
                   for case in ("opsel-float", "opsel-bool", "src-float")))),
    ("op-bool-check-dropped", "ffau",
     "        if type(const_tag) is not bool:  # a truthy \"no\" must not make an a24 op\n"
     "            raise TypeError(f\"const_tag must be a bool, got {const_tag!r}\")\n", "",
     fails_tests(f"{RECORD}[QuadOpInstruction-const-tag]")),
    # the LUT programs
    ("ladder-opsel-flipped", "program", "QuadOpInstruction(OP_ADD, X3, Z3, OP_SUB, X2, Z2, R_CB)",
     "QuadOpInstruction(OP_ADD, X3, Z3, OP_ADD, X2, Z2, R_CB)",
     fails_selftest(FAIL["ladder"], FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"])),
    ("ladder-writes-x1", "program", "mul_op(Z1, X3, X3)", "mul_op(Z1, X3, X1)",
     fails_selftest(FAIL["ladder"], FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"],
                    FAIL["lambda_invariance"], FAIL["cycle_totals"])),
    ("dpa-residue-reads-x1", "program", "mul_op(R_RND, Z1, R_RND)", "mul_op(R_RND, X1, R_RND)",
     fails_tests(f"{STEP}[25519-dpa]", f"{STEP}[448-dpa]")),
    ("inversion-writes-x2", "program", "        _mul(T1, T0, Z2),  ",
     "        _mul(T1, T0, X2),\n        _mul(T1, T0, Z2),  ",
     fails_selftest(FAIL["inversion"], FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"],
                    FAIL["lambda_invariance"], FAIL["cycle_totals"])),
    # a module other than `ffau` reads the register count or binds the array
    ("program-reads-num-registers", "program", "R_RND = 11\n",
     "from .ffau import NUM_REGISTERS\nR_RND = NUM_REGISTERS - 1\n",
     fails_tests(f"{OWNER}[NUM_REGISTERS]")),
    ("program-binds-multipliers", "program", "T0, T1, T2, T3 = 6, 7, 8, 9",
     "MULTIPLIERS = 4\nT0, T1, T2, T3 = 6, 7, 8, 9", fails_tests(f"{OWNER}[MULTIPLIERS]")),
    # a program of no phase, which would reach the trace and no phase's cycles
    ("phase-unchecked", "program", "        if phase_tag not in PHASES:", "        if False:",
     fails_tests("tests/test_program.py::TestScheduledProgram::test_phase_must_be_one_of_the_phases")),
    # the engine's masked swap and its bit chain
    ("closing-swap-dropped", "ecsm", "    _cswap_running_pairs(regs, k & 1)\n", "",
     fails_selftest(FAIL["ecsm_vs_reference"])),
    ("swap-mask-not-negated", "ecsm", "    mask = -swap_bit\n", "    mask = swap_bit\n",
     fails_selftest(FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"], FAIL["lambda_invariance"])),
    ("z-pair-not-swapped", "ecsm",
     "    d = (regs[Z2] ^ regs[Z3]) & mask\n    regs[Z2] ^= d\n    regs[Z3] ^= d\n", "",
     fails_selftest(FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"])),
    ("swap-bits-not-chained", "ecsm", "swaps = k ^ (k >> 1)", "swaps = k",
     fails_selftest(FAIL["ecsm_vs_reference"], FAIL["rfc_single_shot"])),
    # the engine's accounting: the cycles derived from the issue log
    ("overhead-cycle-moved", "ecsm",
     'CycleReport(phase["ladder"], phase["inversion"], phase["init"] + phase["final"] + 1,',
     'CycleReport(phase["ladder"] + 1, phase["inversion"], phase["init"] + phase["final"],',
     fails_selftest(FAIL["cycle_totals"])),
    # an issue that runs and charges its program but leaves it out of the
    # issue log, and so out of the result, its trace and its cycles
    ("issue-log-not-appended", "ecsm", "    issued.append((prog, steps))\n", "",
     fails_tests("tests/test_cli.py::TestTraceOutput::test_trace_stdout_pinned[25519-False]",
                 "tests/test_ecsm.py::TestIssueSeam::test_issue_runs_and_records_one_program",
                 "tests/test_ecsm.py::TestIssueSeam::test_each_program_issues_once_per_ecsm[448-dpa]",
                 "tests/test_ecsm.py::TestIssueSeam::test_executed_equals_recorded[25519]")),
    ("issue-log-not-appended-selftest", "ecsm", "    issued.append((prog, steps))\n", "",
     fails_selftest(FAIL["inversion"], FAIL["cycle_totals"])),
    # an extra wave per one-bit of the scalar, issued through the seam: the
    # trace and the cycles follow the scalar, and only those two checks see it
    ("extra-wave-through-the-seam", "ecsm", "    _issue(build_inversion_program(curve), regs, issued)\n",
     EXTRA_WAVE + "    for _ in range(bin(k.bits).count('1')):\n"
     "        _issue(ScheduledProgram((extra,), 'ladder', curve), regs, issued)\n"
     "    _issue(build_inversion_program(curve), regs, issued)\n",
     fails_selftest(FAIL["trace_constancy"], FAIL["cycle_totals"])),
    # the same wave run around the seam, which records it nowhere: every
    # `selftest` check passes, and only the executed-equals-recorded spy sees it
    ("extra-wave-around-the-seam", "ecsm", "    _cswap_running_pairs(regs, k & 1)\n",
     "    _cswap_running_pairs(regs, k & 1)\n" + EXTRA_WAVE + "    for _ in range(bin(k).count('1')):\n"
     "        execute_compiled_wave(regs, extra.compiled(curve), curve)\n",
     fails_tests(*(f"{EXECUTED}[{case}]" for case in ("25519", "25519-dpa", "448", "448-dpa")))),
    ("ladder-charged-one-step", "ecsm", "counters.units += prog.products * steps",
     "counters.units += prog.products",
     fails_tests("tests/test_field.py::TestMul::test_multiplier_unit_counts")),
    ("cycle-report-admits-negative", "ecsm", "    if value < 0:\n", "    if False:\n",
     fails_tests(f"{RECORD}[CycleReport]", f"{RECORD}[EcsmResult-prng-negative]")),
    ("cycle-report-admits-floats", "ecsm", "    if type(value) is not int:\n", "    if False:\n",
     fails_tests(f"{RECORD}[CycleReport-not-an-int]", f"{RECORD}[EcsmResult-prng-not-an-int]")),
    ("result-x-unchecked", "ecsm", '        _check_arg("x_q", x_q, FieldElement)\n', "",
     fails_tests(f"{RECORD}[EcsmResult-x_q]")),
    ("result-prng-unchecked", "ecsm", '        _check_count("prng_cycles", prng_cycles)\n', "",
     fails_tests(f"{RECORD}[EcsmResult-prng-not-an-int]", f"{RECORD}[EcsmResult-prng-negative]")),
    ("dpa-without-seed", "ecsm", "if dpa_enabled and prng_seed is None:", "if False:",
     fails_tests(f"{RECORD}[EcsmConfig]", "tests/test_ecsm.py::TestConfig::test_dpa_requires_seed")),
    # the public functions' argument types
    ("argument-types-unchecked", "ecsm", "    if not isinstance(value, kind):\n", "    if False:\n",
     fails_tests(*(f"{WRONG_TYPE}[{case}]" for case in (
         "scalar_mult-k", "scalar_mult-x_p", "scalar_mult-cfg-None", "scalar_mult-cfg-tuple",
         "scalar_mult_bytes-cfg")))),
    ("octets-not-bytes-like", "field", "    if not isinstance(data, BYTES_LIKE):\n",
     "    if False:\n", fails_tests(*(f"{WRONG_TYPE}[scalar_mult_bytes-{case}]"
                                  for case in ("scalar-int", "scalar-hex", "u")))),
    # one bytes-like rule for the octets and the seed
    ("bytes-like-drops-memoryview", "field", "BYTES_LIKE = (bytes, bytearray, memoryview)",
     "BYTES_LIKE = (bytes, bytearray)",
     fails_tests("tests/test_sources.py::test_the_byte_api_takes_any_bytes_like_input",
                 "tests/test_ecsm.py::TestConfig::test_seed_is_copied_to_bytes")),
    # an octet string measured by its items: a 64-byte view of 2-byte items
    # passes as 32 bytes
    ("octets-measured-by-items", "field", "    octets = bytes(data)\n", "    octets = data\n",
     fails_tests("tests/test_sources.py::test_the_byte_api_takes_any_bytes_like_input")),
    # RFC 7748 decoding
    ("clamp-keeps-cofactor-bits", "ecsm", "bits & -params.cofactor | ", "bits | ",
     fails_selftest(FAIL["rfc_single_shot"])),
    ("clamp-leaves-top-bit", "ecsm", "bits = bits & -params.cofactor | 1 << (params.scalar_bits - 1)",
     "bits = bits & -params.cofactor", fails_selftest(FAIL["rfc_single_shot"])),
    ("scalar-not-masked", "ecsm", 'bits = int.from_bytes(data, "little") & ((1 << params.scalar_bits) - 1)',
     'bits = int.from_bytes(data, "little")',
     fails_selftest(FAIL["rfc_single_shot"], "      ValueError: scalar out of range")),
    ("u-not-masked", "ecsm", "value &= (1 << PARAMS[curve].scalar_bits) - 1", "pass",
     fails_selftest(FAIL["rfc_single_shot"])),
    ("u-masked-in-raw-mode", "ecsm", "    if _clamps(clamp_mode):\n        value &=",
     "    if _clamps(clamp_mode) or True:\n        value &=",
     fails_tests("tests/test_ecsm.py::TestDecodeU::test_round_trip",
                 "tests/test_cli.py::TestScalarmult::test_raw_scalar_keeps_the_u_top_bit")),
    # Trivium
    ("trivium-tap-moved", "trivium", "t1 = (a >> 27) ^ a", "t1 = (a >> 26) ^ a",
     fails_selftest(FAIL["trivium_words"])),
    ("keystream-takes-part-words", "trivium", "if nbytes < 0 or nbytes % 8:", "if nbytes < 0:",
     fails_tests(KEYSTREAM)),
    ("keystream-takes-negative-lengths", "trivium", "if nbytes < 0 or nbytes % 8:", "if nbytes % 8:",
     fails_tests(KEYSTREAM)),
    ("gen-lambda-curve-unchecked", "trivium", "params = curve_params(curve)", "params = PARAMS[curve]",
     fails_tests("tests/test_trivium.py::TestGenLambda::test_curve_must_be_a_curve_id")),
    # the checks run a program only through the engine's seam, and build no
    # cycle report besides the published table
    ("selftest-loops-checked-waves", "selftest",
     "            ecsm._issue(program.build_inversion_program(curve), regs, issued)\n",
     "            prog = program.build_inversion_program(curve)\n"
     "            for wave in prog.waves:\n"
     "                execute_wave(regs, wave, curve)\n"
     "            issued.append((prog, 1))\n",
     fails_tests(f"{OWNER}[execute_wave]", f"{OWNER}[_issue]")),
    ("selftest-builds-a-cycle-report", "selftest", ".cycles == want for _ in range(n))",
     ".cycles == CycleReport(*want) for _ in range(n))", fails_tests(f"{OWNER}[CycleReport]")),
    # a check that raises is reported, and the checks after it still run
    ("next64-raises", "trivium", "    state.next64_calls += 1\n",
     "    raise RuntimeError('no keystream')\n",
     fails_selftest(FAIL["trivium_words"], RAISED, FAIL["lambda_invariance"], RAISED,
                    FAIL["trace_constancy"], RAISED, FAIL["cycle_totals"], RAISED)),
]


def copy_of_the_checkout(tmp_path):
    """A copy of `src/`, `tests/` and `pyproject.toml` in `tmp_path`, its own
    pytest rootdir, so pytest's `pythonpath` imports the copy's `src`."""
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    return tmp_path


def run(copy, argv, timeout):
    """`python *argv` in `copy`, importing the copy's package, writing no bytecode."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, *argv], cwd=copy, env=env, capture_output=True,
                          text=True, timeout=timeout)


def failed_ids(stdout):
    """The node ids of pytest's `FAILED` summary lines."""
    return {line[len("FAILED "):].split(" - ")[0] for line in stdout.splitlines()
            if line.startswith("FAILED ")}


IDS = [row[0] for row in MUTANTS]


@pytest.mark.parametrize("row", MUTANTS, ids=IDS)
def test_mutant_is_killed(tmp_path, row):
    name, module, old, new, (kind, expected) = row
    path = pathlib.Path("src", "uecc", f"{module}.py")
    source = (ROOT / path).read_text()
    count = source.count(old)
    assert count == 1, f"{name}: old text occurs {count} times in {path}"
    copy = copy_of_the_checkout(tmp_path)
    (copy / path).write_text(source.replace(old, new))
    if kind == "selftest":
        out = run(copy, SELFTEST, SELFTEST_SECONDS)
        lines = [line for line in out.stdout.splitlines() if not line.startswith("PASS  ")]
        assert (out.returncode, lines) == (1, [*expected, "selftest: FAILURES"]), out.stderr
    else:
        out = run(copy, (*PYTEST, *expected), PYTEST_SECONDS)
        assert (out.returncode, failed_ids(out.stdout)) == (1, set(expected)), out.stdout


def test_the_unmutated_copy_passes_every_target(tmp_path):
    # a target that failed for some other reason would count as a kill; and a
    # repeated id, which pytest would suffix, would not be the row's pytest id
    assert len(set(IDS)) == len(IDS)
    copy = copy_of_the_checkout(tmp_path)
    out = run(copy, SELFTEST, SELFTEST_SECONDS)
    assert out.returncode == 0, out.stdout
    ids = sorted({i for *_, (kind, expected) in MUTANTS if kind == "pytest" for i in expected})
    out = run(copy, (*PYTEST, *ids), PYTEST_SECONDS)
    assert out.returncode == 0, out.stdout
