import hashlib
import io
import os
import pathlib
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from uecc import cli, field, selftest, trivium
from uecc.cli import main
from uecc.ecsm import RFC_CLAMPED, decode_scalar
from uecc.vectors import SINGLE_SHOT
from uecc.field import CurveId

V25519 = SINGLE_SHOT[CurveId.CURVE25519][0]
V448 = SINGLE_SHOT[CurveId.CURVE448][0]

# SHA-256 of the whole `uecc trace` stdout for the first RFC 7748 single-shot
# vector of each curve, with the default PRNG key and IV.
TRACE_SHA256 = {
    ("25519", False): "e11ca30a56938790ac507d628ae32464b17013703745e70761f3f6628aae3f37",
    ("25519", True): "06518d923415caa2bb43601be27161ae7ce1946e23c83b3c32d76917bd2da97e",
    ("448", False): "e8386882d5fb8112fd561b22b641f8caf2e9113ed147fbaec31079eeb6755581",
    ("448", True): "eef0656f934ae692df7f27eab66381b5bf53e33739c2591196e60a7ce78a017c",
}
# SHA-256 of the whole `uecc program-dump --curve C [--dpa]` stdout (every phase)
PROGRAM_DUMP_SHA256 = {
    ("25519", False): "219ee27d8f8750bf0d6267c5dde8d6bf3d12184f087d3bff954c9c1565d79871",
    ("25519", True): "612ff5a6224e9d1b0fc05e6af0732bc07b3ce2afb5efe80d21efed7220ce89b0",
    ("448", False): "ca04f4d03cb7e52f3ebe6110406bea297f19c526661ba259b57ed3fd2d2c41e5",
    ("448", True): "9d4deb881e44115ce3bce5d0503cc6a1e073e1f57c719c039ed2d7c271c83dd6",
}
# SHA-256 of the whole `uecc selftest --quick` stdout
SELFTEST_QUICK_SHA256 = "28e04e9fb2fb510eb1907c0a1f3f2a9b8f8420926398f1b33b2f04632e3a2de1"


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


class TestScalarmult:
    def test_kv_format(self):
        code, out = run_cli(
            "scalarmult", "--curve", "25519", "--cycles", "--format", "kv",
            "--scalar", V25519[0], "--u", V25519[1],
        )
        assert code == 0
        assert f"x_q={V25519[2]}" in out
        assert "total_cycles=1032" in out
        assert "modeled_latency_us=10.32" in out

    def test_deterministic_output(self):
        args = ("scalarmult", "--curve", "25519", "--dpa", "--cycles",
                "--scalar", V25519[0], "--u", V25519[1])
        assert run_cli(*args) == run_cli(*args)

    def test_malformed_hex(self):
        code, _ = run_cli("scalarmult", "--curve", "25519", "--scalar", "zz", "--u", V25519[1])
        assert code == 2

    def test_wrong_length(self):
        code, _ = run_cli("scalarmult", "--curve", "448", "--scalar", V25519[0], "--u", V448[1])
        assert code == 2

    def test_malformed_prng_seed_fails_without_dpa(self, monkeypatch):
        # the seed is parsed whether or not --dpa uses it
        monkeypatch.delenv("UECC_PRNG_KEY", raising=False)
        monkeypatch.delenv("UECC_PRNG_IV", raising=False)
        args = ("scalarmult", "--curve", "25519", "--scalar", V25519[0], "--u", V25519[1])
        assert run_cli(*args, "--prng-key", "zz", "--prng-iv", "12")[0] == 2
        assert run_cli(*args, "--prng-key", "00" * 9)[0] == 2
        monkeypatch.setenv("UECC_PRNG_KEY", "zz")
        assert run_cli(*args)[0] == 2
        monkeypatch.setenv("UECC_PRNG_KEY", "00" * 10)
        assert run_cli(*args) == (0, V25519[2] + "\n")

    @pytest.mark.parametrize("flag, what", [("--prng-key", "PRNG key"), ("--prng-iv", "PRNG IV")])
    def test_empty_prng_flag_is_an_error(self, monkeypatch, capsys, flag, what):
        # an empty flag is a malformed seed, not a request for the default one
        monkeypatch.delenv("UECC_PRNG_KEY", raising=False)
        monkeypatch.delenv("UECC_PRNG_IV", raising=False)
        args = ("scalarmult", "--curve", "25519", "--dpa", "--scalar", V25519[0], "--u", V25519[1])
        assert run_cli(*args, flag, "") == (2, "")
        assert capsys.readouterr().err == f"error: {what} must be 10 bytes (20 hex digits)\n"

    def test_empty_prng_variable_counts_as_unset(self, monkeypatch):
        argv = ["scalarmult", "--curve", "25519", "--dpa", "--scalar", V25519[0], "--u", V25519[1]]
        monkeypatch.setenv("UECC_PRNG_KEY", "")
        monkeypatch.setenv("UECC_PRNG_IV", "")
        cfg = cli._config(cli.build_parser().parse_args(argv))
        assert cfg.prng_seed == trivium.DEFAULT_SEED
        assert run_cli(*argv) == (0, V25519[2] + "\n")

    def test_raw_scalar_one(self):
        one = "01" + "00" * 31
        u = "09" + "00" * 31
        code, out = run_cli(
            "scalarmult", "--curve", "25519", "--raw-scalar", "--scalar", one, "--u", u
        )
        assert code == 0
        assert out.strip() == u

    def test_raw_scalar_keeps_the_u_top_bit(self):
        # --raw-scalar takes the u-coordinate verbatim too: its bit 255 stays
        # and is reduced mod p (u + 2^255 = u + 19), where the default masks
        # it.  The scalar is already clamped, so only u tells the runs apart
        k = decode_scalar(bytes.fromhex(V25519[0]), CurveId.CURVE25519, RFC_CLAMPED)
        scalar = k.bits.to_bytes(32, "little")
        u = int.from_bytes(bytes.fromhex(V25519[1]), "little")
        assert u >> 255 == 0

        def x_q(u, *flags):
            code, out = run_cli("scalarmult", "--curve", "25519", *flags, "--scalar", scalar.hex(),
                                "--u", u.to_bytes(32, "little").hex())
            assert code == 0
            return out.strip()

        assert x_q(u | 1 << 255) == x_q(u) == V25519[2]
        assert x_q(u | 1 << 255, "--raw-scalar") == x_q(u + 19) != V25519[2]


def trace_argv(curve, dpa, command=("trace",)):
    scalar, u, _ = V25519 if curve == "25519" else V448
    return [*command, "--curve", curve, "--scalar", scalar, "--u", u] + (["--dpa"] if dpa else [])


class TestTraceOutput:
    @pytest.fixture(autouse=True)
    def default_prng_seed(self, monkeypatch):
        monkeypatch.delenv("UECC_PRNG_KEY", raising=False)
        monkeypatch.delenv("UECC_PRNG_IV", raising=False)

    @pytest.mark.parametrize("curve, dpa", list(TRACE_SHA256))
    def test_trace_stdout_pinned(self, curve, dpa):
        code, out = run_cli(*trace_argv(curve, dpa))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TRACE_SHA256[curve, dpa]

    @pytest.mark.parametrize("curve, dpa", list(TRACE_SHA256))
    def test_scalarmult_trace_prints_the_same_cycles(self, curve, dpa):
        _, traced = run_cli(*trace_argv(curve, dpa))
        code, out = run_cli(*trace_argv(curve, dpa, ("scalarmult", "--trace")))
        assert code == 0
        # trace adds the cycle report after x_Q; the cycle lines are the same
        assert out.splitlines()[0] == traced.splitlines()[0]
        assert out.splitlines()[1:] == traced.splitlines()[2:]
        assert run_cli(*trace_argv(curve, dpa, ("scalarmult", "--trace", "--cycles"))) == (0, traced)

    def test_reused_parser_survives_an_invalid_invocation(self):
        argv = trace_argv("25519", False)
        first = run_cli(*argv)
        with pytest.raises(SystemExit) as exc:
            run_cli("trace", "--curve", "25519", "--scalar", V25519[0])
        assert exc.value.code == 2
        assert run_cli("trace", "--curve", "25519", "--scalar", "zz", "--u", V25519[1])[0] == 2
        assert run_cli(*argv) == first
        assert cli.build_parser() is cli.build_parser()


class TestVectors:
    def test_iteration_1(self):
        code, out = run_cli("vectors", "--curve", "25519", "--iterations", "1")
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_unknown_iteration_count(self):
        code, _ = run_cli("vectors", "--curve", "25519", "--iterations", "7")
        assert code == 2

    def test_zero_iterations(self):
        # no published value for 0 iterations: an error, not the default checks
        code, out = run_cli("vectors", "--curve", "25519", "--iterations", "0")
        assert code == 2
        assert out == ""

    def test_file_mode(self, tmp_path):
        good = tmp_path / "good.txt"
        good.write_text("# comment\n" + " ".join(V25519) + "\n")
        code, out = run_cli("vectors", "--curve", "25519", "--file", str(good))
        assert code == 0 and "PASS" in out

        bad = tmp_path / "bad.txt"
        bad.write_text(" ".join((V25519[0], V25519[1], "00" * 32)) + "\n")
        code, out = run_cli("vectors", "--curve", "25519", "--file", str(bad))
        assert code == 1
        assert "bad.txt:1" in out

    def test_file_expected_value_compares_as_bytes(self, tmp_path):
        f = tmp_path / "upper.txt"
        f.write_text(" ".join((V25519[0], V25519[1], V25519[2].upper())) + "\n")
        code, out = run_cli("vectors", "--curve", "25519", "--file", str(f))
        assert code == 0 and out == f"PASS  {f}:1\n"

    @pytest.mark.parametrize("field_index, what, text, error", [
        (0, "scalar", "zz" * 32, "is not valid hex"),
        (1, "u-coordinate", "09", "must be 32 bytes (64 hex digits)"),
        (2, "expected value", "00" * 56, "must be 32 bytes (64 hex digits)"),
    ], ids=("bad-hex", "short", "wide"))
    def test_file_malformed_field_names_its_line(self, tmp_path, capsys, field_index, what, text, error):
        f = tmp_path / "v.txt"
        fields = list(V25519)
        fields[field_index] = text
        f.write_text("# comment\n" + " ".join(fields) + "\n")
        code, out = run_cli("vectors", "--curve", "25519", "--file", str(f))
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {f}:2: {what} {error}\n"

    @pytest.mark.parametrize("count", ("1000", "7"))
    def test_file_with_iterations_is_an_error(self, tmp_path, capsys, count):
        # the file's vectors alone would run, silently dropping --iterations
        good = tmp_path / "good.txt"
        good.write_text(" ".join(V25519) + "\n")
        code, out = run_cli("vectors", "--curve", "25519", "--file", str(good), "--iterations", count)
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: --file cannot be combined with --iterations\n"

    def test_file_requires_curve(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("")
        code, _ = run_cli("vectors", "--file", str(f))
        assert code == 2


class TestOtherCommands:
    @pytest.mark.parametrize("argv", [
        ("program-dump", "--curve", "448", "--dpa", "--phase", "ladder"),
        tuple(trace_argv("25519", False)),
    ], ids=("program-dump", "trace"))
    def test_reader_closing_early_is_not_an_error(self, argv):
        # `uecc ... | head -1`: the reader leaves before the output is written;
        # the CLI prints no error and exits 1, like a command killed by SIGPIPE
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(pathlib.Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        with subprocess.Popen([sys.executable, "-m", "uecc.cli", *argv], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()
            code = proc.wait(timeout=120)
            err = proc.stderr.read()
        assert (code, err) == (1, b"")

    def test_program_dump(self):
        code, out = run_cli("program-dump", "--curve", "25519", "--phase", "ladder")
        assert code == 0
        assert out.count("<-") == 11

    def test_selftest_quick(self):
        code, out = run_cli("selftest", "--quick")
        assert code == 0
        assert "all checks passed" in out
        assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_QUICK_SHA256

    @pytest.mark.parametrize("curve, dpa", list(PROGRAM_DUMP_SHA256))
    def test_program_dump_stdout_pinned(self, curve, dpa):
        code, out = run_cli("program-dump", "--curve", curve, *(["--dpa"] if dpa else []))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == PROGRAM_DUMP_SHA256[curve, dpa]

    @pytest.mark.parametrize("unit", [lambda x, y: x * y + 1, lambda x, y: x * y << 512],
                             ids=("plus-one", "shifted"))
    def test_selftest_reports_a_faulty_multiplier(self, monkeypatch, unit):
        # a wrong engine product, off by one or far too wide for the fold:
        # every write is `% p`, so either way the registers stay canonical,
        # every check runs to its end in well under 5 s, and every check that
        # multiplies through the unit fails; the structural Karatsuba,
        # Trivium and the cycle and trace checks do not depend on product
        # values and still pass
        monkeypatch.setattr(field, "kar256_int", unit)
        t0 = time.perf_counter()
        code, out = run_cli("selftest", "--quick")
        assert time.perf_counter() - t0 < 5
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "selftest: FAILURES"
        failed = {line[len("FAIL  "):] for line in lines if line.startswith("FAIL  ")}
        assert failed == {
            "field mul == native big-int mod p",
            "golden-ratio mul == schoolbook mod p",
            "inversion program: a * 1/a == 1 in 265/462 cycles",
            "scheduled ladder == straight-line step",
            "engine ECSM == branching reference ladder",
            "RFC 7748 single-shot vectors through the byte API",
            "lambda-invariance: DPA leaves x_Q unchanged",
        }
        assert len(failed) + sum(line.startswith("PASS  ") for line in lines) == len(selftest.CHECKS)
        assert len(lines) == len(selftest.CHECKS) + 1  # no exception line below any FAIL
