"""Command-line front end: scalarmult, vectors, selftest, trace, program-dump.

Hex I/O uses little-endian octet strings (two hex digits per byte), so the
published vectors paste in directly.  Identical invocations produce
byte-identical output; the PRNG seed comes from --prng-key/--prng-iv, the
UECC_PRNG_KEY/UECC_PRNG_IV environment variables, or a fixed documented
default (00010203...).  `trace` is `scalarmult --cycles` followed by the
engine's trace text (`EcsmResult.trace`), built once per (curve, dpa)
configuration, written as one string.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import program
from .ecsm import (
    RAW,
    RFC_CLAMPED,
    EcsmConfig,
    decode_scalar,
    decode_u,
    scalar_mult,
    scalar_mult_bytes,
)
from .field import PARAMS, CurveId
from .trivium import DEFAULT_SEED

_CURVES = {"25519": CurveId.CURVE25519, "448": CurveId.CURVE448}


class CliError(Exception):
    pass


def _parse_hex(text: str, expected_len: int, what: str) -> bytes:
    try:
        data = bytes.fromhex(text)
    except ValueError:
        raise CliError(f"{what} is not valid hex")
    if len(data) != expected_len:
        raise CliError(f"{what} must be {expected_len} bytes ({2 * expected_len} hex digits)")
    return data


def _seed_part(flag: str | None, env: str, what: str, default: bytes) -> bytes:
    """A given flag, even an empty one, is parsed; an empty variable counts as unset."""
    text = flag if flag is not None else os.environ.get(env) or None
    return default if text is None else _parse_hex(text, 10, what)


def _prng_seed(args) -> tuple[bytes, bytes]:
    key, iv = DEFAULT_SEED
    return (_seed_part(args.prng_key, "UECC_PRNG_KEY", "PRNG key", key),
            _seed_part(args.prng_iv, "UECC_PRNG_IV", "PRNG IV", iv))


def _config(args) -> EcsmConfig:
    seed = _prng_seed(args)  # parsed even without --dpa, so a malformed seed is an error
    return EcsmConfig(
        dpa_enabled=args.dpa,
        clamp_mode=RAW if args.raw_scalar else RFC_CLAMPED,
        prng_seed=seed if args.dpa else None,
    )


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--curve", choices=_CURVES, required=True)
    p.add_argument("--dpa", action="store_true", help="enable randomized coordinates")
    p.add_argument("--prng-key", metavar="HEX", help="10-byte Trivium key (hex)")
    p.add_argument("--prng-iv", metavar="HEX", help="10-byte Trivium IV (hex)")
    p.add_argument("--scalar", metavar="HEX", required=True)
    p.add_argument("--u", metavar="HEX", required=True, help="input u-coordinate")
    p.add_argument("--raw-scalar", action="store_true",
                   help="take the scalar and the u-coordinate verbatim: no clamping, and"
                        " the Curve25519 u keeps its top bit (reduced mod p)")
    p.add_argument("--format", choices=("text", "kv"), default="text")


def cmd_scalarmult(args) -> int:
    """x_Q, then the cycle report if `args.cycles`, then the trace if
    `args.trace`, which only the `trace` command's parser sets."""
    curve = _CURVES[args.curve]
    nbytes = PARAMS[curve].field_bytes
    cfg = _config(args)
    scalar = _parse_hex(args.scalar, nbytes, "scalar")
    u = _parse_hex(args.u, nbytes, "u-coordinate")
    k = decode_scalar(scalar, curve, cfg.clamp_mode)
    x_p = decode_u(u, curve, cfg.clamp_mode)
    result = scalar_mult(k, x_p, cfg)
    out_hex = result.x_q.n.to_bytes(nbytes, "little").hex()
    if args.format == "kv":
        print(f"x_q={out_hex}")
        if args.cycles:
            print(result.cycles.as_kv())
    else:
        print(out_hex)
        if args.cycles:
            print(result.cycles.as_text())
    if args.trace:
        sys.stdout.write(result.trace)
    return 0


def cmd_program_dump(args) -> int:
    curve = _CURVES[args.curve]
    if args.phase in ("ladder", "all"):
        print(program.dump_program(program.build_ladder_program(curve, args.dpa)))
    if args.phase in ("inversion", "all"):
        print(program.dump_program(program.build_inversion_program(curve)))
    return 0


def _compare(label: str, got: bytes, expected: bytes) -> bool:
    ok = got == expected
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    if not ok:
        print(f"      expected {expected.hex()}")
        print(f"      got      {got.hex()}")
    return ok


def _run_vector(curve: CurveId, scalar_hex: str, u_hex: str, expected_hex: str, label: str) -> bool:
    """One vector, its three fields parsed as field-wide hex; an error names `label`."""
    n = PARAMS[curve].field_bytes
    scalar = _parse_hex(scalar_hex, n, f"{label}: scalar")
    u = _parse_hex(u_hex, n, f"{label}: u-coordinate")
    expected = _parse_hex(expected_hex, n, f"{label}: expected value")
    return _compare(label, scalar_mult_bytes(scalar, u, curve), expected)


def cmd_vectors(args) -> int:
    from . import vectors

    curves = [_CURVES[args.curve]] if args.curve else list(_CURVES.values())
    ok = True
    if args.file:
        if args.iterations is not None:
            raise CliError("--file cannot be combined with --iterations")
        curve = curves[0] if args.curve else None
        if curve is None:
            raise CliError("--file requires --curve")
        checked = 0
        with open(args.file) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) != 3:
                    raise CliError(f"{args.file}:{lineno}: expected 'scalar_hex u_hex expected_hex'")
                ok &= _run_vector(curve, *parts, label=f"{args.file}:{lineno}")
                checked += 1
        if not checked:  # a run that checked nothing must not pass
            raise CliError(f"{args.file}: no vectors")
        return 0 if ok else 1
    for curve in curves:
        if args.iterations is None:
            for i, (scalar, u, want) in enumerate(vectors.SINGLE_SHOT[curve], 1):
                ok &= _run_vector(curve, scalar, u, want, f"{curve.value} single-shot vector {i}")
        counts = [1, 1000] if args.iterations is None else [args.iterations]
        for count in counts:
            if count not in vectors.ITERATED[curve]:
                raise CliError(f"no published value for {count} iterations (known: 1, 1000, 1000000)")
            label = f"{curve.value} base-point iteration x{count}"
            ok &= _compare(label, vectors.iterate(curve, count),
                           bytes.fromhex(vectors.ITERATED[curve][count]))
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from . import selftest

    return selftest.run(quick=args.quick)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every `main` call."""
    ap = argparse.ArgumentParser(prog="uecc", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scalarmult", help="compute x_Q = k*P")
    _add_common(p)
    p.add_argument("--cycles", action="store_true", help="print the cycle report")
    p.set_defaults(fn=cmd_scalarmult, trace=False)

    p = sub.add_parser("trace", help="scalarmult --cycles, then every executed wave")
    _add_common(p)
    p.set_defaults(fn=cmd_scalarmult, cycles=True, trace=True)

    p = sub.add_parser("vectors", help="run the published vector suite")
    p.add_argument("--curve", choices=_CURVES)
    p.add_argument("--iterations", type=int, metavar="N",
                   help="run only the N-iteration test (N in {1, 1000, 1000000})")
    p.add_argument("--file", metavar="PATH",
                   help="vector file: one 'scalar_hex u_hex expected_hex' per line")
    p.set_defaults(fn=cmd_vectors)

    p = sub.add_parser("selftest", help="oracle-equivalence self tests")
    p.add_argument("--quick", action="store_true", help="smaller sample counts")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("program-dump", help="dump the LUT instruction programs")
    p.add_argument("--curve", choices=_CURVES, required=True)
    p.add_argument("--dpa", action="store_true")
    p.add_argument("--phase", choices=("ladder", "inversion", "all"), default="all")
    p.set_defaults(fn=cmd_program_dump)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a reader that closed the pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader stopped early (e.g. `| head`), which is not an error of
        # the command; stdout goes to devnull so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
