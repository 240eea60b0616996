"""Time one workload's set-up in a fresh interpreter.

Set-up runs from `import uecc` until the workload's LUT programs are built
and compiled.  The host-speed reference (`hostspeed.py`) is timed right
before and right after it.  `run.py` starts this script several times per
run and reports the median, scaled for host speed, as `setup_s`.

    python3 perfbench/setup_probe.py SRC_DIR CURVE DPA_MODES [cli]

CURVE is 25519 or 448, DPA_MODES a comma-separated list of 0/1, and `cli`
also imports the command-line front end the workload drives.  Prints the
set-up time and the two reference times, in seconds.
"""

import sys
import time

import hostspeed


def main(argv):
    src, curve_key, dpa_modes = argv[:3]
    with_cli = argv[3:] == ["cli"]
    sys.path.insert(0, src)
    hostspeed.reference()  # the first call warms the interpreter and is not timed
    ref_before = hostspeed.timed()
    t0 = time.perf_counter()
    import uecc  # noqa: F401
    from uecc import program
    from uecc.field import CurveId

    if with_cli:
        import uecc.cli  # noqa: F401
    curve = CurveId.CURVE25519 if curve_key == "25519" else CurveId.CURVE448
    for dpa in dpa_modes.split(","):
        program.build_ladder_program(curve, dpa == "1").compiled()
    program.build_inversion_program(curve).compiled()
    setup = time.perf_counter() - t0
    print(setup, ref_before, hostspeed.timed())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
