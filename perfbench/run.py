"""uecc benchmark: seeded closed-loop ECSM workloads with host-time and modelled-cycle metrics.

    python3 perfbench/run.py --workload x25519 --seed 1 --seconds 40 --trace 0

Run from the repository root.  One client in one process sends each request
only after the previous one returned (closed loop, no threads).  Requests go
in blocks of four; on `x25519` and `x448` one request per block, at a seeded
position, runs with the DPA countermeasure and its own seeded Trivium key and
IV.  Every output is checked outside the timed region against the
`cryptography` X25519/X448 oracle and every cycle total against the published
1032/1038/4944/5401.

`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer metrics
of a traced run (see `tracer.py`).  The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`; the
lines before it are a readable report.  The full report with provenance is
also written to `perfbench/out/`.  The exit code is 1 if any request failed a
check and 2 if the program under test is missing.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from contextlib import redirect_stdout
from pathlib import Path

import hostspeed
from tracer import PHASES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLOCK = 4
SETUP_REPEATS = 15
# The highest of p90/p99/p99.9 with at least 10 samples above it in every
# 40-second run of every workload (x448 completes 200-400 requests).  It is
# fixed so that runs and commits compare the same percentile.
TAIL_PERCENTILE = 90
# Share of a traced run spent untraced, to measure trace.overhead_ratio.
UNTRACED_SHARE = 0.3

# Published totals, written out here so the model never checks itself.
PUBLISHED_CYCLES = {("25519", False): 1032, ("25519", True): 1038,
                    ("448", False): 4944, ("448", True): 5401}
# 256-bit products per ECSM: ladder full-width ops x iterations, inversion, final, DPA init.
KAR256_PER_ECSM = {("25519", False): 255 * 10 + 265 + 1, ("25519", True): 255 * 11 + 265 + 1 + 2,
                   ("448", False): (448 * 10 + 462 + 1) * 4, ("448", True): (448 * 11 + 462 + 1 + 2) * 4}


class Workload:
    """One request mix; BENCHMARK.json and README.md say why each exists."""

    def __init__(self, name, curve, dpa_per_block, via_cli):
        self.name = name
        self.curve = curve
        self.dpa_per_block = dpa_per_block
        self.via_cli = via_cli
        self.nbytes = 32 if curve == "25519" else 56

    @property
    def dpa_modes(self):
        return (False, True) if self.dpa_per_block else (False,)


WORKLOADS = {w.name: w for w in (
    Workload("x25519", "25519", 1, False),
    Workload("x448", "448", 1, False),
    Workload("trace25519", "25519", 0, True),
)}


class Request:
    __slots__ = ("index", "scalar", "u", "prng_seed")

    def __init__(self, index, scalar, u, prng_seed):
        self.index = index
        self.scalar = scalar
        self.u = u
        self.prng_seed = prng_seed

    @property
    def dpa(self):
        return self.prng_seed is not None


def request_blocks(wl, seed):
    """Endless seeded stream of request blocks; the program sees only these bytes."""
    rng = random.Random(f"{wl.name}:{seed}")
    index = 0
    while True:
        dpa_slots = set(rng.sample(range(BLOCK), wl.dpa_per_block))
        block = []
        for i in range(BLOCK):
            scalar = rng.randbytes(wl.nbytes)
            u = rng.randbytes(wl.nbytes)
            prng_seed = (rng.randbytes(10), rng.randbytes(10)) if i in dpa_slots else None
            block.append(Request(index, scalar, u, prng_seed))
            index += 1
        yield block


class Oracle:
    """Independent X25519/X448 (OpenSSL through `cryptography`)."""

    def __init__(self):
        from cryptography.hazmat.primitives.asymmetric import x448, x25519

        self._keys = {
            "25519": (x25519.X25519PrivateKey, x25519.X25519PublicKey),
            "448": (x448.X448PrivateKey, x448.X448PublicKey),
        }

    def __call__(self, curve, req):
        private, public = self._keys[curve]
        return private.from_private_bytes(req.scalar).exchange(public.from_public_bytes(req.u))


def load_uecc():
    sys.path.insert(0, str(SRC))
    import uecc  # noqa: F401
    from uecc import bigmul, cli, ecsm, ffau, field, program, trivium

    return types.SimpleNamespace(bigmul=bigmul, cli=cli, ecsm=ecsm, ffau=ffau, field=field,
                                 program=program, trivium=trivium)


class Client:
    """Turns a request into the program call and checks what came back."""

    def __init__(self, m, wl, oracle):
        self.m = m
        self.wl = wl
        self.oracle = oracle
        self.curve_id = m.field.CurveId.CURVE25519 if wl.curve == "25519" else m.field.CurveId.CURVE448

    def prepare(self, req):
        if self.wl.via_cli:
            argv = ["trace", "--curve", self.wl.curve, "--scalar", req.scalar.hex(), "--u", req.u.hex()]
            if req.dpa:
                argv += ["--dpa", "--prng-key", req.prng_seed[0].hex(), "--prng-iv", req.prng_seed[1].hex()]
            return argv
        return self.m.ecsm.EcsmConfig(dpa_enabled=req.dpa, prng_seed=req.prng_seed)

    def call(self, req, payload):
        """The timed region: one request through the program's public entry points."""
        m = self.m
        if self.wl.via_cli:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = m.cli.main(payload)
            return code, buf.getvalue()
        k = m.ecsm.decode_scalar(req.scalar, self.curve_id, payload.clamp_mode)
        x_p = m.ecsm.decode_u(req.u, self.curve_id, payload.clamp_mode)
        result = m.ecsm.scalar_mult(k, x_p, payload)
        return result.x_q.n.to_bytes(self.wl.nbytes, "little"), result.cycles.total

    def check(self, req, raw):
        """Reasons the response is wrong; empty when it is right."""
        want_out = self.oracle(self.wl.curve, req)
        want_cycles = PUBLISHED_CYCLES[(self.wl.curve, req.dpa)]
        if not self.wl.via_cli:
            out, total = raw
            errors = []
            if out != want_out:
                errors.append(f"x_Q {out.hex()} != oracle {want_out.hex()}")
            if total != want_cycles:
                errors.append(f"cycle total {total} != published {want_cycles}")
            return errors
        code, text = raw
        lines = text.splitlines()
        errors = []
        if code != 0:
            errors.append(f"exit code {code}")
        if not lines or lines[0] != want_out.hex():
            errors.append(f"printed x_Q {lines[:1]} != oracle {want_out.hex()}")
        match = re.search(r"total=(\d+)", lines[1]) if len(lines) > 1 else None
        if not match or int(match.group(1)) != want_cycles:
            errors.append(f"cycle report {lines[1:2]} does not give total={want_cycles}")
        # x_Q, the cycle report, then one line per cycle
        if len(lines) != 2 + want_cycles:
            errors.append(f"{len(lines)} lines printed, not {2 + want_cycles}")
        last = lines[-1].split() if lines else []
        if last[:1] != ["cycle"] or last[1:2] != [str(want_cycles - 1)]:
            errors.append(f"last trace line {lines[-1:]} is not cycle {want_cycles - 1}")
        return errors


class Phase:
    """What one stretch of requests measured."""

    def __init__(self):
        self.latencies = []  # host seconds per verified request
        self.refs = []  # mean host-speed reference time beside each verified request
        self.ref_min = float("inf")  # fastest single reference time
        self.by_index = {}  # request index -> (host seconds, reference seconds)
        self.attempted = 0
        self.failed = 0
        self.cycles = 0
        self.blocks = []

    def scaled(self):
        """Host seconds per verified request, scaled for host speed (see hostspeed.py)."""
        return [lat * hostspeed.REFERENCE_S / ref for lat, ref in zip(self.latencies, self.refs)]


def run_phase(client, blocks, seconds, tracer=None, reconcile=None, between_blocks=None):
    """Closed loop over whole blocks until `seconds` of wall time have passed."""
    ph = Phase()
    start = time.perf_counter()
    while True:
        block = next(blocks)
        ph.blocks.append(block)
        payloads = [client.prepare(r) for r in block]
        for req, payload in zip(block, payloads):
            ph.attempted += 1
            if tracer:
                before = tracer.snapshot()
                counters_before = client.m.bigmul.counters.snapshot()
            ref_before = hostspeed.timed()
            try:
                if tracer:
                    tracer.request_id = req.index
                    t0 = time.perf_counter()
                    raw = tracer.span("request", client.call, req, payload)
                else:
                    t0 = time.perf_counter()
                    raw = client.call(req, payload)
                elapsed = time.perf_counter() - t0
                ref_after = hostspeed.timed()
            except Exception:
                traceback.print_exc(file=sys.stderr)
                ph.failed += 1
                continue
            ref = (ref_before + ref_after) / 2
            errors = client.check(req, raw)
            if tracer:
                tracer.keep_fine = False
                tracer.end_request(hostspeed.REFERENCE_S / ref)
                errors += reconcile(req, before, counters_before)
            if errors:
                print(f"request {req.index}: " + "; ".join(errors), file=sys.stderr)
                ph.failed += 1
                continue
            ph.latencies.append(elapsed)
            ph.refs.append(ref)
            ph.ref_min = min(ph.ref_min, ref_before, ref_after)
            ph.by_index[req.index] = (elapsed, ref)
            ph.cycles += PUBLISHED_CYCLES[(client.wl.curve, req.dpa)]
        wall = time.perf_counter() - start
        if between_blocks:
            between_blocks(wall)
        if wall >= seconds:
            return ph


def tail(latencies):
    """(TAIL_PERCENTILE value by nearest rank, number of samples above it)."""
    ordered = sorted(latencies)
    rank = max(1, -(-TAIL_PERCENTILE * len(ordered) // 100))
    return ordered[rank - 1], len(ordered) - rank


class SetupProbe:
    """Set-up timed in fresh interpreters (`setup_probe.py`), SETUP_REPEATS times per run.

    The probes run between blocks, spread evenly over the run, so that their
    median sees the same range of host speeds as the requests do.  A first,
    discarded probe writes the bytecode caches.  Each sample is
    (set-up seconds, mean reference seconds beside it).
    """

    def __init__(self, wl, seconds):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), wl.curve,
                    ",".join("1" if d else "0" for d in wl.dpa_modes)] + (["cli"] if wl.via_cli else [])
        self.interval = seconds / SETUP_REPEATS
        self.samples = []
        self.probe()
        self.samples.clear()

    def probe(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60, check=True)
        setup, ref_before, ref_after = map(float, done.stdout.split())
        self.samples.append((setup, (ref_before + ref_after) / 2))

    def __call__(self, wall):
        if len(self.samples) < SETUP_REPEATS and wall >= len(self.samples) * self.interval:
            self.probe()

    def medians(self):
        """(median set-up scaled for host speed, raw median)."""
        while len(self.samples) < SETUP_REPEATS:
            self.probe()
        return (statistics.median(s * hostspeed.REFERENCE_S / ref for s, ref in self.samples),
                statistics.median(s for s, _ in self.samples))


def warm_up(m, client, wl):
    """Build the programs and run one block untimed, so lazy set-up is not timed."""
    for dpa in wl.dpa_modes:
        m.program.build_ladder_program(client.curve_id, dpa).compiled()
    m.program.build_inversion_program(client.curve_id).compiled()
    return run_phase(client, request_blocks(wl, "warm-up"), 0.0)


def end_to_end(ph, setup):
    """Host times are scaled for host speed (hostspeed.py); raw values go in the notes."""
    scaled = ph.scaled()
    tail_s, beyond = tail(scaled)
    setup_s, raw_setup_s = setup.medians()
    metrics = {
        "ecsm_per_s": (len(scaled) / sum(scaled), "1/s"),
        "latency_ms_p50": (statistics.median(scaled) * 1e3, "ms"),
        "latency_ms_tail": (tail_s * 1e3, "ms"),
        "sim_cycles_per_s": (ph.cycles / sum(scaled), "cycles/s"),
        "modeled_cycles_per_ecsm": (ph.cycles / len(scaled), "cycles/ecsm"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "latency_ms_tail.percentile": TAIL_PERCENTILE,
        "latency_ms_tail.samples": len(scaled),
        "latency_ms_tail.samples_above": beyond,
        "hostspeed.fastest_ms": ph.ref_min * 1e3,
        "hostspeed.median_ms": statistics.median(ph.refs) * 1e3,
        "raw.ecsm_per_s": len(ph.latencies) / sum(ph.latencies),
        "raw.latency_ms_p50": statistics.median(ph.latencies) * 1e3,
        "raw.latency_ms_tail": tail(ph.latencies)[0] * 1e3,
        "raw.setup_s": raw_setup_s,
    }
    return metrics, notes


def per_layer(m, client, tracer, n, mul64, cache_hits, overhead):
    calls, busy, self_s = tracer.calls, tracer.busy, tracer.self_s
    waves = sum(calls["ffau.wave." + p] for p in PHASES)
    lambdas = calls["trivium.gen_lambda"]
    words_needed = lambdas * -(-m.field.PARAMS[client.curve_id].scalar_bits // 64)
    per = 1.0 / n
    return {
        "bigmul.kar256.calls": (calls["bigmul.kar256"] * per, "count/ecsm"),
        "bigmul.kar256.busy_s": (busy["bigmul.kar256"] * per, "s/ecsm"),
        "bigmul.kar256.share": (busy["bigmul.kar256"] / busy["request"], "ratio"),
        "bigmul.mul64.count": (mul64 * per, "count/ecsm"),
        "field.mul_int.calls": (calls["field.mul_int"] * per, "count/ecsm"),
        "field.mul_int.self_s": (self_s["field.mul_int"] * per, "s/ecsm"),
        "field.mul_small_int.calls": (calls["field.mul_small_int"] * per, "count/ecsm"),
        "field.mul_small_int.busy_s": (busy["field.mul_small_int"] * per, "s/ecsm"),
        "ffau.wave.calls": (waves * per, "count/ecsm"),
        "ffau.wave.self_s": (sum(self_s["ffau.wave." + p] for p in PHASES) * per, "s/ecsm"),
        "ffau.ops_per_wave": (tracer.ops_issued / waves, "ops/wave"),
        "ecsm.ladder.busy_s": (busy["ffau.wave.ladder"] * per, "s/ecsm"),
        "ecsm.inversion.busy_s": (busy["ffau.wave.inversion"] * per, "s/ecsm"),
        "ecsm.init.busy_s": (busy["ffau.wave.init"] * per, "s/ecsm"),
        "ecsm.final.busy_s": (busy["ffau.wave.final"] * per, "s/ecsm"),
        "ecsm.self_s": (self_s["ecsm"] * per, "s/ecsm"),
        "trivium.init.calls": (calls["trivium.init"] * per, "count/ecsm"),
        "trivium.init.busy_s": (busy["trivium.init"] * per, "s/ecsm"),
        "trivium.next64.calls": (calls["trivium.next64"] * per, "count/ecsm"),
        "trivium.next64.busy_s": (busy["trivium.next64"] * per, "s/ecsm"),
        "trivium.words_per_lambda": (calls["trivium.next64"] / words_needed if lambdas else 0.0, "ratio"),
        "program.build.hits": (cache_hits * per, "count/ecsm"),
        "program.build.misses": (program_cache_stats(m)[1], "count"),
        "program.format_op.calls": (calls["program.format_op"] * per, "count/ecsm"),
        "program.format_op.busy_s": (busy["program.format_op"] * per, "s/ecsm"),
        "cli.self_s": (self_s["cli"] * per, "s/ecsm"),
        "host.gc.collections": (tracer.gc_collections * per, "count/ecsm"),
        "host.gc_s": (tracer.gc_s * per, "s/ecsm"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def program_cache_stats(m):
    """(hits, misses) of the functools caches that build and compile the LUT programs."""
    infos = [m.program.build_ladder_program.cache_info(), m.program.build_inversion_program.cache_info(),
             m.program.ScheduledProgram.compiled.cache_info()]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def traced_run(m, client, wl, seed, seconds):
    """Untraced stretch, then the same requests and more with every layer wrapped."""
    blocks = request_blocks(wl, seed)
    plain = run_phase(client, blocks, seconds * UNTRACED_SHARE)
    tracer = Tracer(m, client.curve_id, wl.dpa_modes)
    tracer.calibrate()
    counters = m.bigmul.counters

    def reconcile(req, before, counters_before):
        after = tracer.snapshot()

        def delta(name):
            return after.get(name, 0) - before.get(name, 0)

        cyc = tracer.last_cycles
        tracer.last_cycles = None
        if cyc is None:
            return ["the tracer saw no ECSM"]
        kar = delta("bigmul.kar256")
        pairs = [
            ("ladder waves", delta("ffau.wave.ladder"), cyc.ladder_cycles),
            ("inversion waves", delta("ffau.wave.inversion"), cyc.inversion_cycles),
            # overhead cycles are the init and final waves plus one load/store cycle
            ("init+final waves", delta("ffau.wave.init") + delta("ffau.wave.final"), cyc.overhead_cycles - 1),
            ("kar256 calls vs bigmul.counters.mul256", kar, counters.mul256 - counters_before[2]),
            ("kar256 calls vs products per ECSM", kar, KAR256_PER_ECSM[(wl.curve, req.dpa)]),
            ("trivium.next64 calls vs prng_cycles", delta("trivium.next64"), cyc.prng_cycles),
        ]
        return [f"{what}: {got} != {want}" for what, got, want in pairs if got != want]

    hits0 = program_cache_stats(m)[0]
    mul64_0 = counters.mul64
    tracer.install()
    try:
        tracer.keep_fine = True
        traced = run_phase(client, itertools.chain(plain.blocks, blocks),
                           seconds * (1 - UNTRACED_SHARE), tracer, reconcile)
    finally:
        tracer.uninstall()
    cache_hits = program_cache_stats(m)[0] - hits0
    mul64 = counters.mul64 - mul64_0
    common = [i for i in plain.by_index if i in traced.by_index]
    # both sides scaled for host speed
    overhead = (sum(lat / ref for lat, ref in (traced.by_index[i] for i in common))
                / sum(lat / ref for lat, ref in (plain.by_index[i] for i in common)))
    metrics = per_layer(m, client, tracer, traced.attempted, mul64, cache_hits, overhead)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write_spans(spans_path)
    notes = {"untraced_requests": plain.attempted, "traced_requests": traced.attempted,
             "overhead_requests": len(common), "spans": len(tracer.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return (plain, traced), metrics, notes


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(wl, seed, seconds, trace, oracle=None):
    """One benchmark run; returns the full report (contract keys plus `report`)."""
    m = load_uecc()
    client = Client(m, wl, oracle or Oracle())
    warm = warm_up(m, client, wl)
    if trace:
        phases, metrics, notes = traced_run(m, client, wl, seed, seconds)
    else:
        setup = SetupProbe(wl, seconds)
        ph = run_phase(client, request_blocks(wl, seed), seconds, between_blocks=setup)
        phases = (ph,)
        metrics, notes = end_to_end(ph, setup) if ph.latencies else ({}, {})
    attempted = warm.attempted + sum(p.attempted for p in phases)
    failed = warm.failed + sum(p.failed for p in phases)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "report": {
            "failed_ratio": failed / attempted,
            "notes": notes,
            "provenance": {
                "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
                "requests_measured": sum(p.attempted for p in phases), "block_size": BLOCK,
                "dpa_per_block": wl.dpa_per_block, "input_bytes": wl.nbytes,
                "python": platform.python_version(), "implementation": platform.python_implementation(),
                "git_commit": git_commit(), "nproc": os.cpu_count(), "machine": platform.machine(),
            },
        },
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "uecc" / "__init__.py").is_file():
        print(f"error: the program under test is missing: no {SRC / 'uecc'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    result = run(wl, args.seed, args.seconds, args.trace)
    report = result.pop("report")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**result, "report": report}, indent=1) + "\n")
    prov = report["provenance"]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: {result['attempted']} requests checked, "
          f"{result['failed']} failed (failed_ratio {report['failed_ratio']})")
    print(f"python {prov['python']}, commit {prov['git_commit']}, nproc {prov['nproc']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']!r} {metric['unit']}")
    for name, value in report["notes"].items():
        print(f"  {name:28s} {value}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
