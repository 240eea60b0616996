"""Run the benchmark on several seeds and summarise each metric's median and spread.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 40 --out perfbench/out/sweep.json
    python3 perfbench/sweep.py --seeds 1-10 --workload x448 --trace 1 --out perfbench/out/x448.json

Each run is a fresh `run.py` process.  The output file
holds every run's result line, provenance and notes (raw host times among
them), plus, per workload and metric,
the median, the quartiles (`statistics.quantiles(values, n=4)`) and the
spread: the quartile distance divided by the median.  This is the form the
baseline in `baseline/` takes.  Exits 1 if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(results):
    values = {}
    for res in results:
        for name, metric in res["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, median, median)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / median if median else 0.0}
    return summary


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"), help="e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append", help="default: every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = {"seconds": args.seconds, "trace": args.trace, "runs": {}, "summary": {}}
    ok = True
    for wl in workloads:
        runs = []
        for seed in args.seeds:
            done = subprocess.run(
                spec["command"] + ["--workload", wl, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=180 + args.seconds,
            )
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if done.returncode != 0 or result is None:
                print(f"{wl} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                ok = False
                continue
            report = json.loads((HERE / "out" / f"result-{wl}-seed{seed}-trace{args.trace}.json").read_text())
            runs.append({"seed": seed, "result": result, "provenance": report["report"]["provenance"],
                         "notes": report["report"]["notes"]})
            print(f"{wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        out["runs"][wl] = runs
        out["summary"][wl] = summarise([r["result"] for r in runs])
        for name, s in out["summary"][wl].items():
            print(f"  {wl:10s} {name:28s} median {s['median']:.6g}  spread {s['spread']:.4f}")
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
