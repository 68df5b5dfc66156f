#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarise it.

    python3 slmbench/collect.py --seeds 1 2 3 4 5 6 7 8 9 10 [--trace]
                                [--out slmbench/results/BENCH_<tag>.json]

Runs `run.py --trace 0` once per (seed, workload of BENCHMARK.json),
seed-major so that slow drift of the machine hits every workload alike.
For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and their distance as a share of the median, next to a third of the
metric's bound in BENCHMARK.json.  With --trace it also makes one traced
run per workload at the first seed.  --out writes everything as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summary(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    runs = {w["name"]: [] for w in SPEC["workloads"]}
    for seed in args.seeds:
        for w in runs:
            r = bench(w, seed, 0)
            runs[w].append({"seed": seed, **r})
            vals = ", ".join(f"{k} {v['value']:.4f}" for k, v in r["metrics"].items())
            print(f"{w} seed {seed}: correct {r['correct']} failed {r['failed']}/{r['attempted']}: {vals}", flush=True)

    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import layers

    report = {"machine": layers.machine(), "run_seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for w, rs in runs.items():
        entry = {"correct": all(r["correct"] for r in rs), "end_to_end": {}, "runs": rs}
        for m in SPEC["end_to_end"]:
            s = summary([r["metrics"][m["name"]]["value"] for r in rs])
            entry["end_to_end"][m["name"]] = {"unit": m["unit"], "bound": m["bound"], **s}
            print(f"{w:13s} {m['name']:12s} median {s['median']:10.4f} {m['unit']:3s} q1 {s['q1']:.4f} "
                  f"q3 {s['q3']:.4f} spread {s['spread']:.4f} (bound/3 {m['bound'] / 3:.4f})")
        if args.trace:
            t = bench(w, args.seeds[0], 1)
            entry["per_layer"] = {k: v for k, v in t["metrics"].items()}
            entry["trace_correct"] = t["correct"]
            entry["trace_log"] = [line for line in t["log"] if not line.startswith("  ")]
        report["workloads"][w] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
