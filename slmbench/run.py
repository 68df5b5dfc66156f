#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the `slm` command line.

    python3 slmbench/run.py --workload ensemble-2d --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; `slm` is imported from ./src.

--trace 0  writes the workload's inputs from the seed, then repeats its
           `slm` command sequence as fresh processes for about --seconds
           seconds, checks every output and reports the end-to-end
           metrics: wall_s, setup_s and peak_rss_mb.
--trace 1  runs all three workloads in this process through
           `slm.cli.main` with span recorders around the layer entry
           points, plus direct calls into single layers and the layer
           sweeps, and reports the per-layer metrics.  The spans, the
           machine description and every metric are written to
           .slmbench_work/trace-<workload>-s<seed>.json.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  README.md explains the workloads.
"""
from __future__ import annotations

import os

# One BLAS thread: on a 2-core machine the numbers then measure slm, not
# the scheduler.  Set before numpy is imported, and inherited by children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
MIN_ITERATIONS = 3
SETUP_SAMPLES = 3  # fresh set-up processes before each repetition
# The reported times are scaled to a machine on which calibration_s()
# takes this long (about its median on the 2-vCPU VM of README.md).  The
# speed of a core on shared machines drifts by up to 1.5x for minutes at a
# time, and slm's times follow the calibration job through that drift.
CALIBRATION_REF_S = 0.06
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import slm.cli\n"
    "from slm.config import parse_config\n"
    "parse_config(sys.argv[1])\n"
    "print(time.perf_counter() - t0)\n"
)


def as_metrics(values: dict, group: str) -> dict:
    """Contract form of measured values; the names must be exactly the
    group's names in BENCHMARK.json."""
    names = [m["name"] for m in SPEC[group]]
    if set(values) != set(names):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {group}: {sorted(set(values) ^ set(names))}")
    return {n: {"value": values[n], "unit": UNITS[n]} for n in names}


def log(line: str) -> None:
    print(line, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SLM_OUT_ROOT", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# Every child runs under this small launcher, which reports the child's
# wall time, exit status and ru_maxrss, read with os.wait4.  A process
# started by vfork, as subprocess starts it, counts its parent's peak RSS
# in its own ru_maxrss; started straight from the benchmark, which holds
# NumPy references and calibration arrays, a small `slm` command would
# report the benchmark's peak instead of its own.
LAUNCHER = (
    "import json, os, subprocess, sys, time\n"
    "t0 = time.perf_counter()\n"
    "p = subprocess.Popen(sys.argv[2:])\n"
    "_, status, usage = os.wait4(p.pid, 0)\n"
    "wall = time.perf_counter() - t0\n"
    "p.returncode = os.waitstatus_to_exitcode(status)\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump({'wall': wall, 'rc': p.returncode, 'maxrss_kb': usage.ru_maxrss}, fh)\n"
)


class Proc:
    """One finished child process: wall seconds, peak RSS, exit code, output."""

    def __init__(self, argv: list, env: dict, logdir: Path):
        logdir.mkdir(parents=True, exist_ok=True)
        out_path, err_path, usage_path = logdir / "stdout.txt", logdir / "stderr.txt", logdir / "usage.json"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            # its own process group, so that the launcher and its child are
            # killed together
            proc = subprocess.Popen([sys.executable, "-c", LAUNCHER, str(usage_path), sys.executable, *argv],
                                    stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
            try:
                proc.wait()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()
        if proc.returncode == 0 and usage_path.is_file():
            usage = json.loads(usage_path.read_text())
            self.wall, self.rc, self.rss_mb = usage["wall"], usage["rc"], usage["maxrss_kb"] / 1024.0
        else:
            self.wall, self.rc, self.rss_mb = 0.0, proc.returncode or 1, 0.0


def tree_digest(path: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    if path.is_dir():
        for f in sorted(p for p in path.rglob("*") if p.is_file()):
            h.update(str(f.relative_to(path)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def calibration_s() -> float:
    """Seconds of a fixed job that does not use slm: an interpreted Python
    loop and NumPy passes over an 8 MB array, like the mix of the slm
    commands.  Timed before every child process of the end-to-end run."""
    t0 = time.perf_counter()
    s = 0
    for i in range(300_000):
        s += i * i % 7
    a = np.linspace(0.0, 1.0, 1 << 20)
    for _ in range(6):
        a = np.roll(a, 3) * 0.5 + a * 0.5
    return time.perf_counter() - t0


def describe(values: list, unit: str) -> str:
    samples = " ".join(f"{v:.3f}" for v in values)
    return f"median {statistics.median(values):.4f} {unit} (n={len(values)}: {samples})"


# -- end-to-end run ------------------------------------------------------


def end_to_end(workload, seconds: float, work: Path) -> tuple:
    env = child_env()
    attempted = failed = 0

    setup, walls, per_cmd, rss, digests, calib = [], [], {}, [], {}, []
    start = time.perf_counter()
    while True:
        it = len(walls)
        out = work / f"iter{it}"
        # set-up samples before each repetition, so that a slow spell of
        # the machine does not fall on all of them
        for k in range(SETUP_SAMPLES):
            calib.append(calibration_s())
            p = Proc(["-c", SETUP_CODE, str(workload.cfg)], env, work / "logs" / f"setup{it}-{k}")
            attempted += 1
            if p.rc == 0:
                setup.append(float(p.stdout.split()[-1]))
            else:
                failed += 1
                log(f"FAIL setup sample: exit {p.rc}: {p.stderr.strip()[-500:]}")
        wall = 0.0
        for label, argv in workload.commands(out):
            calib.append(calibration_s())
            p = Proc(["-m", "slm.cli", *argv], env, work / "logs" / f"iter{it}-{label}")
            attempted += 1
            wall += p.wall
            per_cmd.setdefault(label, []).append(p.wall)
            rss.append(p.rss_mb)
            fails = [] if p.rc == 0 else [("exit-code", f"exit {p.rc}: {p.stderr.strip()[-500:]}")]
            if not fails:
                digest = tree_digest(out / label, p.stdout)
                if it == 0:
                    digests[label] = digest
                    fails = workload.check(label, out, p.stdout)
                elif digest != digests.get(label):
                    fails = [("rerun-identical", f"iteration {it} output differs from iteration 0")]
                    fails += workload.check(label, out, p.stdout)
            for name, msg in fails:
                log(f"FAIL {label} [{name}] {msg}")
            failed += bool(fails)
        walls.append(wall)
        if it > 0:
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_ITERATIONS and elapsed * (1 + 1 / len(walls)) > seconds:
            break

    log(f"{workload.name}: {len(walls)} iterations of {[c for c, _ in workload.commands(work)]} "
        f"in {time.perf_counter() - start:.1f} s; measured times:")
    speed = CALIBRATION_REF_S / statistics.median(calib)
    log(f"  calibration_s  {describe(calib, 's')}")
    for label, vals in per_cmd.items():
        log(f"  {label}_s  {describe(vals, 's')}")
    log(f"  wall_s  {describe(walls, 's')}")
    if setup:
        log(f"  setup_s  {describe(setup, 's')}")
    log(f"  peak_rss_mb  {max(rss):.1f} MB (max over {len(rss)} command processes)")
    log(f"  error_rate  {failed / attempted:.4f} ({failed} of {attempted} processes failed)")
    log(f"times scaled by {CALIBRATION_REF_S:g} s / median calibration_s = {speed:.4f}")
    metrics = as_metrics({
        "wall_s": statistics.median(walls) * speed,
        "setup_s": statistics.median(setup) * speed if setup else 0.0,
        "peak_rss_mb": max(rss),
    }, "end_to_end")
    return metrics, attempted, failed


# -- traced run ----------------------------------------------------------


def output_counts(path: Path) -> tuple:
    """(CSV data rows, bytes of all files) under a command's output dir."""
    rows = size = 0
    if path.is_dir():
        for f in path.rglob("*"):
            if f.is_file():
                size += f.stat().st_size
                if f.suffix == ".csv":
                    with open(f, "rb") as fh:
                        rows += sum(1 for _ in fh) - 1
    return rows, size


def call_cli(workload, out: Path, tracer) -> int:
    """Run the workload's commands through slm.cli.main in this process;
    returns the number of commands that failed."""
    import slm.cli

    failed = 0
    for label, argv in workload.commands(out):
        buf = io.StringIO()
        with tracer.span("main", workload=workload.name, command=label) as rec:
            try:
                with contextlib.redirect_stdout(buf):
                    rc = slm.cli.main(argv)
            except Exception:
                rc = -1
                log(f"FAIL {label}: {traceback.format_exc()}")
        rec["attrs"]["rows"], rec["attrs"]["bytes"] = output_counts(out / label)
        fails = [("exit-code", f"returned {rc}")] if rc != 0 else workload.check(label, out, buf.getvalue())
        for name, msg in fails:
            log(f"FAIL traced {label} [{name}] {msg}")
        failed += bool(fails)
    return failed


def run_span_failures(a: dict, audit_interval: int, audit_tolerance: float) -> list:
    """Checks on the attributes of one traced microsim run: every event is
    a birth or a death, and the run was long enough to be audited, within
    tolerance."""
    fails = []
    if a["births"] - a["deaths"] != a["n_end"] - a["n0"]:
        fails.append(("event-balance", f"births {a['births']} - deaths {a['deaths']} "
                                       f"!= N_end {a['n_end']} - N_0 {a['n0']}"))
    if a["events"] < audit_interval or a["max_audit_drift"] > audit_tolerance:
        fails.append(("audit", f"{a['events']} events (audit every {audit_interval}), "
                               f"max audit drift {a['max_audit_drift']!r} (tolerance {audit_tolerance:g})"))
    return fails


def traced(selected: str, seed: int, work: Path) -> tuple:
    sys.path.insert(0, str(SRC))
    import slm.cli  # noqa: F401  (loaded before patching, so its bindings are wrapped too)
    import slm.microsim

    import layers
    from tracing import Tracer, duration, self_time, wrapper_cost

    workloads = {name: cls(work, seed) for name, cls in WORKLOADS.items()}
    order = [selected] + [n for n in workloads if n != selected]
    attempted = sum(len(w.commands(work)) for w in workloads.values())
    failed = 0

    tracer = Tracer()

    def run_before(args, kwargs):
        return {"n0": args[0].n}

    def run_after(args, kwargs, traj):
        return {"n_end": args[0].n, "events": traj.events, "births": traj.births,
                "deaths": traj.deaths, "max_audit_drift": traj.max_audit_drift}

    def closure_of(args, kwargs):
        return {"closure": args[1] if len(args) > 1 else kwargs["closure_rule"]}

    targets = [
        ("slm.config", "parse_config", None, None),
        ("slm.microsim", "init_poisson_field", None, None),
        ("slm.microsim", "run", run_before, run_after),
        ("slm.kinetic", "solve_kinetic", None, None),
        ("slm.kinetic", "kinetic_rhs", None, None),
        ("slm.hierarchy", "solve_hierarchy", closure_of,
         lambda a, k, r: {"symmetry_drift": r[1]["max_symmetry_drift"]}),
        ("slm.stats", "estimate_correlations", None, None),
        ("slm.theory", "optimize_alpha", None, None),
    ]
    with tracer.patch(targets):
        for name in order:
            with tracer.span("workload", workload=name):
                failed += call_cli(workloads[name], work / "traced" / name, tracer)

    m = {}
    runs = tracer.named("run")
    for r in runs:
        fails = run_span_failures(r["attrs"], slm.microsim.AUDIT_INTERVAL, slm.microsim.AUDIT_TOLERANCE)
        for name, msg in fails:
            log(f"FAIL traced run [{name}] {msg}")
        attempted += 1
        failed += bool(fails)
    events = sum(r["attrs"]["events"] for r in runs)
    m["microsim.us_per_event"] = 1e6 * sum(map(duration, runs)) / events
    m["microsim.init_s"] = statistics.median(map(duration, tracer.named("init_poisson_field")))
    for key in ("events", "births", "deaths"):
        m[f"microsim.{key}"] = sum(r["attrs"][key] for r in runs)
    m["microsim.max_audit_drift"] = max(r["attrs"]["max_audit_drift"] for r in runs)
    (solve,) = tracer.named("solve_kinetic")
    m["kinetic.solve_s"] = duration(solve)
    m["kinetic.steps"] = len(tracer.children(solve)) // 4
    for s in tracer.named("solve_hierarchy"):
        m[f"hierarchy.solve_s.{s['attrs']['closure']}"] = duration(s)
    m["hierarchy.symmetry_drift"] = max(s["attrs"]["symmetry_drift"] for s in tracer.named("solve_hierarchy"))
    m["config.parse_s"] = sum(map(duration, tracer.named("parse_config")))
    mains = tracer.named("main")
    m["cli.self_s"] = sum(self_time(s, tracer.children(s)) for s in mains)
    m["cli.rows_written"] = sum(s["attrs"]["rows"] for s in mains)
    m["cli.bytes_written"] = sum(s["attrs"]["bytes"] for s in mains)
    m["cli.write_rows_per_s"] = m["cli.rows_written"] / m["cli.self_s"]
    # Every span costs about one wrapper call; a traced-minus-untraced
    # wall time would mostly measure the drift of the machine instead.
    m["trace.overhead_s"] = len(tracer.spans) * wrapper_cost()

    ens = workloads["ensemble-2d"]
    m.update(layers.microsim_layers(ens.cfg, seed))
    m.update(layers.stats_layers(ens.cfg, work / "traced" / ens.name / "simulate" / "snapshots.csv"))
    m.update(layers.kinetic_layers(workloads["kinetic-2d"].cfg))
    m.update(layers.hierarchy_layers(workloads["hierarchy-1d"].cfg))
    m.update(layers.microsim_sweep(seed))
    m.update(layers.kinetic_sweep())
    m.update(layers.hierarchy_sweep())
    m.update(layers.stats_sweep(ens.cfg, seed))
    m.update(layers.import_breakdown(child_env()))

    info = layers.machine()
    log("machine: " + json.dumps(info, sort_keys=True))
    log(f"tracing overhead: {len(tracer.spans)} spans x {1e6 * m['trace.overhead_s'] / len(tracer.spans):.2f} us")
    metrics = as_metrics(m, "per_layer")
    for name, v in metrics.items():
        log(f"  {name}  {v['value']!r} {v['unit']}")
    record = {"workload": selected, "seed": seed, "machine": info, "metrics": metrics, "spans": tracer.spans}
    (ROOT / ".slmbench_work" / f"trace-{selected}-s{seed}.json").write_text(json.dumps(record, indent=1, default=str))
    return metrics, attempted, failed


# -- entry point ---------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "slm" / "cli.py").is_file():
        print(f"error: no slm sources at {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".slmbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    # On SIGTERM, unwind: the running child is killed and the work dir removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        if args.trace:
            metrics, attempted, failed = traced(args.workload, args.seed, work)
        else:
            metrics, attempted, failed = end_to_end(
                WORKLOADS[args.workload](work, args.seed), args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
