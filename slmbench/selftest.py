#!/usr/bin/env python3
"""Self-test of the benchmark (not of `slm`).

    python3 slmbench/selftest.py

1. The span self-time arithmetic, on hand-made spans and on a Tracer.
2. The traced-run microsim checks, on hand-made span attributes.
3. Every output check: each workload's commands run once through
   `slm.cli.main`, the checks must pass on the real outputs, and each
   named check must fail on a deliberately perturbed copy of an output.
4. BENCHMARK.json names each metric and workload once, and a metric set
   that differs from it is refused.
Exits nonzero on the first failed assertion.
"""
from __future__ import annotations

import contextlib
import io
import re
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (sets the BLAS thread variables before numpy loads)
import numpy as np  # noqa: E402
from tracing import Tracer, self_time, wrapper_cost  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_self_time():
    parent = {"id": 0, "start": 0.0, "end": 10.0}
    kids = [{"start": 1.0, "end": 3.0}, {"start": 2.0, "end": 5.0}, {"start": 9.0, "end": 12.0}]
    # [1, 5] and [9, 10] are covered: 5 of 10 seconds
    assert self_time(parent, kids) == 5.0, self_time(parent, kids)
    assert self_time(parent, []) == 10.0
    assert self_time(parent, [{"start": -1.0, "end": 11.0}]) == 0.0

    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    inner = tracer.named("inner")
    assert [s["parent"] for s in inner] == [outer["id"]] * 2
    assert tracer.children(outer) == inner
    got = self_time(outer, inner)
    want = (outer["end"] - outer["start"]) - sum(s["end"] - s["start"] for s in inner)
    assert abs(got - want) < 1e-12, (got, want)
    # one wrapper call costs some nanoseconds to microseconds, not nothing
    assert 1e-9 < wrapper_cost(calls=2000, repeats=3) < 1e-4


def test_run_span_checks():
    good = {"n0": 100, "n_end": 103, "births": 20, "deaths": 17, "events": 37, "max_audit_drift": 1e-15}
    assert run.run_span_failures(good, 10, 1e-9) == []
    for change, name in (({"births": 21}, "event-balance"), ({"events": 9}, "audit"),
                         ({"max_audit_drift": 1e-6}, "audit")):
        fails = run.run_span_failures({**good, **change}, 10, 1e-9)
        assert name in {n for n, _ in fails}, (change, fails)


def edit_csv(path: Path, row: int, col: int, fn) -> None:
    """Apply fn to one data cell (row indexes the data rows, header
    excluded; negative counts from the end); fn returning None deletes
    the row."""
    lines = path.read_text().splitlines()
    i = row + 1 if row >= 0 else len(lines) + row
    cells = lines[i].split(",")
    new = fn(float(cells[col]))
    if new is None:
        del lines[i]
    else:
        cells[col] = repr(new)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def map_column(path: Path, col: int, fn) -> None:
    """Replace one column of the data rows by fn(that column as an array)."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    for cells, v in zip(rows, fn(np.array([float(cells[col]) for cells in rows]))):
        cells[col] = repr(float(v))
    path.write_text("\n".join([lines[0]] + [",".join(cells) for cells in rows]) + "\n")


# label -> [(check name, perturbation of (output dir, stdout) returning stdout)]
PERTURBATIONS = {
    "simulate": [
        ("summary-rows", lambda o, s: edit_csv(o / "simulate/summary.csv", -1, 2, lambda v: None) or s),
        ("snapshot-counts", lambda o, s: edit_csv(o / "simulate/snapshots.csv", 0, 2, lambda v: None) or s),
        ("ensemble-density", lambda o, s: map_column(o / "simulate/summary.csv", 2, lambda c: np.round(c * 1.2)) or s),
    ],
    "stats": [
        ("stats-density", lambda o, s: edit_csv(o / "stats/density.csv", 5, 2, lambda v: v + 1.0) or s),
        # cells binned on swapped axes
        ("stats-density", lambda o, s: map_column(o / "stats/density.csv", 2, lambda c: c.reshape(40, 40).T.ravel()) or s),
        ("stats-density", lambda o, s: edit_csv(o / "stats/density.csv", 5, 3, lambda v: v * (1 + 1e-7)) or s),
        ("stats-pairs", lambda o, s: edit_csv(o / "stats/pairs.csv", 3, 2, lambda v: float("nan")) or s),
        # unordered instead of ordered pairs
        ("stats-pairs", lambda o, s: map_column(o / "stats/pairs.csv", 2, lambda c: c / 2) or s),
        ("stats-pairs", lambda o, s: edit_csv(o / "stats/pairs.csv", 3, 2, lambda v: v * (1 + 1e-7)) or s),
        ("stats-pairs", lambda o, s: edit_csv(o / "stats/pairs.csv", 3, 3, lambda v: v * (1 + 1e-7)) or s),
        ("stats-pairs", lambda o, s: edit_csv(o / "stats/pairs.csv", 3, 1, lambda v: v + 0.01) or s),
    ],
    "kinetic": [
        ("kinetic-rows", lambda o, s: edit_csv(o / "kinetic/fields.csv", 7, 4, lambda v: None) or s),
        ("kinetic-nonnegative", lambda o, s: edit_csv(o / "kinetic/fields.csv", 7, 4, lambda v: -1e-6) or s),
        ("kinetic-reference", lambda o, s: edit_csv(o / "kinetic/fields.csv", 7, 4, lambda v: v * (1 + 1e-7)) or s),
    ],
    "analyze": [
        ("analyze-tstar", lambda o, s: re.sub(r"(T\*\s*:\s*)(\S+)", lambda m: m.group(1) + repr(float(m.group(2)) * 1.001), s)),
    ],
}
for _label in ("hierarchy_mf", "hierarchy_kw"):
    PERTURBATIONS[_label] = [
        ("symmetry-drift", lambda o, s: s.replace("drift per step: 0.000e+00", "drift per step: 1.000e-16")),
        ("hierarchy-k1", lambda o, s, _l=_label: edit_csv(o / _l / "k1.csv", 9, 3, lambda v: v * (1 + 1e-7)) or s),
        ("hierarchy-k2-slice", lambda o, s, _l=_label: edit_csv(o / _l / "k2_slice.csv", 1, 2, lambda v: v * (1 + 1e-7)) or s),
    ]


def test_output_checks(tmp: Path):
    import slm.cli

    seen = set()
    for name, cls in WORKLOADS.items():
        w = cls(tmp / "inputs", seed=3)
        out = tmp / name
        out.mkdir(parents=True)
        for label, argv in w.commands(out):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert slm.cli.main(argv) == 0, (name, label)
            stdout = buf.getvalue()
            assert w.check(label, out, stdout) == [], (name, label, w.check(label, out, stdout))
            for check, perturb in PERTURBATIONS[label]:
                copy = tmp / "perturbed"
                shutil.rmtree(copy, ignore_errors=True)
                shutil.copytree(out, copy)
                bad_stdout = perturb(copy, stdout)
                names = {n for n, _ in w.check(label, copy, bad_stdout)}
                assert check in names, (name, label, check, names)
                assert run.tree_digest(copy / label, bad_stdout) != run.tree_digest(out / label, stdout)
                seen.add(check)
            print(f"  {name} {label}: checks pass, and fail on {len(PERTURBATIONS[label])} perturbations")
    return seen


def test_spec():
    names = [m["name"] for m in run.SPEC["end_to_end"] + run.SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in run.SPEC["workloads"]] == list(WORKLOADS)
    try:
        run.as_metrics({"wall_s": 1.0}, "end_to_end")
    except RuntimeError:
        pass
    else:
        raise AssertionError("as_metrics accepted an incomplete metric set")


def main() -> int:
    test_self_time()
    test_run_span_checks()
    test_spec()
    print("span arithmetic, traced-run checks and metric names: ok")
    tmp = HERE.parent / ".slmbench_work" / "selftest"
    shutil.rmtree(tmp, ignore_errors=True)
    try:
        seen = test_output_checks(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"output checks: ok ({len(seen)} named checks each failed on a perturbed output)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
