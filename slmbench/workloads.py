"""The benchmark's three workloads.

Each workload writes its configs and input tables from the seed, lists
the `slm` commands it runs, and checks their outputs against the
independent solutions in `reference.py`.  A check returns a list of
(check name, message) failures; an empty list means the output passed.
Why each workload was chosen is recorded in README.md.
"""
from __future__ import annotations

import math
import re
from pathlib import Path

import numpy as np

import reference as ref

MORTALITY = 0.5
DISPERSAL_RADIUS = 1.0
COMPETITION_SIGMA = 0.3
# Agreement with the reference solvers is a round-off statement: relative
# to the largest reference value, errors of 1e-14 are expected after the
# few steps run here, so 1e-9 leaves five decades for reordered sums.
# Checks test `not err <= ROUNDOFF_TOL`, so that a NaN fails.
ROUNDOFF_TOL = 1e-9
# `slm analyze` prints six significant digits.
PRINTED_TOL = 1e-5
PAIR_BINS = 24  # the default [stats] pair_bins of slm


def write_config(path: Path, sections: dict) -> None:
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in entries.items())
        lines.append("")
    path.write_text("\n".join(lines))


def kernel_sections(height: float) -> dict:
    return {
        "kernel.dispersal": {"shape": "indicator", "height": height, "radius": DISPERSAL_RADIUS},
        "kernel.competition": {"shape": "gaussian", "sigma": COMPETITION_SIGMA},
    }


def smooth_profile(rng: np.random.Generator, dim: int, cells: int, amplitude: float = 0.3) -> np.ndarray:
    """1 + amplitude * (a sum of four random low Fourier modes scaled to
    [-1, 1]): a non-constant, strictly positive density profile."""
    x = np.arange(cells) / cells
    axes = np.meshgrid(*([x] * dim), indexing="ij")
    total = np.zeros((cells,) * dim)
    for _ in range(4):
        k = rng.integers(1, 4, size=dim)
        total += np.cos(2.0 * np.pi * sum(kd * a for kd, a in zip(k, axes)) + rng.uniform(0, 2 * np.pi))
    return 1.0 + amplitude * total / np.abs(total).max()


def write_table(path: Path, values: np.ndarray) -> None:
    """Comma-separated, shortest round-trip decimals, so `slm` reads back
    exactly the array the reference solver uses."""
    rows = values.reshape(-1, values.shape[-1]) if values.ndim > 1 else values[:, None]
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))


def read_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1e-300))


class Workload:
    name = ""

    def __init__(self, work: Path):
        self.dir = work / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = self.dir / f"{self.name}.cfg"

    def commands(self, out: Path) -> list:
        """(label, slm argv) pairs, run in order; outputs go under out/label."""
        raise NotImplementedError

    def check(self, label: str, out: Path, stdout: str) -> list:
        raise NotImplementedError


class Ensemble2D(Workload):
    name = "ensemble-2d"
    SIDE, CELLS, HEIGHT = 20.0, 40, 1.9
    RUNS, TIMES = 3, (0.4,)
    # Seed commit at t = 0.4 over 66 runs (seeds 1000..1021 of this
    # config): mean N / area, and the across-run standard deviation of N.
    REF_DENSITY, REF_SD_N, REF_RUNS = 6.035416666666667, 50.25, 66
    SE_LIMIT = 5.0

    def __init__(self, work: Path, seed: int):
        super().__init__(work)
        aplus = ref.indicator_kernel(self.HEIGHT, DISPERSAL_RADIUS, 2, self.SIDE, self.CELLS)
        aminus = ref.gaussian_kernel(COMPETITION_SIGMA, 2, self.SIDE, self.CELLS)
        q = ref.carrying_capacity(MORTALITY, aplus, aminus, self.SIDE, self.CELLS)
        # slm stats bins pairs uniformly on (0, min(L/2, 4 x the larger
        # kernel support radius)); a support radius reaches the centre of
        # the farthest nonzero offset cell plus half a cell.
        radii = ref.offset_radii(2, self.SIDE, self.CELLS)
        support = max(radii[aplus > 0].max(), radii[aminus > 0].max()) + 0.5 * self.SIDE / self.CELLS
        self.pair_edges = np.linspace(0.0, min(0.5 * self.SIDE, 4.0 * support), PAIR_BINS + 1)
        write_config(self.cfg, {
            "model": {"dimension": 2, "torus_side": self.SIDE, "grid_cells": self.CELLS, "mortality": MORTALITY},
            **kernel_sections(self.HEIGHT),
            "initial": {"kind": "constant", "density": repr(q)},
            "run": {"horizon": self.TIMES[-1], "dt": 0.01, "seed": seed, "runs": self.RUNS,
                    "snapshot_times": " ".join(map(str, self.TIMES))},
        })

    def commands(self, out: Path) -> list:
        sim = out / "simulate"
        return [
            ("simulate", ["simulate", "--config", str(self.cfg), "--out", str(sim), "--jobs", "1"]),
            ("stats", ["stats", "--config", str(self.cfg), "--out", str(out / "stats"), "--snapshots", str(sim)]),
        ]

    def check(self, label: str, out: Path, stdout: str) -> list:
        if label == "simulate":
            return self.check_simulate(out / "simulate")
        return self.check_stats(out / "simulate", out / "stats")

    def check_simulate(self, sim: Path) -> list:
        fails = []
        summary = read_csv(sim / "summary.csv")
        want = {(r, t) for r in range(self.RUNS) for t in self.TIMES}
        got = {(int(r), float(t)) for r, t in summary[:, :2]}
        if len(summary) != len(want) or got != want:
            fails.append(("summary-rows", f"{len(summary)} rows, want runs x snapshots = {len(want)}"))
            return fails
        snaps = read_csv(sim / "snapshots.csv")
        for r, t, n in summary:
            rows = snaps[(snaps[:, 0] == r) & (snaps[:, 1] == t)]
            if len(rows) != n or (n and (rows[:, 2:].min() < 0 or rows[:, 2:].max() >= self.SIDE)):
                fails.append(("snapshot-counts", f"run {r:g} t {t:g}: {len(rows)} rows in torus vs N = {n:g}"))
        final = summary[summary[:, 1] == self.TIMES[-1], 2]
        area = self.SIDE ** 2
        density = float(final.mean()) / area
        se = self.REF_SD_N / area * math.sqrt(1.0 / self.RUNS + 1.0 / self.REF_RUNS)
        if abs(density - self.REF_DENSITY) > self.SE_LIMIT * se:
            fails.append(("ensemble-density", f"density {density:.4f} vs seed-commit {self.REF_DENSITY:.4f} "
                                              f"(limit {self.SE_LIMIT:g} SE = {self.SE_LIMIT * se:.4f})"))
        return fails

    def check_stats(self, sim: Path, stats: Path) -> list:
        """density.csv and pairs.csv, bin by bin and cell by cell, against
        the bincount and cKDTree estimators of reference.py applied to
        snapshots.csv, for every run in summary.csv."""
        fails = []
        summary = read_csv(sim / "summary.csv")
        snaps = read_csv(sim / "snapshots.csv")
        dens = read_csv(stats / "density.csv")
        pairs = read_csv(stats / "pairs.csv")
        cells = self.CELLS ** 2
        if len(dens) != len(self.TIMES) * cells:
            fails.append(("stats-density", f"{len(dens)} density rows, want {len(self.TIMES) * cells}"))
        if len(pairs) != len(self.TIMES) * PAIR_BINS:
            fails.append(("stats-pairs", f"{len(pairs)} pair rows, want {len(self.TIMES) * PAIR_BINS}"))
        if fails:
            return fails
        for t in self.TIMES:
            runs = summary[summary[:, 1] == t, 0]
            ensemble = [snaps[(snaps[:, 0] == r) & (snaps[:, 1] == t), 2:] for r in runs]
            got = dens[dens[:, 0] == t]
            for col, want in zip((2, 3), ref.density_field(ensemble, self.SIDE, self.CELLS)):
                in_order = len(got) == cells and np.all(got[:, 1] == np.arange(cells))
                err = relative_error(got[:, col], want) if in_order else math.inf
                if not err <= ROUNDOFF_TOL:
                    fails.append(("stats-density", f"t {t:g}: column {col} relative error {err:.3g} "
                                                    f"vs bincount estimate"))
            got = pairs[pairs[:, 0] == t]
            edges = self.pair_edges
            want_mid = 0.5 * (edges[:-1] + edges[1:])
            for col, want in zip((1, 2, 3), (want_mid, *ref.pair_correlation(ensemble, self.SIDE, edges))):
                err = relative_error(got[:, col], want) if len(got) == PAIR_BINS else math.inf
                if not err <= ROUNDOFF_TOL:
                    fails.append(("stats-pairs", f"t {t:g}: column {col} relative error {err:.3g} "
                                                  f"vs cKDTree estimate"))
        return fails


class Kinetic2D(Workload):
    name = "kinetic-2d"
    SIDE, CELLS, HEIGHT = 20.0, 128, 1.9
    DT, TIMES = 0.005, (0.125, 0.25)

    def __init__(self, work: Path, seed: int):
        super().__init__(work)
        aplus = ref.indicator_kernel(self.HEIGHT, DISPERSAL_RADIUS, 2, self.SIDE, self.CELLS)
        aminus = ref.gaussian_kernel(COMPETITION_SIGMA, 2, self.SIDE, self.CELLS)
        q = ref.carrying_capacity(MORTALITY, aplus, aminus, self.SIDE, self.CELLS)
        rho0 = q * smooth_profile(np.random.default_rng(seed), 2, self.CELLS)
        write_table(self.dir / "rho0.csv", rho0)
        rho0 = np.loadtxt(self.dir / "rho0.csv", delimiter=",")
        write_config(self.cfg, {
            "model": {"dimension": 2, "torus_side": self.SIDE, "grid_cells": self.CELLS, "mortality": MORTALITY},
            **kernel_sections(self.HEIGHT),
            "initial": {"kind": "table", "file": "rho0.csv"},
            "run": {"horizon": self.TIMES[-1], "dt": self.DT, "snapshot_times": " ".join(map(str, self.TIMES))},
        })
        self.expected = ref.kinetic_snapshots(rho0, MORTALITY, aplus, aminus, self.SIDE, self.DT, self.TIMES)

    def commands(self, out: Path) -> list:
        return [("kinetic", ["kinetic", "--config", str(self.cfg), "--out", str(out / "kinetic")])]

    def check(self, label: str, out: Path, stdout: str) -> list:
        fields = read_csv(out / "kinetic" / "fields.csv")
        cells = self.CELLS ** 2
        if fields.shape != (len(self.TIMES) * cells, 5):
            return [("kinetic-rows", f"fields.csv shape {fields.shape}")]
        fails = []
        if fields[:, 4].min() < 0:
            fails.append(("kinetic-nonnegative", f"min rho {fields[:, 4].min()!r}"))
        for t, want in zip(self.TIMES, self.expected):
            got = fields[fields[:, 0] == t, 4].reshape(want.shape)
            err = relative_error(got, want)
            if not err <= ROUNDOFF_TOL:
                fails.append(("kinetic-reference", f"t {t:g}: relative error {err:.3g} > {ROUNDOFF_TOL:g}"))
        return fails


class Hierarchy1D(Workload):
    name = "hierarchy-1d"
    SIDE, CELLS, HEIGHT = 32.0, 256, 1.0
    EPSILON, DT, TIMES = 0.5, 0.015, (0.015, 0.03)
    CLOSURES = {"hierarchy_mf": "mean-field", "hierarchy_kw": "kirkwood"}

    def __init__(self, work: Path, seed: int):
        super().__init__(work)
        aplus = ref.indicator_kernel(self.HEIGHT, DISPERSAL_RADIUS, 1, self.SIDE, self.CELLS)
        aminus = ref.gaussian_kernel(COMPETITION_SIGMA, 1, self.SIDE, self.CELLS)
        q = ref.carrying_capacity(MORTALITY, aplus, aminus, self.SIDE, self.CELLS)
        k1 = q * smooth_profile(np.random.default_rng(seed), 1, self.CELLS)
        write_table(self.dir / "k1.csv", k1)
        k1 = np.loadtxt(self.dir / "k1.csv", delimiter=",")
        write_config(self.cfg, {
            "model": {"dimension": 1, "torus_side": self.SIDE, "grid_cells": self.CELLS, "mortality": MORTALITY},
            **kernel_sections(self.HEIGHT),
            "initial": {"kind": "table", "file": "k1.csv"},
            "run": {"horizon": self.TIMES[-1], "dt": self.DT, "snapshot_times": " ".join(map(str, self.TIMES))},
        })
        self.shifts = list(range(0, min(9, self.CELLS // 2), 2))
        self.expected = {
            closure: ref.hierarchy_snapshots(k1, MORTALITY, aplus, aminus, self.SIDE, self.EPSILON,
                                             closure, self.DT, self.TIMES)
            for closure in self.CLOSURES.values()
        }
        alpha_up = -math.log(ref.domination_theta(aplus, aminus)) - 0.5
        self.alpha_star, self.t_star = ref.optimal_alpha(
            alpha_up, ref.kernel_mass(aplus, self.SIDE, self.CELLS), ref.kernel_mass(aminus, self.SIDE, self.CELLS))

    def commands(self, out: Path) -> list:
        cmds = [("analyze", ["analyze", "--config", str(self.cfg)])]
        for label, closure in self.CLOSURES.items():
            cmds.append((label, ["hierarchy", "--config", str(self.cfg), "--out", str(out / label),
                                 "--closure", closure, "--epsilon", str(self.EPSILON)]))
        return cmds

    def check(self, label: str, out: Path, stdout: str) -> list:
        if label == "analyze":
            return self.check_analyze(stdout)
        return self.check_hierarchy(out / label, stdout, self.expected[self.CLOSURES[label]])

    def check_analyze(self, stdout: str) -> list:
        fails = []
        for key, want in (("optimal alpha_*", self.alpha_star), ("T*", self.t_star)):
            m = re.search(rf"^{re.escape(key)}\s*:\s*(\S+)$", stdout, re.M)
            if not m or abs(float(m.group(1)) - want) > PRINTED_TOL * abs(want):
                fails.append(("analyze-tstar", f"{key}: printed {m and m.group(1)} vs closed form {want:.9g}"))
        return fails

    def check_hierarchy(self, out: Path, stdout: str, expected: list) -> list:
        fails = []
        m = re.search(r"max symmetry drift per step: (\S+)", stdout)
        if not m or float(m.group(1)) != 0.0:
            fails.append(("symmetry-drift", f"printed drift {m and m.group(1)}, want exactly 0"))
        k1 = read_csv(out / "k1.csv")
        sl = read_csv(out / "k2_slice.csv")
        if k1.shape != (len(self.TIMES) * self.CELLS, 4) or len(sl) != len(self.TIMES) * len(self.shifts):
            return fails + [("hierarchy-k1", f"k1.csv shape {k1.shape}, k2_slice.csv rows {len(sl)}")]
        for t, (want1, want2) in zip(self.TIMES, expected):
            err = relative_error(k1[k1[:, 0] == t, 3], want1)
            if not err <= ROUNDOFF_TOL:
                fails.append(("hierarchy-k1", f"t {t:g}: k1 relative error {err:.3g} > {ROUNDOFF_TOL:g}"))
            err = relative_error(sl[sl[:, 0] == t, 2], np.array(ref.k2_diagonal_means(want2, self.shifts)))
            if not err <= ROUNDOFF_TOL:
                fails.append(("hierarchy-k2-slice", f"t {t:g}: k2 slice relative error {err:.3g}"))
        return fails


WORKLOADS = {w.name: w for w in (Ensemble2D, Kinetic2D, Hierarchy1D)}
