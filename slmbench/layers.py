"""Per-layer measurements for the traced run: timed direct calls into
single `slm` layers, the layer sweeps, computed work counts, the
import-time breakdown and the machine description.

Timings are medians of repeated calls after one untimed warm-up call, so
lazily built caches (kernel CDFs, circulant matrices) are filled first.
Counts labelled `_computed` are formulas of the problem size, not
measurements.
"""
from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from slm.config import parse_config
from slm.grid import Grid
from slm.hierarchy import TruncatedState, rhs_k1, rhs_k2
from slm.kernels import domination_theta, make_gaussian_kernel, make_indicator_kernel
from slm.kinetic import Field, convolve_periodic, kinetic_rhs
from slm.microsim import init_poisson_field, run, run_rng
from slm.model import ModelParams
from slm.stats import default_pair_edges, density_estimate, pair_correlation
from slm.theory import optimize_alpha

import workloads as wl


def timed(fn, reps: int, warmup: bool = True) -> float:
    """Median wall seconds of `reps` calls of fn()."""
    if warmup:
        fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def peak_mb(fn) -> float:
    """Peak traced allocation (Python and NumPy buffers) during fn(), MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def model(dim: int, side: float, cells: int, height: float, epsilon: float = 1.0) -> ModelParams:
    """The workloads' kernel pair on another grid."""
    grid = Grid(dim, side, cells)
    return ModelParams(
        wl.MORTALITY,
        make_indicator_kernel(height, wl.DISPERSAL_RADIUS, dim, grid),
        make_gaussian_kernel(wl.COMPETITION_SIGMA, dim, grid),
        epsilon,
    )


# -- microsim and kernels (ensemble-2d) ----------------------------------


def microsim_layers(cfg_path: Path, seed: int) -> dict:
    cfg = parse_config(str(cfg_path))
    rng = run_rng(seed, 1000)
    config = init_poisson_field(cfg.rho0, cfg.params.competition, rng)
    disp = cfg.params.dispersal
    batch = 2000
    return {
        "microsim.audit_ms": 1e3 * timed(config.audit, 3),
        "kernels.sample_displacement_us":
            1e6 / batch * timed(lambda: [disp.sample_displacement(rng, 1) for _ in range(batch)], 3),
    }


def microsim_sweep(seed: int) -> dict:
    """us/event in 2-d at N ~ 1e3, 1e4, 3e4: the ensemble-2d model at its
    carrying capacity, with the torus side scaled with N at its spacing."""
    ens = wl.Ensemble2D
    h = ens.SIDE / ens.CELLS
    probe = model(2, ens.SIDE, ens.CELLS, ens.HEIGHT)  # kernel masses depend on h only
    q = (probe.dispersal.mass - wl.MORTALITY) / probe.competition.mass
    out = {}
    for label, n_target in (("n1e3", 1e3), ("n1e4", 1e4), ("n3e4", 3e4)):
        cells = round(math.sqrt(n_target / q) / h)
        params = model(2, h * cells, cells, ens.HEIGHT)
        rng = run_rng(seed, 2000 + cells)
        config = init_poisson_field(Field.constant(params.grid, q), params.competition, rng)
        horizon = 3000 / (config.n * 2.0 * params.dispersal.mass)  # ~3000 events
        t0 = time.perf_counter()
        traj = run(config, params, horizon, [horizon], rng)
        out[f"microsim.us_per_event.{label}"] = 1e6 * (time.perf_counter() - t0) / traj.events
    return out


# -- stats (ensemble-2d) --------------------------------------------------


def stats_layers(cfg_path: Path, snapshots_csv: Path) -> dict:
    cfg = parse_config(str(cfg_path))
    data = wl.read_csv(snapshots_csv)
    final = data[data[:, 1] == data[:, 1].max()]
    ensemble = [final[final[:, 0] == r][:, 2:] for r in sorted(set(final[:, 0]))]
    edges = pair_edges(cfg)
    pair = lambda: pair_correlation(ensemble, cfg.grid.side, cfg.grid.dim, edges)  # noqa: E731
    pair_s = timed(pair, 3, warmup=False)
    pairs = sum(len(p) * (len(p) - 1) / 2 for p in ensemble)
    return {
        "stats.pair_s": pair_s,
        "stats.pairs_per_s": pairs / pair_s,
        "stats.density_s": timed(lambda: density_estimate(ensemble, cfg.grid), 5),
        "stats.peak_mb": peak_mb(pair),
    }


def pair_edges(cfg):
    radius = max(cfg.params.dispersal.support_radius, cfg.params.competition.support_radius)
    return default_pair_edges(cfg.grid.side, radius, cfg.pair_bins)


def stats_sweep(cfg_path: Path, seed: int) -> dict:
    """Pair-correlation seconds for 2 runs of n uniform points on the
    ensemble-2d torus."""
    cfg = parse_config(str(cfg_path))
    rng = np.random.default_rng(seed)
    edges = pair_edges(cfg)
    out = {}
    for n in (2000, 5000):
        ensemble = [rng.uniform(0.0, cfg.grid.side, size=(n, 2)) for _ in range(2)]
        out[f"stats.pair_s.n{n}"] = timed(
            lambda: pair_correlation(ensemble, cfg.grid.side, 2, edges), 1, warmup=False)
    return out


# -- kinetic (kinetic-2d) -------------------------------------------------


def kinetic_layers(cfg_path: Path) -> dict:
    cfg = parse_config(str(cfg_path))
    f, params = cfg.rho0, cfg.params
    cells = f.grid.size
    support = [int(np.count_nonzero(k.values)) for k in (params.dispersal, params.competition)]
    return {
        "kinetic.rhs_ms": 1e3 * timed(lambda: kinetic_rhs(f, params), 10),
        "kinetic.conv_ms": 1e3 * timed(lambda: convolve_periodic(params.competition, f), 10),
        # direct sum: one multiply-add per support cell and grid cell; each
        # support shift reads the field once, and the result is written once
        "kinetic.conv_flops_per_rhs_computed": sum(2 * s * cells for s in support),
        "kinetic.conv_bytes_per_rhs_computed": sum(8 * (s + 1) * cells for s in support),
    }


def kinetic_sweep() -> dict:
    """kinetic_rhs ms in 1-d with 1000 cells and 3-d at 32^3; the 2-d 128^2
    point is kinetic.rhs_ms of the kinetic-2d workload."""
    out = {}
    for label, dim, side, cells in (("d1_1000", 1, 100.0, 1000), ("d3_32", 3, 8.0, 32)):
        params = model(dim, side, cells, wl.Kinetic2D.HEIGHT)
        f = Field.constant(params.grid, 1.0)
        out[f"kinetic.rhs_ms.{label}"] = 1e3 * timed(lambda: kinetic_rhs(f, params), 5)
    return out


# -- hierarchy and theory (hierarchy-1d) ----------------------------------


def rhs_k2_metrics(state, params, suffix: str = "") -> dict:
    out = {}
    for closure in ("mean-field", "kirkwood"):
        call = lambda: rhs_k2(state, closure, params)  # noqa: E731
        out[f"hierarchy.rhs_k2_ms.{closure}{suffix}"] = 1e3 * timed(call, 3)
        out[f"hierarchy.rhs_k2_peak_mb.{closure}{suffix}"] = peak_mb(call)
    return out


def hierarchy_layers(cfg_path: Path) -> dict:
    cfg = parse_config(str(cfg_path))
    params = cfg.params.with_epsilon(wl.Hierarchy1D.EPSILON)
    state = TruncatedState.poisson_like(cfg.rho0, params.epsilon)
    m = cfg.grid.cells
    theta = domination_theta(params.dispersal, params.competition)
    masses = (-math.log(theta) - 0.5, params.dispersal.mass, params.competition.mass)
    return {
        "hierarchy.rhs_k1_ms": 1e3 * timed(lambda: rhs_k1(state, params), 5),
        **rhs_k2_metrics(state, params),
        "hierarchy.k3_bytes_per_rhs_k2_computed": 8 * m**3,
        "theory.optimize_alpha_ms": 1e3 * timed(lambda: optimize_alpha(*masses), 10),
    }


def hierarchy_sweep() -> dict:
    """rhs_k2 time and peak memory at M = 64 and 128 with the spacing of
    hierarchy-1d; its M = 256 point is hierarchy.rhs_k2_ms.<closure>."""
    out = {}
    h = wl.Hierarchy1D.SIDE / wl.Hierarchy1D.CELLS
    for m in (64, 128):
        params = model(1, h * m, m, wl.Hierarchy1D.HEIGHT, wl.Hierarchy1D.EPSILON)
        state = TruncatedState.poisson_like(Field.constant(params.grid, 1.5), params.epsilon)
        out.update(rhs_k2_metrics(state, params, f".m{m}"))
    return out


# -- process start-up and the machine -------------------------------------


def import_breakdown(env: dict, samples: int = 3) -> dict:
    """Cumulative import seconds of slm.cli and scipy.optimize, from
    `python -X importtime -c "import slm.cli"` (median of fresh processes;
    0 for a module that is not imported)."""
    rows = {"slm.cli": [], "scipy.optimize": []}
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import slm.cli"],
                              env=env, capture_output=True, text=True, timeout=120, check=True)
        found = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in rows:
                found.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
        for name in rows:
            rows[name].append(found.get(name, 0.0))
    return {
        "setup.import_slm_cli_s": statistics.median(rows["slm.cli"]),
        "setup.import_scipy_optimize_s": statistics.median(rows["scipy.optimize"]),
    }


def machine() -> dict:
    import scipy

    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        info["cpu_model"] = "unknown"
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    info["caches_cpu0"] = caches
    return info
