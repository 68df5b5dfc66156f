"""Run configuration: plain-text sectioned key/value files.

Every run directory gets a copy of the fully resolved config (defaults
echoed) for provenance.  Unknown sections or keys are hard errors.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidParameterError, SLMError
from .grid import Grid
from .kernels import (
    Kernel,
    load_tabulated_kernel,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_zero_kernel,
)
from .kinetic import Field
from .model import ModelParams

_SCHEMA = {
    "model": {"dimension", "torus_side", "grid_cells", "mortality", "epsilon"},
    "kernel.dispersal": {"shape", "height", "radius", "sigma", "cutoff", "file"},
    "kernel.competition": {"shape", "height", "radius", "sigma", "cutoff", "file"},
    "initial": {"kind", "density", "file"},
    "run": {"horizon", "dt", "snapshot_times", "seed", "runs", "population_cap"},
    "theory": {"alpha_up"},
    "stats": {"pair_bins"},
    "scaling": {"eps_list", "scaling_runs"},
    "hierarchy": {"closure", "slice_offsets"},
}

_DEFAULTS = {
    ("model", "epsilon"): "1.0",
    ("run", "seed"): "0",
    ("run", "runs"): "100",
    ("run", "population_cap"): "1000000",
    ("stats", "pair_bins"): "24",
    ("scaling", "eps_list"): "1 0.5 0.25 0.1",
    ("scaling", "scaling_runs"): "200",
    ("hierarchy", "closure"): "mean-field",
    ("hierarchy", "slice_offsets"): "",
}


@dataclass
class RunConfig:
    grid: Grid
    params: ModelParams
    rho0: Field
    horizon: float
    dt: float
    snapshot_times: list
    seed: int
    runs: int
    population_cap: int
    alpha_up: float | None
    pair_bins: int
    eps_list: list
    scaling_runs: int
    closure: str
    slice_offsets: list
    resolved: dict = field(default_factory=dict)

    def resolved_text(self) -> str:
        lines = []
        for section in _SCHEMA:
            entries = {k: v for (s, k), v in self.resolved.items() if s == section}
            if not entries:
                continue
            lines.append(f"[{section}]")
            for k in sorted(entries):
                lines.append(f"{k} = {entries[k]}")
            lines.append("")
        return "\n".join(lines)


def _getfloat(raw, resolved, section, key) -> float:
    val = _get(raw, resolved, section, key)
    try:
        return float(val)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not a number: {val!r}")


def _getint(raw, resolved, section, key) -> int:
    val = _get(raw, resolved, section, key)
    try:
        return int(val)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not an integer: {val!r}")


def _getfloats(raw, resolved, section, key) -> list:
    val = _get(raw, resolved, section, key)
    try:
        return [float(s) for s in val.split()]
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not numbers: {val!r}")


def _get(raw, resolved, section, key, default=None):
    sec = raw.get(section, {})
    if key in sec:
        resolved[(section, key)] = sec[key]
        return sec[key]
    if default is None and (section, key) not in _DEFAULTS:
        raise ConfigError(f"missing required key [{section}] {key}")
    val = _DEFAULTS.get((section, key), default)
    resolved[(section, key)] = val
    return val


def _build_kernel(raw, resolved, section, dim, grid, base_dir) -> Kernel:
    shape = _get(raw, resolved, section, "shape", "indicator")
    if shape == "indicator":
        return make_indicator_kernel(
            _getfloat(raw, resolved, section, "height"),
            _getfloat(raw, resolved, section, "radius"),
            dim,
            grid,
        )
    if shape == "gaussian":
        sigma = _getfloat(raw, resolved, section, "sigma")
        height = None
        if "height" in raw.get(section, {}):
            height = _getfloat(raw, resolved, section, "height")
        cutoff = None
        if "cutoff" in raw.get(section, {}):
            cutoff = _getfloat(raw, resolved, section, "cutoff")
        return make_gaussian_kernel(sigma, dim, grid, height=height, cutoff=cutoff)
    if shape == "tabulated":
        path = _get(raw, resolved, section, "file")
        return load_tabulated_kernel(os.path.join(base_dir, path), dim, grid)
    if shape == "zero":
        return make_zero_kernel(grid)
    raise ConfigError(f"[{section}] unknown kernel shape {shape!r}")


def parse_config(path, overrides=None) -> RunConfig:
    """Parse and fully validate a run configuration file; ``overrides``
    maps (section, key) to text that replaces the file's value."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(interpolation=None)
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    raw = {s: dict(cp.items(s)) for s in cp.sections()}

    unknown = []
    for section, entries in raw.items():
        if section not in _SCHEMA:
            unknown.append(f"[{section}]")
            continue
        for key in entries:
            if key not in _SCHEMA[section]:
                unknown.append(f"[{section}] {key}")
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    for (section, key), text in (overrides or {}).items():
        raw.setdefault(section, {})[key] = text

    resolved: dict = {}
    base_dir = os.path.dirname(os.path.abspath(path))

    dim = _getint(raw, resolved, "model", "dimension")
    side = _getfloat(raw, resolved, "model", "torus_side")
    cells = _getint(raw, resolved, "model", "grid_cells")
    grid = Grid(dim, side, cells)

    mortality = _getfloat(raw, resolved, "model", "mortality")
    epsilon = _getfloat(raw, resolved, "model", "epsilon")
    dispersal = _build_kernel(raw, resolved, "kernel.dispersal", dim, grid, base_dir)
    competition = _build_kernel(raw, resolved, "kernel.competition", dim, grid, base_dir)
    try:
        params = ModelParams(mortality, dispersal, competition, epsilon)
    except SLMError as exc:
        raise ConfigError(str(exc))

    kind = _get(raw, resolved, "initial", "kind", "constant")
    if kind == "constant":
        rho0 = Field.constant(grid, _getfloat(raw, resolved, "initial", "density"))
    elif kind == "table":
        fpath = os.path.join(base_dir, _get(raw, resolved, "initial", "file"))
        vals = np.loadtxt(fpath, delimiter=",")
        if vals.size != grid.size:
            raise ConfigError(
                f"initial table has {vals.size} values, grid needs {grid.size}"
            )
        rho0 = Field(grid, vals.reshape(grid.shape))
    else:
        raise ConfigError(f"[initial] unknown kind {kind!r}")
    if rho0.min < 0:
        raise ConfigError("initial density must be nonnegative")

    horizon = _getfloat(raw, resolved, "run", "horizon")
    dt = _getfloat(raw, resolved, "run", "dt")
    if dt <= 0:
        raise ConfigError("[run] dt must be positive")
    if horizon < 0:
        raise ConfigError("[run] horizon must be nonnegative")
    snapshot_times = sorted(_getfloats(raw, resolved, "run", "snapshot_times"))
    if snapshot_times and (snapshot_times[0] < 0 or snapshot_times[-1] > horizon):
        raise ConfigError("[run] snapshot_times must lie within [0, horizon]")

    seed = _getint(raw, resolved, "run", "seed")
    runs = _getint(raw, resolved, "run", "runs")
    population_cap = _getint(raw, resolved, "run", "population_cap")
    if runs < 1:
        raise ConfigError("[run] runs must be >= 1")

    alpha_up = None
    if "theory" in raw and "alpha_up" in raw["theory"]:
        alpha_up = _getfloat(raw, resolved, "theory", "alpha_up")

    pair_bins = _getint(raw, resolved, "stats", "pair_bins")
    eps_list = _getfloats(raw, resolved, "scaling", "eps_list")
    scaling_runs = _getint(raw, resolved, "scaling", "scaling_runs")
    closure_rule = _get(raw, resolved, "hierarchy", "closure")
    slice_offsets = _getfloats(raw, resolved, "hierarchy", "slice_offsets")

    return RunConfig(
        grid=grid,
        params=params,
        rho0=rho0,
        horizon=horizon,
        dt=dt,
        snapshot_times=snapshot_times,
        seed=seed,
        runs=runs,
        population_cap=population_cap,
        alpha_up=alpha_up,
        pair_bins=pair_bins,
        eps_list=eps_list,
        scaling_runs=scaling_runs,
        closure=closure_rule,
        slice_offsets=slice_offsets,
        resolved=resolved,
    )
