"""Run configuration: plain-text sectioned key/value files.

Every run directory gets a copy of the fully resolved config (defaults
echoed) for provenance.  Unknown sections or keys are hard errors.
"""
from __future__ import annotations

import configparser
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidParameterError, SLMError
from .grid import Grid
from .kernels import (
    Kernel,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from .kinetic import Field
from .model import ModelParams

_KERNEL_KEYS = {"shape": (str, "indicator"), "height": (float, None), "radius": (float, None),
                "sigma": (float, None), "cutoff": (float, None), "file": (str, None)}

# section -> key -> (type, default text); a default of None makes the key
# required, or leaves it out when it is read as optional
_KEYS = {
    "model": {"dimension": (int, None), "torus_side": (float, None), "grid_cells": (int, None),
              "mortality": (float, None), "epsilon": (float, "1.0")},
    "kernel.dispersal": _KERNEL_KEYS,
    "kernel.competition": _KERNEL_KEYS,
    "initial": {"kind": (str, "constant"), "density": (float, None), "file": (str, None)},
    "run": {"horizon": (float, None), "dt": (float, None), "snapshot_times": (list, None),
            "seed": (int, "0"), "runs": (int, "100"), "population_cap": (int, "1000000")},
    "theory": {"alpha_up": (float, None)},
    "stats": {"pair_bins": (int, "24")},
    "scaling": {"eps_list": (list, "1 0.5 0.25 0.1"), "scaling_runs": (int, "200")},
    "hierarchy": {"closure": (str, "mean-field"), "slice_offsets": (list, "")},
}

_NOT = {int: "an integer", float: "a number", list: "numbers"}


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
        for section in _KEYS:
            entries = {k: v for (s, k), v in self.resolved.items() if s == section}
            if not entries:
                continue
            lines.append(f"[{section}]")
            for k in sorted(entries):
                lines.append(f"{k} = {entries[k]}")
            lines.append("")
        return "\n".join(lines)


def read_table(path, error=ConfigError, **kwargs) -> np.ndarray:
    """Comma-separated numbers, none for a file without rows; an unreadable
    file or cell raises ``error``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, delimiter=",", **kwargs)
    except (OSError, ValueError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _build_kernel(get, section, grid, base_dir) -> Kernel:
    shape = get(section, "shape")
    if shape == "indicator":
        return make_indicator_kernel(get(section, "height"), get(section, "radius"), grid.dim, grid)
    if shape == "gaussian":
        return make_gaussian_kernel(
            get(section, "sigma"),
            grid.dim,
            grid,
            height=get(section, "height", optional=True),
            cutoff=get(section, "cutoff", optional=True),
        )
    if shape == "tabulated":
        path = os.path.join(base_dir, get(section, "file"))
        data = read_table(path, ndmin=2)
        if data.shape[1] != 2:
            raise InvalidParameterError(f"{path}: expected two columns (offset, value)")
        return make_tabulated_kernel(data[:, 0], data[:, 1], grid.dim, grid)
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
        if section not in _KEYS:
            unknown.append(f"[{section}]")
            continue
        unknown += [f"[{section}] {key}" for key in entries if key not in _KEYS[section]]
    if unknown:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(unknown)))
    for (section, key), text in (overrides or {}).items():
        raw.setdefault(section, {})[key] = text

    resolved: dict = {}

    def get(section, key, optional=False):
        """The value of ``key``, converted by its type in the table and
        recorded for resolved.cfg; None if it is optional and absent."""
        kind, default = _KEYS[section][key]
        text = raw.get(section, {}).get(key, default)
        if text is None:
            if optional:
                return None
            raise ConfigError(f"missing required key [{section}] {key}")
        resolved[(section, key)] = text
        if kind is str:
            return text
        try:
            value = [float(s) for s in text.split()] if kind is list else kind(text)
        except ValueError:
            raise ConfigError(f"[{section}] {key}: not {_NOT[kind]}: {text!r}")
        if kind is not int and not np.all(np.isfinite(value)):
            raise ConfigError(f"[{section}] {key}: not a finite number: {text!r}")
        return value

    base_dir = os.path.dirname(os.path.abspath(path))
    grid = Grid(get("model", "dimension"), get("model", "torus_side"), get("model", "grid_cells"))
    mortality = get("model", "mortality")
    epsilon = get("model", "epsilon")
    dispersal = _build_kernel(get, "kernel.dispersal", grid, base_dir)
    competition = _build_kernel(get, "kernel.competition", grid, base_dir)
    try:
        params = ModelParams(mortality, dispersal, competition, epsilon)
    except SLMError as exc:
        raise ConfigError(str(exc))

    kind = get("initial", "kind")
    if kind == "constant":
        rho0 = Field.constant(grid, get("initial", "density"))
    elif kind == "table":
        vals = read_table(os.path.join(base_dir, get("initial", "file")))
        if vals.size != grid.size:
            raise ConfigError(f"initial table has {vals.size} values, grid needs {grid.size}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("initial table has a non-finite value")
        rho0 = Field(grid, vals.reshape(grid.shape))
    else:
        raise ConfigError(f"[initial] unknown kind {kind!r}")
    if rho0.min < 0:
        raise ConfigError("initial density must be nonnegative")

    horizon = get("run", "horizon")
    dt = get("run", "dt")
    if dt <= 0:
        raise ConfigError("[run] dt must be positive")
    if horizon < 0:
        raise ConfigError("[run] horizon must be nonnegative")
    snapshot_times = sorted(get("run", "snapshot_times"))
    if snapshot_times and (snapshot_times[0] < 0 or snapshot_times[-1] > horizon):
        raise ConfigError("[run] snapshot_times must lie within [0, horizon]")
    seed = get("run", "seed")
    runs = get("run", "runs")
    population_cap = get("run", "population_cap")
    if runs < 1:
        raise ConfigError("[run] runs must be >= 1")
    if seed < 0:
        raise ConfigError("[run] seed must be >= 0")

    # the read order decides which fault is reported first; the remaining
    # keys are read in the order of RunConfig's fields
    cfg = RunConfig(
        grid, params, rho0, horizon, dt, snapshot_times, seed, runs, population_cap,
        get("theory", "alpha_up", optional=True), get("stats", "pair_bins"),
        get("scaling", "eps_list"), get("scaling", "scaling_runs"), get("hierarchy", "closure"),
        get("hierarchy", "slice_offsets"), resolved,
    )
    if cfg.pair_bins < 1:
        raise ConfigError("[stats] pair_bins must be >= 1")
    if not cfg.eps_list:
        raise ConfigError("[scaling] eps_list must not be empty")
    return cfg
