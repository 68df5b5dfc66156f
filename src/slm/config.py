"""Run configuration: plain-text sectioned key/value files.

Every run directory gets a copy of the fully resolved config (defaults
echoed) for provenance.  Each key's type, default and accepted values live
in one table, ``_KEYS``, which checks every value, from the file or from an
override flag.  Unknown sections or keys are hard errors; a malformed or
unaccepted value is reported as ``[section] key: not <phrase>: '<text>'``.
"""
from __future__ import annotations

import configparser
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidParameterError
from .grid import Field, Grid
from .kernels import (
    Kernel,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from .model import CLOSURES, DEFAULT_POPULATION_CAP, ModelParams

# accepted values: a tuple of words, or a test of the value and the phrase that names it
_POSITIVE = (lambda v: v > 0, "positive")
_NONNEGATIVE = (lambda v: v >= 0, "nonnegative")
_AT_LEAST_1 = (lambda v: v >= 1, "at least 1")

# cutoff = 0 is a valid one-cell kernel; a negative cutoff would zero every cell
_KERNEL_KEYS = {"shape": (str, "indicator", ("indicator", "gaussian", "tabulated", "zero")),
                "height": (float, None, _POSITIVE), "radius": (float, None, _POSITIVE),
                "sigma": (float, None, _POSITIVE), "cutoff": (float, None, _NONNEGATIVE),
                "file": (str, None)}

# section -> key -> (type, default text[, accepted values]); a default of
# None makes the key required, or leaves it out when it is read as optional
_KEYS = {
    "model": {"dimension": (int, None, (lambda v: v in (1, 2, 3), "1, 2 or 3")),
              "torus_side": (float, None, _POSITIVE),
              "grid_cells": (int, None, (lambda v: v >= 2, "at least 2")),
              "mortality": (float, None, _NONNEGATIVE),
              "epsilon": (float, "1.0", (lambda v: 0 <= v <= 1, "in [0, 1]"))},
    "kernel.dispersal": _KERNEL_KEYS,
    "kernel.competition": _KERNEL_KEYS,
    "initial": {"kind": (str, "constant", ("constant", "table")),
                "density": (float, None, _NONNEGATIVE), "file": (str, None)},
    "run": {"horizon": (float, None, _NONNEGATIVE), "dt": (float, None, _POSITIVE),
            "snapshot_times": (list, None), "seed": (int, "0", _NONNEGATIVE),
            "runs": (int, "100", _AT_LEAST_1),
            "population_cap": (int, str(DEFAULT_POPULATION_CAP), _AT_LEAST_1)},
    "theory": {"alpha_up": (float, None)},
    "stats": {"pair_bins": (int, "24", _AT_LEAST_1)},
    "scaling": {"eps_list": (list, "1 0.5 0.25 0.1", (bool, "at least one number")),
                "scaling_runs": (int, "200")},
    "hierarchy": {"closure": (str, "mean-field", CLOSURES), "slice_offsets": (list, "")},
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


def _value(section, key, text):
    """``text`` converted by the type of ``[section] key`` in the table and
    checked against the values the key accepts."""
    kind, _, *accepts = _KEYS[section][key]
    try:
        value = text if kind is str else [float(s) for s in text.split()] if kind is list else kind(text)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: not {_NOT[kind]}: {text!r}")
    if kind in (float, list) and not np.all(np.isfinite(value)):
        raise ConfigError(f"[{section}] {key}: not a finite number: {text!r}")
    for rule in accepts:
        test, phrase = (rule.__contains__, "one of " + ", ".join(rule)) if kind is str else rule
        if not test(value):
            raise ConfigError(f"[{section}] {key}: not {phrase}: {text!r}")
    return value


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
    return make_zero_kernel(grid)  # the one shape left in the table


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
        """The value of ``key``, converted and checked by the table and
        recorded for resolved.cfg; None if it is optional and absent."""
        text = raw.get(section, {}).get(key, _KEYS[section][key][1])
        if text is None:
            if optional:
                return None
            raise ConfigError(f"missing required key [{section}] {key}")
        resolved[(section, key)] = text
        return _value(section, key, text)

    base_dir = os.path.dirname(os.path.abspath(path))
    grid = Grid(get("model", "dimension"), get("model", "torus_side"), get("model", "grid_cells"))
    mortality = get("model", "mortality")
    epsilon = get("model", "epsilon")
    dispersal = _build_kernel(get, "kernel.dispersal", grid, base_dir)
    competition = _build_kernel(get, "kernel.competition", grid, base_dir)
    params = ModelParams(mortality, dispersal, competition, epsilon)

    if get("initial", "kind") == "constant":
        rho0 = Field.constant(grid, get("initial", "density"))
    else:
        vals = read_table(os.path.join(base_dir, get("initial", "file")))
        if vals.size != grid.size:
            raise ConfigError(f"initial table has {vals.size} values, grid needs {grid.size}")
        if not np.all(np.isfinite(vals)):
            raise ConfigError("initial table has a non-finite value")
        rho0 = Field(grid, vals.reshape(grid.shape))
        if rho0.min < 0:
            raise ConfigError("initial density must be nonnegative")

    # the plain keys are read in table order, which decides the fault
    # reported first; [theory] alpha_up is the one optional among them
    plain = {key: get(section, key, optional=section == "theory")
             for section in ("run", "theory", "stats", "scaling", "hierarchy") for key in _KEYS[section]}
    # every value is read now, and a key the run did not read has no effect
    unused = sorted(f"[{s}] {k}" for s, entries in raw.items() for k in entries if (s, k) not in resolved)
    if unused:
        raise ConfigError("unused config keys: " + ", ".join(unused))
    times = plain["snapshot_times"] = sorted(plain["snapshot_times"])
    repeated = [a for a, b in zip(times, times[1:]) if a == b]
    if repeated:
        raise ConfigError(f"[run] snapshot_times: {repeated[0]!r} is repeated")
    if times and (times[0] < 0 or times[-1] > plain["horizon"]):
        raise ConfigError("[run] snapshot_times must lie within [0, horizon]")
    return RunConfig(grid, params, rho0, **plain, resolved=resolved)
