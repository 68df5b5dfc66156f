"""Model parameters shared by the microscopic and mesoscopic levels."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .grid import require_same_grid
from .kernels import Kernel

# a simulation whose population exceeds this stops with BlowUpError
DEFAULT_POPULATION_CAP = 1_000_000
# the closures for k3 of the truncated hierarchy
CLOSURES = ("mean-field", "kirkwood")
# how far a snapshot time may pass the horizon: the round-off of a horizon summed from steps
SNAPSHOT_TOLERANCE = 1e-12


def snapshot_schedule(horizon: float, snapshot_times) -> list:
    """The snapshot times sorted, or InvalidParameterError worded ``key: fault``:
    the horizon is a number >= 0 (inf runs until the state is absorbed), and
    the times are finite, distinct and in [0, horizon + SNAPSHOT_TOLERANCE]."""
    horizon, times = float(horizon), sorted(float(t) for t in snapshot_times)
    if not horizon >= 0:
        raise InvalidParameterError(f"horizon: not nonnegative: {horizon!r}")
    for before, t in zip([None, *times], times):
        if not abs(t) < np.inf:
            raise InvalidParameterError(f"snapshot_times: {t!r} is not finite")
        if t == before:
            raise InvalidParameterError(f"snapshot_times: {t!r} is repeated")
        if not 0 <= t <= horizon + SNAPSHOT_TOLERANCE:
            raise InvalidParameterError(f"snapshot_times: {t!r} is outside [0, horizon = {horizon!r}]")
    return times


def require_density(values) -> None:
    """InvalidParameterError unless every value is finite and >= 0: the one
    density rule for the start state of every level, worded
    ``density: not finite and nonnegative: <value>``, followed by
    `` in cell <cell>`` for an array."""
    values = np.asarray(values, dtype=float)
    ok = np.isfinite(values) & (values >= 0)
    if not ok.all():
        cell = np.unravel_index(int(np.argmin(ok)), values.shape)
        where = f" in cell {tuple(int(c) for c in cell)}" if values.ndim else ""
        raise InvalidParameterError(f"density: not finite and nonnegative: {float(values[cell])!r}{where}")


@dataclass(frozen=True)
class ModelParams:
    """Mortality m, dispersal kernel a+, competition kernel a-, and the
    interaction scaling epsilon (competition enters all rates as eps * a-).
    """

    mortality: float
    dispersal: Kernel
    competition: Kernel
    epsilon: float = 1.0

    def __post_init__(self):
        if not 0 <= self.mortality < np.inf:
            raise InvalidParameterError(f"mortality must be finite and nonnegative, got {self.mortality}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParameterError("epsilon must lie in [0, 1]")
        require_same_grid(self.dispersal.grid, self.competition.grid)

    @property
    def grid(self):
        return self.dispersal.grid

    @property
    def carrying_capacity(self) -> float:
        """q = (<a+> - m)/<a->, the constant steady state of the kinetic
        equation, which has no epsilon; may be <= 0, the caller checks."""
        if self.competition.mass <= 0:
            raise InvalidParameterError("carrying capacity undefined for <a-> = 0")
        return (self.dispersal.mass - self.mortality) / self.competition.mass

    @cached_property
    def spectra(self) -> np.ndarray:
        """The (a-, a+) spectra stacked along axis 0."""
        return np.stack((self.competition.spectrum, self.dispersal.spectrum))

    def with_epsilon(self, eps: float) -> "ModelParams":
        return replace(self, epsilon=eps)
