"""Model parameters shared by the microscopic and mesoscopic levels."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import InvalidParameterError
from .grid import require_same_grid
from .kernels import Kernel, convolve_spectra


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
        if self.mortality < 0:
            raise InvalidParameterError("mortality must be nonnegative")
        if not 0.0 <= self.epsilon <= 1.0:
            raise InvalidParameterError("epsilon must lie in [0, 1]")
        require_same_grid(self.dispersal.grid, self.competition.grid)

    @property
    def grid(self):
        return self.dispersal.grid

    @cached_property
    def spectra(self) -> np.ndarray:
        """The (a-, a+) spectra stacked along axis 0."""
        return np.stack((self.competition.spectrum, self.dispersal.spectrum))

    def convolve_both(self, f: np.ndarray) -> np.ndarray:
        """(a- * f, a+ * f) stacked along axis 0, from one transform of f."""
        return convolve_spectra(self.spectra, self.grid, f)

    def with_epsilon(self, eps: float) -> "ModelParams":
        return replace(self, epsilon=eps)
