"""Uniform periodic grid on a d-dimensional torus.

The same grid underlies tabulated kernels, density fields and pair
functions, so that discrete conservation identities close exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IncompatibleGridsError, InvalidParameterError


@dataclass(frozen=True)
class Grid:
    """Cells per axis is the same in every direction; spacing h = side/cells."""

    dim: int
    side: float
    cells: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"dim must be 1, 2 or 3, got {self.dim}")
        if self.side <= 0:
            raise InvalidParameterError("torus side must be positive")
        if self.cells < 2:
            raise InvalidParameterError("need at least 2 cells per axis")

    @property
    def spacing(self) -> float:
        return self.side / self.cells

    @property
    def shape(self) -> tuple:
        return (self.cells,) * self.dim

    @property
    def size(self) -> int:
        return self.cells**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def strides(self) -> np.ndarray:
        """Flat C-order index of a cell: ``index @ strides``."""
        return self.cells ** np.arange(self.dim - 1, -1, -1)

    def centers(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing
        return (np.arange(self.cells) + 0.5) * h

    def axis_offsets(self) -> np.ndarray:
        """Signed minimum-image offset represented by each index along one axis."""
        j = np.arange(self.cells)
        j = np.where(j <= self.cells // 2, j, j - self.cells)
        return j * self.spacing

    def offset_radii(self) -> np.ndarray:
        """|offset| for every cell of the offset lattice, shape ``self.shape``."""
        d = self.axis_offsets()
        axes = np.meshgrid(*([d] * self.dim), indexing="ij")
        return np.sqrt(sum(a * a for a in axes))

    def offset_index(self, dx: np.ndarray) -> np.ndarray:
        """Index of the offset cell containing dx (nearest lattice offset)."""
        k = np.asarray(dx) / self.spacing
        k += 0.5
        idx = np.floor(k).astype(np.intp)
        idx %= self.cells
        return idx


def require_same_grid(*grids: Grid) -> Grid:
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise IncompatibleGridsError(f"grids differ: {first} vs {g}")
    return first
