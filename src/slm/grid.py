"""Uniform periodic grid on a d-dimensional torus, the density field
sampled on it, and its pair search.

The same grid underlies tabulated kernels, density fields and pair
functions, so that discrete conservation identities close exactly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import IncompatibleGridsError, InvalidParameterError

MAX_CELLS = 1 << 16  # cells of a pair search; wider cells only add candidates, more cost memory
PAIR_BLOCK = 1 << 15  # floats per temporary of a pair_blocks caller; 256 KB each


@dataclass(frozen=True)
class Grid:
    """Cells per axis is the same in every direction; spacing h = side/cells."""

    dim: int
    side: float
    cells: int

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise InvalidParameterError(f"dim must be 1, 2 or 3, got {self.dim}")
        if not 0 < self.side < np.inf:
            raise InvalidParameterError(f"torus side must be finite and positive, got {self.side}")
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
        """Offset cell of each coordinate of dx, rint(dx / h) mod cells: even
        in the sign of dx, and the same for every periodic image of dx.  The
        mod is taken on the float, where it is exact, so no finite dx
        overflows the integer cast."""
        return (np.rint(np.asarray(dx) / self.spacing) % self.cells).astype(np.intp)


@dataclass
class Field:
    """Grid-sampled density (one value per cell, nonnegative)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidParameterError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = v

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def mean(self) -> float:
        return float(self.values.mean())


def require_same_grid(*grids: Grid) -> Grid:
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise IncompatibleGridsError(f"grids differ: {first} vs {g}")
    return first


def wrap(x: np.ndarray, side: float) -> np.ndarray:
    """x mod side in [0, side): np.mod rounds a tiny negative x up to side."""
    x = np.mod(x, side)
    x[x == side] = 0.0
    return x


def cell_keys(pts: np.ndarray, side: float, k: int) -> np.ndarray:
    """Per-axis cell of each point of [0, side)^d, k cells per axis: x / (side / k)
    truncated, and k - 1 for a point that rounds up to k (one ulp below side)."""
    return np.minimum((pts / (side / k)).astype(np.intp), k - 1)


def sort_by_cell(pts: np.ndarray, side: float, radius: float):
    """(order, keys, k): points of [0, side)^d sorted stably by cell in C
    order, their per-axis cells in that order, and k cells per axis, each
    at least radius (1 + 1e-9) wide so that rounding cannot put a pair at
    most ``radius`` apart on each axis two cells apart.  At most MAX_CELLS
    cells; one holds every point when fewer than 3 per axis fit."""
    dim = pts.shape[1]
    k = min(int(side / (radius * (1 + 1e-9))), round(MAX_CELLS ** (1 / dim))) if radius > 0 else 1
    k = k if k >= 3 else 1
    keys = cell_keys(pts, side, k)
    order = np.argsort(np.ravel_multi_index(keys.T, (k,) * dim), kind="stable")
    return order, keys[order], k


def pair_blocks(keys: np.ndarray, k: int, cost: int = 1):
    """Every unordered pair of points in the same or adjacent cells once,
    for points sorted by :func:`sort_by_cell` with cells ``keys``: each
    cell meets the rest of itself (j > i) and the (3^d - 1)/2 cells at
    lexicographically positive offsets.  Yields blocks of about
    PAIR_BLOCK / ``cost`` pairs, for a caller whose temporaries take
    ``cost`` floats a pair (2 dim for rows of dim coordinates), as (rows,
    w, j): sorted point ``rows.start + r`` meets the next ``w[r]`` sorted
    points listed in ``j``."""
    n, dim = keys.shape
    flat = np.ravel_multi_index(keys.T, (k,) * dim)
    start = np.searchsorted(flat, np.arange(k**dim + 1))
    # each row's candidate columns [lo, hi): the rest of its cell, then each shell cell
    spans = [(np.arange(1, n + 1), start[flat + 1])]
    for off in itertools.product((-1, 0, 1), repeat=dim):
        if k > 1 and off > (0,) * dim:
            nbr = np.ravel_multi_index((keys + off).T, (k,) * dim, mode="wrap")
            spans.append((start[nbr], start[nbr + 1]))
    block = PAIR_BLOCK // cost
    # a block is at most that many pairs or one row of at most n, and a span has at most n^2 pairs
    count = np.arange(min(max(block, n), n * n))
    for lo, hi in spans:
        width = hi - lo
        ends = np.cumsum(width)
        a = 0
        while a < n:
            done = ends[a - 1] if a else 0
            b = max(a + 1, int(np.searchsorted(ends, done + block, side="right")))
            w = width[a:b]
            # pair p of the block is row i, column lo[i] + (p - first p of row i)
            j = np.repeat(lo[a:b] - (ends[a:b] - w - done), w)
            j += count[: len(j)]
            yield slice(a, b), w, j
            a = b
