"""Dispersal and competition kernels tabulated on the periodic grid.

A kernel is stored as its values on the offset lattice of a :class:`Grid`
and is treated everywhere (simulation, quadrature, sampling) as the step
function that is constant on each offset cell.  Consequently the cached
mass ``h^d * sum(values)`` is the *exact* integral of the kernel actually
simulated, and micro- and mesoscopic levels share one object.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IncompatibleGridsError, InvalidParameterError, PreconditionError
from .grid import Grid, require_same_grid

_BALL_VOLUME = {1: lambda r: 2.0 * r, 2: lambda r: np.pi * r * r, 3: lambda r: 4.0 / 3.0 * np.pi * r**3}


@dataclass(frozen=True, eq=False)
class Kernel:
    """Nonnegative even kernel tabulated on the offset lattice of ``grid``.

    ``values[j]`` is the kernel value on the offset cell centered at the
    minimum-image offset represented by index ``j`` (per axis).  ``mass``
    and ``sup`` are cached from the tabulation.  Equality and hashing are
    by identity, which keeps the lazily cached tables (sampler CDF, spectrum,
    pair values) per instance.
    """

    shape: str
    grid: Grid
    values: np.ndarray
    mass: float = field(init=False)
    sup: float = field(init=False)

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.shape != self.grid.shape:
            raise InvalidParameterError(
                f"kernel values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise InvalidParameterError("kernel values must be finite and nonnegative")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "mass", float(self.grid.cell_volume * v.sum()))
        object.__setattr__(self, "sup", float(v.max()) if v.size else 0.0)

    # -- pointwise access ------------------------------------------------

    @property
    def dim(self) -> int:
        return self.grid.dim

    @cached_property
    def support_radius(self) -> float:
        """Largest offset-cell centre radius in supp(a), plus half a cell."""
        radii = self.grid.offset_radii()[self.values > 0]
        return float(radii.max() + 0.5 * self.grid.spacing) if radii.size else 0.0

    def evaluate(self, dx: np.ndarray) -> np.ndarray:
        """Kernel value at offsets ``dx`` of shape (..., dim), the same for every
        periodic image: ``values`` on the cell :meth:`Grid.offset_index` picks."""
        return self.values.ravel().take(self.grid.offset_index(dx) @ self.grid.strides)

    def is_even(self, tol: float = 0.0) -> bool:
        v = self.values
        flipped = v
        for ax in range(v.ndim):
            flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
        return bool(np.max(np.abs(v - flipped)) <= tol)

    # -- sampling --------------------------------------------------------

    def sample_displacement(self, rng: np.random.Generator, size: int | None = 1) -> np.ndarray:
        """Draw displacements from the density a/<a> (inverse CDF over cells
        plus a uniform jitter inside the chosen cell).  Returns (size, dim),
        or one draw of shape (dim,) for ``size=None``, from the same stream
        and arithmetic as ``size=1``.
        """
        if self.mass <= 0:
            raise InvalidParameterError("cannot sample from a kernel with zero mass")
        cdf = self._cdf
        h = self.grid.spacing
        if size is None:
            flat = min(int(cdf.searchsorted(rng.random(), side="right")), cdf.size - 1)
            return self._centres[flat] + rng.uniform(-0.5 * h, 0.5 * h, size=self.dim)
        flat = np.searchsorted(cdf, rng.random(size), side="right")
        # one row of jitter per axis, drawn axis after axis
        jitter = rng.uniform(-0.5 * h, 0.5 * h, size=(self.dim, size))
        return self._centres[np.minimum(flat, cdf.size - 1)] + jitter.T

    @cached_property
    def _cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.values.ravel())
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _centres(self) -> np.ndarray:
        """Offset-cell centres in flat order, one row per cell."""
        return self.grid.axis_offsets()[np.indices(self.grid.shape).reshape(self.dim, -1).T]

    # -- convolution ----------------------------------------------------

    @cached_property
    def spectrum(self) -> np.ndarray:
        """``h^d * rfftn(values)``, the transfer function of ``a * .``; cached lazily."""
        return self.grid.cell_volume * np.fft.rfftn(self.values)

    @cached_property
    def pair_values(self) -> np.ndarray:
        """A[i, j] = a(x_i - x_j) on the 1-d pair grid: a read-only sliding-window
        view over two copies of the tabulation (row i reads it backwards from i)."""
        m = self.grid.cells
        return sliding_window_view(np.concatenate((self.values, self.values)), m)[1 : m + 1, ::-1]

    def convolve(self, f: np.ndarray) -> np.ndarray:
        """Circular convolution ``(a * f)(x_i) = h^d sum_j a(x_i - x_j) f(x_j)``
        over the leading ``dim`` axes of ``f``, batched over trailing axes (a
        pair function k2[i, j] is convolved in i).  The sum is the exact
        integral for step functions; the FFT adds only round-off.
        """
        return convolve_spectra(self.spectrum[None], self.grid, f)[0]


def convolve_spectra(spectra: np.ndarray, grid: Grid, f: np.ndarray) -> np.ndarray:
    """``out[k] = a_k * f`` for the kernels whose :attr:`Kernel.spectrum`
    are stacked along axis 0 of ``spectra``, as :meth:`Kernel.convolve`
    does for one kernel: one forward transform of ``f`` serves every
    kernel, and one inverse transform is batched over the kernels.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[: grid.dim] != grid.shape:
        raise IncompatibleGridsError(
            f"array shape {f.shape} does not start with grid shape {grid.shape}"
        )
    # rfftn over the grid axes of f and irfftn over those of the product,
    # pass by pass in numpy's order, with the complex passes in place: a
    # fresh large temporary costs page faults, and on small grids the n-d
    # wrappers' argument handling costs as much as the transforms
    fhat = np.fft.rfft(f, axis=grid.dim - 1)
    for ax in reversed(range(grid.dim - 1)):
        np.fft.fft(fhat, axis=ax, out=fhat)
    prod = spectra.reshape(spectra.shape + (1,) * (f.ndim - grid.dim)) * fhat
    for ax in range(1, grid.dim):
        np.fft.ifft(prod, axis=ax, out=prod)
    return np.fft.irfft(prod, n=grid.cells, axis=grid.dim)


# -- constructors --------------------------------------------------------


def _check_support(radius: float, grid: Grid):
    if radius >= 0.5 * grid.side:
        raise InvalidParameterError(
            f"kernel radius {radius} must be below half the torus side {grid.side / 2}"
        )


def make_indicator_kernel(height: float, radius: float, dim: int, grid: Grid) -> Kernel:
    """Uniform bump: a(x) = height for |x| <= radius, else 0."""
    if height <= 0 or radius <= 0:
        raise InvalidParameterError("indicator kernel needs positive height and radius")
    if dim != grid.dim:
        raise InvalidParameterError(f"dim {dim} does not match grid dim {grid.dim}")
    _check_support(radius, grid)
    r = grid.offset_radii()
    return Kernel("indicator-ball", grid, np.where(r <= radius, height, 0.0))


def make_gaussian_kernel(
    sigma: float, dim: int, grid: Grid, height: float | None = None, cutoff: float | None = None
) -> Kernel:
    """Truncated Gaussian bump.  ``height=None`` normalizes the untruncated
    profile to unit mass; ``cutoff`` defaults to 5 sigma.
    """
    if sigma <= 0:
        raise InvalidParameterError("sigma must be positive")
    if dim != grid.dim:
        raise InvalidParameterError(f"dim {dim} does not match grid dim {grid.dim}")
    if cutoff is None:
        cutoff = 5.0 * sigma
    _check_support(cutoff, grid)
    if height is None:
        height = (2.0 * np.pi * sigma * sigma) ** (-0.5 * dim)
    elif height <= 0:
        raise InvalidParameterError("height must be positive")
    r = grid.offset_radii()
    vals = height * np.exp(-0.5 * (r / sigma) ** 2)
    vals[r > cutoff] = 0.0
    return Kernel("gaussian-truncated", grid, vals)


def make_tabulated_kernel(offsets: np.ndarray, profile: np.ndarray, dim: int, grid: Grid) -> Kernel:
    """Kernel from a radial profile sampled at strictly increasing offsets.

    The profile is linearly interpolated onto |offset| of every grid cell
    and is zero beyond the last tabulated offset.
    """
    offsets = np.asarray(offsets, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if offsets.ndim != 1 or offsets.shape != profile.shape or offsets.size < 2:
        raise InvalidParameterError("tabulated kernel needs two equal-length columns")
    if not np.all(np.diff(offsets) > 0):
        raise InvalidParameterError("tabulated offsets must be strictly increasing")
    if not np.all(np.isfinite(profile) & (profile >= 0)):
        raise InvalidParameterError("tabulated values must be finite and nonnegative")
    if dim != grid.dim:
        raise InvalidParameterError(f"dim {dim} does not match grid dim {grid.dim}")
    _check_support(float(offsets[-1]), grid)
    r = grid.offset_radii()
    vals = np.interp(r, offsets, profile, right=0.0)
    return Kernel("tabulated-grid", grid, vals)


def make_zero_kernel(grid: Grid) -> Kernel:
    """Absent interaction (e.g. the contact model's competition kernel)."""
    return Kernel("zero", grid, np.zeros(grid.shape))


def ball_volume(dim: int, radius: float) -> float:
    return _BALL_VOLUME[dim](radius)


# -- conditions on kernel pairs -----------------------------------------


def kernel_moments(kernel: Kernel) -> tuple:
    """(mass, sup) recomputed from the tabulation; matches the cached values."""
    mass = float(kernel.grid.cell_volume * kernel.values.sum())
    sup = float(kernel.values.max()) if kernel.values.size else 0.0
    return mass, sup


def domination_theta(aplus: Kernel, aminus: Kernel) -> float | None:
    """Smallest theta with a+ <= theta * a- on the grid, or None if no
    finite theta exists (a+ positive where a- vanishes).
    """
    require_same_grid(aplus.grid, aminus.grid)
    pos = aplus.values > 0
    if not pos.any():
        return 0.0
    if np.any(aminus.values[pos] == 0):
        return None
    return float(np.max(aplus.values[pos] / aminus.values[pos]))


def check_homogenization(aplus: Kernel, aminus: Kernel, m: float) -> bool:
    """Pointwise criterion for long-time flattening of the kinetic density:
    a+(x)/<a+> >= (1 - m/<a+>) * a-(x)/<a-> at every grid cell.

    Requires a positive carrying capacity q = (<a+> - m)/<a->.
    """
    require_same_grid(aplus.grid, aminus.grid)
    if aminus.mass <= 0:
        raise PreconditionError("competition kernel must have positive mass")
    q = (aplus.mass - m) / aminus.mass
    if q <= 0:
        raise PreconditionError(f"carrying capacity must be positive, got q={q:.6g}")
    lhs = aplus.values / aplus.mass
    rhs = (1.0 - m / aplus.mass) * aminus.values / aminus.mass
    # tiny relative slack absorbs round-off in the ratio fields
    tol = 1e-12 * max(float(np.max(rhs)), 1.0)
    return bool(np.all(lhs >= rhs - tol))
