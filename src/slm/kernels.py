"""Dispersal and competition kernels tabulated on the periodic grid.

A kernel is stored as its values on the offset lattice of a :class:`Grid`
and is treated everywhere (simulation, quadrature, sampling) as the step
function that is constant on each offset cell.  Consequently the cached
mass ``h^d * sum(values)`` is the *exact* integral of the kernel actually
simulated, and micro- and mesoscopic levels share one object.  One
helper, ``_radial``, owns the rule for a valid radial kernel (its grid
dimension, and a reach below L/2) and its tabulation on the offset cells.
"""
from __future__ import annotations

from bisect import bisect_right
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
        """Kernel value at offsets ``dx`` of shape (..., dim) between two
        points of [0, L)^d: ``values`` on the cell :meth:`Grid.offset_index`
        picks.  The wrapped flat index into ``_lookup`` is the modulo on
        the first axis; a wider offset reads a wrong cell."""
        table, strides, h = self._lookup
        index = np.divide(dx, h)
        # dot, not @: the same exact sums of integers without the gufunc's dispatch
        index = np.rint(index, out=index).dot(strides)
        return table.take(index.astype(np.intp), mode="wrap")

    @cached_property
    def _lookup(self) -> tuple:
        """(table, strides, h): ``values`` padded to the offsets -M..M that
        rint(dx / h) takes on every axis but the first, M (2M + 1)^(d - 1)
        floats, flat and rolled so that offset 0 is index 0; its strides
        are floats, as a float matmul is much cheaper than an integer one.
        Built on the first lookup, so only the simulator pays for it."""
        m = self.grid.cells
        table = self.values
        for ax in range(1, self.dim):
            table = table.take(np.arange(-m, m + 1), axis=ax, mode="wrap")
        strides = (2.0 * m + 1.0) ** np.arange(self.dim - 1, -1, -1)
        return np.roll(table.ravel(), -m * int(strides[1:].sum())), strides, self.grid.spacing

    # -- sampling --------------------------------------------------------

    def sample_displacement(self, rng, size: int | None = 1):
        """Draw displacements from the density a/<a>: a cell by inverse CDF,
        then a uniform jitter inside it, axis by axis.  A draw reads only
        ``rng.random()``, 1 + dim times, so ``rng`` is a Generator or the
        simulator's :class:`microsim.Draws`.  ``size=None`` returns one draw
        as a list of dim Python floats, and ``size=n`` returns n successive
        draws as an (n, dim) array.
        """
        if self.mass <= 0:
            raise InvalidParameterError("cannot sample from a kernel with zero mass")
        if size is not None:
            draws = [self.sample_displacement(rng, None) for _ in range(size)]
            return np.array(draws, dtype=float).reshape(size, self.dim)
        # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random() in C doubles
        cdf, centres, lo, width = self._scalar_draw
        centre = centres[min(bisect_right(cdf, rng.random()), len(cdf) - 1)].tolist()
        return [c + (lo + width * rng.random()) for c in centre]

    @cached_property
    def _scalar_draw(self) -> tuple:
        """(cdf, centres, lo, width) for one draw in Python floats: over the
        cells where a > 0, in C order, the CDF as a list to bisect and the
        offset-cell centres as rows, and the jitter's lower end -h/2 and
        width h/2 - lo.  The cells where a = 0 would add nothing to the
        sums and could never be picked.  The centres stay an array, one row
        read per draw: as lists of floats they take several times the
        memory of the array on a wide 3-d kernel."""
        nonzero = np.nonzero(self.values)
        cdf = np.cumsum(self.values[nonzero])
        cdf /= cdf[-1]
        h = self.grid.spacing
        lo = -0.5 * h
        return cdf.tolist(), self.grid.axis_offsets()[np.transpose(nonzero)], lo, 0.5 * h - lo

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


def spectral_work(spectra: np.ndarray, grid: Grid, shape: tuple) -> tuple:
    """(spec, out): the buffers :func:`convolve_spectra` computes in for
    the kernels stacked in ``spectra`` and arrays of ``shape``, which is
    ``grid.shape`` plus any trailing axes: one half-spectrum row and one
    result row per kernel.  The transform of the input is formed in the
    last row of ``spec``, so there is no separate transform buffer.  A
    solver allocates them once and passes them to every call."""
    half = shape[: grid.dim - 1] + (grid.cells // 2 + 1,) + shape[grid.dim :]
    count = spectra.shape[:1]
    return np.empty(count + half, complex), np.empty(count + shape)


def convolve_spectra(
    spectra: np.ndarray, grid: Grid, f: np.ndarray, work: tuple | None = None
) -> np.ndarray:
    """``out[k] = a_k * f`` for the kernels whose :attr:`Kernel.spectrum`
    are stacked along axis 0 of ``spectra``, as :meth:`Kernel.convolve`
    does for one kernel: one forward transform of ``f`` serves every
    kernel, and one inverse transform is batched over the kernels.  The
    passes run in ``work`` from :func:`spectral_work`, allocated when not
    given, and the result is its ``out``, overwritten by the next call;
    the rows of its ``spec`` are spent after the call.
    """
    f = np.asarray(f, dtype=float)
    if f.shape[: grid.dim] != grid.shape:
        raise IncompatibleGridsError(
            f"array shape {f.shape} does not start with grid shape {grid.shape}"
        )
    spec, out = work or spectral_work(spectra, grid, f.shape)
    # rfftn over the grid axes of f and irfftn over those of the product,
    # pass by pass in numpy's order, every pass into a buffer of work: a
    # fresh large temporary costs page faults, and on small grids the n-d
    # wrappers' argument handling costs as much as the transforms
    fhat = spec[-1]
    np.fft.rfft(f, axis=grid.dim - 1, out=fhat)
    for ax in reversed(range(grid.dim - 1)):
        np.fft.fft(fhat, axis=ax, out=fhat)
    spectra = spectra.reshape(spectra.shape + (1,) * (f.ndim - grid.dim))
    for k in range(len(spec) - 1):
        np.multiply(spectra[k], fhat, out=spec[k])
    # the last product overwrites the transform through the very view it
    # reads, which the ufunc's overlap check accepts without a copy
    np.multiply(spectra[-1], fhat, out=fhat)
    for ax in range(1, grid.dim):
        np.fft.ifft(spec, axis=ax, out=spec)
    return np.fft.irfft(spec, n=grid.cells, axis=grid.dim, out=out)


# -- constructors --------------------------------------------------------


def _radial(dim: int, grid: Grid, reach: float, profile) -> Kernel:
    """``profile`` of the centre radius on each offset cell up to ``reach``,
    0 beyond: a reach below L/2 reads every pair at its minimum image, and
    NaN fails every test of it."""
    if dim != grid.dim:
        raise InvalidParameterError(f"dim {dim} does not match grid dim {grid.dim}")
    if not reach >= 0:
        raise InvalidParameterError(f"kernel radius {reach} is not a nonnegative number")
    if not reach < 0.5 * grid.side:
        raise InvalidParameterError(f"kernel radius {reach} must be below half the torus side {grid.side / 2}")
    r = grid.offset_radii()
    return Kernel(grid, np.where(r <= reach, profile(r), 0.0))


def make_indicator_kernel(height: float, radius: float, dim: int, grid: Grid) -> Kernel:
    """Uniform bump: a(x) = height for |x| <= radius, else 0."""
    if not (height > 0 and radius > 0):
        raise InvalidParameterError("indicator kernel needs positive height and radius")
    return _radial(dim, grid, radius, lambda r: height)


def make_gaussian_kernel(
    sigma: float, dim: int, grid: Grid, height: float | None = None, cutoff: float | None = None
) -> Kernel:
    """Truncated Gaussian bump.  ``height=None`` normalizes the untruncated
    profile to unit mass; ``cutoff`` defaults to 5 sigma."""
    if not sigma > 0:
        raise InvalidParameterError("sigma must be positive")
    if height is None:
        height = (2.0 * np.pi * sigma * sigma) ** (-0.5 * dim)
    elif not height > 0:
        raise InvalidParameterError("height must be positive")
    reach = 5.0 * sigma if cutoff is None else cutoff
    return _radial(dim, grid, reach, lambda r: height * np.exp(-0.5 * (r / sigma) ** 2))


def make_tabulated_kernel(offsets: np.ndarray, profile: np.ndarray, dim: int, grid: Grid) -> Kernel:
    """Kernel from a radial profile sampled at strictly increasing offsets,
    linearly interpolated onto |offset| of every grid cell and zero beyond
    the last tabulated offset."""
    offsets = np.asarray(offsets, dtype=float)
    profile = np.asarray(profile, dtype=float)
    if offsets.ndim != 1 or offsets.shape != profile.shape or offsets.size < 2:
        raise InvalidParameterError("tabulated kernel needs two equal-length columns")
    if not np.all(np.diff(offsets) > 0):
        raise InvalidParameterError("tabulated offsets must be strictly increasing")
    if not np.all(np.isfinite(profile) & (profile >= 0)):
        raise InvalidParameterError("tabulated values must be finite and nonnegative")
    return _radial(dim, grid, float(offsets[-1]), lambda r: np.interp(r, offsets, profile))


def make_zero_kernel(grid: Grid) -> Kernel:
    """Absent interaction (e.g. the contact model's competition kernel)."""
    return Kernel(grid, np.zeros(grid.shape))


def ball_volume(dim: int, radius: float) -> float:
    return _BALL_VOLUME[dim](radius)


# -- conditions on kernel pairs -----------------------------------------


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


def check_homogenization(params) -> bool:
    """Pointwise criterion for long-time flattening of the model's kinetic
    density: a+(x)/<a+> >= (1 - m/<a+>) * a-(x)/<a-> at every grid cell.

    Requires a positive carrying capacity q = (<a+> - m)/<a->.
    """
    aplus, aminus, m = params.dispersal, params.competition, params.mortality
    if aminus.mass <= 0:
        raise PreconditionError("competition kernel must have positive mass")
    q = params.carrying_capacity
    if q <= 0:
        raise PreconditionError(f"carrying capacity must be positive, got q={q:.6g}")
    lhs = aplus.values / aplus.mass
    rhs = (1.0 - m / aplus.mass) * aminus.values / aminus.mass
    # tiny relative slack absorbs round-off in the ratio fields
    tol = 1e-12 * max(float(np.max(rhs)), 1.0)
    return bool(np.all(lhs >= rhs - tol))
