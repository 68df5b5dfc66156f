"""Ensemble estimators: density, radial pair correlation, and the
sub-Poissonian diagnostic.

All standard errors are computed across runs; the pair function is
estimated radially under spatial homogeneity with minimum-image
distances, counted exactly over the pair search of :mod:`slm.grid`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grid import Grid, cell_keys, pair_blocks, sort_by_cell, wrap
from .kernels import ball_volume


@dataclass
class FieldEstimate:
    grid: Grid
    mean: np.ndarray
    se: np.ndarray


@dataclass
class PairBin:
    r_lo: float
    r_hi: float
    g: float
    se: float

    @property
    def r_mid(self) -> float:
        return 0.5 * (self.r_lo + self.r_hi)


@dataclass
class CorrelationEstimate:
    k1_hat: FieldEstimate
    pair_g: list

    @property
    def mean_density(self) -> float:
        return float(self.k1_hat.mean.mean())


def default_pair_edges(side: float, kernel_radius: float, nbins: int = 24) -> np.ndarray:
    """24 uniform bins on (0, min(L/2, 4 * max kernel radius))."""
    rmax = 0.5 * side if kernel_radius <= 0 else min(0.5 * side, 4.0 * kernel_radius)
    return np.linspace(0.0, rmax, nbins + 1)


def density_estimate(positions_per_run: list, grid: Grid) -> FieldEstimate:
    """Per-cell count / (cell volume * runs) with across-run standard
    error; points are wrapped onto the torus and binned by ``cell_keys``."""
    runs = len(positions_per_run)
    if runs < 2:
        raise InvalidParameterError("density estimation needs at least 2 runs")
    per_run = np.empty((runs,) + grid.shape)
    for r, pts in enumerate(positions_per_run):
        pts = wrap(np.asarray(pts, dtype=float).reshape(-1, grid.dim), grid.side)
        cells = cell_keys(pts, grid.side, grid.cells) @ grid.strides
        per_run[r] = np.bincount(cells, minlength=grid.size).reshape(grid.shape) / grid.cell_volume
    mean = per_run.mean(axis=0)
    se = per_run.std(axis=0, ddof=1) / np.sqrt(runs)
    return FieldEstimate(grid, mean, se)


def _pair_counts(pts: np.ndarray, side: float, radii: np.ndarray) -> np.ndarray:
    """Ordered pairs i != j at periodic distance <= each radius: on the
    points wrapped into [0, L)^d, ``cKDTree(pts, boxsize=L).count_neighbors``
    less the self-pairs, bit for bit.

    Per axis d = |x_i - x_j| folds to min(d, L - d), exact for d >= L/2
    as in the tree, and the squares add in axis order, as the tree adds
    them, over the pair search's blocks; each block's sorted squares are
    searched for radii**2.
    """
    pts = wrap(pts, side)
    order, keys, k = sort_by_cell(pts, side, radii[-1])
    cols = np.ascontiguousarray(pts[order].T)
    below = np.zeros(len(radii), dtype=np.int64)
    for rows, w, j in pair_blocks(keys, k):
        s = 0.0  # becomes the squared distances, summed in axis order
        for x in cols:
            d = np.repeat(x[rows], w)
            d -= x.take(j)
            np.abs(d, out=d)
            np.minimum(d, side - d, out=d)
            d *= d
            s += d
        s.sort()
        below += np.searchsorted(s, radii * radii, side="right")
    return 2 * below


def pair_correlation(positions_per_run: list, side: float, dim: int, edges: np.ndarray) -> list:
    """Radial pair correlation g(r) per distance bin.

    Ordered-pair counts are normalized by kappa^2 L^d V_shell with kappa
    the ensemble mean density, so a Poisson ensemble gives g = 1.  Bins
    are [lo, hi) except the last, closed one, as in ``np.histogram``.
    """
    runs = len(positions_per_run)
    if runs < 2:
        raise InvalidParameterError("pair correlation needs at least 2 runs")
    edges = np.asarray(edges, dtype=float)
    if edges[-1] > 0.5 * side + 1e-12:
        raise InvalidParameterError("pair bins must stay within (0, L/2]")
    volume = side**dim
    positions_per_run = [np.asarray(p, dtype=float).reshape(-1, dim) for p in positions_per_run]
    kappa = np.mean([len(p) for p in positions_per_run]) / volume
    if kappa <= 0:
        raise InvalidParameterError("empty ensemble")
    shell = np.array(
        [ball_volume(dim, hi) - ball_volume(dim, lo) for lo, hi in zip(edges[:-1], edges[1:])]
    )
    norm = kappa * kappa * volume * shell
    # counts are of pairs at distance <= r; counting every edge but the
    # last just below itself gives the [lo, hi) bins, and no pair lies
    # below a first edge at 0
    radii = np.append(np.nextafter(edges[:-1], 0.0), edges[-1])
    per_run = np.empty((runs, len(shell)))
    for r, pts in enumerate(positions_per_run):
        below = _pair_counts(pts, side, radii)
        if edges[0] <= 0:
            below[0] = 0
        per_run[r] = np.diff(below) / norm
    g = per_run.mean(axis=0)
    se = per_run.std(axis=0, ddof=1) / np.sqrt(runs)
    return [
        PairBin(float(lo), float(hi), float(gv), float(sv))
        for lo, hi, gv, sv in zip(edges[:-1], edges[1:], g, se)
    ]


def estimate_correlations(positions_per_run: list, grid: Grid, edges: np.ndarray) -> CorrelationEstimate:
    """Density and pair correlation of one snapshot of the ensemble."""
    return CorrelationEstimate(
        k1_hat=density_estimate(positions_per_run, grid),
        pair_g=pair_correlation(positions_per_run, grid.side, grid.dim, edges),
    )


@dataclass
class SubPoissonReport:
    C: float
    flagged_cells: list  # cells with k1 above C beyond 3 SE
    flagged_bins: list  # pair bins with k2 above C^2 beyond 3 SE
    minimal_C: float

    @property
    def passed(self) -> bool:
        return not self.flagged_cells and not self.flagged_bins


def subpoisson_diagnostic(est: CorrelationEstimate, C: float) -> SubPoissonReport:
    """Check the grid witness of the bound k^(n) <= C^n for n <= 2.

    Flags use a 3-standard-error guard; minimal_C is the smallest C that
    clears every check at the same guard.
    """
    if C <= 0:
        raise InvalidParameterError("C must be positive")
    k1 = est.k1_hat
    excess1 = k1.mean - 3.0 * k1.se
    flagged_cells = [tuple(ix) for ix in np.argwhere(excess1 > C)]
    dens = est.mean_density
    flagged_bins = []
    k2_floor = 0.0
    for b in est.pair_g:
        k2 = b.g * dens * dens
        k2_se = b.se * dens * dens
        if k2 - 3.0 * k2_se > C * C:
            flagged_bins.append(b)
        k2_floor = max(k2_floor, k2 - 3.0 * k2_se)
    minimal = max(float(np.max(excess1)), float(np.sqrt(max(k2_floor, 0.0))), 0.0)
    return SubPoissonReport(C, flagged_cells, flagged_bins, minimal)
