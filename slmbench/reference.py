"""Reference solutions the benchmark checks `slm` outputs against.

They restate the model arithmetic of the seed commit without importing
`slm`, using different algorithms where the program has a slow path:

* kernels are step functions tabulated on the offset lattice, exactly as
  `slm.kernels` builds them (same float operations, so the same bits);
* periodic convolution is done by FFT instead of the program's dense
  circulant matrix (1-d) or `np.roll` loop (2-d, 3-d);
* the hierarchy closures are applied as O(M^2)-memory contractions
  instead of materialising the M^3 k3 tensor;
* the optimal weight alpha* uses the closed form with Lambert W instead
  of a scan plus bounded minimisation;
* ensemble density counts points per cell with np.bincount instead of a
  histogram, and ordered pair counts come from cKDTree neighbour counts on
  the periodic box instead of a dense n x n distance matrix.

Agreement is therefore a round-off statement, and the tolerances used by
the checks are set from that (see `workloads.py`).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree


def offset_radii(dim: int, side: float, cells: int) -> np.ndarray:
    """|minimum-image offset| of every cell of the offset lattice."""
    j = np.arange(cells)
    d = np.where(j <= cells // 2, j, j - cells) * (side / cells)
    axes = np.meshgrid(*([d] * dim), indexing="ij")
    return np.sqrt(sum(a * a for a in axes))


def indicator_kernel(height: float, radius: float, dim: int, side: float, cells: int) -> np.ndarray:
    return np.where(offset_radii(dim, side, cells) <= radius, height, 0.0)


def gaussian_kernel(sigma: float, dim: int, side: float, cells: int) -> np.ndarray:
    """Unit-mass profile of the untruncated Gaussian, cut at 5 sigma."""
    r = offset_radii(dim, side, cells)
    vals = (2.0 * np.pi * sigma * sigma) ** (-0.5 * dim) * np.exp(-0.5 * (r / sigma) ** 2)
    vals[r > 5.0 * sigma] = 0.0
    return vals


def kernel_mass(values: np.ndarray, side: float, cells: int) -> float:
    return float((side / cells) ** values.ndim * values.sum())


def carrying_capacity(m: float, aplus: np.ndarray, aminus: np.ndarray, side: float, cells: int) -> float:
    return (kernel_mass(aplus, side, cells) - m) / kernel_mass(aminus, side, cells)


def _rk4_schedule(v, dt, times, step_fn):
    """Snapshot-aligned classical RK4 schedule shared by both solvers:
    each segment is split into round(segment/dt) equal steps."""
    out, t = [], 0.0
    for target in times:
        seg = target - t
        if seg > 1e-12:
            n = max(1, round(seg / dt))
            for _ in range(n):
                v = step_fn(v, seg / n)
            t = target
        out.append(v)
    return out


def kinetic_snapshots(rho0, m, aplus, aminus, side, dt, times) -> list:
    """RK4 solution of d rho/dt = -m rho - rho (a- * rho) + (a+ * rho)."""
    shape = rho0.shape
    vol = (side / shape[0]) ** rho0.ndim
    fp, fm = np.fft.rfftn(aplus), np.fft.rfftn(aminus)

    def conv(fk, v):
        return np.fft.irfftn(fk * np.fft.rfftn(v), s=shape) * vol

    def rhs(v):
        return -m * v - v * conv(fm, v) + conv(fp, v)

    def step(v, h):
        k1 = rhs(v)
        k2 = rhs(v + 0.5 * h * k1)
        k3 = rhs(v + 0.5 * h * k2)
        k4 = rhs(v + h * k3)
        return v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return _rk4_schedule(rho0, dt, times, step)


def hierarchy_snapshots(k1, m, aplus, aminus, side, eps, closure, dt, times) -> list:
    """RK4 solution of the truncated (k1, k2) system in 1-d, started from
    the product state k2 = k1 k1^T; returns (k1, k2) per snapshot time.
    k2 is symmetrised after every step, as in the program."""
    cells = len(k1)
    h = side / cells
    i = np.arange(cells)
    ap = aplus[(i[:, None] - i[None, :]) % cells]
    am = aminus[(i[:, None] - i[None, :]) % cells]
    cp, cm = h * ap, h * am

    def contraction(v1, v2):
        """t1[i, j] = sum_z cm[i, z] k3(x_i, x_j, x_z) for the closure."""
        if closure == "mean-field":
            own = (cm * v2).sum(axis=1)
            return (v2 * (cm @ v1)[:, None] + own[:, None] * v1[None, :] + v1[:, None] * (cm @ v2)) / 3.0
        if closure == "kirkwood":
            return v2 * ((cm * v2 / v1[None, :]) @ v2) / np.outer(v1, v1)
        raise ValueError(f"unknown closure {closure!r}")

    def rhs(v1, v2):
        r1 = -m * v1 - (cm * v2).sum(axis=1) + cp @ v1
        t1 = contraction(v1, v2)
        s1 = cp @ v2
        r2 = -2.0 * m * v2 - (t1 + t1.T) + (s1 + s1.T)
        r2 = r2 + eps * (-2.0 * am * v2 + ap * (v1[:, None] + v1[None, :]))
        return r1, r2

    def step(state, dt_):
        v1, v2 = state
        a1, a2 = rhs(v1, v2)
        b1, b2 = rhs(v1 + 0.5 * dt_ * a1, v2 + 0.5 * dt_ * a2)
        c1, c2 = rhs(v1 + 0.5 * dt_ * b1, v2 + 0.5 * dt_ * b2)
        d1, d2 = rhs(v1 + dt_ * c1, v2 + dt_ * c2)
        v1 = v1 + (dt_ / 6.0) * (a1 + 2 * b1 + 2 * c1 + d1)
        v2 = v2 + (dt_ / 6.0) * (a2 + 2 * b2 + 2 * c2 + d2)
        return v1, 0.5 * (v2 + v2.T)

    return _rk4_schedule((k1, np.outer(k1, k1)), dt, times, step)


def k2_diagonal_means(k2: np.ndarray, shifts) -> list:
    """Mean of k2(x_i, x_i + s h) over i, for each cell shift s."""
    i = np.arange(len(k2))
    return [float(k2[i, (i + s) % len(k2)].mean()) for s in shifts]


def domination_theta(aplus: np.ndarray, aminus: np.ndarray) -> float:
    pos = aplus > 0
    return float(np.max(aplus[pos] / aminus[pos]))


def optimal_alpha(alpha_up: float, aplus_mass: float, aminus_mass: float) -> tuple:
    """Closed-form maximiser of T(a) = (u - a) / (<a+> + <a-> e^{-a}):
    a* = u - 1 - W0(<a+> e^{u-1} / <a->).  Returns (a*, T(a*))."""
    from scipy.special import lambertw

    w = float(np.real(lambertw(aplus_mass * math.exp(alpha_up - 1.0) / aminus_mass)))
    a = alpha_up - 1.0 - w
    return a, (alpha_up - a) / (aplus_mass + aminus_mass * math.exp(-a))


def _mean_se(per_run: np.ndarray) -> tuple:
    return per_run.mean(axis=0), per_run.std(axis=0, ddof=1) / math.sqrt(len(per_run))


def density_field(positions_per_run: list, side: float, cells: int) -> tuple:
    """Per-cell count / cell volume, averaged over runs, with its
    across-run standard error; both flattened in C order."""
    h = side / cells
    per_run = []
    for pts in positions_per_run:
        idx = np.minimum((pts / h).astype(int), cells - 1)
        flat = np.ravel_multi_index(tuple(idx.T), (cells,) * pts.shape[1])
        per_run.append(np.bincount(flat, minlength=cells ** pts.shape[1]) / h ** pts.shape[1])
    return _mean_se(np.array(per_run))


def pair_correlation(positions_per_run: list, side: float, edges: np.ndarray) -> tuple:
    """Radial pair correlation per bin, with its across-run standard
    error: ordered pairs at distance in (lo, hi] divided by
    kappa^2 L^d |shell|, kappa the ensemble mean density."""
    dim = positions_per_run[0].shape[1]
    volume = side ** dim
    kappa = np.mean([len(p) for p in positions_per_run]) / volume
    ball = math.pi ** (dim / 2) / math.gamma(dim / 2 + 1) * edges ** dim
    norm = kappa * kappa * volume * np.diff(ball)
    per_run = []
    for pts in positions_per_run:
        tree = cKDTree(np.mod(pts, side), boxsize=side)
        per_run.append(np.diff(tree.count_neighbors(tree, edges)) / norm)
    return _mean_se(np.array(per_run, dtype=float))
