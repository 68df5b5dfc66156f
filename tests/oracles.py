"""Dense reference implementations kept only as test oracles.

They are the direct forms the package used before convolution went
through the kernel's FFT and closures became contractions: a loop of
``np.roll`` shifts over the kernel support, the 1-d circulant matrix,
and the full M^3 closure tensor k3.  For the simulator and the pair
statistics they are the forms used before the array cell list, the
thinned event loop and tree pair counting: O(N^2) minimum-image sums and
distance matrices, the per-event rate totals, the tuple-indexed kernel
lookup, and the per-axis, per-cell sampling loops.
The right-hand sides take each kernel's convolution from its own
``Kernel.convolve`` call, as the package did before one transform of a
state served both kernels, and the CSV writer formats every cell.
"""
import numpy as np

from slm.errors import ClosureSingularityError, InvalidParameterError
from slm.hierarchy import CLOSURES, KIRKWOOD_FLOOR_FACTOR


def roll_convolution(kernel, f):
    """(a * f)(x_i) = h^d sum_s a(s) f(x_i - s), one np.roll per support cell."""
    f = np.asarray(f, dtype=float)
    axes = tuple(range(kernel.dim))
    out = np.zeros_like(f)
    for shift in zip(*np.nonzero(kernel.values)):
        out += kernel.values[shift] * np.roll(f, shift=shift, axis=axes)
    return kernel.grid.cell_volume * out


def pair_table(kernel):
    """A[i, j] = a(x_i - x_j) on a 1-d grid."""
    m = kernel.grid.cells
    i = np.arange(m)
    return kernel.values[(i[:, None] - i[None, :]) % m]


def circulant(kernel):
    """C[i, j] = h a(x_i - x_j) on a 1-d grid."""
    return kernel.grid.spacing * pair_table(kernel)


def closure_tensor(rule, state):
    """k3[i, j, z] = k3(x_i, x_j, x_z) for the closure ``rule``."""
    if rule not in CLOSURES:
        raise InvalidParameterError(f"unknown closure {rule!r}; choose from {CLOSURES}")
    k1 = state.k1.values
    k2 = state.k2.values
    if rule == "mean-field":
        return (
            k2[:, :, None] * k1[None, None, :]
            + k2[:, None, :] * k1[None, :, None]
            + k2[None, :, :] * k1[:, None, None]
        ) / 3.0
    floor = KIRKWOOD_FLOOR_FACTOR * max(float(k1.max()), 0.0)
    if float(k1.min()) < floor or floor == 0.0:
        raise ClosureSingularityError(f"kirkwood closure needs k1 >= {floor:.3g} everywhere")
    return (
        k2[:, :, None] * k2[:, None, :] * k2[None, :, :]
        / (k1[:, None, None] * k1[None, :, None] * k1[None, None, :])
    )


def closure_contraction(rule, state, competition):
    """t1[i, j] = sum_z C[i, z] k3[i, j, z] through the dense tensor."""
    return np.einsum("iz,ijz->ij", circulant(competition), closure_tensor(rule, state))


def kinetic_rhs(f, params):
    """-m rho - rho (a- * rho) + (a+ * rho), one Kernel.convolve per kernel."""
    rho = f.values
    return (
        -params.mortality * rho
        - rho * params.competition.convolve(rho)
        + params.dispersal.convolve(rho)
    )


def rhs_k1(state, params):
    """-m k1 - h sum_j a-(x_i - x_j) k2(x_i, x_j) + (a+ * k1)."""
    k1 = state.k1.values
    pair_term = np.einsum("ij,ij->i", circulant(params.competition), state.k2.values)
    return -params.mortality * k1 - pair_term + params.dispersal.convolve(k1)


def rhs_k2(state, rule, params):
    """Second truncated equation: a- * k1, a- * k2 (mean-field) and a+ * k2
    each by its own Kernel.convolve call; Kirkwood through the dense k3."""
    k1 = state.k1.values
    k2 = state.k2.values
    aminus = params.competition
    if rule == "mean-field":
        own = np.einsum("ij,ij->i", circulant(aminus), k2)
        t1 = (
            k2 * aminus.convolve(k1)[:, None]
            + own[:, None] * k1[None, :]
            + k1[:, None] * aminus.convolve(k2)
        ) / 3.0
    else:
        t1 = closure_contraction(rule, state, aminus)
    s1 = params.dispersal.convolve(k2)
    bpart = -2.0 * pair_table(aminus) * k2 + pair_table(params.dispersal) * (k1[:, None] + k1[None, :])
    return -2.0 * params.mortality * k2 - (t1 + t1.T) + (s1 + s1.T) + state.epsilon * bpart


def kernel_at(kernel, dx):
    """a(dx) by one index tuple per axis; dx is (..., dim)."""
    return kernel.values[tuple(np.moveaxis(kernel.grid.offset_index(dx), -1, 0))]


def min_image_offsets(positions, side):
    """dx[i, j] = x_j - x_i reduced to the minimum image, shape (n, n, dim)."""
    dx = positions[None, :, :] - positions[:, None, :]
    return dx - side * np.round(dx / side)


def pair_rates(positions, side, kernel):
    """c_i = sum over j != i of a(x_j - x_i), all pairs."""
    dx = min_image_offsets(np.asarray(positions, dtype=float).reshape(-1, kernel.dim), side)
    vals = kernel_at(kernel, dx)
    np.fill_diagonal(vals, 0.0)
    return vals.sum(axis=1)


def total_rates(config, params):
    """(birth, death) totals: N <a+> and m N + eps * sum_i c_i."""
    n = config.n
    birth = n * params.dispersal.mass
    death = params.mortality * n + params.epsilon * config.crate[:n].sum()
    return birth, death


def audit(config):
    """Configuration.audit() from the O(N^2) rates."""
    exact = pair_rates(config.positions(), config.side, config.competition)
    return float(np.max(np.abs(config.crate[: config.n] - exact) / (1.0 + exact), initial=0.0))


def pair_distance_counts(positions, side, edges):
    """Ordered-pair counts per np.histogram bin of the n x n distance matrix."""
    d = np.sqrt((min_image_offsets(positions, side) ** 2).sum(axis=-1))
    return 2 * np.histogram(d[np.triu_indices(len(positions), k=1)], bins=edges)[0]


def sample_displacement(kernel, rng, size):
    """Inverse-CDF cell, then one uniform jitter per axis, axis by axis."""
    cdf = np.cumsum(kernel.values.ravel())
    cdf /= cdf[-1]
    flat = np.searchsorted(cdf, rng.random(size), side="right")
    idx = np.unravel_index(np.minimum(flat, cdf.size - 1), kernel.grid.shape)
    offs = kernel.grid.axis_offsets()
    h = kernel.grid.spacing
    out = np.empty((size, kernel.dim))
    for ax in range(kernel.dim):
        out[:, ax] = offs[idx[ax]] + rng.uniform(-0.5 * h, 0.5 * h, size=size)
    return out


def poisson_field_positions(rho0, rng):
    """Cellwise Poisson counts, then one uniform draw per occupied cell."""
    grid = rho0.grid
    h = grid.spacing
    counts = rng.poisson(rho0.values * grid.cell_volume)
    positions = [np.zeros((0, grid.dim))]
    for idx, cnt in np.ndenumerate(counts):
        if cnt:
            base = np.array(idx, dtype=float) * h
            positions.append(base + rng.uniform(0.0, h, size=(cnt, grid.dim)))
    return np.concatenate(positions)


def write_csv(path, header, columns):
    """A header line, then str of every cell of the columns, row by row."""
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def rel_err(value, reference):
    """max |value - reference| / max |reference|."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(value) - reference)) / np.max(np.abs(reference)))
