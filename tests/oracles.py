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
state served both kernels, and the CSV writer formats every cell.  The
RK4 step, the shared transform and the fused kinetic right-hand side are
also kept in the forms that make fresh arrays, as before the solvers
stepped in reused buffers, and so are the hierarchy's right-hand side and
contractions with their shared transform; the package must match them to
the bit.
The simulator's thinned proposal loop is kept as it was before it became
one loop over block draws, ``thinned_run`` with one ``_propose`` call per
proposal, reading either the same block draws as ``microsim.run`` or one
Generator call per value, as before block draws; ``step_event`` makes
those proposals until the first real one, for tests of a single jump.
``is_even``, ``witness_C`` and ``unit_mass_indicator`` are helpers that
only tests call, and ``contact_correlations`` is the closed form of the
contact model's (k1, k2), which the hierarchy must reach at a- = 0.
"""
import numpy as np

from slm import microsim
from slm.errors import (
    AuditDriftError,
    BlowUpError,
    ClosureSingularityError,
    InvalidParameterError,
)
from slm.hierarchy import CLOSURES, KIRKWOOD_FLOOR_FACTOR
from slm.kernels import make_indicator_kernel
from slm.microsim import (
    AUDIT_TOLERANCE,
    DEFAULT_POPULATION_CAP,
    Draws,
    Trajectory,
    _require_kernel,
    uniform_index,
)


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
    k2 = state.k2
    if rule == "mean-field":
        return (
            k2[:, :, None] * k1[None, None, :]
            + k2[:, None, :] * k1[None, :, None]
            + k2[None, :, :] * k1[:, None, None]
        ) / 3.0
    top = float(k1.max())
    if not top > 0.0:
        raise ClosureSingularityError(f"kirkwood closure: k1 has no positive value (max {top:.3g})")
    floor = KIRKWOOD_FLOOR_FACTOR * top
    if float(k1.min()) < floor or floor == 0.0:
        raise ClosureSingularityError(f"kirkwood closure needs k1 >= {floor:.3g} everywhere")
    return (
        k2[:, :, None] * k2[:, None, :] * k2[None, :, :]
        / (k1[:, None, None] * k1[None, :, None] * k1[None, None, :])
    )


def closure_contraction(rule, state, competition):
    """t1[i, j] = sum_z C[i, z] k3[i, j, z] through the dense tensor."""
    return np.einsum("iz,ijz->ij", circulant(competition), closure_tensor(rule, state))


def convolve_spectra(spectra, grid, f):
    """kernels.convolve_spectra with a fresh array from every pass but
    the in-place complex ones."""
    fhat = np.fft.rfft(f, axis=grid.dim - 1)
    for ax in reversed(range(grid.dim - 1)):
        np.fft.fft(fhat, axis=ax, out=fhat)
    prod = spectra.reshape(spectra.shape + (1,) * (f.ndim - grid.dim)) * fhat
    for ax in range(1, grid.dim):
        np.fft.ifft(prod, axis=ax, out=prod)
    return np.fft.irfft(prod, n=grid.cells, axis=grid.dim)


def fused_kinetic_rhs(rho, params):
    """-m rho - rho (a- * rho) + (a+ * rho), both convolutions from one
    transform, in fresh arrays."""
    comp, disp = convolve_spectra(params.spectra, params.grid, rho)
    return -params.mortality * rho - rho * comp + disp


def fused_contraction(rule, state, competition, competition_k2):
    """hierarchy.closure_contraction in fresh arrays."""
    k1 = state.k1.values
    k2 = state.k2
    cm = competition.grid.spacing * competition.pair_values
    if rule == "mean-field":
        own = np.einsum("ij,ij->i", cm, k2)
        return (
            k2 * competition.convolve(k1)[:, None]
            + own[:, None] * k1[None, :]
            + k1[:, None] * competition_k2
        ) / 3.0
    return k2 * (((cm * k2) / k1[None, :]) @ k2) / np.outer(k1, k1)


def fused_rhs_k2(state, rule, params):
    """hierarchy.rhs_k2 in fresh arrays: mean-field takes a- * k2 and
    a+ * k2 from one transform of k2."""
    k1 = state.k1.values
    k2 = state.k2
    if rule == "mean-field":
        competition_k2, s1 = convolve_spectra(params.spectra, params.grid, k2)
    else:
        competition_k2, s1 = None, convolve_spectra(params.dispersal.spectrum[None], params.grid, k2)[0]
    t1 = fused_contraction(rule, state, params.competition, competition_k2)
    vpart = -2.0 * params.mortality * k2 - (t1 + t1.T) + (s1 + s1.T)
    bpart = (
        -2.0 * params.competition.pair_values * k2
        + params.dispersal.pair_values * (k1[:, None] + k1[None, :])
    )
    return vpart + state.epsilon * bpart


def rk4_step(y, dt, rhs):
    """One classical RK4 step of the tuple y; rhs(y) returns a new tuple."""
    k1 = rhs(y)
    k2 = rhs(tuple(v + 0.5 * dt * k for v, k in zip(y, k1)))
    k3 = rhs(tuple(v + 0.5 * dt * k for v, k in zip(y, k2)))
    k4 = rhs(tuple(v + dt * k for v, k in zip(y, k3)))
    return tuple(
        v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def integrate_rk4(y, rhs, snapshot_times, dt, after_step=None):
    """kinetic.integrate_rk4's steps with rk4_step: round(segment/dt)
    equal steps per segment, then ``after_step(y)`` returns the state to
    go on from, then round-off negatives are clipped (the dt guard and
    the instability check are left out).  A copy of y per snapshot time."""
    out, t = [], 0.0
    for target in sorted(snapshot_times):
        seg = target - t
        if seg > 1e-12:
            nsteps = max(1, round(seg / dt))
            for _ in range(nsteps):
                y = rk4_step(y, seg / nsteps, rhs)
                if after_step is not None:
                    y = after_step(y)
                y = tuple(np.maximum(v, 0.0) if float(v.min()) < 0.0 else v for v in y)
            t = target
        out.append(tuple(v.copy() for v in y))
    return out


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
    pair_term = np.einsum("ij,ij->i", circulant(params.competition), state.k2)
    return -params.mortality * k1 - pair_term + params.dispersal.convolve(k1)


def rhs_k2(state, rule, params):
    """Second truncated equation: a- * k1, a- * k2 (mean-field) and a+ * k2
    each by its own Kernel.convolve call; Kirkwood through the dense k3."""
    k1 = state.k1.values
    k2 = state.k2
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


def write_csv(fh, header, columns):
    """A header line, then str of every cell of the columns, row by row."""
    cells = [map(str, np.asarray(col).tolist()) for col in columns]
    fh.write(",".join(header) + "\n")
    fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def is_even(kernel, tol=0.0):
    """a(-x) = a(x) on the offset grid, to within ``tol``."""
    v = kernel.values
    flipped = v
    for ax in range(v.ndim):
        flipped = np.flip(np.roll(flipped, -1, axis=ax), axis=ax)
    return bool(np.max(np.abs(v - flipped)) <= tol)


def witness_C(state):
    """The witness C = max(max k1, sqrt(max k2)) of a TruncatedState's bound k^(n) <= C^n."""
    return max(state.k1.max, float(np.sqrt(max(state.k2.max(), 0.0))))


def unit_mass_indicator(grid, radius):
    """Indicator kernel rescaled so its tabulated mass is exactly 1."""
    k = make_indicator_kernel(1.0, radius, grid.dim, grid)
    return make_indicator_kernel(1.0 / k.mass, radius, grid.dim, grid)


def contact_correlations(dispersal, mortality, rho0, epsilon, t):
    """(k1, c) of the contact model (a- = 0) at time t from a Poisson start
    of density rho0, on the dispersal kernel's grid: k1 = rho0 e^{rt} with
    r = <a+> - m, and k2(x, y) = k1^2 + c(x - y), c given by its torus
    modes k as

        c_k(t) = 2 eps rho0 a_k (e^{rt} - e^{lam t}) / (L^d (r - lam)),

    lam = 2 (a_k - m), with a_k = h^d DFT(values)[k] the grid's
    coefficient of a+.  c is returned on the kernel's offsets, c[j] =
    c(j h), so a 1-d k2[i, j] is k1^2 + c[(i - j) mod M]."""
    grid = dispersal.grid
    r = dispersal.mass - mortality
    a_k = grid.cell_volume * np.fft.fftn(dispersal.values).real
    lam = 2.0 * (a_k - mortality)
    # (e^{rt} - e^{lam t}) / (r - lam) = t e^{lam t} expm1(z) / z with z = (r - lam) t, 1 at z = 0
    z = (r - lam) * t
    ratio = np.divide(np.expm1(z), z, out=np.ones_like(z), where=z != 0)
    c_k = 2.0 * epsilon * rho0 * a_k * t * np.exp(lam * t) * ratio / grid.side**grid.dim
    return rho0 * np.exp(r * t), grid.size * np.fft.ifftn(c_k).real


def rel_err(value, reference):
    """max |value - reference| / max |reference|."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(value) - reference)) / np.max(np.abs(reference)))


class BlockDraws:
    """microsim.Draws as microsim.run reads them: a wait at total rate r
    is ``exponential() / r``."""

    def __init__(self, rng):
        draws = Draws(rng)
        self.random, self._word, self._exponential = draws.random, draws.word, draws.exponential

    def wait(self, rate):
        return self._exponential() / rate

    def index(self, n):
        return uniform_index(self._word, n)


class PerCallDraws:
    """The draws before block draws: one call of the run's Generator per
    value, a wait at total rate r as ``rng.exponential(1 / r)`` and an
    index as ``rng.integers(n)``."""

    def __init__(self, rng):
        self.rng = rng
        self.random = rng.random

    def wait(self, rate):
        return self.rng.exponential(1.0 / rate)

    def index(self, n):
        return int(self.rng.integers(n))


def thinned_run(
    config, params, horizon, snapshot_times, rng, population_cap=DEFAULT_POPULATION_CAP,
    keep_events=False, draws=BlockDraws,
):
    """microsim.run with one _propose call per proposal, reading the
    ``draws`` (BlockDraws or PerCallDraws) of ``rng`` and auditing every
    microsim.AUDIT_INTERVAL events, as that constant reads at the call."""
    _require_kernel(config, params)
    draws = draws(rng)
    times = sorted(float(s) for s in snapshot_times)
    if times and times[-1] > horizon + 1e-12:
        raise InvalidParameterError("snapshot times must not exceed the horizon")
    traj = Trajectory(times=times, snapshots=[], n0=config.n, peak_n=config.n)
    log = traj.event_log if keep_events else None
    audit_interval = microsim.AUDIT_INTERVAL
    end = max([horizon, *times])
    t = 0.0
    next_snap = 0
    while True:
        bound = params.dispersal.mass + params.mortality + params.epsilon * config.crate_bound
        if config.n * bound <= 0:
            traj.absorbed = True
            break
        t = t + draws.wait(config.n * bound)
        # snapshots due before the proposal see the configuration before it
        while next_snap < len(times) and t > times[next_snap]:
            traj.snapshots.append(config.positions())
            next_snap += 1
        if t > end:
            break
        traj.proposals += 1
        kind = _propose(config, params, draws, t, bound, log)
        if kind is None:
            continue
        traj.events += 1
        if kind == "birth":
            traj.births += 1
            traj.peak_n = max(traj.peak_n, config.n)
        else:
            traj.deaths += 1
            traj.competition_deaths += kind == "death-competition"
        if config.n > population_cap:
            raise BlowUpError(t, config.n, population_cap)
        if traj.events % audit_interval == 0:
            drift = config.audit()
            traj.max_audit_drift = max(traj.max_audit_drift, drift)
            if drift > AUDIT_TOLERANCE:
                raise AuditDriftError(
                    f"rate drift {drift:.3g} above {AUDIT_TOLERANCE:g} at t={t:.6g}"
                )
            config.tighten()
    while len(traj.snapshots) < len(times):
        traj.snapshots.append(config.positions())
    traj.n_end = config.n
    return traj


def step_event(config, params, rng, t=0.0):
    """Exactly one jump by microsim.run's proposals from time t, drawn from
    a BlockDraws of ``rng``: mutates config and returns the event's log
    row (t, kind, *position), or None if the state is absorbed (no rate
    at all)."""
    _require_kernel(config, params)
    draws, log = BlockDraws(rng), []
    while not log:
        bound = params.dispersal.mass + params.mortality + params.epsilon * config.crate_bound
        if config.n * bound <= 0:
            return None
        t = t + draws.wait(config.n * bound)
        _propose(config, params, draws, t, bound, log)
    return log[0]


def _propose(config, params, draws, t, bound, log):
    """One thinned proposal: a uniform particle i and a uniform level u on
    [0, bound) pick a birth from i, its natural or competitive death, or
    nothing (the bound is tightened after as many nulls as particles)."""
    i = draws.index(config.n)
    birth = params.dispersal.mass
    natural = birth + params.mortality
    u = draws.random() * bound
    if u < birth:
        step = params.dispersal.sample_displacement(draws, None)
        j = config.add_particle([x + d for x, d in zip(config.pos[i].tolist(), step)])
        if log is not None:
            log.append((t, "birth", *config.pos[j].tolist()))
        return "birth"
    if u < natural:
        kind = "death-natural"
    elif u < natural + params.epsilon * config.crate[i]:
        kind = "death-competition"
    else:
        config.nulls += 1
        if config.nulls >= config.n:
            config.tighten()
        return None
    if log is not None:
        log.append((t, kind, *config.pos[i].tolist()))
    config.remove_particle(i)
    return kind
