"""Exact event-driven simulation of the birth/death/competition process
on a finite torus.

Each particle dies at rate m + eps * c_i with c_i = sum_j a-(x_i - x_j),
and the total birth rate is N <a+> with offspring displaced from the
parent by a draw from a+/<a+>.  Waiting times are exponential in the
total rate; competitive rates are maintained incrementally through a
cell list and audited against a from-scratch recomputation.
"""
from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    AbsorbedStateError,
    AuditDriftError,
    BlowUpError,
    InvalidParameterError,
)
from .kernels import Kernel
from .model import ModelParams

DEFAULT_POPULATION_CAP = 1_000_000
AUDIT_INTERVAL = 10_000
AUDIT_TOLERANCE = 1e-9
EXACT_BLOCK = 1 << 16  # pairs per block when rates are recomputed from scratch
MAX_CELLS = 1 << 16  # cell-list cells; wider cells only add candidates, more cost memory


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from the master seed; reproducible and
    independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))


class CellList:
    """Array-backed spatial hash with cell width >= the competition support
    radius, so interacting pairs always sit in neighbouring cells.

    Particle i fills slot ``slot_of[i]`` of cell ``cell_of[i]``, i.e.
    ``members[cell_of[i], slot_of[i]] == i``, and cell c fills its first
    ``count[c]`` slots.  ``nbr[c]`` lists the 3^d cells around c, or every
    cell when there are fewer than 4 per axis and the shell would wrap onto
    itself.  At most MAX_CELLS cells are used.
    """

    def __init__(self, side: float, dim: int, interaction_radius: float, positions: np.ndarray):
        per_axis = 1 if interaction_radius <= 0 else max(1, int(side / interaction_radius))
        self.ncells = min(per_axis, round(MAX_CELLS ** (1 / dim)))
        self.width = side / self.ncells
        self.strides = self.ncells ** np.arange(dim - 1, -1, -1)
        total = self.ncells**dim
        if self.ncells < 4:
            self.nbr = np.tile(np.arange(total), (total, 1))
        else:
            keys = np.indices((self.ncells,) * dim).reshape(dim, -1).T
            shell = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
            self.nbr = ((keys[:, None, :] + shell) % self.ncells) @ self.strides
        n = len(positions)
        cells = self.cell(positions)
        self.count = np.bincount(cells, minlength=total)
        # slots in index order within each cell, as n successive adds would fill them
        order = np.argsort(cells, kind="stable")
        slots = np.empty(n, dtype=np.intp)
        slots[order] = np.arange(n) - np.repeat(np.cumsum(self.count) - self.count, self.count)
        self.members = np.empty((total, max(8, 2 * int(self.count.max()))), dtype=np.intp)
        self.members[cells, slots] = np.arange(n)
        cap = max(16, 2 * n)
        self.cell_of = np.zeros(cap, dtype=np.intp)
        self.slot_of = np.zeros(cap, dtype=np.intp)
        self.cell_of[:n], self.slot_of[:n] = cells, slots

    def cell(self, pos: np.ndarray):
        """Flat cell index of one position (dim,) or of each row of (n, dim)."""
        key = np.minimum((pos / self.width).astype(np.intp), self.ncells - 1)
        return key @ self.strides

    def candidates(self, c: int) -> np.ndarray:
        """Indices in the cells around cell c: a superset of the particles
        within one cell width of any point of c."""
        cells = self.nbr[c]
        count = self.count[cells]
        width = count.max()
        return self.members[cells, :width][np.arange(width) < count[:, None]]

    def add(self, i: int, c: int):
        k = self.count[c]
        if k == self.members.shape[1]:
            self.members = np.concatenate([self.members, np.empty_like(self.members)], axis=1)
        if i == len(self.cell_of):
            self.cell_of = np.concatenate([self.cell_of, np.zeros_like(self.cell_of)])
            self.slot_of = np.concatenate([self.slot_of, np.zeros_like(self.slot_of)])
        self.members[c, k] = i
        self.count[c] = k + 1
        self.cell_of[i], self.slot_of[i] = c, k

    def remove(self, i: int):
        """Drop i; the last member of its cell moves into its slot."""
        c, s = self.cell_of[i], self.slot_of[i]
        k = self.count[c] - 1
        moved = self.members[c, k]
        self.members[c, s] = moved
        self.slot_of[moved] = s
        self.count[c] = k

    def relabel(self, old: int, new: int):
        """Particle ``old`` is now called ``new``."""
        c, s = self.cell_of[old], self.slot_of[old]
        self.members[c, s] = new
        self.cell_of[new], self.slot_of[new] = c, s


@dataclass
class Event:
    kind: str  # birth | death-natural | death-competition
    position: np.ndarray
    time: float


class Configuration:
    """Finite point configuration with incrementally maintained
    competitive death rates c_i (unscaled by epsilon)."""

    def __init__(self, positions: np.ndarray, side: float, dim: int, competition: Kernel):
        positions = np.asarray(positions, dtype=float).reshape(-1, dim)
        if positions.size and (positions.min() < 0 or positions.max() >= side):
            positions = np.mod(positions, side)
        self.side = side
        self.dim = dim
        self.competition = competition
        self.interacting = competition.sup > 0
        n = len(positions)
        cap = max(16, 2 * n)
        self.pos = np.zeros((cap, dim))
        self.pos[:n] = positions
        self.crate = np.zeros(cap)
        self.n = n
        if self.interacting:
            self.cells = CellList(side, dim, competition.support_radius, positions)
            self.crate[:n] = self._exact_rates()

    # -- geometry --------------------------------------------------------

    def _neighbor_kernel(self, pos, cell: int, exclude: int = -1):
        """(indices, a-(x_j - pos)) over the cell-list neighbours of pos,
        which lies in ``cell``."""
        idx = self.cells.candidates(cell)
        idx = idx[idx != exclude]
        return idx, self._kernel_from(pos, idx)

    def _kernel_from(self, pos, idx):
        """a-(x_j - pos) at minimum image for the particles ``idx``; ``pos``
        broadcasts against ``self.pos[idx]``."""
        dx = self.pos[idx] - pos
        dx -= self.side * np.round(dx / self.side)
        return self.competition.evaluate(dx if self.dim > 1 else dx[..., 0])

    def _exact_rates(self) -> np.ndarray:
        """c_i recomputed from scratch, a block of members of one cell at a
        time against the candidates around that cell."""
        rates = np.zeros(self.n)
        if not self.interacting:
            return rates
        cl = self.cells
        for c in np.flatnonzero(cl.count):
            idx = cl.candidates(c)
            step = max(1, EXACT_BLOCK // len(idx))  # bounds the block when one cell holds all
            for start in range(0, cl.count[c], step):
                own = cl.members[c, start : min(start + step, cl.count[c])]
                vals = self._kernel_from(self.pos[own, None], idx)
                vals[own[:, None] == idx] = 0.0
                rates[own] = vals.sum(axis=1)
        return rates

    # -- mutation --------------------------------------------------------

    def _grow(self):
        cap = 2 * len(self.pos)
        pos = np.zeros((cap, self.dim))
        pos[: self.n] = self.pos[: self.n]
        crate = np.zeros(cap)
        crate[: self.n] = self.crate[: self.n]
        self.pos, self.crate = pos, crate

    def add_particle(self, position) -> int:
        if self.n == len(self.pos):
            self._grow()
        i = self.n
        self.pos[i] = np.mod(position, self.side)
        self.n += 1
        if self.interacting:
            c = self.cells.cell(self.pos[i])
            idx, vals = self._neighbor_kernel(self.pos[i], c)
            self.crate[idx] += vals
            self.crate[i] = float(vals.sum())
            self.cells.add(i, c)
        return i

    def remove_particle(self, i: int):
        if self.interacting:
            idx, vals = self._neighbor_kernel(self.pos[i], self.cells.cell_of[i], exclude=i)
            self.crate[idx] -= vals
            self.cells.remove(i)
        last = self.n - 1
        if i != last:
            self.pos[i] = self.pos[last]
            self.crate[i] = self.crate[last]
            if self.interacting:
                self.cells.relabel(last, i)
        self.n = last

    # -- views and checks ------------------------------------------------

    def positions(self) -> np.ndarray:
        return self.pos[: self.n].copy()

    def audit(self) -> float:
        """Max relative drift |incremental - recomputed| / (1 + c)."""
        exact = self._exact_rates()
        return float(np.max(np.abs(self.crate[: self.n] - exact) / (1.0 + exact), initial=0.0))


def init_poisson(
    intensity: float, side: float, dim: int, competition: Kernel, rng: np.random.Generator
) -> Configuration:
    """Homogeneous Poisson configuration: N ~ Poisson(intensity * L^d),
    positions i.i.d. uniform."""
    if intensity < 0:
        raise InvalidParameterError("intensity must be nonnegative")
    n = rng.poisson(intensity * side**dim)
    positions = rng.uniform(0.0, side, size=(n, dim))
    return Configuration(positions, side, dim, competition)


def init_poisson_field(rho0, competition: Kernel, rng: np.random.Generator) -> Configuration:
    """Inhomogeneous Poisson start with cellwise intensity from a Field."""
    grid = rho0.grid
    counts = rng.poisson(rho0.values * grid.cell_volume)
    # the cells in C order, each repeated by its count, take one uniform
    # draw per coordinate from a single call
    cells = np.repeat(np.arange(grid.size), counts.ravel())
    base = np.array(np.unravel_index(cells, grid.shape), dtype=float).T * grid.spacing
    pts = base + rng.uniform(0.0, grid.spacing, size=(len(cells), grid.dim))
    return Configuration(pts, grid.side, grid.dim, competition)


def total_rates(config: Configuration, params: ModelParams) -> tuple:
    """(birth, death) totals: N <a+> and m N + eps * sum_i c_i."""
    n = config.n
    birth = n * params.dispersal.mass
    death = params.mortality * n + params.epsilon * config.crate[:n].sum()
    return birth, death


def step_event(
    config: Configuration, params: ModelParams, rng: np.random.Generator, t: float = 0.0
) -> Event:
    """Advance the configuration by exactly one jump; mutates config in
    place and returns the realized event (its time is t + waiting time).
    """
    birth, death = total_rates(config, params)
    total = birth + death
    if total <= 0:
        raise AbsorbedStateError("total event rate is zero")
    t = t + rng.exponential(1.0 / total)
    return _realize_event(config, params, rng, t, birth, total)


@dataclass
class Trajectory:
    times: list
    snapshots: list  # position arrays, one per snapshot time
    n0: int = 0
    n_end: int = 0
    births: int = 0
    deaths: int = 0
    competition_deaths: int = 0
    events: int = 0
    absorbed: bool = False
    max_audit_drift: float = 0.0
    event_log: list = field(default_factory=list)


def run(
    config: Configuration,
    params: ModelParams,
    horizon: float,
    snapshot_times,
    rng: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
    audit_interval: int = AUDIT_INTERVAL,
    keep_events: bool = False,
) -> Trajectory:
    """Exact-jump trajectory with snapshots at the requested times.

    Mutates ``config``.  Raises BlowUpError when the population cap is
    exceeded, and AuditDriftError when an audit finds the incremental
    competitive rates more than AUDIT_TOLERANCE off; an absorbed (empty,
    rateless) state simply freezes the remaining snapshots.
    """
    times = sorted(float(s) for s in snapshot_times)
    if times and times[-1] > horizon + 1e-12:
        raise InvalidParameterError("snapshot times must not exceed the horizon")
    traj = Trajectory(times=times, snapshots=[], n0=config.n)
    t = 0.0
    next_snap = 0
    while next_snap < len(times):
        birth, death = total_rates(config, params)
        total = birth + death
        if total <= 0:
            traj.absorbed = True
            break
        t = t + rng.exponential(1.0 / total)
        # snapshots due before the jump see the configuration before it
        while next_snap < len(times) and t > times[next_snap]:
            traj.snapshots.append(config.positions())
            next_snap += 1
        if next_snap == len(times):
            break
        ev = _realize_event(config, params, rng, t, birth, total)
        traj.events += 1
        if ev.kind == "birth":
            traj.births += 1
        else:
            traj.deaths += 1
            traj.competition_deaths += ev.kind == "death-competition"
        if keep_events:
            traj.event_log.append(ev)
        if config.n > population_cap:
            raise BlowUpError(t, config.n, population_cap)
        if traj.events % audit_interval == 0:
            drift = config.audit()
            traj.max_audit_drift = max(traj.max_audit_drift, drift)
            if drift > AUDIT_TOLERANCE:
                raise AuditDriftError(
                    f"rate drift {drift:.3g} above {AUDIT_TOLERANCE:g} at t={t:.6g}"
                )
    while len(traj.snapshots) < len(times):
        traj.snapshots.append(config.positions())
    traj.n_end = config.n
    return traj


def _realize_event(config, params, rng, t, birth, total) -> Event:
    """Event-type/position part of step_event with the waiting time already
    drawn; ``birth`` and ``total`` are the current rates from total_rates."""
    if rng.random() * total < birth:
        parent = int(rng.integers(config.n))
        disp = params.dispersal.sample_displacement(rng, 1)[0]
        pos = np.mod(config.pos[parent] + disp, config.side)
        config.add_particle(pos)
        return Event("birth", pos, t)
    n = config.n
    weights = params.mortality + params.epsilon * config.crate[:n]
    cum = np.cumsum(weights)
    i = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    i = min(i, n - 1)
    comp = params.epsilon * config.crate[i]
    kind = (
        "death-competition"
        if rng.random() * (params.mortality + comp) >= params.mortality
        else "death-natural"
    )
    pos = config.pos[i].copy()
    config.remove_particle(i)
    return Event(kind, pos, t)


def _ensemble_member(rho0, params, horizon, snapshot_times, seed, cap, keep_events, run_index):
    rng = run_rng(seed, run_index)
    config = init_poisson_field(rho0, params.competition, rng)
    return run(
        config, params, horizon, snapshot_times, rng, population_cap=cap, keep_events=keep_events
    )


def run_ensemble(
    rho0, params: ModelParams, horizon: float, snapshot_times, seed: int, runs: int, jobs: int = 1,
    population_cap: int = DEFAULT_POPULATION_CAP, keep_events: bool = False,
) -> list:
    """Trajectories of runs 0..runs-1 in run order, spread over ``jobs``
    worker processes when jobs > 1.  Run i draws its inhomogeneous Poisson
    start from the Field ``rho0`` and its events from ``run_rng(seed, i)``,
    so the result does not depend on ``jobs``.
    """
    member = partial(
        _ensemble_member, rho0, params, horizon, snapshot_times, seed, population_cap, keep_events
    )
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(member, range(runs)))
    return [member(r) for r in range(runs)]
