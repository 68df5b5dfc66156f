"""Exact event-driven simulation of the birth/death/competition process
on a finite torus.

Each particle gives birth at rate <a+>, with offspring displaced from the
parent by a draw from a+/<a+>, and dies at rate m + eps * c_i with
c_i = sum_j a-(x_i - x_j).  The jumps are drawn by thinning against one
per-particle bound B = <a+> + m + eps * c_hat with c_hat >= max_i c_i:
proposals come at rate N B, each picks a particle uniformly and a level
u uniform on [0, B), and u selects a birth, a natural death, a competitive
death or, above <a+> + m + eps * c_i, a null proposal that changes
nothing.  This has the law of the direct method and costs O(1) per
proposal instead of a sum over all particles.  Competitive rates are
maintained incrementally through a cell list and audited against a
recomputation over the pair search of :mod:`slm.grid`, whose cells the
cell list shares.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    AbsorbedStateError,
    AuditDriftError,
    BlowUpError,
    InvalidParameterError,
)
from .grid import pair_blocks, sort_by_cell, wrap
from .kernels import Kernel
from .model import ModelParams

DEFAULT_POPULATION_CAP = 1_000_000
AUDIT_INTERVAL = 10_000
AUDIT_TOLERANCE = 1e-9


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from the master seed; reproducible and
    independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))


class CellList:
    """Array-backed spatial hash in the cells that :func:`grid.sort_by_cell`
    gives a search within the competition support radius, so interacting
    pairs always sit in neighbouring cells.

    Particle i fills slot ``slot_of[i]`` of cell ``cell_of[i]``, i.e.
    ``members[cell_of[i], slot_of[i]] == i``, and cell c fills its first
    ``count[c]`` slots.  ``nbr[c]`` lists the 3^d cells around c, or c
    alone when one cell holds every point.  ``columns`` numbers the slots
    of a row of ``members``, for the candidates' mask.
    """

    def __init__(self, side: float, dim: int, interaction_radius: float, positions: np.ndarray):
        # the stable sort puts a cell's members in index order, as n successive adds would
        order, keys, self.ncells = sort_by_cell(positions, side, interaction_radius)
        self.width = side / self.ncells
        self.strides = self.ncells ** np.arange(dim - 1, -1, -1)
        self._strides = self.strides.tolist()
        total = self.ncells**dim
        steps = (-1, 0, 1) if self.ncells > 1 else (0,)
        shell = np.array(list(itertools.product(steps, repeat=dim)))
        grid_keys = np.indices((self.ncells,) * dim).reshape(dim, -1).T
        self.nbr = ((grid_keys[:, None, :] + shell) % self.ncells) @ self.strides
        cells = keys @ self.strides
        self.count = np.bincount(cells, minlength=total)
        slots = np.arange(len(cells)) - np.repeat(np.cumsum(self.count) - self.count, self.count)
        self.members = np.empty((total, max(8, 2 * int(self.count.max()))), dtype=np.intp)
        self.members[cells, slots] = order
        self.columns = np.arange(self.members.shape[1])
        cap = max(16, 2 * len(cells))
        self.cell_of = np.zeros(cap, dtype=np.intp)
        self.slot_of = np.zeros(cap, dtype=np.intp)
        self.cell_of[order], self.slot_of[order] = cells, slots

    def cell(self, pos: np.ndarray) -> int:
        """Flat cell index of one position (dim,): ``grid.cell_keys`` in
        plain Python, which on one point is faster than its array form."""
        top = self.ncells - 1
        keys = (min(int(x / self.width), top) for x in pos.tolist())
        return sum(k * s for k, s in zip(keys, self._strides))

    def candidates(self, c: int) -> np.ndarray:
        """Indices in the cells around cell c: a superset of the particles
        within one cell width of any point of c."""
        cells = self.nbr[c]
        return self.members.take(cells, axis=0)[self.columns < self.count.take(cells)[:, None]]

    def add(self, i: int, c: int):
        k = self.count[c]
        if k == self.members.shape[1]:
            self.members = np.concatenate([self.members, np.empty_like(self.members)], axis=1)
            self.columns = np.arange(self.members.shape[1])
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
    competitive death rates c_i (unscaled by epsilon) and a bound
    ``crate_bound`` >= max_i c_i for the thinned event loop.  A birth
    raises the bound to the rates it touches; deaths only lower rates, so
    it stays valid until :meth:`tighten` resets it to the maximum.
    """

    def __init__(self, positions: np.ndarray, side: float, dim: int, competition: Kernel):
        positions = wrap(np.asarray(positions, dtype=float).reshape(-1, dim), side)
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
        self.tighten()

    # -- geometry --------------------------------------------------------

    def _kernel_from(self, pos, idx):
        """a-(x_j - pos) for the particles ``idx``; ``pos`` broadcasts
        against ``self.pos[idx]``."""
        return self.competition.evaluate(self.pos.take(idx, axis=0) - pos)

    def _exact_rates(self) -> np.ndarray:
        """c_i recomputed from scratch over the blocks of the pair search:
        one a- value per unordered pair, added to both ends."""
        rates = np.zeros(self.n)
        if self.interacting:
            pos = self.pos[: self.n]
            order, keys, k = sort_by_cell(pos, self.side, self.competition.support_radius)
            for rows, w, j in pair_blocks(keys, k, cost=2 * self.dim):
                i = np.repeat(order[rows], w)
                j = order.take(j)
                vals = self._kernel_from(pos.take(i, axis=0), j)
                rates += np.bincount(i, vals, self.n)
                rates += np.bincount(j, vals, self.n)
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
        pos = self.pos[i] = wrap(np.asarray(position, dtype=float), self.side)
        self.n += 1
        if self.interacting:
            c = self.cells.cell(pos)
            idx = self.cells.candidates(c)
            vals = self._kernel_from(pos, idx)
            self.crate[idx] += vals
            self.crate[i] = float(vals.sum())
            touched = self.crate.take(idx).max(initial=0.0)
            self.crate_bound = max(self.crate_bound, self.crate[i], touched)
            self.cells.add(i, c)
        return i

    def remove_particle(self, i: int):
        if self.interacting:
            # the candidates include i itself; c_i is overwritten or dropped below
            idx = self.cells.candidates(self.cells.cell_of[i])
            self.crate[idx] -= self._kernel_from(self.pos[i], idx)
            self.cells.remove(i)
        last = self.n - 1
        if i != last:
            self.pos[i] = self.pos[last]
            self.crate[i] = self.crate[last]
            if self.interacting:
                self.cells.relabel(last, i)
        self.n = last

    def tighten(self):
        """Reset ``crate_bound`` to max_i c_i."""
        self.crate_bound = float(self.crate[: self.n].max(initial=0.0))
        self.nulls = 0  # null proposals since the bound was last tightened

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


def step_event(
    config: Configuration, params: ModelParams, rng: np.random.Generator, t: float = 0.0
) -> Event:
    """Advance the configuration by exactly one jump; mutates config in
    place and returns the realized event (its time is t plus the waiting
    times of the proposals up to and including the first real one).
    """
    while True:
        bound = _bound(config, params)
        if config.n * bound <= 0:
            raise AbsorbedStateError("total event rate is zero")
        t = t + rng.exponential(1.0 / (config.n * bound))
        ev = _propose(config, params, rng, t, bound)
        if ev is not None:
            return ev


@dataclass
class Trajectory:
    times: list
    snapshots: list  # position arrays, one per snapshot time
    n0: int = 0
    n_end: int = 0
    peak_n: int = 0
    births: int = 0
    deaths: int = 0
    competition_deaths: int = 0
    events: int = 0
    proposals: int = 0  # events plus null proposals
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
    traj = Trajectory(times=times, snapshots=[], n0=config.n, peak_n=config.n)
    t = 0.0
    next_snap = 0
    while next_snap < len(times):
        bound = _bound(config, params)
        if config.n * bound <= 0:
            traj.absorbed = True
            break
        t = t + rng.exponential(1.0 / (config.n * bound))
        # snapshots due before the proposal see the configuration before it
        while next_snap < len(times) and t > times[next_snap]:
            traj.snapshots.append(config.positions())
            next_snap += 1
        if next_snap == len(times):
            break
        traj.proposals += 1
        ev = _propose(config, params, rng, t, bound)
        if ev is None:
            continue
        traj.events += 1
        if ev.kind == "birth":
            traj.births += 1
            traj.peak_n = max(traj.peak_n, config.n)
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
            config.tighten()
    while len(traj.snapshots) < len(times):
        traj.snapshots.append(config.positions())
    traj.n_end = config.n
    return traj


def _bound(config, params) -> float:
    """B = <a+> + m + eps * crate_bound, at least every particle's total rate."""
    return params.dispersal.mass + params.mortality + params.epsilon * config.crate_bound


def _propose(config, params, rng, t, bound) -> Event | None:
    """One thinned proposal at time t against the bound from _bound: a
    uniform particle i and a uniform level u on [0, bound) pick a birth
    from i, its natural or competitive death, or nothing (None).  After as
    many null proposals as particles the bound is tightened, which is O(1)
    per proposal and ends the nulls once every c_i has dropped to zero.
    """
    i = int(rng.integers(config.n))
    birth = params.dispersal.mass
    natural = birth + params.mortality
    u = rng.random() * bound
    if u < birth:
        j = config.add_particle(config.pos[i] + params.dispersal.sample_displacement(rng, None))
        return Event("birth", config.pos[j].copy(), t)
    if u < natural:
        kind = "death-natural"
    elif u < natural + params.epsilon * config.crate[i]:
        kind = "death-competition"
    else:
        config.nulls += 1
        if config.nulls >= config.n:
            config.tighten()
        return None
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
        # imported here: multiprocessing costs every command ~12 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(member, range(runs)))
    return [member(r) for r in range(runs)]
