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


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from the master seed; reproducible and
    independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))


class CellList:
    """Spatial hash with cell width >= the competition support radius, so
    interacting pairs always sit in adjacent cells."""

    def __init__(self, side: float, dim: int, interaction_radius: float):
        self.side = side
        self.dim = dim
        if interaction_radius <= 0:
            self.ncells = 1
        else:
            self.ncells = max(1, int(side / interaction_radius))
        self.width = side / self.ncells
        self.cells: dict = {}
        self.brute = self.ncells < 4  # neighbor shells would wrap onto themselves

    def key(self, pos) -> tuple:
        return tuple(min(int(c / self.width), self.ncells - 1) for c in pos)

    def add(self, idx: int, pos):
        self.cells.setdefault(self.key(pos), set()).add(idx)

    def remove(self, idx: int, pos):
        k = self.key(pos)
        members = self.cells[k]
        members.discard(idx)
        if not members:
            del self.cells[k]

    def neighbors(self, pos):
        """Candidate indices within one cell shell of pos (may include extras)."""
        if self.brute:
            for members in self.cells.values():
                yield from members
            return
        center = self.key(pos)
        for delta in itertools.product((-1, 0, 1), repeat=self.dim):
            k = tuple((c + d) % self.ncells for c, d in zip(center, delta))
            members = self.cells.get(k)
            if members:
                yield from members


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
        self.cells = CellList(side, dim, competition.support_radius)
        if self.interacting:
            for i in range(n):
                self.cells.add(i, self.pos[i])
            self._rebuild_rates()

    # -- geometry --------------------------------------------------------

    def _neighbor_kernel(self, pos, exclude: int = -1):
        """(indices, a-(x_j - pos)) over cell-list neighbors of pos."""
        idx = np.fromiter(
            (j for j in self.cells.neighbors(pos) if j != exclude), dtype=int
        )
        if idx.size == 0:
            return idx, np.zeros(0)
        dx = self.pos[idx] - pos
        dx -= self.side * np.round(dx / self.side)
        vals = self.competition.evaluate(dx if self.dim > 1 else dx[:, 0])
        return idx, vals

    def _rebuild_rates(self):
        for i in range(self.n):
            self.crate[i] = self._pair_rate(i)

    def _pair_rate(self, i: int) -> float:
        _, vals = self._neighbor_kernel(self.pos[i], exclude=i)
        return float(vals.sum())

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
            idx, vals = self._neighbor_kernel(self.pos[i])
            self.crate[idx] += vals
            self.crate[i] = float(vals.sum())
            self.cells.add(i, self.pos[i])
        return i

    def remove_particle(self, i: int):
        if self.interacting:
            idx, vals = self._neighbor_kernel(self.pos[i], exclude=i)
            self.crate[idx] -= vals
            self.cells.remove(i, self.pos[i])
        last = self.n - 1
        if i != last:
            if self.interacting:
                self.cells.remove(last, self.pos[last])
            self.pos[i] = self.pos[last]
            self.crate[i] = self.crate[last]
            if self.interacting:
                self.cells.add(i, self.pos[i])
        self.n = last

    # -- views and checks ------------------------------------------------

    def positions(self) -> np.ndarray:
        return self.pos[: self.n].copy()

    def audit(self) -> float:
        """Max relative drift |incremental - recomputed| / (1 + c)."""
        worst = 0.0
        for i in range(self.n):
            exact = self._pair_rate(i)
            worst = max(worst, abs(self.crate[i] - exact) / (1.0 + exact))
        return worst


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
    h = grid.spacing
    counts = rng.poisson(rho0.values * grid.cell_volume)
    positions = []
    for idx, cnt in np.ndenumerate(counts):
        if cnt:
            base = np.array(idx, dtype=float) * h
            positions.append(base + rng.uniform(0.0, h, size=(cnt, grid.dim)))
    pts = np.concatenate(positions) if positions else np.zeros((0, grid.dim))
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
    births: int = 0
    deaths: int = 0
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
    traj = Trajectory(times=times, snapshots=[])
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
