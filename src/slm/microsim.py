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
proposal instead of a sum over all particles.  :class:`Configuration`,
the one particle store, keeps the particles in the cells of the pair
search of :mod:`slm.grid`, updates the competitive rates around a birth
or death with one ``ufunc.at`` call, and audits them against that search.

A run draws its randomness from three streams of its Generator, one per
kind of draw (:class:`Draws`), in blocks of Python numbers, so a proposal
costs no Generator call; :func:`run` is the one proposal loop.  A seed
gives the same events whatever the block sizes, and whichever worker
process runs it.  With ``keep_events`` a run logs each event as the
tuple (time, kind, x0, ..., x_{d-1}) that ``slm simulate --events``
writes as its row.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import AuditDriftError, BlowUpError, InvalidParameterError
from .grid import pair_blocks, require_same_grid, sort_by_cell, wrap
from .kernels import Kernel
from .model import DEFAULT_POPULATION_CAP, ModelParams

AUDIT_INTERVAL = 10_000
AUDIT_TOLERANCE = 1e-9
DRAW_BLOCK = 256  # values per Generator call of a draw stream
_LOW = (1 << 64) - 1  # the low 64 bits of a product


def run_rng(master_seed: int, run_index: int) -> np.random.Generator:
    """Per-run generator derived from the master seed; reproducible and
    independent of scheduling order."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(run_index,)))


class Draws:
    """The random numbers of one simulator run, drawn in blocks from three
    generators that ``rng.spawn(3)`` gives, one per kind of draw:

    - ``exponential()``: standard exponentials, so a wait at total
      proposal rate r is ``exponential() / r``;
    - ``word()``: uniform 64-bit words, from which :func:`uniform_index`
      draws a particle index exactly uniform on 0..n-1;
    - ``random()``: uniforms on [0, 1), for thinning levels and birth
      displacements (:meth:`Kernel.sample_displacement` with ``size=None``).

    A block's values come in the order one call per value would give, so
    no sequence depends on the block size DRAW_BLOCK.
    """

    def __init__(self, rng: np.random.Generator):
        waits, words, levels = rng.spawn(3)
        self.exponential = _stream(waits.standard_exponential)
        self.word = _stream(words.bit_generator.random_raw)
        self.random = _stream(levels.random)


def _stream(draw):
    """A callable that returns the values of ``draw(DRAW_BLOCK)`` one at a time."""
    blocks = (draw(DRAW_BLOCK).tolist() for _ in itertools.count())
    return itertools.chain.from_iterable(blocks).__next__


def uniform_index(word, n: int) -> int:
    """An integer exactly uniform on 0..n-1 from the uniform 64-bit words
    ``word()`` gives: the high word of ``word() * n``, redrawn while the
    low word is below 2^64 mod n (Lemire 2019, multiply-shift with
    rejection).  The test costs one compare except when the low word is
    below n, which has probability n / 2^64."""
    m = word() * n
    if m & _LOW < n:
        floor = (1 << 64) % n
        while m & _LOW < floor:
            m = word() * n
    return m >> 64


class Configuration:
    """Finite point configuration with incrementally maintained
    competitive death rates c_i (unscaled by epsilon) and a bound
    ``crate_bound`` >= max_i c_i for the thinned event loop.  A birth
    raises the bound to the rates it touches; deaths only lower rates, so
    it stays valid until :meth:`tighten` resets it to the maximum.  The
    torus is the competition kernel's grid: its side and dimension.

    With a competition kernel of positive support the configuration also
    keeps its particles in the cells that :func:`grid.sort_by_cell` gives a
    search within the support radius, so interacting pairs always sit in
    neighbouring cells.  Particle i fills slot ``slot_of[i]`` of cell
    ``cell_of[i]``, i.e. ``members[cell_of[i], slot_of[i]] == i``, and
    cell c fills its first ``count[c]`` slots, which ``occupied[c]`` marks:
    the candidates' mask, kept so that a search needs no compare.
    ``nbr[c]`` lists the 3^d cells around c, or c alone when one cell
    holds every point.
    """

    def __init__(self, positions: np.ndarray, competition: Kernel):
        self.side = side = competition.grid.side
        self.dim = dim = competition.grid.dim
        positions = np.asarray(positions, dtype=float)
        if positions.size and (positions.ndim != 2 or positions.shape[1] != dim):
            raise InvalidParameterError(
                f"positions of shape {positions.shape} are not points of the {dim}-d kernel grid"
            )
        positions = wrap(positions.reshape(-1, dim), side)
        self.competition = competition
        self.interacting = competition.sup > 0
        n = len(positions)
        cap = max(16, 2 * n)
        self.pos = np.zeros((cap, dim))
        self.pos[:n] = positions
        self.crate = np.zeros(cap)
        self.n = n
        if self.interacting:
            # the stable sort puts a cell's members in index order, as n successive adds would
            order, keys, k = sort_by_cell(positions, side, competition.support_radius)
            self.ncells, self.width = k, side / k
            self.strides = [k**a for a in range(dim - 1, -1, -1)]
            steps = (-1, 0, 1) if k > 1 else (0,)
            shell = np.array(list(itertools.product(steps, repeat=dim)))
            grid_keys = np.indices((k,) * dim).reshape(dim, -1).T
            self.nbr = ((grid_keys[:, None, :] + shell) % k) @ self.strides
            cells = keys @ self.strides
            self.count = np.bincount(cells, minlength=k**dim)
            slots = np.arange(n) - np.repeat(np.cumsum(self.count) - self.count, self.count)
            self.members = np.empty((k**dim, max(8, 2 * int(self.count.max()))), dtype=np.intp)
            self.members[cells, slots] = order
            self.occupied = np.zeros(self.members.shape, dtype=bool)
            self.occupied[cells, slots] = True
            cell_of, slot_of = np.empty((2, n), dtype=np.intp)
            cell_of[order], slot_of[order] = cells, slots
            self.cell_of, self.slot_of = cell_of.tolist(), slot_of.tolist()
            self.crate[:n] = self._exact_rates()
        self.tighten()

    # -- geometry --------------------------------------------------------

    def cell(self, pos) -> int:
        """Flat cell index of one position, a sequence of dim floats:
        ``grid.cell_keys`` in plain Python, which on one point is faster
        than its array form."""
        top, width, c = self.ncells - 1, self.width, 0
        for x, s in zip(pos, self.strides):
            k = int(x / width)
            c += (k if k < top else top) * s
        return c

    def candidates(self, c: int) -> np.ndarray:
        """Indices in the cells around cell c: a superset of the particles
        within one cell width of any point of c."""
        cells = self.nbr[c]
        return self.members.take(cells, axis=0)[self.occupied.take(cells, axis=0)]

    def _kernel_from(self, pos, idx):
        """a-(x_j - pos) for the particles ``idx``; ``pos`` broadcasts
        against ``self.pos[idx]``."""
        dx = self.pos.take(idx, axis=0)
        dx -= pos
        return self.competition.evaluate(dx)

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

    def add_particle(self, position) -> int:
        """Add a particle at ``position`` wrapped as :func:`grid.wrap` does,
        in Python floats: ``x % L`` is the IEEE arithmetic of ``np.mod``."""
        i = self.n
        if i == len(self.pos):
            self.pos = np.concatenate([self.pos, np.zeros_like(self.pos)])
            self.crate = np.concatenate([self.crate, np.zeros_like(self.crate)])
        side = self.side
        pos = [x % side for x in map(float, position)]
        pos = [0.0 if x == side else x for x in pos]
        self.pos[i] = pos
        self.n = i + 1
        if self.interacting:
            c = self.cell(pos)
            idx = self.candidates(c)
            vals = self._kernel_from(self.pos[i], idx)
            np.add.at(self.crate, idx, vals)
            # the ufunc reductions that .sum() and .max() wrap, without the wrappers
            self.crate[i] = own = np.add.reduce(vals)
            top = np.maximum.reduce(self.crate.take(idx), initial=own)
            if top > self.crate_bound:
                self.crate_bound = float(top)
            k = self.count[c]
            if k == self.members.shape[1]:
                self.members = np.concatenate([self.members, np.empty_like(self.members)], axis=1)
                self.occupied = np.concatenate([self.occupied, np.zeros_like(self.occupied)], axis=1)
            self.members[c, k] = i
            self.occupied[c, k] = True
            self.count[c] = k + 1
            self.cell_of.append(c)
            self.slot_of.append(k)
        return i

    def remove_particle(self, i: int):
        """Drop particle i; the last particle takes its index, and the last
        member of its cell takes its slot."""
        last = self.n - 1
        if self.interacting:
            c, s = self.cell_of[i], self.slot_of[i]
            # the candidates include i itself; c_i is overwritten or dropped below
            idx = self.candidates(c)
            np.subtract.at(self.crate, idx, self._kernel_from(self.pos[i], idx))
            k = self.count[c] - 1
            moved = self.members[c, k]
            self.members[c, s] = moved
            self.slot_of[moved] = s
            self.occupied[c, k] = False
            self.count[c] = k
            c, s = self.cell_of.pop(), self.slot_of.pop()
            if i != last:
                self.members[c, s] = i
                self.cell_of[i], self.slot_of[i] = c, s
        if i != last:
            self.pos[i] = self.pos[last]
            self.crate[i] = self.crate[last]
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


def init_poisson(intensity: float, competition: Kernel, rng: np.random.Generator) -> Configuration:
    """Homogeneous Poisson configuration on the competition kernel's torus:
    N ~ Poisson(intensity * L^d), positions i.i.d. uniform."""
    if intensity < 0:
        raise InvalidParameterError("intensity must be nonnegative")
    side, dim = competition.grid.side, competition.grid.dim
    n = rng.poisson(intensity * side**dim)
    return Configuration(rng.uniform(0.0, side, size=(n, dim)), competition)


def init_poisson_field(rho0, competition: Kernel, rng: np.random.Generator) -> Configuration:
    """Inhomogeneous Poisson start with cellwise intensity from a Field
    on the competition kernel's grid."""
    grid = require_same_grid(rho0.grid, competition.grid)
    counts = rng.poisson(rho0.values * grid.cell_volume)
    # the cells in C order, each repeated by its count, take one uniform
    # draw per coordinate from a single call
    cells = np.repeat(np.arange(grid.size), counts.ravel())
    base = np.array(np.unravel_index(cells, grid.shape), dtype=float).T * grid.spacing
    pts = base + rng.uniform(0.0, grid.spacing, size=(len(cells), grid.dim))
    return Configuration(pts, competition)


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
    # with keep_events, one row (time, kind, x0, ..., x_{d-1}) per event, as
    # events_runNNNN.csv writes it; kind is birth, death-natural or death-competition
    event_log: list = field(default_factory=list)


def run(
    config: Configuration,
    params: ModelParams,
    horizon: float,
    snapshot_times,
    rng: np.random.Generator,
    population_cap: int = DEFAULT_POPULATION_CAP,
    keep_events: bool = False,
) -> Trajectory:
    """Exact-jump trajectory to ``horizon`` with snapshots at the requested
    times, its randomness drawn from a :class:`Draws` of ``rng``; the
    counters count every event up to the horizon, also after the last
    snapshot.

    The proposals are thinned against B = <a+> + m + eps * crate_bound.
    After as many null proposals as particles the bound is tightened,
    which is O(1) per proposal and ends the nulls once every c_i has
    dropped to zero.  A snapshot is taken at each time as the first
    proposal after it comes.

    With ``keep_events``, ``traj.event_log`` gets the row (t, kind, *x)
    of each event: its time, its kind and the position of the particle
    born or removed.

    Mutates ``config``.  Raises BlowUpError when the population cap is
    exceeded, and AuditDriftError when an audit, every AUDIT_INTERVAL
    events, finds the incremental competitive rates more than
    AUDIT_TOLERANCE off; an absorbed (empty, rateless) state simply
    freezes the remaining snapshots.
    """
    _require_kernel(config, params)
    times = sorted(float(s) for s in snapshot_times)
    if times and times[-1] > horizon + 1e-12:
        raise InvalidParameterError("snapshot times must not exceed the horizon")
    traj = Trajectory(times=times, snapshots=[], n0=config.n)
    draws = Draws(rng)
    exponential, word, uniform = draws.exponential, draws.word, draws.random
    birth = params.dispersal.mass
    natural = birth + params.mortality
    eps = params.epsilon
    sample = params.dispersal.sample_displacement
    log = traj.event_log if keep_events else None
    snapshots = traj.snapshots
    last, end = len(times), max([horizon, *times])
    audit_interval = AUDIT_INTERVAL
    t = 0.0
    next_snap = proposals = events = births = competition = 0
    peak = config.n
    while True:
        n = config.n
        bound = natural + eps * config.crate_bound
        if n * bound <= 0:
            traj.absorbed = True
            break
        t += exponential() / (n * bound)
        # snapshots due before the proposal see the configuration before it
        while next_snap < last and t > times[next_snap]:
            snapshots.append(config.positions())
            next_snap += 1
        if t > end:
            break
        proposals += 1
        i = uniform_index(word, n)
        u = uniform() * bound
        if u < birth:
            step = sample(draws, None)
            j = config.add_particle([x + d for x, d in zip(config.pos[i].tolist(), step)])
            if log is not None:
                log.append((t, "birth", *config.pos[j].tolist()))
            births += 1
            if n >= peak:
                peak = n + 1
        else:
            if u < natural:
                kind = "death-natural"
            elif u < natural + eps * config.crate[i]:
                kind = "death-competition"
                competition += 1
            else:
                config.nulls += 1
                if config.nulls >= n:
                    config.tighten()
                continue
            if log is not None:
                log.append((t, kind, *config.pos[i].tolist()))
            config.remove_particle(i)
        events += 1
        if config.n > population_cap:
            raise BlowUpError(t, config.n, population_cap)
        if events % audit_interval == 0:
            drift = config.audit()
            traj.max_audit_drift = max(traj.max_audit_drift, drift)
            if drift > AUDIT_TOLERANCE:
                raise AuditDriftError(
                    f"rate drift {drift:.3g} above {AUDIT_TOLERANCE:g} at t={t:.6g}"
                )
            config.tighten()
    while len(snapshots) < last:
        snapshots.append(config.positions())
    traj.n_end = config.n
    traj.peak_n = peak
    traj.proposals = proposals
    traj.events = events
    traj.births = births
    traj.deaths = events - births
    traj.competition_deaths = competition
    return traj


def _require_kernel(config, params):
    """The rates of ``config`` are those of ``params.competition``: the same
    kernel, or one on the same grid with equal values (a deep copy)."""
    ours, theirs = config.competition, params.competition
    if ours is not theirs and (
        ours.grid != theirs.grid or not np.array_equal(ours.values, theirs.values)
    ):
        raise InvalidParameterError("the configuration's competition kernel is not the model's")


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
    """Trajectories of runs 0..runs-1 in run order, spread over
    min(jobs, runs) worker processes when that is above 1, since a process
    pool starts all its workers at once.  Run i draws its inhomogeneous
    Poisson start from the Field ``rho0`` and its events from
    ``run_rng(seed, i)``, so the result does not depend on ``jobs``.
    """
    if jobs < 1:
        raise InvalidParameterError(f"jobs must be at least 1, got {jobs}")
    member = partial(
        _ensemble_member, rho0, params, horizon, snapshot_times, seed, population_cap, keep_events
    )
    workers = min(jobs, runs)
    if workers > 1:
        # imported here: multiprocessing costs every command ~12 ms of start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(member, range(runs)))
    return [member(r) for r in range(runs)]
