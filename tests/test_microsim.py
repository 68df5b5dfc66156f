import copy
import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import oracles
from slm.errors import AbsorbedStateError, AuditDriftError, BlowUpError, InvalidParameterError
from slm.grid import Grid, cell_keys
from slm.kernels import make_gaussian_kernel, make_indicator_kernel, make_zero_kernel
from slm.kinetic import Field
from slm.microsim import (
    Configuration,
    init_poisson,
    init_poisson_field,
    run,
    run_ensemble,
    run_rng,
    step_event,
)
from slm.model import ModelParams


@pytest.fixture
def grid():
    return Grid(1, 10.0, 100)


def unit_mass_indicator(grid, radius):
    k = make_indicator_kernel(1.0, radius, grid.dim, grid)
    return make_indicator_kernel(1.0 / k.mass, radius, grid.dim, grid)


@pytest.fixture
def params(grid):
    return ModelParams(0.3, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.5))


class TestRates:
    def test_empty_configuration(self, grid, params):
        config = Configuration(np.zeros((0, 1)), grid.side, 1, params.competition)
        assert oracles.total_rates(config, params) == (0.0, 0.0)
        with pytest.raises(AbsorbedStateError):
            step_event(config, params, run_rng(0, 0))

    def test_single_particle(self, grid, params):
        config = Configuration([[5.0]], grid.side, 1, params.competition)
        birth, death = oracles.total_rates(config, params)
        assert birth == pytest.approx(params.dispersal.mass)
        assert death == pytest.approx(params.mortality)

    def test_two_close_particles(self, grid):
        # two particles within the competition radius: each sees the
        # kernel height once, so deaths total 2m + 2 eps h
        aminus = make_indicator_kernel(0.8, 0.5, 1, Grid(1, 10.0, 100))
        g = aminus.grid
        params = ModelParams(0.3, unit_mass_indicator(g, 0.5), aminus, epsilon=0.7)
        config = Configuration([[5.0], [5.2]], g.side, 1, aminus)
        _, death = oracles.total_rates(config, params)
        assert death == pytest.approx(2 * 0.3 + 2 * 0.7 * 0.8)

    def test_two_far_particles(self, grid, params):
        config = Configuration([[1.0], [6.0]], grid.side, 1, params.competition)
        _, death = oracles.total_rates(config, params)
        assert death == pytest.approx(2 * params.mortality)

    def test_periodic_wraparound_pair(self, grid, params):
        # particles at 0.1 and 9.9 are 0.2 apart through the boundary
        config = Configuration([[0.1], [9.9]], grid.side, 1, params.competition)
        assert config.crate[0] == pytest.approx(params.competition.sup)

    def test_incremental_matches_recomputed(self, grid, params):
        rng = run_rng(42, 0)
        config = init_poisson(2.0, grid.side, 1, params.competition, rng)
        for _ in range(300):
            if config.n == 0:
                break
            step_event(config, params, rng)
        assert config.audit() < 1e-12


class TestInit:
    def test_poisson_count_distribution(self, grid, params):
        rng = run_rng(1, 0)
        counts = [init_poisson(3.0, grid.side, 1, params.competition, rng).n for _ in range(400)]
        mean = np.mean(counts)
        # Poisson(30): SE of the mean over 400 draws is ~0.27
        assert abs(mean - 30.0) < 3 * np.sqrt(30.0 / 400)

    def test_poisson_field_matches_profile(self, grid, params):
        x = grid.centers()
        rho = Field(grid, 1.0 + np.where(x < 5.0, 2.0, 0.0))
        rng = run_rng(2, 0)
        left = right = 0
        for _ in range(200):
            pts = init_poisson_field(rho, params.competition, rng).positions()
            left += int((pts[:, 0] < 5.0).sum())
            right += int((pts[:, 0] >= 5.0).sum())
        # expected 15 vs 5 per L=10 box
        assert left / 200 == pytest.approx(15.0, abs=1.0)
        assert right / 200 == pytest.approx(5.0, abs=1.0)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_tiny_negative_coordinate_wraps_to_zero(self, dim):
        # np.mod(-1e-20, 10) is 10.0 itself, outside [0, 10)
        g = Grid(dim, 10.0, 20)
        point = [-1e-20] + [3.0] * (dim - 1)
        for kernel in (make_indicator_kernel(1.0, 0.5, dim, g), make_zero_kernel(g)):
            config = Configuration([point], g.side, dim, kernel)
            config.add_particle(np.array(point))
            config.add_particle(np.array(point) - g.side)
            pts = config.positions()
            assert pts.min() >= 0.0 and pts.max() < g.side
            assert np.array_equal(pts[:, 0], [0.0, 0.0, 0.0])
            assert config.audit() < 1e-12

    def test_negative_intensity_rejected(self, grid, params):
        with pytest.raises(InvalidParameterError):
            init_poisson(-1.0, grid.side, 1, params.competition, run_rng(0, 0))


class TestEnsemble:
    def test_run_i_uses_stream_i(self, grid, params):
        # run i is init_poisson_field then run, both on run_rng(seed, i)
        rho0 = Field.constant(grid, 0.8)
        trajs = run_ensemble(rho0, params, 2.0, [1.0, 2.0], 4, 3, keep_events=True)
        assert len(trajs) == 3
        for i, traj in enumerate(trajs):
            rng = run_rng(4, i)
            config = init_poisson_field(rho0, params.competition, rng)
            ref = run(config, params, 2.0, [1.0, 2.0], rng)
            assert traj.events == ref.events and len(traj.event_log) == ref.events
            for a, b in zip(traj.snapshots, ref.snapshots):
                assert np.array_equal(a, b)


class TestRun:
    def test_determinism(self, grid, params):
        outs = []
        for _ in range(2):
            rng = run_rng(7, 3)
            config = init_poisson(1.0, grid.side, 1, params.competition, rng)
            traj = run(config, params, 5.0, [1.0, 3.0, 5.0], rng)
            outs.append([s.copy() for s in traj.snapshots])
        for a, b in zip(*outs):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_independent_runs_differ(self, grid, params):
        sizes = set()
        for i in range(4):
            rng = run_rng(7, i)
            config = init_poisson(1.0, grid.side, 1, params.competition, rng)
            traj = run(config, params, 3.0, [3.0], rng)
            sizes.add(len(traj.snapshots[0]))
        assert len(sizes) > 1

    def test_branching_mean_growth(self, grid):
        # contact regime: E[N_t] = N_0 exp((<a+> - m) t)
        params = ModelParams(0.2, unit_mass_indicator(grid, 0.5), make_zero_kernel(grid))
        growth = params.dispersal.mass - params.mortality
        t_end, n_runs = 2.0, 300
        totals = []
        for i in range(n_runs):
            rng = run_rng(11, i)
            config = init_poisson(2.0, grid.side, 1, params.competition, rng)
            n0 = config.n
            traj = run(config, params, t_end, [t_end], rng)
            totals.append(len(traj.snapshots[0]) - n0 * np.exp(growth * t_end))
        se = np.std(totals, ddof=1) / np.sqrt(n_runs)
        assert abs(np.mean(totals)) < 3.5 * se

    def test_pure_death_clock(self, grid):
        # m = ln 2 and t = 1: each particle survives with probability 1/2
        params = ModelParams(np.log(2.0), make_zero_kernel(grid), make_zero_kernel(grid))
        survived = total0 = 0
        for i in range(200):
            rng = run_rng(13, i)
            config = init_poisson(3.0, grid.side, 1, params.competition, rng)
            total0 += config.n
            traj = run(config, params, 1.0, [1.0], rng)
            survived += len(traj.snapshots[0])
        frac = survived / total0
        se = np.sqrt(0.25 / total0)
        assert abs(frac - 0.5) < 3.5 * se

    def test_absorption_freezes_snapshots(self, grid):
        params = ModelParams(50.0, unit_mass_indicator(grid, 0.5), make_zero_kernel(grid))
        rng = run_rng(5, 0)
        config = init_poisson(0.5, grid.side, 1, params.competition, rng)
        traj = run(config, params, 10.0, [5.0, 10.0], rng)
        assert traj.absorbed
        assert all(len(s) == 0 for s in traj.snapshots)

    def test_blow_up_error(self, grid):
        params = ModelParams(0.0, make_indicator_kernel(5.0, 0.5, 1, grid), make_zero_kernel(grid))
        rng = run_rng(6, 0)
        config = init_poisson(5.0, grid.side, 1, params.competition, rng)
        with pytest.raises(BlowUpError) as exc:
            run(config, params, 50.0, [50.0], rng, population_cap=500)
        assert exc.value.population > 500

    def test_blow_up_error_with_competition(self, grid):
        # a- of mass 0.01: the carrying capacity (5 - 0)/0.01 per unit length is far above the cap
        aminus = make_indicator_kernel(0.01, 0.5, 1, grid)
        params = ModelParams(0.0, make_indicator_kernel(5.0, 0.5, 1, grid), aminus)
        rng = run_rng(6, 0)
        config = init_poisson(5.0, grid.side, 1, aminus, rng)
        with pytest.raises(BlowUpError) as exc:
            run(config, params, 50.0, [50.0], rng, population_cap=500)
        assert exc.value.population == config.n == 501
        assert config.audit() < 1e-12

    def test_zero_horizon_snapshot_is_initial_state(self, grid, params):
        rng = run_rng(8, 0)
        config = init_poisson(2.0, grid.side, 1, params.competition, rng)
        pts0 = config.positions()
        traj = run(config, params, 0.0, [0.0], rng)
        assert np.array_equal(np.sort(traj.snapshots[0], axis=0), np.sort(pts0, axis=0))
        assert traj.events == 0

    def test_event_accounting(self, grid, params):
        rng = run_rng(9, 0)
        config = init_poisson(2.0, grid.side, 1, params.competition, rng)
        n0 = config.n
        traj = run(config, params, 4.0, [4.0], rng, keep_events=True)
        assert traj.events == traj.births + traj.deaths == len(traj.event_log)
        assert traj.proposals >= traj.events
        assert config.n == n0 + traj.births - traj.deaths
        sizes = np.cumsum([n0] + [1 if e.kind == "birth" else -1 for e in traj.event_log])
        assert traj.peak_n == sizes.max() >= max(traj.n0, traj.n_end)
        kinds = {e.kind for e in traj.event_log}
        assert kinds <= {"birth", "death-natural", "death-competition"}

    def test_equilibrium_spatial_flatness(self, grid, params):
        # stationary-regime occupancy should be uniform across halves
        left = right = 0
        for i in range(60):
            rng = run_rng(21, i)
            config = init_poisson(0.7, grid.side, 1, params.competition, rng)
            traj = run(config, params, 10.0, [10.0], rng)
            pts = traj.snapshots[0]
            left += int((pts[:, 0] < 5.0).sum())
            right += int((pts[:, 0] >= 5.0).sum())
        total = left + right
        assert total > 0
        # binomial(1/2) z-score on the half-box split
        z = abs(left - total / 2) / np.sqrt(total / 4)
        assert z < 4.0

    def test_audit_drift_raises(self, grid, params):
        rng = run_rng(10, 0)
        config = init_poisson(2.0, grid.side, 1, params.competition, rng)
        config.crate[: config.n] += 1.0  # every cached rate is now off by one
        with pytest.raises(AuditDriftError) as exc:
            run(config, params, 4.0, [4.0], rng, audit_interval=1)
        assert exc.value.category == "audit-drift"

    def test_2d_smoke(self):
        g = Grid(2, 6.0, 24)
        aplus = make_indicator_kernel(0.4, 0.8, 2, g)
        aminus = make_indicator_kernel(0.3, 0.8, 2, g)
        params = ModelParams(0.2, aplus, aminus)
        rng = run_rng(30, 0)
        config = init_poisson(0.5, g.side, 2, aminus, rng)
        traj = run(config, params, 2.0, [1.0, 2.0], rng)
        assert len(traj.snapshots) == 2
        assert config.audit() < 1e-12


# -- same-seed guard --------------------------------------------------------

# Event logs recorded with the thinned event loop: counts, a SHA-256 of
# the kinds and positions, and (in data/same_seed_event_times.json) every
# event time.  They replaced the logs of the direct method (one rate sum
# and one cumulative sum per event), whose law the thinned loop keeps:
# test_thinned_step_has_the_direct_law below is the statistical check.
SAME_SEED = {
    "1d": dict(events=90, births=42, natural=12, competition=36, n_end=8,
               digest="66391a4acfbf3c837cd592faeab6247e6037c6da0706dd7e0b3b352a09488002"),
    "2d": dict(events=84, births=42, natural=14, competition=28, n_end=94,
               digest="31c82ed74e8f1a4999429d96b14174c6cfa923330177c83e1be65f0ef93a3285"),
}


def same_seed_run(case):
    if case == "1d":
        g = Grid(1, 10.0, 100)
        params = ModelParams(0.3, unit_mass_indicator(g, 0.5), make_indicator_kernel(0.6, 0.5, 1, g))
        rng = run_rng(2024, 1)
        config = init_poisson(2.0, g.side, 1, params.competition, rng)
        return config, run(config, params, 3.0, [1.5, 3.0], rng, keep_events=True)
    g = Grid(2, 10.0, 40)
    params = ModelParams(
        0.4, make_indicator_kernel(0.5, 0.9, 2, g), make_gaussian_kernel(0.3, 2, g), 0.8
    )
    profile = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers() / g.side)[:, None] * np.ones(g.cells)
    rng = run_rng(2024, 2)
    config = init_poisson_field(Field(g, profile), params.competition, rng)
    return config, run(config, params, 0.4, [0.2, 0.4], rng, keep_events=True)


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_same_seed_same_events(case):
    config, traj = same_seed_run(case)
    log = traj.event_log
    want = SAME_SEED[case]
    kinds = [e.kind for e in log]
    assert traj.events == len(log) == want["events"]
    assert traj.births == kinds.count("birth") == want["births"]
    assert kinds.count("death-natural") == want["natural"]
    assert kinds.count("death-competition") == want["competition"]
    assert config.n == want["n_end"]
    digest = hashlib.sha256("\n".join(kinds).encode())
    digest.update(np.asarray([e.position for e in log], dtype="<f8").tobytes())
    assert digest.hexdigest() == want["digest"]
    with open(os.path.join(os.path.dirname(__file__), "data", "same_seed_event_times.json")) as fh:
        times = json.load(fh)[case]
    assert np.allclose([e.time for e in log], times, rtol=1e-12, atol=0.0)


# -- the array structures against O(N^2) and loop oracles -----------------

# grid cells per axis, and kernel radii that give both a cell list with
# three or more cells per axis and one that puts every particle in one cell
CELLS = {1: 40, 2: 16, 3: 8}
RADII = (0.3, 0.7, 1.5)


@st.composite
def mutated_configurations(draw):
    """A Configuration on a 4-torus after a random add/remove sequence."""
    dim = draw(st.sampled_from([1, 2, 3]))
    grid = Grid(dim, 4.0, CELLS[dim])
    kernel = make_indicator_kernel(1.0, draw(st.sampled_from(RADII)), dim, grid)
    coord = st.floats(0.0, grid.side, exclude_max=True)
    point = st.lists(coord, min_size=dim, max_size=dim)
    config = Configuration(draw(st.lists(point, max_size=30)), grid.side, dim, kernel)
    for op in draw(st.lists(st.one_of(point, st.floats(0.0, 1.0, exclude_max=True)), max_size=40)):
        if isinstance(op, list):
            config.add_particle(np.array(op) - 0.5 * grid.side)  # wraps through the boundary
        elif config.n:
            config.remove_particle(int(op * config.n))
    return config, draw(point)


def within(config, query, radius):
    dx = config.positions() - np.asarray(query)
    dx -= config.side * np.round(dx / config.side)
    return set(np.flatnonzero(np.sqrt((dx**2).sum(axis=1)) <= radius).tolist())


@settings(max_examples=150, deadline=None)
@given(mutated_configurations())
def test_cell_list_finds_every_interacting_particle(case):
    config, query = case
    cl, n, radius = config.cells, config.n, config.competition.support_radius
    assert cl.width >= radius or cl.ncells == 1
    # every particle sits in the slot its cell index says, and in the cell of its position
    assert cl.count.sum() == n
    for i in range(n):
        assert cl.members[cl.cell_of[i], cl.slot_of[i]] == i
        assert cl.cell_of[i] == cl.cell(config.pos[i])
    for pos in list(config.positions()) + [np.asarray(query)]:
        found = cl.candidates(cl.cell(pos))
        assert len(set(found.tolist())) == len(found)
        assert within(config, pos, radius) <= set(found.tolist())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_is_the_scalar_form_of_cell_keys(dim):
    side = 10.0
    comp = make_indicator_kernel(1.0, 0.5, dim, Grid(dim, side, 20))
    rng = np.random.default_rng(dim)
    config = Configuration(rng.uniform(0.0, side, (20, dim)), side, dim, comp)
    cl = config.cells
    # coordinates on every cell edge, one ulp below each, and one ulp below L
    edges = np.arange(cl.ncells) * cl.width
    axis = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [np.nextafter(side, 0.0)]])
    pts = np.concatenate([rng.choice(axis, (500, dim)), rng.uniform(0.0, side, (100, dim))])
    expected = cell_keys(pts, side, cl.ncells) @ cl.strides
    assert [cl.cell(p) for p in pts] == expected.tolist()


def test_half_cell_offsets_keep_incremental_rates_exact():
    # h = 0.125 and an indicator of radius h: the particles sit 1.5 h apart
    # both ways, so neither reads the other
    grid = Grid(1, 10.0, 80)
    comp = make_indicator_kernel(1.0, grid.spacing, 1, grid)
    config = Configuration([[1.0]], grid.side, 1, comp)
    config.add_particle([1.1875])
    assert config.crate[: config.n].tolist() == config._exact_rates().tolist() == [0.0, 0.0]
    assert config.audit() == 0.0


@settings(max_examples=150, deadline=None)
@given(mutated_configurations(), st.floats(0.0, 1e-3))
def test_audit_matches_dense_oracle(case, noise):
    config, _ = case
    assert config.audit() == pytest.approx(oracles.audit(config), rel=1e-9, abs=1e-13)
    assert config.audit() < 1e-12
    config.crate[: config.n] += noise * np.arange(config.n)  # a drift the audit must report
    assert config.audit() == pytest.approx(oracles.audit(config), rel=1e-9, abs=1e-13)


def test_cell_list_size_is_bounded():
    # cells as narrow as the kernel would number 1e9 in 3-d; wider ones stay correct
    from slm.grid import MAX_CELLS
    from slm.microsim import CellList

    cl = CellList(10.0, 3, 0.01, np.random.default_rng(0).uniform(0.0, 10.0, size=(50, 3)))
    assert cl.ncells == 40 and cl.ncells**3 <= MAX_CELLS
    assert cl.nbr.nbytes + cl.members.nbytes < 20e6
    assert cl.width >= 0.01


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_rates_blockwise_when_one_cell_holds_all(dim, monkeypatch):
    # a tiny block size of the shared pair search puts one row in each block
    import slm.grid

    monkeypatch.setattr(slm.grid, "PAIR_BLOCK", 7)
    grid = Grid(dim, 4.0, CELLS[dim])
    kernel = make_indicator_kernel(1.0, 1.5, dim, grid)
    pts = np.random.default_rng(dim).uniform(0.0, 4.0, size=(40, dim))
    config = Configuration(pts, grid.side, dim, kernel)
    assert config.cells.ncells == 1
    assert np.allclose(config.crate[:40], oracles.pair_rates(pts, grid.side, kernel), rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_start_and_sampler_draw_as_the_loops_did(dim):
    grid = Grid(dim, 4.0, CELLS[dim])
    rho0 = Field(grid, 1.5 + 3 * np.random.default_rng(dim).random(grid.shape))
    config = init_poisson_field(rho0, make_indicator_kernel(1.0, 0.3, dim, grid), run_rng(dim, 0))
    assert np.array_equal(config.positions(), oracles.poisson_field_positions(rho0, run_rng(dim, 0)))
    kernel = make_gaussian_kernel(0.3, dim, grid)
    for size in (1, 7):
        got = kernel.sample_displacement(run_rng(dim, size), size)
        assert np.array_equal(got, oracles.sample_displacement(kernel, run_rng(dim, size), size))
    one = kernel.sample_displacement(run_rng(dim, 1), None)
    assert one.shape == (dim,)
    assert np.array_equal(one, oracles.sample_displacement(kernel, run_rng(dim, 1), 1)[0])


# -- the thinned event loop -------------------------------------------------

KINDS = ("birth", "death-natural", "death-competition")


def equivalence_case(dim):
    """A Configuration whose c_i are unequal (a tight cluster, a loose one
    and isolated points), and its model."""
    g = Grid(dim, 10.0, 40)
    params = ModelParams(
        0.3, make_indicator_kernel(0.05, 0.8, dim, g), make_gaussian_kernel(0.4, dim, g), 0.7
    )
    rng = np.random.default_rng(dim)
    pts = np.concatenate([
        2.0 + 0.3 * rng.random((6, dim)),
        6.0 + 1.2 * rng.random((5, dim)),
        rng.uniform(0.0, 10.0, size=(6, dim)),
    ])
    return Configuration(pts, g.side, dim, params.competition), params


@pytest.mark.parametrize("dim", [1, 2])
def test_thinned_step_has_the_direct_law(dim):
    # one step_event on a fresh copy, 10 000 times, against the exact rates
    config, params = equivalence_case(dim)
    n = config.n
    crate = config.crate[:n]
    assert len(np.unique(crate)) > 4 and config.crate_bound == crate.max()
    birth, death = oracles.total_rates(config, params)
    natural = params.mortality * n
    index = {tuple(p): i for i, p in enumerate(config.positions().tolist())}
    draws = 10_000
    rng = run_rng(99, dim)
    kinds, dying, waits = [], [], np.empty(draws)
    for k in range(draws):
        ev = step_event(copy.deepcopy(config), params, rng)
        kinds.append(ev.kind)
        waits[k] = ev.time
        if ev.kind != "birth":
            dying.append(index[tuple(ev.position.tolist())])
    counts = [kinds.count(kind) for kind in KINDS]
    expected = np.array([birth, natural, death - natural]) / (birth + death) * draws
    assert sps.chisquare(counts, expected).pvalue > 0.001
    weights = params.mortality + params.epsilon * crate
    got = np.bincount(dying, minlength=n)
    assert sps.chisquare(got, weights / weights.sum() * len(dying)).pvalue > 0.001
    se = waits.std(ddof=1) / np.sqrt(draws)
    assert abs(waits.mean() - 1.0 / (birth + death)) < 3.0 * se


def bound_holds(config, params):
    top = config.crate[: config.n].max(initial=0.0)
    return config.crate_bound >= top and (
        params.dispersal.mass + params.mortality + params.epsilon * config.crate_bound
        >= params.dispersal.mass + params.mortality + params.epsilon * top
    )


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([1, 2, 3]),
    st.sampled_from(RADII),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
def test_bound_covers_every_rate_after_every_event(dim, radius, mortality, epsilon, seed):
    grid = Grid(dim, 4.0, CELLS[dim])
    aminus = make_indicator_kernel(1.0, radius, dim, grid)
    params = ModelParams(mortality, make_indicator_kernel(0.5, 0.6, dim, grid), aminus, epsilon)
    rng = run_rng(seed, 0)
    config = init_poisson(1.5, grid.side, dim, aminus, rng)
    assert bound_holds(config, params)
    t = 0.0
    for _ in range(60):
        if config.n == 0:
            break
        t = step_event(config, params, rng, t).time
        assert bound_holds(config, params)
    assert config.audit() < 1e-12


def test_zero_epsilon_proposes_only_real_events(grid):
    aminus = make_indicator_kernel(5.0, 0.5, 1, grid)  # large rates that eps = 0 switches off
    params = ModelParams(0.3, unit_mass_indicator(grid, 0.5), aminus, 0.0)
    rng = run_rng(12, 0)
    config = init_poisson(2.0, grid.side, 1, aminus, rng)
    traj = run(config, params, 3.0, [3.0], rng)
    assert traj.events > 0 and traj.proposals == traj.events
    assert traj.competition_deaths == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_competition_kernel_needs_no_cell_list(dim):
    g = Grid(dim, 4.0, CELLS[dim])
    params = ModelParams(0.4, make_indicator_kernel(0.5, 0.6, dim, g), make_zero_kernel(g), 1.0)
    rng = run_rng(13, dim)
    config = init_poisson(2.0, g.side, dim, params.competition, rng)
    assert not hasattr(config, "cells")
    traj = run(config, params, 1.0, [1.0], rng)
    assert traj.events > 0 and traj.proposals == traj.events
    assert traj.competition_deaths == 0 and config.crate_bound == 0.0
    assert len(traj.snapshots[0]) == config.n == traj.n0 + traj.births - traj.deaths


def test_no_births_and_no_mortality_is_absorbed_once_isolated(grid):
    # a+ = 0 and m = 0: the cluster thins out by competition until its
    # survivors are isolated, then the stale bound gives only null proposals
    # until it is tightened to zero
    aminus = make_indicator_kernel(1.0, 0.5, 1, grid)
    params = ModelParams(0.0, make_zero_kernel(grid), aminus)
    pts = [[5.0], [5.1], [5.2], [8.0]]
    traj = run(Configuration(pts, grid.side, 1, aminus), params, 50.0, [1.0, 50.0], run_rng(14, 0))
    assert traj.absorbed and traj.births == 0
    assert traj.events == traj.competition_deaths == 2 and traj.n_end == 2
    assert all(len(s) == 2 for s in traj.snapshots)
    config = Configuration(pts, grid.side, 1, aminus)
    rng = run_rng(14, 1)
    step_event(config, params, rng)
    step_event(config, params, rng)
    assert config.crate_bound > 0.0 == config.crate[: config.n].max()
    with pytest.raises(AbsorbedStateError):
        step_event(config, params, rng)
    # and with no rate at all from the start
    config = Configuration([[1.0], [6.0]], grid.side, 1, aminus)
    assert config.crate_bound == 0.0
    with pytest.raises(AbsorbedStateError):
        step_event(config, params, rng)


def test_step_event_returns_a_real_event_after_null_proposals(grid):
    config, params = equivalence_case(1)
    n = config.n
    loose = config.crate_bound = 1e3 * config.crate_bound  # still a bound, so still exact
    rng = run_rng(15, 0)
    ev = step_event(config, params, rng, t=2.0)
    assert ev.kind in KINDS and ev.time > 2.0
    assert config.n == n + (1 if ev.kind == "birth" else -1)
    # only n null proposals tighten the bound, so at least n happened
    assert config.crate_bound < loose
    assert config.audit() < 1e-12


def test_audit_tightens_the_bound(grid, params):
    # at eps = 0 no proposal is null, so only the audits tighten
    rng = run_rng(16, 0)
    config = init_poisson(3.0, grid.side, 1, params.competition, rng)
    config.crate_bound += 1.0
    traj = run(config, params.with_epsilon(0.0), 2.0, [2.0], rng, audit_interval=1)
    assert traj.events >= 1 and config.crate_bound == config.crate[: config.n].max()


def test_audit_interval_counts_real_events(grid, params, monkeypatch):
    calls = []
    rng = run_rng(17, 0)
    config = init_poisson(3.0, grid.side, 1, params.competition, rng)
    monkeypatch.setattr(config, "audit", lambda: calls.append(1) or 0.0)
    traj = run(config, params, 6.0, [6.0], rng, audit_interval=7)
    assert traj.proposals > traj.events
    assert len(calls) == traj.events // 7
