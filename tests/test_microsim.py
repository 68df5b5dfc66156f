import copy
import hashlib
import json
import os
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import oracles
from oracles import unit_mass_indicator
from slm import microsim
from slm.errors import AuditDriftError, BlowUpError, IncompatibleGridsError, InvalidParameterError
from slm.grid import Field, Grid, cell_keys
from slm.kernels import make_gaussian_kernel, make_indicator_kernel, make_zero_kernel
from slm.microsim import (
    Configuration,
    Draws,
    init_poisson,
    init_poisson_field,
    run,
    run_ensemble,
    run_rng,
    uniform_index,
)
from slm.model import ModelParams


@pytest.fixture
def grid():
    return Grid(1, 10.0, 100)


@pytest.fixture
def params(grid):
    return ModelParams(0.3, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.5))


class TestRates:
    def test_empty_configuration(self, grid, params):
        config = Configuration(np.zeros((0, 1)), params.competition)
        assert oracles.total_rates(config, params) == (0.0, 0.0)
        traj = run(config, params, 1.0, [1.0], run_rng(0, 0), keep_events=True)
        assert traj.absorbed and traj.proposals == 0 and traj.event_log == []

    def test_single_particle(self, grid, params):
        config = Configuration([[5.0]], params.competition)
        birth, death = oracles.total_rates(config, params)
        assert birth == pytest.approx(params.dispersal.mass)
        assert death == pytest.approx(params.mortality)

    def test_two_close_particles(self, grid):
        # two particles within the competition radius: each sees the
        # kernel height once, so deaths total 2m + 2 eps h
        aminus = make_indicator_kernel(0.8, 0.5, 1, Grid(1, 10.0, 100))
        g = aminus.grid
        params = ModelParams(0.3, unit_mass_indicator(g, 0.5), aminus, epsilon=0.7)
        config = Configuration([[5.0], [5.2]], aminus)
        _, death = oracles.total_rates(config, params)
        assert death == pytest.approx(2 * 0.3 + 2 * 0.7 * 0.8)

    def test_two_far_particles(self, grid, params):
        config = Configuration([[1.0], [6.0]], params.competition)
        _, death = oracles.total_rates(config, params)
        assert death == pytest.approx(2 * params.mortality)

    def test_periodic_wraparound_pair(self, grid, params):
        # particles at 0.1 and 9.9 are 0.2 apart through the boundary
        config = Configuration([[0.1], [9.9]], params.competition)
        assert config.crate[0] == pytest.approx(params.competition.sup)

    def test_incremental_matches_recomputed(self, grid, params):
        rng = run_rng(42, 0)
        config = init_poisson(2.0, params.competition, rng)
        for _ in range(300):
            if config.n == 0:
                break
            oracles.step_event(config, params, rng)
        assert config.audit() < 1e-12


class TestInit:
    def test_poisson_count_distribution(self, grid, params):
        rng = run_rng(1, 0)
        counts = [init_poisson(3.0, params.competition, rng).n for _ in range(400)]
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
            config = Configuration([point], kernel)
            config.add_particle(np.array(point))
            config.add_particle(np.array(point) - g.side)
            pts = config.positions()
            assert pts.min() >= 0.0 and pts.max() < g.side
            assert np.array_equal(pts[:, 0], [0.0, 0.0, 0.0])
            assert config.audit() < 1e-12

    def test_negative_intensity_rejected(self, grid, params):
        with pytest.raises(InvalidParameterError):
            init_poisson(-1.0, params.competition, run_rng(0, 0))

    def test_poisson_field_on_another_grid_is_rejected(self, params):
        # the torus is the kernel's grid; a start drawn on another one is not on it
        for other in (Grid(1, 8.0, 100), Grid(1, 10.0, 50), Grid(2, 10.0, 100)):
            with pytest.raises(IncompatibleGridsError):
                init_poisson_field(Field.constant(other, 1.0), params.competition, run_rng(0, 0))

    def test_points_of_another_dimension_are_rejected(self, params):
        for pts in ([[1.0, 2.0]], np.zeros((3, 2)), [1.0, 2.0]):
            with pytest.raises(InvalidParameterError):
                Configuration(pts, params.competition)


class TestEnsemble:
    @pytest.mark.parametrize("jobs, runs, pools", [(500, 3, [3]), (2, 3, [2]), (4, 1, []), (1, 3, [])])
    def test_workers_are_capped_at_runs(self, grid, params, monkeypatch, jobs, runs, pools):
        # a pool starts all its workers at once, so record them and run in-process
        import concurrent.futures

        started = []

        class Pool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
        rho0 = Field.constant(grid, 0.8)
        trajs = run_ensemble(rho0, params, 1.0, [1.0], 4, runs, jobs=jobs)
        assert started == pools
        serial = run_ensemble(rho0, params, 1.0, [1.0], 4, runs)
        assert [t.events for t in trajs] == [t.events for t in serial]

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_fewer_than_one_job_is_rejected(self, grid, params, jobs):
        with pytest.raises(InvalidParameterError):
            run_ensemble(Field.constant(grid, 0.8), params, 1.0, [1.0], 4, 3, jobs=jobs)

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
            config = init_poisson(1.0, params.competition, rng)
            traj = run(config, params, 5.0, [1.0, 3.0, 5.0], rng)
            outs.append([s.copy() for s in traj.snapshots])
        for a, b in zip(*outs):
            assert a.shape == b.shape
            assert np.array_equal(a, b)

    def test_counters_run_to_the_horizon_after_the_last_snapshot(self, grid, params):
        def counters(times):
            rng = run_rng(7, 0)
            config = init_poisson(2.0, params.competition, rng)
            traj = run(config, params, 2.0, times, rng)
            return {k: v for k, v in vars(traj).items() if k not in ("times", "snapshots")}

        want = counters([1.0, 2.0])
        assert want["events"] > 0
        assert counters([1.0]) == counters([]) == want

    def test_independent_runs_differ(self, grid, params):
        sizes = set()
        for i in range(4):
            rng = run_rng(7, i)
            config = init_poisson(1.0, params.competition, rng)
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
            config = init_poisson(2.0, params.competition, rng)
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
            config = init_poisson(3.0, params.competition, rng)
            total0 += config.n
            traj = run(config, params, 1.0, [1.0], rng)
            survived += len(traj.snapshots[0])
        frac = survived / total0
        se = np.sqrt(0.25 / total0)
        assert abs(frac - 0.5) < 3.5 * se

    def test_absorption_freezes_snapshots(self, grid):
        params = ModelParams(50.0, unit_mass_indicator(grid, 0.5), make_zero_kernel(grid))
        rng = run_rng(5, 0)
        config = init_poisson(0.5, params.competition, rng)
        traj = run(config, params, 10.0, [5.0, 10.0], rng)
        assert traj.absorbed
        assert all(len(s) == 0 for s in traj.snapshots)

    def test_blow_up_error(self, grid):
        params = ModelParams(0.0, make_indicator_kernel(5.0, 0.5, 1, grid), make_zero_kernel(grid))
        rng = run_rng(6, 0)
        config = init_poisson(5.0, params.competition, rng)
        with pytest.raises(BlowUpError) as exc:
            run(config, params, 50.0, [50.0], rng, population_cap=500)
        assert exc.value.population > 500

    def test_blow_up_error_with_competition(self, grid):
        # a- of mass 0.01: the carrying capacity (5 - 0)/0.01 per unit length is far above the cap
        aminus = make_indicator_kernel(0.01, 0.5, 1, grid)
        params = ModelParams(0.0, make_indicator_kernel(5.0, 0.5, 1, grid), aminus)
        rng = run_rng(6, 0)
        config = init_poisson(5.0, aminus, rng)
        with pytest.raises(BlowUpError) as exc:
            run(config, params, 50.0, [50.0], rng, population_cap=500)
        assert exc.value.population == config.n == 501
        assert config.audit() < 1e-12

    def test_zero_horizon_snapshot_is_initial_state(self, grid, params):
        rng = run_rng(8, 0)
        config = init_poisson(2.0, params.competition, rng)
        pts0 = config.positions()
        traj = run(config, params, 0.0, [0.0], rng)
        assert np.array_equal(np.sort(traj.snapshots[0], axis=0), np.sort(pts0, axis=0))
        assert traj.events == 0

    def test_event_accounting(self, grid, params):
        rng = run_rng(9, 0)
        config = init_poisson(2.0, params.competition, rng)
        n0 = config.n
        traj = run(config, params, 4.0, [4.0], rng, keep_events=True)
        assert traj.events == traj.births + traj.deaths == len(traj.event_log)
        assert traj.proposals >= traj.events
        assert config.n == n0 + traj.births - traj.deaths
        sizes = np.cumsum([n0] + [1 if kind == "birth" else -1 for _, kind, *_ in traj.event_log])
        assert traj.peak_n == sizes.max() >= max(traj.n0, traj.n_end)
        kinds = {kind for _, kind, *_ in traj.event_log}
        assert kinds <= {"birth", "death-natural", "death-competition"}

    def test_equilibrium_spatial_flatness(self, grid, params):
        # stationary-regime occupancy should be uniform across halves
        left = right = 0
        for i in range(60):
            rng = run_rng(21, i)
            config = init_poisson(0.7, params.competition, rng)
            traj = run(config, params, 10.0, [10.0], rng)
            pts = traj.snapshots[0]
            left += int((pts[:, 0] < 5.0).sum())
            right += int((pts[:, 0] >= 5.0).sum())
        total = left + right
        assert total > 0
        # binomial(1/2) z-score on the half-box split
        z = abs(left - total / 2) / np.sqrt(total / 4)
        assert z < 4.0

    def test_audit_drift_raises(self, grid, params, monkeypatch):
        rng = run_rng(10, 0)
        config = init_poisson(2.0, params.competition, rng)
        config.crate[: config.n] += 1.0  # every cached rate is now off by one
        monkeypatch.setattr(microsim, "AUDIT_INTERVAL", 1)
        with pytest.raises(AuditDriftError) as exc:
            run(config, params, 4.0, [4.0], rng)
        assert exc.value.category == "audit-drift"

    def test_2d_smoke(self):
        g = Grid(2, 6.0, 24)
        aplus = make_indicator_kernel(0.4, 0.8, 2, g)
        aminus = make_indicator_kernel(0.3, 0.8, 2, g)
        params = ModelParams(0.2, aplus, aminus)
        rng = run_rng(30, 0)
        config = init_poisson(0.5, aminus, rng)
        traj = run(config, params, 2.0, [1.0, 2.0], rng)
        assert len(traj.snapshots) == 2
        assert config.audit() < 1e-12


# -- same-seed guards --------------------------------------------------------

# Event logs of four seeded runs: counts, a SHA-256 of the kinds and
# positions, and a SHA-256 of the event times as little-endian doubles;
# data/same_seed_event_times.json also holds every event time of the 1d
# and 2d runs.  1d and 2d are under 100 events; 3d is longer, and
# 2d-audited runs over 3000 events, audits every 500 and grows from 5
# particles past the starting sizes of the position arrays and of the
# cells' rows, so that the doubling of ``pos`` and of ``members``, the
# audits and ``tighten`` all take part.  data/record_same_seed.py
# re-records them all when the event stream of a seed changes on purpose.
SAME_SEED = {
    "1d": dict(events=59, proposals=93, births=28, natural=14, competition=17, n_end=11, peak_n=14,
               digest="af657b29731fa5c94c95929140473c2c0ef537638b9f1f10ed9feed7c8b243f2",
               times="4ea3bc57a410a66d681d612c51934fd273e031134a827e5ac8c7054b106c3551"),
    "2d": dict(events=93, proposals=198, births=49, natural=15, competition=29, n_end=99,
               peak_n=103,
               digest="51c29fae3b19df8fc4eb74b509306324877bd542eafe422f4a259eea34f1c2c4",
               times="67a2fd98a355ca736c1900c0778a03931b2ce162bfb11548d0bd836d7a82bc86"),
}
LONG_SEED = {
    "3d": dict(events=638, proposals=1476, births=314, natural=115, competition=209, n_end=50,
               peak_n=70,
               digest="ca2914d7cd5eaa391ff4b0522a89ba0663205f383382320d3d53fe0f60d5735a",
               times="3dfd081092bb8c045dfc1b7a6349fe5597e482f7d35f8fecb0fd0b62950f5c6e"),
    "2d-audited": dict(events=4885, proposals=7132, births=2695, natural=438, competition=1752,
                       n_end=510, peak_n=524,
                       digest="87676854fe2d8f8fec89988bcd9bf6fd761c7c4ab9befb3cf8b493ebbe882034",
                       times="ec2354913b4e534fa8493b3aa5e054891d203d5ffa0ce6f91bb9fdeeee950f86"),
}
# The same runs as recorded with one Generator call per draw, before the
# simulator drew in blocks: oracles.PerCallDraws must still give them.
PER_CALL_SEED = {
    "1d": dict(events=90, proposals=134, births=42, natural=12, competition=36, n_end=8, peak_n=18,
               digest="66391a4acfbf3c837cd592faeab6247e6037c6da0706dd7e0b3b352a09488002",
               times="2ce704741191418d2bda97d28d75cb17ede7cfe75560e3d8f8c427b1a8aa9d23"),
    "2d": dict(events=84, proposals=183, births=42, natural=14, competition=28, n_end=94,
               peak_n=100,
               digest="31c82ed74e8f1a4999429d96b14174c6cfa923330177c83e1be65f0ef93a3285",
               times="e917d2db053beece919bf880be7ad57ae46cc82606dd4e962bbc6f7b147fa591"),
    "3d": dict(events=545, proposals=1172, births=261, natural=96, competition=188, n_end=37,
               peak_n=70,
               digest="3dd21feb9d70531e448774ed0d02831294e370ae9211fa7791e9f22358326f0d",
               times="c62108124e679fc364a78f981c38ca7f6dd508447aa94bed0a2ee19f4d67ce89"),
    "2d-audited": dict(events=4029, proposals=6128, births=2204, natural=363, competition=1462,
                       n_end=384, peak_n=385,
                       digest="f320f0e835c1a40b300e9d74cffb79092b77742a3e1b6debb28c9dcc111beaa9",
                       times="ab35239e2eceb1da8999c87f2caa3d0eb30ffb5986a139c5ca567f6bf74c3304"),
}


def guard_run(case, keep_events=True, simulate=run):
    """(config, trajectory) of the guard run ``case``, simulated by
    microsim.run or by a loop called as it is."""
    if case == "1d":
        g = Grid(1, 10.0, 100)
        params = ModelParams(
            0.3, unit_mass_indicator(g, 0.5), make_indicator_kernel(0.6, 0.5, 1, g)
        )
        rng = run_rng(2024, 1)
        config = init_poisson(2.0, params.competition, rng)
        args = (3.0, [1.5, 3.0])
    elif case == "2d":
        g = Grid(2, 10.0, 40)
        params = ModelParams(
            0.4, make_indicator_kernel(0.5, 0.9, 2, g), make_gaussian_kernel(0.3, 2, g), 0.8
        )
        profile = 1.0 + 0.5 * np.cos(2 * np.pi * g.centers() / g.side)[:, None] * np.ones(g.cells)
        rng = run_rng(2024, 2)
        config = init_poisson_field(Field(g, profile), params.competition, rng)
        args = (0.4, [0.2, 0.4])
    elif case == "3d":
        g = Grid(3, 5.0, 20)
        params = ModelParams(
            0.3, make_indicator_kernel(1.0, 0.6, 3, g), make_gaussian_kernel(0.3, 3, g), 0.7
        )
        rng = run_rng(2025, 3)
        config = init_poisson(0.5, params.competition, rng)
        args = (6.0, [3.0, 6.0])
    else:
        g = Grid(2, 8.0, 32)
        params = ModelParams(
            0.2, make_indicator_kernel(0.9, 0.6, 2, g), make_gaussian_kernel(0.3, 2, g, height=0.2)
        )
        rng = run_rng(2025, 2)
        config = init_poisson(0.1, params.competition, rng)
        assert config.n == 5 and (len(config.pos), config.members.shape[1]) == (16, 8)
        args = (12.0, [6.0, 12.0])
    with pytest.MonkeyPatch.context() as mp:
        if case == "2d-audited":
            mp.setattr(microsim, "AUDIT_INTERVAL", 500)
        return config, simulate(config, params, *args, rng, keep_events=keep_events)


def event_record(config, traj):
    """The counters and digests a guard holds."""
    log = traj.event_log
    times, kinds = [t for t, *_ in log], [kind for _, kind, *_ in log]
    positions = [pos for _, _, *pos in log]
    assert traj.events == len(log) == traj.births + traj.deaths
    digest = hashlib.sha256("\n".join(kinds).encode())
    digest.update(np.asarray(positions, dtype="<f8").tobytes())
    return dict(
        events=traj.events, proposals=traj.proposals, births=kinds.count("birth"),
        natural=kinds.count("death-natural"), competition=kinds.count("death-competition"),
        n_end=config.n, peak_n=traj.peak_n, digest=digest.hexdigest(),
        times=hashlib.sha256(np.asarray(times, dtype="<f8").tobytes()).hexdigest(),
    )


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_same_seed_same_events(case):
    config, traj = guard_run(case)
    assert event_record(config, traj) == SAME_SEED[case]
    with open(os.path.join(os.path.dirname(__file__), "data", "same_seed_event_times.json")) as fh:
        assert [t for t, *_ in traj.event_log] == json.load(fh)[case]


@pytest.mark.parametrize("case", ["3d", "2d-audited"])
def test_long_same_seed_runs_keep_their_events(case):
    config, traj = guard_run(case)
    assert event_record(config, traj) == LONG_SEED[case]
    if case == "2d-audited":
        assert len(config.pos) > 16 and config.members.shape[1] > 8


@pytest.mark.parametrize("case", ["1d", "2d", "3d", "2d-audited"])
def test_per_call_oracle_gives_the_events_recorded_before_block_draws(case):
    per_call = partial(oracles.thinned_run, draws=oracles.PerCallDraws)
    assert event_record(*guard_run(case, simulate=per_call)) == PER_CALL_SEED[case]


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_event_records_change_no_draw(case):
    _, logged = guard_run(case)
    _, bare = guard_run(case, keep_events=False)
    assert len(logged.event_log) == logged.events and bare.event_log == []
    assert len(logged.snapshots) == len(bare.snapshots) == 2
    for a, b in zip(logged.snapshots, bare.snapshots):
        assert np.array_equal(a, b)
    counters = [k for k in vars(logged) if k not in ("snapshots", "event_log")]
    assert [getattr(logged, k) for k in counters] == [getattr(bare, k) for k in counters]


def test_a_logged_event_costs_one_row():
    # the log of a 2-d run holds one tuple (t, kind, x0, x1) per event: a 72 B tuple, three
    # 24 B floats and a list slot, 152 B.  An object per event with its own position array
    # took 256 B.  The bound lies between the two, so an --events run's memory grows by the
    # rows its tables write and by nothing more
    g = Grid(2, 10.0, 40)
    params = ModelParams(
        0.4, make_indicator_kernel(0.5, 0.9, 2, g), make_gaussian_kernel(0.3, 2, g), 0.8
    )
    start = init_poisson(2.0, params.competition, run_rng(31, 0))
    held, trajs = [], []
    for keep_events in (False, True):
        config = copy.deepcopy(start)
        tracemalloc.start()
        try:
            trajs.append(run(config, params, 25.0, [], run_rng(31, 1), keep_events=keep_events))
            held.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    bare, logged = trajs
    assert bare.event_log == [] and len(logged.event_log) == logged.events == bare.events > 5000
    assert (held[1] - held[0]) / logged.events < 200


# -- the block draws and the loop that reads them ---------------------------


def trajectory_record(config, traj):
    """Everything a run leaves: its event log bit for bit, its snapshots,
    the runs.csv counters and the configuration's rates and bound."""
    events = list(traj.event_log)
    counters = {k: v for k, v in vars(traj).items() if k not in ("snapshots", "event_log")}
    snapshots = [s.tolist() for s in traj.snapshots]
    return events, counters, snapshots, config.crate[: config.n].tolist(), config.crate_bound


@pytest.mark.parametrize("case", ["1d", "2d", "3d", "2d-audited"])
def test_run_is_the_per_proposal_loop_on_the_same_draws(case):
    got = trajectory_record(*guard_run(case))
    want = trajectory_record(*guard_run(case, simulate=oracles.thinned_run))
    assert got == want


@pytest.mark.parametrize("block", [1, 7])
def test_draw_block_sizes_do_not_change_a_run(block, monkeypatch):
    # 2d-audited draws each stream over many blocks of the default size
    want = trajectory_record(*guard_run("2d-audited"))
    monkeypatch.setattr(microsim, "DRAW_BLOCK", block)
    assert trajectory_record(*guard_run("2d-audited")) == want


def test_uniform_index_rejects_exactly_the_low_words_below_2_64_mod_n():
    def index(words, n):
        words = iter(words)
        return uniform_index(words.__next__, n), list(words)

    # n = 1 and n = 2^64 - 1 accept every word; 2^64 mod n is 0 and 1
    assert index([0, 9], 1) == (0, [9])
    assert index([2**64 - 1, 9], 2**64 - 1) == (2**64 - 2, [9])
    # n = 3: 2^64 mod 3 = 1, so only a low word of 0 is redrawn
    assert index([0, 1, 9], 3) == (0, [9])
    assert index([(2**64 + 2) // 3, 9], 3) == (1, [9])  # low word 2: below n, kept
    # n = 2^63 + 1: 2^64 mod n = 2^63 - 1, so about half the words are redrawn
    n = 2**63 + 1
    assert index([2, 4, 2**64 - 1, 9], n) == (n - 1, [9])  # low words 2, 4, then 2^63 - 1
    assert index([1, 9], n) == (0, [9])  # low word n
    rng = np.random.default_rng(3)
    for n in (5, 2**40 + 7, 2**63 + 1):
        words = rng.integers(0, 2**64, size=200, dtype=np.uint64).tolist()
        kept = [x for x in words if x * n % 2**64 >= 2**64 % n]
        draw = iter(words).__next__
        assert [uniform_index(draw, n) for _ in kept] == [x * n >> 64 for x in kept]


@pytest.mark.parametrize("n", [2, 3, 7])
def test_index_draws_are_uniform(n):
    draws = Draws(run_rng(5201, n))
    counts = np.bincount([uniform_index(draws.word, n) for _ in range(30_000)], minlength=n)
    assert len(counts) == n
    assert sps.chisquare(counts).pvalue > 0.001


def test_block_draws_have_the_law_of_per_call_draws(params):
    # 400 runs of about 20 particles to t = 2, each from its own Poisson
    # start: N_end, births and deaths of the per-call loop against
    # microsim.run, each by a two-sample Kolmogorov-Smirnov test at
    # p > 0.001, so a correct loop fails one of the three less than 0.3%
    # of the time; the seeds were not used before the gate was set
    def sample(seed, simulate):
        out = []
        for i in range(400):
            rng = run_rng(seed, i)
            config = init_poisson(2.0, params.competition, rng)
            traj = simulate(config, params, 2.0, [2.0], rng)
            out.append((traj.n_end, traj.births, traj.deaths))
        return np.array(out).T

    per_call = sample(5301, partial(oracles.thinned_run, draws=oracles.PerCallDraws))
    block = sample(5302, run)
    for a, b in zip(per_call, block):
        assert sps.ks_2samp(a, b).pvalue > 0.001


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
    config = Configuration(draw(st.lists(point, max_size=30)), kernel)
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
    n, radius = config.n, config.competition.support_radius
    assert config.width >= radius or config.ncells == 1
    # every particle sits in the slot its cell index says, and in the cell of its position
    assert config.count.sum() == n == len(config.cell_of) == len(config.slot_of)
    assert np.array_equal(config.occupied, np.arange(config.members.shape[1]) < config.count[:, None])
    for i in range(n):
        assert config.members[config.cell_of[i], config.slot_of[i]] == i
        assert config.cell_of[i] == config.cell(config.pos[i])
    for pos in list(config.positions()) + [np.asarray(query)]:
        found = config.candidates(config.cell(pos))
        assert len(set(found.tolist())) == len(found)
        assert within(config, pos, radius) <= set(found.tolist())


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_cell_is_the_scalar_form_of_cell_keys(dim):
    side = 10.0
    comp = make_indicator_kernel(1.0, 0.5, dim, Grid(dim, side, 20))
    rng = np.random.default_rng(dim)
    config = Configuration(rng.uniform(0.0, side, (20, dim)), comp)
    # coordinates on every cell edge, one ulp below each, and one ulp below L
    edges = np.arange(config.ncells) * config.width
    axis = np.concatenate([edges, np.nextafter(edges[1:], 0.0), [np.nextafter(side, 0.0)]])
    pts = np.concatenate([rng.choice(axis, (500, dim)), rng.uniform(0.0, side, (100, dim))])
    expected = cell_keys(pts, side, config.ncells) @ config.strides
    assert [config.cell(p) for p in pts] == expected.tolist()


def test_half_cell_offsets_keep_incremental_rates_exact():
    # h = 0.125 and an indicator of radius h: the particles sit 1.5 h apart
    # both ways, so neither reads the other
    grid = Grid(1, 10.0, 80)
    comp = make_indicator_kernel(1.0, grid.spacing, 1, grid)
    config = Configuration([[1.0]], comp)
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
    # cells as narrow as the kernel (the origin cell: radius h/2 = 0.078) would
    # number 127^3 = 2e6 in 3-d; wider ones stay correct
    from slm.grid import MAX_CELLS

    comp = make_indicator_kernel(1.0, 0.01, 3, Grid(3, 10.0, 64))
    config = Configuration(np.random.default_rng(0).uniform(0.0, 10.0, size=(50, 3)), comp)
    assert comp.support_radius == 0.078125
    assert config.ncells == 40 and config.ncells**3 <= MAX_CELLS
    assert config.nbr.nbytes + config.members.nbytes < 20e6
    assert config.width >= comp.support_radius


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_exact_rates_blockwise_when_one_cell_holds_all(dim, monkeypatch):
    # a tiny block size of the shared pair search puts one row in each block
    import slm.grid

    monkeypatch.setattr(slm.grid, "PAIR_BLOCK", 7)
    grid = Grid(dim, 4.0, CELLS[dim])
    kernel = make_indicator_kernel(1.0, 1.5, dim, grid)
    pts = np.random.default_rng(dim).uniform(0.0, 4.0, size=(40, dim))
    config = Configuration(pts, kernel)
    assert config.ncells == 1
    assert np.allclose(config.crate[:40], oracles.pair_rates(pts, grid.side, kernel), rtol=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_start_and_sampler_draw_as_the_loops_did(dim):
    grid = Grid(dim, 4.0, CELLS[dim])
    rho0 = Field(grid, 1.5 + 3 * np.random.default_rng(dim).random(grid.shape))
    config = init_poisson_field(rho0, make_indicator_kernel(1.0, 0.3, dim, grid), run_rng(dim, 0))
    assert np.array_equal(config.positions(), oracles.poisson_field_positions(rho0, run_rng(dim, 0)))
    kernel = make_gaussian_kernel(0.3, dim, grid)
    one = kernel.sample_displacement(run_rng(dim, 1), None)
    assert len(one) == dim
    assert np.array_equal(one, oracles.sample_displacement(kernel, run_rng(dim, 1), 1)[0])
    # size=n is n successive draws, and one draw at a time reads the stream
    # as size=1 does, on a kernel with zero cells too
    for kernel in (kernel, make_indicator_kernel(1.0, 0.6, dim, grid)):
        for size in (1, 7):
            got = kernel.sample_displacement(run_rng(dim, size), size)
            ref = run_rng(dim, size)
            want = [oracles.sample_displacement(kernel, ref, 1)[0] for _ in range(size)]
            assert got.shape == (size, dim) and np.array_equal(got, want)
        rng, ref = run_rng(dim, 2), run_rng(dim, 2)
        got = [kernel.sample_displacement(rng, None) for _ in range(500)]
        want = [oracles.sample_displacement(kernel, ref, 1)[0] for _ in range(500)]
        assert np.array_equal(got, want)


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
    return Configuration(pts, params.competition), params


@pytest.mark.parametrize("dim", [1, 2])
def test_thinned_step_has_the_direct_law(dim):
    # one jump of the proposals on a fresh copy, 10 000 times, against the exact rates
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
        waits[k], kind, *pos = oracles.step_event(copy.deepcopy(config), params, rng)
        kinds.append(kind)
        if kind != "birth":
            dying.append(index[tuple(pos)])
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
    config = init_poisson(1.5, aminus, rng)
    assert bound_holds(config, params)
    t = 0.0
    for _ in range(60):
        if config.n == 0:
            break
        t, *_ = oracles.step_event(config, params, rng, t)
        assert bound_holds(config, params)
    assert config.audit() < 1e-12


def test_zero_epsilon_proposes_only_real_events(grid):
    aminus = make_indicator_kernel(5.0, 0.5, 1, grid)  # large rates that eps = 0 switches off
    params = ModelParams(0.3, unit_mass_indicator(grid, 0.5), aminus, 0.0)
    rng = run_rng(12, 0)
    config = init_poisson(2.0, aminus, rng)
    traj = run(config, params, 3.0, [3.0], rng)
    assert traj.events > 0 and traj.proposals == traj.events
    assert traj.competition_deaths == 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_zero_competition_kernel_needs_no_cell_list(dim):
    g = Grid(dim, 4.0, CELLS[dim])
    params = ModelParams(0.4, make_indicator_kernel(0.5, 0.6, dim, g), make_zero_kernel(g), 1.0)
    rng = run_rng(13, dim)
    config = init_poisson(2.0, params.competition, rng)
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
    config = Configuration(pts, aminus)
    traj = run(config, params, 50.0, [1.0, 50.0], run_rng(14, 0), keep_events=True)
    assert traj.absorbed and traj.births == 0
    assert traj.events == traj.competition_deaths == 2 and traj.n_end == 2
    # no event after the second death: the nulls that follow it tighten the bound
    assert [kind for _, kind, *_ in traj.event_log] == ["death-competition"] * 2
    assert traj.proposals > traj.events and config.crate_bound == 0.0
    assert all(len(s) == 2 for s in traj.snapshots)
    config = Configuration(pts, aminus)
    rng = run_rng(14, 1)
    oracles.step_event(config, params, rng)
    oracles.step_event(config, params, rng)
    assert config.crate_bound > 0.0 == config.crate[: config.n].max()
    assert oracles.step_event(config, params, rng) is None
    # and with no rate at all from the start
    config = Configuration([[1.0], [6.0]], aminus)
    assert config.crate_bound == 0.0
    traj = run(config, params, 50.0, [50.0], rng, keep_events=True)
    assert traj.absorbed and traj.proposals == 0 and traj.event_log == []


def test_rates_of_another_kernel_are_rejected(grid, params):
    # the configuration keeps rates of its own kernel; the model's must be the same
    config = Configuration([[5.0], [5.2]], params.competition)
    others = [
        make_indicator_kernel(2.0, 0.5, 1, grid),
        unit_mass_indicator(Grid(1, 8.0, 80), 0.5),
        make_zero_kernel(grid),
    ]
    for other in others:
        model = ModelParams(0.3, make_zero_kernel(other.grid), other)
        with pytest.raises(InvalidParameterError):
            run(config, model, 1.0, [1.0], run_rng(0, 0))
    assert config.n == 2 and config.audit() == 0.0
    # an equal tabulation on an equal grid is the same kernel
    twin = unit_mass_indicator(Grid(1, 10.0, 100), 0.5)
    run(copy.deepcopy(config), ModelParams(0.3, params.dispersal, twin), 1.0, [1.0], run_rng(0, 0))


def test_step_event_returns_a_real_event_after_null_proposals(grid):
    config, params = equivalence_case(1)
    n = config.n
    # still a bound, so still exact; a proposal is real with probability
    # 6e-10, so the first n are null for all but about 1e-8 of seeds
    loose = config.crate_bound = 1e9 * config.crate_bound
    rng = run_rng(15, 0)
    t, kind, *_ = oracles.step_event(config, params, rng, t=2.0)
    assert kind in KINDS and t > 2.0
    assert config.n == n + (1 if kind == "birth" else -1)
    # only n null proposals tighten the bound, so at least n happened
    assert config.crate_bound < loose
    assert config.audit() < 1e-12


def test_audit_tightens_the_bound(grid, params, monkeypatch):
    # at eps = 0 no proposal is null, so only the audits tighten
    rng = run_rng(16, 0)
    config = init_poisson(3.0, params.competition, rng)
    config.crate_bound += 1.0
    monkeypatch.setattr(microsim, "AUDIT_INTERVAL", 1)
    traj = run(config, params.with_epsilon(0.0), 2.0, [2.0], rng)
    assert traj.events >= 1 and config.crate_bound == config.crate[: config.n].max()


def test_audit_interval_counts_real_events(grid, params, monkeypatch):
    calls = []
    rng = run_rng(17, 0)
    config = init_poisson(3.0, params.competition, rng)
    monkeypatch.setattr(config, "audit", lambda: calls.append(1) or 0.0)
    monkeypatch.setattr(microsim, "AUDIT_INTERVAL", 7)
    traj = run(config, params, 6.0, [6.0], rng)
    assert traj.proposals > traj.events
    assert len(calls) == traj.events // 7
