"""Acceptance suite: ten end-to-end checks, one pass/fail line each.

Each criterion computes its verdict first, announces it on the real
stdout (bypassing capture so the line lands in piped logs), and only
then asserts, so every run prints a complete scoreboard.
"""
import math

import numpy as np
import pytest
from scipy import stats as sps

from oracles import unit_mass_indicator
from slm import microsim
from slm.grid import Grid
from slm.hierarchy import TruncatedState, solve_hierarchy
from slm.kernels import (
    ball_volume,
    check_homogenization,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from slm.kinetic import Field, bernoulli_solution, solve_kinetic, stability_dt
from slm.microsim import Configuration, init_poisson, run, run_ensemble, run_rng
from slm.model import ModelParams
from slm.scaling import scaled_params, vlasov_error
from slm.stats import default_pair_edges, estimate_correlations, subpoisson_diagnostic
from slm.theory import NormedHierarchyState, horizon_T, knorm_alpha, optimize_alpha


@pytest.fixture
def announce(capfd):
    def _announce(number, name, ok, detail=""):
        verdict = "PASS" if ok else "FAIL"
        tail = f"  [{detail}]" if detail else ""
        with capfd.disabled():
            print(f"criterion {number:2d} ({name}): {verdict}{tail}", flush=True)

    return _announce


def test_criterion_01_logistic_oracle_agreement(announce):
    grid = Grid(1, 10.0, 100)
    params = ModelParams(0.2, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.4))
    assert params.dispersal.mass == pytest.approx(1.0, abs=1e-12)
    assert params.competition.mass == pytest.approx(1.0, abs=1e-12)
    assert params.carrying_capacity == pytest.approx(0.8, abs=1e-12)
    times = [1.0, 2.0, 5.0, 10.0]
    snaps = solve_kinetic(Field.constant(grid, 0.1), params, 10.0, 1e-3, times)
    worst = max(
        float(np.max(np.abs(f.values - bernoulli_solution(0.1, t, params))))
        / bernoulli_solution(0.1, t, params)
        for t, f in zip(times, snaps)
    )
    ok = worst <= 1e-6
    announce(1, "homogeneous-oracle", ok, f"max rel err {worst:.2e}")
    assert ok


def test_criterion_02_critical_case_exactness(announce):
    grid = Grid(1, 10.0, 100)
    aplus = unit_mass_indicator(grid, 0.5)
    # mortality pinned to the discrete dispersal mass: exactly critical
    params = ModelParams(aplus.mass, aplus, unit_mass_indicator(grid, 0.4))
    u0 = 0.5
    times = [1.0, 2.0, 5.0, 10.0]
    snaps = solve_kinetic(Field.constant(grid, u0), params, 10.0, 1e-3, times)
    worst = 0.0
    for t, f in zip(times, snaps):
        exact = u0 / (1.0 + params.competition.mass * u0 * t)
        worst = max(worst, float(np.max(np.abs(f.values - exact))) / exact)
    ok = worst <= 1e-6
    announce(2, "critical-decay", ok, f"max rel err {worst:.2e}")
    assert ok


def test_criterion_03_bound_preservation_and_flattening(announce):
    grid = Grid(1, 10.0, 200)
    aplus = unit_mass_indicator(grid, 1.0)  # R = 1
    aminus = unit_mass_indicator(grid, 0.5)  # r = 0.5
    m = 0.6  # 1 - m/<a+> = 0.4 <= (r/R)^d = 0.5
    params = ModelParams(m, aplus, aminus)
    assert check_homogenization(params)
    q = params.carrying_capacity
    x = grid.centers()
    rho0 = Field(grid, 0.2 + 0.1 * np.sin(2 * np.pi * x / grid.side))
    delta = rho0.min
    assert 0 < delta and rho0.max < q
    times = [1.0, 5.0, 10.0, 20.0, 50.0]
    snaps = solve_kinetic(rho0, params, 50.0, 0.01, times)
    bounded = all(
        bernoulli_solution(delta, t, params) <= f.min and f.max < q
        for t, f in zip(times, snaps)
    )
    final_dist = float(np.max(np.abs(snaps[-1].values - q)))
    ok = bounded and final_dist < 1e-3
    announce(
        3, "bound-preservation", ok, f"bounds {'held' if bounded else 'broken'}, "
        f"final sup dist {final_dist:.2e}"
    )
    assert ok


def test_criterion_04_product_state_factorization(announce):
    grid = Grid(1, 10.0, 128)
    params = ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))
    x = grid.centers()
    rho0 = Field(grid, 0.4 + 0.1 * np.sin(2 * np.pi * x / grid.side))
    T, dt = 1.0, 0.01
    times = [0.25, 0.5, 0.75, 1.0]
    snaps, _ = solve_hierarchy(
        TruncatedState.poisson_like(rho0, 0.0), "mean-field", params, T, dt, times
    )
    kin = solve_kinetic(rho0, params, T, dt, times)
    scale = max(float(s.k2.max()) for s in snaps)
    defect = max(
        float(np.max(np.abs(s.k2 - np.outer(s.k1.values, s.k1.values))))
        for s in snaps
    )
    k1_err = max(
        float(np.max(np.abs(s.k1.values - f.values))) for s, f in zip(snaps, kin)
    )
    ok = defect <= 1e-6 * scale and k1_err <= 1e-8
    announce(
        4, "interaction-free-factorization", ok,
        f"pair defect {defect:.2e} (scale {scale:.2g}), order-1 err {k1_err:.2e}"
    )
    assert ok


def test_criterion_05_weak_interaction_convergence(announce):
    grid = Grid(1, 10.0, 64)
    params = ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))
    alpha_star, t_star = optimize_alpha(-0.2, params.dispersal.mass, params.competition.mass)
    assert t_star == pytest.approx(
        horizon_T(alpha_star, -0.2, params.dispersal.mass, params.competition.mass)
    )
    x = grid.centers()
    rho0 = Field(grid, 0.4 + 0.1 * np.sin(2 * np.pi * x / grid.side))
    # four snapshot times to T, at half the stability guard of max(rho0, 1) and at most T / 20
    T = 0.8 * t_star
    dt = min(0.5 * stability_dt(params, max(rho0.max, 1.0)), T / 20.0)
    report = vlasov_error(
        [1.0, 0.5, 0.25, 0.1], rho0, params, T, dt, list(np.linspace(T / 4.0, T, 4)),
        runs=0, seed=0, mode="hierarchy",
    )
    ok = all(b < a for a, b in zip(report.errors, report.errors[1:]))
    announce(
        5, "interaction-scaling-convergence", ok,
        "errors " + ", ".join(f"{e:.2e}" for e in report.errors)
    )
    assert ok


def test_criterion_06_micro_meso_agreement(announce):
    grid = Grid(1, 10.0, 100)
    params = ModelParams(0.2, unit_mass_indicator(grid, 2.0), unit_mass_indicator(grid, 1.5))
    rho0 = Field.constant(grid, 0.3)
    eps, T, runs = 0.1, 1.0, 500
    times = [0.5, 1.0]
    reference = solve_kinetic(rho0, params, T, 0.01, times)
    sparams, srho0 = scaled_params(params, rho0, eps)
    trajectories = run_ensemble(srho0, sparams, T, times, 2026, runs)
    volume = grid.side**grid.dim
    worst_z = 0.0
    for s, ref in enumerate(reference):
        per_run = np.array([len(traj.snapshots[s]) for traj in trajectories]) / volume
        mean = eps * per_run.mean()
        se = eps * per_run.std(ddof=1) / np.sqrt(runs)
        worst_z = max(worst_z, abs(mean - ref.mean) / se)
    ok = worst_z <= 3.0
    announce(6, "micro-meso-agreement", ok, f"max |z| {worst_z:.2f} over {runs} runs")
    assert ok


def test_criterion_07_clustering_dichotomy(announce):
    grid = Grid(1, 10.0, 100)
    aplus = unit_mass_indicator(grid, 0.5)
    edges = default_pair_edges(grid.side, 0.5)

    # (a) pure-dispersal regime: near-range pair correlation grows
    contact = ModelParams(0.2, aplus, make_zero_kernel(grid))
    times_a = [0.25, 0.75, 2.0]
    ens = [[] for _ in times_a]
    for ridx in range(600):
        rng = run_rng(77, ridx)
        config = init_poisson(0.5, contact.competition, rng)
        traj = run(config, contact, times_a[-1], times_a, rng)
        for s, pts in enumerate(traj.snapshots):
            ens[s].append(pts)
    g_near = []
    for t, snap_pts in zip(times_a, ens):
        est = estimate_correlations(snap_pts, grid, edges)
        g_near.append((est.pair_g[0], est.pair_se[0]))
    clustered = all(g > 1.0 + 3.0 * se for g, se in g_near)
    increasing = all(b[0] > a[0] for a, b in zip(g_near, g_near[1:]))

    # (b) dominated-competition regime: a sub-Poissonian witness survives
    competition = ModelParams(0.2, aplus, aplus)  # a+ <= theta a- with theta = 1
    alpha_up = -0.2  # theta e^{alpha*} < 1
    _, t_star = optimize_alpha(alpha_up, aplus.mass, aplus.mass)
    kappa = 0.5
    assert kappa <= np.exp(-alpha_up)  # initial Poisson state is admissible
    T = 0.8 * t_star
    times_b = list(np.linspace(T / 3.0, T, 3))
    ens_b = [[] for _ in times_b]
    for ridx in range(600):
        rng = run_rng(78, ridx)
        config = init_poisson(kappa, competition.competition, rng)
        traj = run(config, competition, T, times_b, rng)
        for s, pts in enumerate(traj.snapshots):
            ens_b[s].append(pts)
    witnesses = []
    witnessed = True
    for t, snap_pts in zip(times_b, ens_b):
        est = estimate_correlations(snap_pts, grid, edges)
        report = subpoisson_diagnostic(est, C=10.0)
        witnesses.append(report.minimal_C)
        witnessed &= subpoisson_diagnostic(est, C=report.minimal_C + 1e-9).passed

    ok = clustered and increasing and witnessed
    announce(
        7, "clustering-dichotomy", ok,
        f"near-range g {', '.join(f'{g:.2f}' for g, _ in g_near)}; "
        f"witness C up to {max(witnesses):.2f}"
    )
    assert ok


def test_criterion_08_simulator_micro_checks(announce, monkeypatch):
    grid = Grid(1, 10.0, 128)

    # single-particle death clock over 1e4 independent seeds
    m = 0.5
    dead = ModelParams(m, make_zero_kernel(grid), make_zero_kernel(grid))
    waits = np.empty(10_000)
    for s in range(waits.size):
        rng = run_rng(41, s)
        config = Configuration([[5.0]], dead.competition)
        # the first event's row: its time, then its kind and position
        waits[s], *_ = run(config, dead, math.inf, [], rng, keep_events=True).event_log[0]
    se = waits.std(ddof=1) / np.sqrt(waits.size)
    clock_ok = abs(waits.mean() - 1.0 / m) <= 3.0 * se

    # offspring displacements vs the normalized kernel, chi-square at 0.001
    kern = make_tabulated_kernel([0.0, 0.5, 1.0], [2.0, 1.0, 0.0], 1, grid)
    rng = np.random.default_rng(5)
    d = kern.sample_displacement(rng, 100_000)[:, 0]
    counts = np.bincount(grid.offset_index(d), minlength=grid.cells)
    p = kern.values / kern.values.sum()
    pos = p > 0
    in_support = counts[~pos].sum() == 0
    _, pval = sps.chisquare(counts[pos], 100_000 * p[pos])
    chi_ok = in_support and pval > 0.001

    # incremental competitive-rate cache never drifts
    params = ModelParams(0.2, unit_mass_indicator(grid, 0.5), unit_mass_indicator(grid, 0.5))
    drift = 0.0
    monkeypatch.setattr(microsim, "AUDIT_INTERVAL", 100)
    for ridx in range(5):
        rng = run_rng(42, ridx)
        config = init_poisson(2.0, params.competition, rng)
        traj = run(config, params, 20.0, [20.0], rng)
        drift = max(drift, traj.max_audit_drift, config.audit())
    audit_ok = drift <= 1e-9

    ok = clock_ok and chi_ok and audit_ok
    announce(
        8, "simulator-micro-checks", ok,
        f"clock dev {abs(waits.mean() - 1 / m) / se:.2f} se, chi2 p {pval:.3f}, "
        f"audit drift {drift:.1e}"
    )
    assert ok


def test_criterion_09_integrator_order_and_positivity(announce):
    grid = Grid(1, 10.0, 128)
    params = ModelParams(0.2, unit_mass_indicator(grid, 0.8), unit_mass_indicator(grid, 0.6))
    exact = bernoulli_solution(0.1, 2.0, params)
    errs = [
        abs(solve_kinetic(Field.constant(grid, 0.1), params, 2.0, dt, [2.0])[0].mean - exact)
        for dt in (0.04, 0.02)
    ]
    ratio = errs[0] / errs[1]
    order_ok = 12.0 <= ratio <= 20.0

    rng = np.random.default_rng(9)
    small = Grid(1, 10.0, 32)
    sparams = ModelParams(0.2, unit_mass_indicator(small, 0.8), unit_mass_indicator(small, 0.6))
    floor = 0.0
    for _ in range(200):
        rho0 = Field(small, rng.uniform(0.0, 2.0, small.shape))
        dt = 0.5 * stability_dt(sparams, rho0.max)
        snaps = solve_kinetic(rho0, sparams, 1.0, dt, [0.5, 1.0])
        for f in snaps:
            floor = min(floor, f.min / max(f.max, 1.0))
    positivity_ok = floor >= -1e-12

    ok = order_ok and positivity_ok
    announce(
        9, "integrator-order-positivity", ok,
        f"dt-halving ratio {ratio:.1f}, worst scaled min {floor:.1e}"
    )
    assert ok


def test_criterion_10_theory_utilities(announce):
    # optimizer vs brute grid search
    rng = np.random.default_rng(1234)
    opt_dev = 0.0
    for _ in range(10):
        alpha_up = rng.uniform(-1.0, 1.0)
        ap = rng.uniform(0.2, 3.0)
        am = rng.uniform(0.2, 3.0)
        _, t_max = optimize_alpha(alpha_up, ap, am)
        grid_alpha = np.arange(alpha_up - 10.0, alpha_up, 1e-4)
        t_grid = (alpha_up - grid_alpha) / (ap + am * np.exp(-grid_alpha))
        opt_dev = max(opt_dev, abs(t_max - t_grid.max()))
    opt_ok = opt_dev <= 1e-6

    # flattening criterion vs the closed form for indicator pairs
    g = Grid(1, 4.0, 512)
    agree = 0
    checked = 0
    while checked < 100:
        r = rng.uniform(0.2, 0.9)
        R = rng.uniform(r, 1.2)
        mass_plus = rng.uniform(0.5, 2.0) * ball_volume(1, R)
        m = rng.uniform(0.0, 0.999) * mass_plus
        gap = (r / R) - (1.0 - m / mass_plus)
        if abs(gap) < 0.05:  # skip the grid-resolution band at the threshold
            continue
        aplus = make_indicator_kernel(mass_plus / ball_volume(1, R), R, 1, g)
        aminus = make_indicator_kernel(rng.uniform(0.5, 2.0), r, 1, g)
        agree += check_homogenization(ModelParams(m, aplus, aminus)) == (gap > 0)
        checked += 1
    homog_ok = agree == 100

    # norm embedding is monotone in the weight on 100 random states
    mono_ok = True
    for _ in range(100):
        qs = tuple(enumerate(rng.uniform(1e-3, 10.0, size=4)))
        s = NormedHierarchyState(qs)
        a = rng.uniform(-3.0, 3.0)
        step = rng.uniform(1e-4, 2.0)
        mono_ok &= knorm_alpha(s, a - step) <= knorm_alpha(s, a) + 1e-12

    ok = opt_ok and homog_ok and mono_ok
    announce(
        10, "theory-utilities", ok,
        f"opt dev {opt_dev:.1e}, closed-form agreement {agree}/100, "
        f"monotonicity {'held' if mono_ok else 'broken'}"
    )
    assert ok
