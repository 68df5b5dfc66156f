"""Weak-interaction scaling experiment: densities of order 1/eps,
competition of order eps, time unscaled.  Rescaled observations are
compared against the kinetic solution to measure convergence as
eps -> 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HorizonViolationError, InvalidParameterError
from .hierarchy import TruncatedState, require_pair_grid, solve_hierarchy
from .kinetic import Field, solve_kinetic, stability_dt
from .microsim import run_ensemble
from .model import ModelParams
from .stats import density_estimate

@dataclass
class ScalingReport:
    """Per-eps sup-norm discrepancy of the rescaled order-1 density
    against the kinetic solution.  The measured norm is the order-1
    (and, in hierarchy mode, implicitly order-2) truncation surrogate of
    the full hierarchy norm.
    """

    epsilons: list
    errors: list
    mode: str
    mc_se: list  # per-eps Monte Carlo SE of the rescaled density (microsim mode)


def scaled_params(params: ModelParams, rho0: Field, eps: float) -> tuple:
    """Scale competition by eps and the initial density by 1/eps; the
    dispersal kernel and mortality are untouched.  Composes
    multiplicatively in eps."""
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(f"eps must lie in (0, 1], got {eps}")
    return params.with_epsilon(params.epsilon * eps), Field(rho0.grid, rho0.values / eps)


def vlasov_error(
    eps_list,
    rho0: Field,
    params: ModelParams,
    T: float,
    runs: int,
    seed: int,
    mode: str = "hierarchy",
    snapshot_times=None,
    T_star: float | None = None,
    closure_rule: str = "mean-field",
    population_cap: int = 1_000_000,
) -> ScalingReport:
    """For each eps, evolve the scaled system, rescale the order-1
    density by eps, and take the sup over snapshot times of the max-cell
    discrepancy against the kinetic solution."""
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    if mode not in ("microsim", "hierarchy"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if mode == "hierarchy":
        require_pair_grid(rho0.grid)  # before the kinetic reference is solved
    if T_star is not None and T >= T_star:
        raise HorizonViolationError(f"T={T} must stay below the horizon T*={T_star}")
    if snapshot_times is None:
        snapshot_times = list(np.linspace(T / 4.0, T, 4))
    dt = min(0.5 * stability_dt(params, max(rho0.max, 1.0)), T / 20.0)

    reference = solve_kinetic(rho0, params, T, dt, snapshot_times)
    errors, ses = [], []
    for eps in eps_list:
        if mode == "hierarchy":
            state0 = TruncatedState.poisson_like(rho0, eps)
            snaps, _ = solve_hierarchy(state0, closure_rule, params, T, dt, snapshot_times)
            err = max(
                float(np.max(np.abs(s.k1.values - ref.values)))
                for s, ref in zip(snaps, reference)
            )
            ses.append(0.0)
        else:
            sparams, srho0 = scaled_params(params, rho0, eps)
            trajectories = run_ensemble(
                srho0, sparams, T, snapshot_times, seed, runs, population_cap=population_cap
            )
            err = 0.0
            se = 0.0
            for s, ref in enumerate(reference):
                est = density_estimate([traj.snapshots[s] for traj in trajectories], rho0.grid)
                err = max(err, float(np.max(np.abs(eps * est.mean - ref.values))))
                se = max(se, eps * float(np.max(est.se)))
            ses.append(se)
        errors.append(err)
    return ScalingReport(eps_list, errors, mode, ses)
