"""Weak-interaction scaling experiment: densities of order 1/eps,
competition of order eps, time unscaled.  Rescaled observations are
compared against the kinetic solution to measure convergence as
eps -> 0.  Every level runs at the step, snapshot times and run count
it is given, as ``slm kinetic``, ``slm hierarchy`` and ``slm simulate``
do with the same config.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .grid import Field
from .hierarchy import TruncatedState, require_pair_grid, solve_hierarchy
from .kinetic import solve_kinetic
from .microsim import DEFAULT_POPULATION_CAP, run_ensemble
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
    mc_se: list  # per-eps Monte Carlo SE of the rescaled density (microsim mode)


def _require_eps(eps: float):
    if not 0.0 < eps <= 1.0:
        raise InvalidParameterError(f"eps must lie in (0, 1], got {eps}")


def scaled_params(params: ModelParams, rho0: Field, eps: float) -> tuple:
    """Scale competition by eps and the initial density by 1/eps; the
    dispersal kernel and mortality are untouched.  Composes
    multiplicatively in eps."""
    _require_eps(eps)
    return params.with_epsilon(params.epsilon * eps), Field(rho0.grid, rho0.values / eps)


def vlasov_error(
    eps_list,
    rho0: Field,
    params: ModelParams,
    T: float,
    dt: float,
    snapshot_times,
    runs: int,
    seed: int,
    mode: str = "hierarchy",
    closure_rule: str = "mean-field",
    population_cap: int = DEFAULT_POPULATION_CAP,
) -> ScalingReport:
    """For each eps, evolve the scaled system, rescale the order-1
    density by eps, and take the sup over snapshot times of the max-cell
    discrepancy against the kinetic solution.

    The kinetic reference and every hierarchy solve step at ``dt``, each
    checked against the stability guard by :func:`integrate_rk4`; the
    microsim mode averages ``runs`` runs.  ``eps_list``, the model's
    epsilon, ``snapshot_times`` (at least one), the grid (hierarchy mode)
    and ``runs`` (microsim mode, at least 2; hierarchy mode ignores it)
    are checked before the kinetic reference is solved.  T is not checked
    against the theory's existence horizon T*.
    """
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidParameterError("eps_list must be strictly decreasing")
    if mode not in ("microsim", "hierarchy"):
        raise InvalidParameterError(f"unknown mode {mode!r}")
    for eps in eps_list:
        _require_eps(eps)
    if params.epsilon != 1:
        # microsim would scale the model's epsilon by eps and the hierarchy would not
        raise InvalidParameterError(
            f"scaling compares against the eps -> 0 limit of the model at epsilon = 1, "
            f"got epsilon = {params.epsilon}"
        )
    if len(snapshot_times) == 0:
        raise InvalidParameterError("scaling needs at least one snapshot time to compare at")
    if mode == "hierarchy":
        require_pair_grid(rho0.grid)
    elif runs < 2:
        raise InvalidParameterError("density estimation needs at least 2 runs")

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
            # compared at the snapshot times only, so a run stops after the last
            trajectories = run_ensemble(
                srho0, sparams, max(snapshot_times), snapshot_times, seed, runs,
                population_cap=population_cap,
            )
            err = 0.0
            se = 0.0
            for s, ref in enumerate(reference):
                est = density_estimate([traj.snapshots[s] for traj in trajectories], rho0.grid)
                err = max(err, float(np.max(np.abs(eps * est.mean - ref.values))))
                se = max(se, eps * float(np.max(est.se)))
            ses.append(se)
        errors.append(err)
    return ScalingReport(eps_list, errors, ses)
