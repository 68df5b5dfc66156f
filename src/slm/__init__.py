"""Spatial logistic model: exact stochastic simulation of a
birth/death/competition point process on a torus, its truncated
correlation-function dynamics, and the nonlocal kinetic limit."""

__version__ = "0.1.0"

import importlib

from .grid import Grid
from .kernels import (
    Kernel,
    check_homogenization,
    domination_theta,
    make_gaussian_kernel,
    make_indicator_kernel,
    make_tabulated_kernel,
    make_zero_kernel,
)
from .kinetic import (
    BernoulliParams,
    Field,
    bernoulli_q,
    bernoulli_solution,
    convolve_periodic,
    kinetic_rhs,
    solve_kinetic,
)
from .model import ModelParams

# names of the simulator and of the theory utilities, imported on first use
# (PEP 562), so that a command that needs neither does not load them
_LAZY = {
    **dict.fromkeys(
        ("Configuration", "init_poisson", "init_poisson_field", "run", "run_rng"), "microsim"
    ),
    **dict.fromkeys(
        ("NormedHierarchyState", "check_initial_space", "horizon_T", "knorm_alpha", "optimize_alpha"),
        "theory",
    ),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "Configuration",
    "Grid",
    "Kernel",
    "Field",
    "ModelParams",
    "BernoulliParams",
    "NormedHierarchyState",
    "bernoulli_q",
    "bernoulli_solution",
    "check_homogenization",
    "check_initial_space",
    "convolve_periodic",
    "domination_theta",
    "horizon_T",
    "init_poisson",
    "init_poisson_field",
    "kinetic_rhs",
    "knorm_alpha",
    "make_gaussian_kernel",
    "make_indicator_kernel",
    "make_tabulated_kernel",
    "make_zero_kernel",
    "optimize_alpha",
    "run",
    "run_rng",
    "solve_kinetic",
]
