"""Spatial logistic model: exact stochastic simulation of a
birth/death/competition point process on a torus, its truncated
correlation-function dynamics, and the nonlocal kinetic limit."""

__version__ = "0.1.0"

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
from .microsim import Configuration, init_poisson, init_poisson_field, run, run_rng
from .model import ModelParams
from .theory import (
    NormedHierarchyState,
    check_initial_space,
    horizon_T,
    knorm_alpha,
    optimize_alpha,
)

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
