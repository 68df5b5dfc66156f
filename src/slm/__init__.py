"""Spatial logistic model: exact stochastic simulation of a
birth/death/competition point process on a torus, its truncated
correlation-function dynamics, and the nonlocal kinetic limit."""

__version__ = "0.1.0"

import importlib

# module -> the public names it exports, each imported on first use
# (PEP 562), so that a command loads only the modules it needs
_EXPORTS = {
    "grid": ("Field", "Grid"),
    "kernels": ("Kernel", "check_homogenization", "domination_theta", "make_gaussian_kernel",
                "make_indicator_kernel", "make_tabulated_kernel", "make_zero_kernel"),
    "kinetic": ("bernoulli_solution", "convolve_periodic", "kinetic_rhs", "solve_kinetic"),
    "model": ("ModelParams",),
    "microsim": ("Configuration", "init_poisson", "init_poisson_field", "run", "run_rng"),
    "theory": ("NormedHierarchyState", "check_initial_space", "horizon_T", "knorm_alpha",
               "optimize_alpha"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
