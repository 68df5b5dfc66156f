"""Truncated correlation dynamics for orders n = 1, 2.

The renormalized generator splits into an interaction-free part V and an
interaction part scaled by epsilon (V + eps*B):

  dk1/dt (x)   = -m k1(x) - int a-(x-y) k2(x,y) dy + (a+ * k1)(x)

  dk2/dt (x,y) = -2m k2(x,y)
                 - int [a-(z-x) + a-(z-y)] k3(x,y,z) dz
                 + int [a+(x-w) k2(w,y) + a+(y-w) k2(x,w)] dw
                 + eps * [ -2 a-(x-y) k2(x,y) + a+(x-y)(k1(x) + k1(y)) ]

with k3 supplied by a pluggable closure.  At eps = 0 the system is the
truncated Vlasov hierarchy: products k2 = k1 (x) k1 stay products and k1
obeys the kinetic equation.  Pair functions are gridded, so this module
is restricted to 1-d tori.

The convolutions a+ * k1, a+ * k2 and a- * k2 (in the first argument of
k2) use the kernel's cached FFT.  A closure never builds the M^3 tensor
k3: it returns its contraction with a-, so one right-hand side needs
O(M^2) memory and M >= 1024 is feasible.  The only M x M kernel table
is the gather a(x_i - x_j) for the pointwise terms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ClosureSingularityError, InvalidParameterError
from .grid import Grid, require_same_grid
from .kernels import Kernel
from .kinetic import Field, integrate_rk4, stability_dt
from .model import ModelParams

CLOSURES = ("mean-field", "kirkwood")
KIRKWOOD_FLOOR_FACTOR = 1e-8


def require_pair_grid(grid: Grid):
    """Reject grids that pair functions do not support, before any M x M
    array is built."""
    if grid.dim != 1:
        raise InvalidParameterError("pair functions are gridded for 1-d tori only")


@dataclass
class Field2:
    """Symmetric two-point function on the grid (1-d only)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        require_pair_grid(self.grid)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.cells, self.grid.cells):
            raise InvalidParameterError(f"pair-function shape {v.shape} does not match grid")
        self.values = v

    @classmethod
    def product(cls, k1: Field) -> "Field2":
        return cls(k1.grid, np.outer(k1.values, k1.values))

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))


@dataclass
class TruncatedState:
    """(k1, k2) with the interaction scaling epsilon."""

    k1: Field
    k2: Field2
    epsilon: float

    def __post_init__(self):
        require_same_grid(self.k1.grid, self.k2.grid)

    @classmethod
    def poisson_like(cls, k1: Field, epsilon: float) -> "TruncatedState":
        require_pair_grid(k1.grid)
        return cls(k1, Field2.product(k1), epsilon)

    @property
    def grid(self) -> Grid:
        return self.k1.grid

    @property
    def witness_C(self) -> float:
        """Grid witness for the sub-Poissonian bound at orders <= 2."""
        return max(self.k1.max, float(np.sqrt(max(self.k2.values.max(), 0.0))))


# -- closures ------------------------------------------------------------


def _pair_values(kernel: Kernel) -> np.ndarray:
    """A[i, j] = a(x_i - x_j) on the 1-d pair grid: a read-only sliding-window
    view over two copies of the tabulation (row i reads it backwards from i)."""
    m = kernel.grid.cells
    v = kernel.values
    return sliding_window_view(np.concatenate((v, v)), m)[1 : m + 1, ::-1]


def closure_contraction(rule: str, state: TruncatedState, competition: Kernel) -> np.ndarray:
    """t1[i, j] = h sum_z a-(x_i - x_z) k3(x_i, x_j, x_z) for the closure
    ``rule``, contracted without forming k3 (O(M^2) memory).

    mean-field: k3 = (k2(x,y) k1(z) + k2(x,z) k1(y) + k2(y,z) k1(x)) / 3.
    kirkwood:   k3 = k2(x,y) k2(y,z) k2(x,z) / (k1(x) k1(y) k1(z)), guarded
                by a density floor below which it errors out.
    """
    if rule not in CLOSURES:
        raise InvalidParameterError(f"unknown closure {rule!r}; choose from {CLOSURES}")
    k1 = state.k1.values
    k2 = state.k2.values
    cm = competition.grid.spacing * _pair_values(competition)
    if rule == "mean-field":
        own = np.einsum("ij,ij->i", cm, k2)
        return (
            k2 * competition.convolve(k1)[:, None]
            + own[:, None] * k1[None, :]
            + k1[:, None] * competition.convolve(k2)
        ) / 3.0
    floor = KIRKWOOD_FLOOR_FACTOR * max(float(k1.max()), 0.0)
    if float(k1.min()) < floor or floor == 0.0:
        raise ClosureSingularityError(f"kirkwood closure needs k1 >= {floor:.3g} everywhere")
    return k2 * (((cm * k2) / k1[None, :]) @ k2) / np.outer(k1, k1)


# -- right-hand sides ----------------------------------------------------


def rhs_k1(state: TruncatedState, params: ModelParams) -> Field:
    """First truncated equation; with product k2 it reduces to the kinetic
    right-hand side for any epsilon (the interaction part vanishes at
    order one).
    """
    require_same_grid(state.grid, params.grid)
    k1 = state.k1.values
    k2 = state.k2.values
    pair_term = state.grid.spacing * np.einsum("ij,ij->i", _pair_values(params.competition), k2)
    return Field(state.grid, -params.mortality * k1 - pair_term + params.dispersal.convolve(k1))


def rhs_k2(state: TruncatedState, closure_rule: str, params: ModelParams) -> Field2:
    """Second truncated equation with the chosen closure for k3.

    The output is exactly symmetric in floating point: every asymmetric
    intermediate enters as (T + T.T).
    """
    require_same_grid(state.grid, params.grid)
    if state.k2.symmetry_defect() > 0:
        raise InvalidParameterError("k2 must be symmetric")
    k1 = state.k1.values
    k2 = state.k2.values
    # int a-(z - x_i) k3(x_i, x_j, z) dz
    t1 = closure_contraction(closure_rule, state, params.competition)
    # int a+(x_i - w) k2(w, x_j) dw
    s1 = params.dispersal.convolve(k2)

    vpart = -2.0 * params.mortality * k2 - (t1 + t1.T) + (s1 + s1.T)
    bpart = (
        -2.0 * _pair_values(params.competition) * k2
        + _pair_values(params.dispersal) * (k1[:, None] + k1[None, :])
    )
    return Field2(state.grid, vpart + state.epsilon * bpart)


# -- time stepping -------------------------------------------------------


def solve_hierarchy(
    state0: TruncatedState,
    closure_rule: str,
    params: ModelParams,
    horizon: float,
    dt: float,
    snapshot_times,
) -> tuple:
    """RK4 on the coupled (k1, k2) system (:func:`integrate_rk4`), with
    the kinetic guard evaluated at the witness C of the current state.

    k2 is re-symmetrized after every step and the pre-symmetrization
    drift is logged.  Returns (snapshots, diagnostics) where snapshots is
    one TruncatedState per requested time and diagnostics records the
    maximal symmetry drift per step.
    """
    require_same_grid(state0.grid, params.grid)
    eps = state0.epsilon
    grid = state0.grid

    def state(y):
        return TruncatedState(Field(grid, y[0]), Field2(grid, y[1]), eps)

    def rhs(y):
        st = state(y)
        return rhs_k1(st, params).values, rhs_k2(st, closure_rule, params).values

    max_drift = 0.0

    def symmetrize(y):
        nonlocal max_drift
        v1, v2 = y
        max_drift = max(max_drift, float(np.max(np.abs(v2 - v2.T))))
        return v1, 0.5 * (v2 + v2.T)

    snaps = integrate_rk4(
        (state0.k1.values, state0.k2.values),
        rhs,
        horizon,
        dt,
        snapshot_times,
        lambda y: stability_dt(params, state(y).witness_C),
        symmetrize,
    )
    return [state(y) for y in snaps], {"max_symmetry_drift": max_drift}
