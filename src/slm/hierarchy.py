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
is restricted to 1-d tori.  A :class:`TruncatedState` holds one grid,
k1's: k2 is a plain M x M array on it, k2[i, j] = k2(x_i, x_j).

The convolutions a+ * k1, a+ * k2 and a- * k2 (in the first argument of
k2) use the kernels' cached FFTs; a+ * k2 and a- * k2 share one transform
of k2.  A closure never builds the M^3 tensor
k3: it returns its contraction with a-, so one right-hand side needs
O(M^2) memory and M >= 1024 is feasible.  The only M x M kernel table
is the gather a(x_i - x_j) for the pointwise terms.  A solve computes
every right-hand side in its output and the buffers of
:func:`rhs_k2_work` (the spectral work and one M x M array), allocated
once, so a step makes no fresh M x M array: the late scratch of
:func:`rhs_k2` lives in the spent a+ spectrum.  With the RK4 state and
stages, a two-snapshot solve holds ten M x M arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosureSingularityError, InvalidParameterError
from .grid import Field, Grid, require_same_grid
from .kernels import Kernel, convolve_spectra, spectral_work
from .kinetic import integrate_rk4
from .model import CLOSURES, ModelParams

KIRKWOOD_FLOOR_FACTOR = 1e-8


def require_pair_grid(grid: Grid):
    """Reject grids that pair functions do not support, before any M x M
    array is built."""
    if grid.dim != 1:
        raise InvalidParameterError("pair functions are gridded for 1-d tori only")


def symmetry_defect(k2: np.ndarray, out: np.ndarray | None = None) -> float:
    """max |k2 - k2.T|, computed in ``out`` (allocated when not given)."""
    return float(np.abs(np.subtract(k2, k2.T, out=out), out=out).max())


@dataclass
class TruncatedState:
    """(k1, k2) with the interaction scaling epsilon.  k2 is the symmetric
    pair function on k1's grid (1-d only), an M x M float array held
    without a copy."""

    k1: Field
    k2: np.ndarray
    epsilon: float

    def __post_init__(self):
        require_pair_grid(self.grid)
        self.k2 = np.asarray(self.k2, dtype=float)
        if self.k2.shape != (self.grid.cells, self.grid.cells):
            raise InvalidParameterError(f"pair-function shape {self.k2.shape} does not match grid")

    @classmethod
    def poisson_like(cls, k1: Field, epsilon: float) -> "TruncatedState":
        require_pair_grid(k1.grid)
        return cls(k1, np.outer(k1.values, k1.values), epsilon)

    @property
    def grid(self) -> Grid:
        return self.k1.grid


# -- closures ------------------------------------------------------------


def closure_contraction(
    rule: str,
    state: TruncatedState,
    competition: Kernel,
    competition_k2: np.ndarray | None,
    work: tuple,
) -> np.ndarray:
    """t1[i, j] = h sum_z a-(x_i - x_z) k3(x_i, x_j, x_z) for the closure
    ``rule``, contracted without forming k3 (O(M^2) memory).  Mean-field
    reads a- * k2 (in the first argument) from ``competition_k2``, which
    Kirkwood ignores.  ``work`` holds two M x M arrays; the result is the
    first.

    mean-field: k3 = (k2(x,y) k1(z) + k2(x,z) k1(y) + k2(y,z) k1(x)) / 3.
    kirkwood:   k3 = k2(x,y) k2(y,z) k2(x,z) / (k1(x) k1(y) k1(z)), guarded
                by a density floor below which it errors out.
    """
    if rule not in CLOSURES:
        raise InvalidParameterError(f"unknown closure {rule!r}; choose from {CLOSURES}")
    k1 = state.k1.values
    k2 = state.k2
    t1, w = work
    # each product and sum of the direct expressions, in their order
    cm = np.multiply(competition.grid.spacing, competition.pair_values, out=t1)
    if rule == "mean-field":
        # (k2 a-*k1[:, None] + own[:, None] k1[None, :] + k1[:, None] a-*k2) / 3
        own = np.einsum("ij,ij->i", cm, k2)
        np.multiply(k2, competition.convolve(k1)[:, None], out=t1)
        np.add(t1, np.multiply(own[:, None], k1[None, :], out=w), out=t1)
        np.add(t1, np.multiply(k1[:, None], competition_k2, out=w), out=t1)
        return np.divide(t1, 3.0, out=t1)
    top = float(k1.max())
    if not top > 0.0:
        raise ClosureSingularityError(f"kirkwood closure: k1 has no positive value (max {top:.3g})")
    floor = KIRKWOOD_FLOOR_FACTOR * top
    if float(k1.min()) < floor or floor == 0.0:
        raise ClosureSingularityError(f"kirkwood closure needs k1 >= {floor:.3g} everywhere")
    # k2 (((cm k2) / k1[None, :]) @ k2) / outer(k1, k1)
    np.divide(np.multiply(cm, k2, out=t1), k1[None, :], out=t1)
    np.multiply(k2, np.matmul(t1, k2, out=w), out=w)
    return np.divide(w, np.outer(k1, k1, out=t1), out=t1)


# -- right-hand sides ----------------------------------------------------


def rhs_k1(state: TruncatedState, params: ModelParams, out: np.ndarray | None = None) -> Field:
    """First truncated equation, written to ``out`` (allocated when not
    given); with product k2 it reduces to the kinetic right-hand side for
    any epsilon (the interaction part vanishes at order one).
    """
    require_same_grid(state.grid, params.grid)
    k1 = state.k1.values
    k2 = state.k2
    pair_term = state.grid.spacing * np.einsum("ij,ij->i", params.competition.pair_values, k2)
    loss = -params.mortality * k1 - pair_term
    return Field(state.grid, np.add(loss, params.dispersal.convolve(k1), out=out))


def rhs_k2_work(params: ModelParams) -> tuple:
    """The buffers :func:`rhs_k2` computes in besides its output: the
    :func:`spectral_work` of both kernels on a pair function (two
    half-spectrum rows and two result rows) and one M x M array.
    Kirkwood touches only the a+ rows."""
    shape = (params.grid.cells, params.grid.cells)
    return spectral_work(params.spectra, params.grid, shape), np.empty(shape)


def rhs_k2(
    state: TruncatedState,
    closure_rule: str,
    params: ModelParams,
    out: np.ndarray | None = None,
    work: tuple | None = None,
) -> np.ndarray:
    """Second truncated equation with the chosen closure for k3, written
    to ``out`` and computed in ``out`` and ``work`` (from
    :func:`rhs_k2_work`), each allocated when not given; returns ``out``,
    the M x M derivative of k2.  ``out`` serves as scratch before it
    takes the result, so it must not overlap the state or ``work``.

    The output is exactly symmetric in floating point: every asymmetric
    intermediate enters as (T + T.T).
    """
    require_same_grid(state.grid, params.grid)
    spectral, w1 = work or rhs_k2_work(params)
    k1 = state.k1.values
    k2 = state.k2
    if out is None:
        out = np.empty_like(k2)
    elif any(np.may_share_memory(out, a) for a in (k1, k2, w1, *spectral)):
        raise InvalidParameterError("rhs_k2 output must not overlap the state or the work buffers")
    if symmetry_defect(k2, w1) > 0:
        raise InvalidParameterError("k2 must be symmetric")
    spec, conv = spectral
    # int a+(x_i - w) k2(w, x_j) dw; mean-field also takes a- * k2 from the same transform
    if closure_rule == "mean-field":
        competition_k2, s1 = convolve_spectra(params.spectra, params.grid, k2, spectral)
    else:
        # a+ alone, in the a+ rows; kirkwood never touches the a- rows
        competition_k2 = None
        s1 = convolve_spectra(params.spectra[1:], params.grid, k2, (spec[1:], conv[1:]))[0]
    # int a-(z - x_i) k3(x_i, x_j, z) dz
    t1 = closure_contraction(closure_rule, state, params.competition, competition_k2, (w1, out))

    # the spent a+ spectrum, (M/2 + 1) M complex values, holds an M x M scratch array
    w3 = spec[1].reshape(-1).view(float)[: k2.size].reshape(k2.shape)
    # vpart = -2 m k2 - (t1 + t1.T) + (s1 + s1.T)
    vpart = np.multiply(-2.0 * params.mortality, k2, out=out)
    np.subtract(vpart, np.add(t1, t1.T, out=w3), out=vpart)
    np.add(vpart, np.add(s1, s1.T, out=w3), out=vpart)
    # bpart = -2 a-(x_i - x_j) k2 + a+(x_i - x_j) (k1(x_i) + k1(x_j))
    bpart = np.multiply(np.multiply(-2.0, params.competition.pair_values, out=w1), k2, out=w1)
    pair_sum = np.add(k1[:, None], k1[None, :], out=w3)
    np.add(bpart, np.multiply(params.dispersal.pair_values, pair_sum, out=w3), out=bpart)
    return np.add(vpart, np.multiply(state.epsilon, bpart, out=bpart), out=out)


# -- time stepping -------------------------------------------------------


def solve_hierarchy(
    state0: TruncatedState,
    closure_rule: str,
    params: ModelParams,
    horizon: float,
    dt: float,
    snapshot_times,
) -> tuple:
    """RK4 on the coupled (k1, k2) system (:func:`integrate_rk4`), which
    checks dt against the kinetic guard at the witness C = max(max k1,
    sqrt(max k2)) of the current state before every step.

    Returns (snapshots, diagnostics): one TruncatedState per requested
    time, and the largest symmetry defect of k2 over the snapshots.  With
    even kernels every stage sums exactly symmetric arrays, so k2 stays
    symmetric to the bit; any asymmetry fails the next :func:`rhs_k2`,
    and the last step ends at a snapshot.
    """
    require_same_grid(state0.grid, params.grid)
    eps = state0.epsilon
    grid = state0.grid

    def state(y):
        return TruncatedState(Field(grid, y[0]), y[1], eps)

    work = rhs_k2_work(params)

    def rhs(y, out):
        st = state(y)
        rhs_k1(st, params, out[0])
        rhs_k2(st, closure_rule, params, out[1], work)

    values = integrate_rk4((state0.k1.values, state0.k2), rhs, horizon, dt, snapshot_times, params)
    snaps = [state(y) for y in values]
    drift = max((symmetry_defect(st.k2, work[1]) for st in snaps), default=0.0)
    return snaps, {"max_symmetry_drift": drift}
