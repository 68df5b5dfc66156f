"""Mesoscopic solver: the nonlocal logistic kinetic equation on the
periodic grid, and the exact homogeneous (Bernoulli) dynamics used as an
analytic oracle.

    d rho/dt = -m rho - rho (a- * rho) + (a+ * rho)

with * the circular convolution on the torus.  Carrying capacities and
equilibria are always computed from the *discrete* kernel masses so that
``kinetic_rhs`` vanishes at the discrete equilibrium to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, InvalidParameterError
from .grid import Grid, require_same_grid
from .kernels import Kernel
from .model import ModelParams


@dataclass
class Field:
    """Grid-sampled density (one value per cell, nonnegative)."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise InvalidParameterError(
                f"field shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        self.values = v

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.shape, float(value)))

    @property
    def max(self) -> float:
        return float(self.values.max())

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def mean(self) -> float:
        return float(self.values.mean())


# -- homogeneous (Bernoulli) dynamics ------------------------------------


@dataclass(frozen=True)
class BernoulliParams:
    mortality: float
    aplus_mass: float
    aminus_mass: float

    def __post_init__(self):
        if min(self.mortality, self.aplus_mass, self.aminus_mass) < 0:
            raise InvalidParameterError("Bernoulli coefficients must be nonnegative")

    @classmethod
    def from_model(cls, params: ModelParams) -> "BernoulliParams":
        """Discrete masses, with competition scaled by epsilon."""
        return cls(params.mortality, params.dispersal.mass, params.epsilon * params.competition.mass)


def bernoulli_q(p: BernoulliParams) -> float:
    """Carrying capacity (<a+> - m)/<a->; may be <= 0, caller checks."""
    if p.aminus_mass <= 0:
        raise InvalidParameterError("carrying capacity undefined for <a-> = 0")
    return (p.aplus_mass - p.mortality) / p.aminus_mass


def bernoulli_solution(u0: float, t, p: BernoulliParams):
    """Closed-form solution of du/dt = (<a+> - m) u - <a-> u^2.

    Supercritical (m < <a+>): logistic relaxation to q.  Critical
    (m = <a+>): algebraic decay u0/(1 + <a-> u0 t).  Subcritical: the same
    closed form with q < 0, an exponential-decay branch.  <a-> = 0 reduces
    to pure exponential growth/decay.
    """
    if u0 < 0:
        raise InvalidParameterError("u0 must be nonnegative")
    t = np.asarray(t, dtype=float)
    r = p.aplus_mass - p.mortality
    if p.aminus_mass == 0:
        out = u0 * np.exp(r * t)
    elif r == 0:
        out = u0 / (1.0 + p.aminus_mass * u0 * t)
    else:
        q = bernoulli_q(p)
        out = u0 * q / (u0 + (q - u0) * np.exp(-q * p.aminus_mass * t))
    return out if out.ndim else float(out)


# -- grid operations -----------------------------------------------------


def convolve_periodic(kernel: Kernel, f: Field) -> Field:
    """Midpoint-quadrature circular convolution (a * f)(x_i), by FFT."""
    require_same_grid(kernel.grid, f.grid)
    return Field(f.grid, kernel.convolve(f.values))


def kinetic_rhs(f: Field, params: ModelParams) -> Field:
    """-m rho - rho (a- * rho) + (a+ * rho), evaluated per cell.

    This is the scaling-limit equation; epsilon does not appear here.
    """
    comp = convolve_periodic(params.competition, f).values
    disp = convolve_periodic(params.dispersal, f).values
    return Field(f.grid, -params.mortality * f.values - f.values * comp + disp)


def stability_dt(params: ModelParams, rho_max: float) -> float:
    """Explicit-stepping guard: dt <= 0.1 / (m + <a-> max(rho) + <a+>)."""
    denom = params.mortality + params.competition.mass * rho_max + params.dispersal.mass
    return 0.1 / denom if denom > 0 else np.inf


def _rk4_step(y: tuple, dt: float, rhs) -> tuple:
    k1 = rhs(y)
    k2 = rhs(tuple(v + 0.5 * dt * k for v, k in zip(y, k1)))
    k3 = rhs(tuple(v + 0.5 * dt * k for v, k in zip(y, k2)))
    k4 = rhs(tuple(v + dt * k for v, k in zip(y, k3)))
    return tuple(
        v + (dt / 6.0) * (a + 2.0 * b + 2.0 * c + d) for v, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def _clip_negatives(values, t, scale):
    """Tolerance-clip tiny round-off negatives; hard-fail on real excursions."""
    low = float(values.min())
    if low >= 0.0:
        return values
    tol = 1e-12 * max(scale, 1e-300)
    if low < -tol:
        cell = tuple(int(c) for c in np.unravel_index(int(np.argmin(values)), values.shape))
        raise InstabilityError(t, cell, low)
    return np.maximum(values, 0.0)


def integrate_rk4(
    y: tuple, rhs, horizon: float, dt: float, snapshot_times, guard, after_step=None
) -> list:
    """Classical RK4 for dy/dt = rhs(y), with y a tuple of nonnegative
    arrays; returns a copy of y at each sorted snapshot time.

    Segments between snapshots are covered by round(segment/dt) equal
    steps so snapshots land exactly on requested times.  Before each
    segment dt is checked against ``guard(y)``, the explicit-stepping
    limit at the current state.  After each step ``after_step(y)`` (if
    given) returns the state to continue from; then every component has
    round-off negatives clipped against its own running maximum.
    """
    times = sorted(float(t) for t in snapshot_times)
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    if times and (times[0] < 0 or times[-1] > horizon + 1e-12):
        raise InvalidParameterError("snapshot times must lie in [0, horizon]")
    scales = [max(float(v.max()), 1e-300) for v in y]
    out = []
    t = 0.0
    for target in times:
        seg = target - t
        if seg > 1e-12:
            limit = guard(y)
            if dt > limit * (1 + 1e-9):
                raise InvalidParameterError(
                    f"dt={dt:.3g} exceeds the stability guard {limit:.3g} at t={t:.6g}"
                )
            nsteps = max(1, round(seg / dt))
            step = seg / nsteps
            for _ in range(nsteps):
                y = _rk4_step(y, step, rhs)
                t += step
                if after_step is not None:
                    y = after_step(y)
                y = tuple(_clip_negatives(v, t, s) for v, s in zip(y, scales))
                scales = [max(s, float(v.max())) for v, s in zip(y, scales)]
            t = target
        out.append(tuple(v.copy() for v in y))
    return out


def solve_kinetic(rho0: Field, params: ModelParams, horizon: float, dt: float, snapshot_times) -> list:
    """Classical RK4 integration (:func:`integrate_rk4`); returns one
    Field per snapshot time."""
    require_same_grid(rho0.grid, params.grid)
    if rho0.min < 0:
        raise InvalidParameterError("initial density must be nonnegative")

    def rhs(y):
        return (kinetic_rhs(Field(rho0.grid, y[0]), params).values,)

    def guard(y):
        return stability_dt(params, float(y[0].max()))

    snaps = integrate_rk4((rho0.values,), rhs, horizon, dt, snapshot_times, guard)
    return [Field(rho0.grid, values) for (values,) in snaps]
