"""Mesoscopic solver: the nonlocal logistic kinetic equation on the
periodic grid, and the exact homogeneous (Bernoulli) dynamics used as an
analytic oracle.

    d rho/dt = -m rho - rho (a- * rho) + (a+ * rho)

with * the circular convolution on the torus.  The Bernoulli law and its
carrying capacity are read from the model's *discrete* kernel masses, so
``kinetic_rhs`` vanishes at ``ModelParams.carrying_capacity`` to round-off.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InstabilityError, InvalidParameterError
from .grid import Field, require_same_grid
from .kernels import Kernel, convolve_spectra, spectral_work
from .model import ModelParams, require_density, snapshot_schedule


# -- homogeneous (Bernoulli) dynamics ------------------------------------


def bernoulli_solution(u0: float, t, params: ModelParams):
    """Closed-form solution of du/dt = (<a+> - m) u - <a-> u^2 for the model.

    Supercritical (m < <a+>): logistic relaxation to q.  Critical
    (m = <a+>): algebraic decay u0/(1 + <a-> u0 t).  Subcritical: the same
    closed form with q < 0, an exponential-decay branch.  <a-> = 0 reduces
    to pure exponential growth/decay.
    """
    require_density(u0)
    t = np.asarray(t, dtype=float)
    r = params.dispersal.mass - params.mortality
    c = params.competition.mass
    if c == 0:
        out = u0 * np.exp(r * t)
    elif r == 0:
        out = u0 / (1.0 + c * u0 * t)
    else:
        q = params.carrying_capacity
        out = u0 * q / (u0 + (q - u0) * np.exp(-q * c * t))
    return out if out.ndim else float(out)


# -- grid operations -----------------------------------------------------


def convolve_periodic(kernel: Kernel, f: Field) -> Field:
    """Midpoint-quadrature circular convolution (a * f)(x_i), by FFT."""
    require_same_grid(kernel.grid, f.grid)
    return Field(f.grid, kernel.convolve(f.values))


def kinetic_rhs(
    f: Field, params: ModelParams, out: np.ndarray | None = None, work: tuple | None = None
) -> Field:
    """-m rho - rho (a- * rho) + (a+ * rho), evaluated per cell; both
    convolutions come from one transform of rho.  The result is written
    to ``out`` and the convolutions to ``work`` (from
    :func:`kernels.spectral_work`), each allocated when not given.

    This is the scaling-limit equation; epsilon does not appear here.
    """
    require_same_grid(params.grid, f.grid)
    rho = f.values
    comp, disp = convolve_spectra(params.spectra, params.grid, rho, work)
    out = np.multiply(-params.mortality, rho, out=out)
    np.subtract(out, np.multiply(rho, comp, out=comp), out=out)
    return Field(f.grid, np.add(out, disp, out=out))


def stability_dt(params: ModelParams, rho_max: float) -> float:
    """Explicit-stepping guard: dt <= 0.1 / (m + <a-> max(rho) + <a+>)."""
    denom = params.mortality + params.competition.mass * rho_max + params.dispersal.mass
    return 0.1 / denom if denom > 0 else np.inf


def _rk4_step(y: tuple, t: float, dt: float, rhs, k: tuple, stage: tuple):
    """One classical RK4 step of y in place from time t: y + dt/6 (k1 + 2 k2
    + 2 k3 + k4), every product and sum the one of fresh arrays, in the
    same order, so the result is the same to the bit.  ``rhs(y, out)``
    writes the derivative at y into the arrays of ``out``.  Each partial
    sum is formed as soon as its terms are known, so the two work tuples
    ``k`` and the tuple ``stage``, each shaped like y, hold every stage.
    A stage that is not finite raises InstabilityError at its time."""
    p, q = k
    rhs(y, p)  # p = k1
    _stage(y, 0.5 * dt, p, stage, t)
    rhs(stage, q)  # q = k2
    _stage(y, 0.5 * dt, q, stage, t)
    for a, b in zip(p, q):
        np.add(a, np.multiply(2.0, b, out=b), out=b)  # q = k1 + 2 k2
    rhs(stage, p)  # p = k3
    _stage(y, dt, p, stage, t)
    for b, c in zip(q, p):
        np.add(b, np.multiply(2.0, c, out=c), out=c)  # p = k1 + 2 k2 + 2 k3
    rhs(stage, q)  # q = k4
    for v, c, d in zip(y, p, q):
        np.add(c, d, out=d)
        np.add(v, np.multiply(dt / 6.0, d, out=d), out=v)


def _stage(y: tuple, coef: float, k: tuple, out: tuple, t: float):
    """out = y + coef * k, per component, the state at time t + coef."""
    for v, kv, s in zip(y, k, out):
        np.add(v, np.multiply(coef, kv, out=s), out=s)
        _bounds(s, t + coef, -math.inf)


def _bounds(values, t, floor) -> tuple:
    """(min, max) of a state at time t; InstabilityError naming its first
    NaN, else its lowest value if that is below ``floor`` or -inf, else
    its first +inf (a NaN makes both the min and the max NaN)."""
    low, peak = float(values.min()), float(values.max())
    if not (low >= floor and math.isfinite(low)):
        index = values.argmin()
    elif not math.isfinite(peak):
        index = values.argmax()
    else:
        return low, peak
    cell = tuple(int(c) for c in np.unravel_index(int(index), values.shape))
    raise InstabilityError(t, cell, float(values[cell]))


def _clip_negatives(values, t, scale) -> float:
    """Tolerance-clip tiny round-off negatives in place and return the
    peak; hard-fail on real excursions and on a value that is not finite."""
    low, peak = _bounds(values, t, -1e-12 * scale)
    if low < 0.0:
        np.maximum(values, 0.0, out=values)
    return max(peak, 0.0)


def integrate_rk4(
    y: tuple, rhs, horizon: float, dt: float, snapshot_times, params: ModelParams
) -> list:
    """Classical RK4 for dy/dt = rhs(y), with y a tuple of arrays that
    :func:`model.require_density` accepts; returns the state at each time
    of :func:`model.snapshot_schedule`.

    ``rhs(y, out)`` writes the derivative at y into the tuple of arrays
    ``out``.  The state is stepped in a copy of y, and every stage in
    buffers allocated once per call, so the stepper itself makes no array
    of y's size.  Each snapshot but the last is a copy of the state; the
    last is the stepped state itself, as no step follows it.

    Segments between snapshots are covered by round(segment/dt) equal
    steps so snapshots land exactly on requested times.  Before each step
    dt is checked against :func:`stability_dt` of the model at the
    witness C of the paper's bound k^(n) <= C^n, from the current
    maxima of y: max(max k1, sqrt(max k2)), which is max rho for the
    kinetic equation.  After each step every component has round-off
    negatives clipped against its own running maximum.  A stage or a step
    with a value that is not finite, or a negative beyond round-off, stops
    the run with InstabilityError, which names the value, its cell and t,
    so the steps run without NumPy's overflow and invalid-value warnings.
    """
    times = snapshot_schedule(horizon, snapshot_times)
    if not dt > 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    if horizon == np.inf:
        raise InvalidParameterError("horizon: not finite: inf")
    y = tuple(np.array(v, dtype=float) for v in y)
    for v in y:
        require_density(v)
    k = tuple(tuple(np.empty_like(v) for v in y) for _ in range(2))
    stage = tuple(np.empty_like(v) for v in y)
    peaks = [float(v.max()) for v in y]
    scales = [max(p, 1e-300) for p in peaks]
    out = []
    t = 0.0
    c0 = None
    for n, target in enumerate(times, 1):
        seg = target - t
        if seg > 1e-12:
            nsteps = max(1, round(seg / dt))
            step = seg / nsteps
            for _ in range(nsteps):
                c = max([peaks[0]] + [math.sqrt(max(p, 0.0)) for p in peaks[1:]])
                c0 = c if c0 is None else c0
                limit = stability_dt(params, c)
                if dt > limit * (1 + 1e-9):
                    grew = (f": the state outgrew the guard, its witness C grew from {c0:.6g}"
                            f" at t=0 to {c:.6g}") if t > 0 else ""
                    raise InvalidParameterError(
                        f"dt={dt:.6g} exceeds the stability guard {limit:.6g} at t={t:.6g}{grew}"
                    )
                with np.errstate(over="ignore", invalid="ignore"):
                    _rk4_step(y, t, step, rhs, k, stage)
                t += step
                peaks = [_clip_negatives(v, t, s) for v, s in zip(y, scales)]
                scales = [max(s, p) for s, p in zip(scales, peaks)]
            t = target
        out.append(y if n == len(times) else tuple(v.copy() for v in y))
    return out


def solve_kinetic(rho0: Field, params: ModelParams, horizon: float, dt: float, snapshot_times) -> list:
    """Classical RK4 integration (:func:`integrate_rk4`, which checks the
    times and the start density); returns one Field per snapshot time."""
    require_same_grid(rho0.grid, params.grid)
    work = spectral_work(params.spectra, params.grid, params.grid.shape)

    def rhs(y, out):
        kinetic_rhs(Field(rho0.grid, y[0]), params, out[0], work)

    snaps = integrate_rk4((rho0.values,), rhs, horizon, dt, snapshot_times, params)
    return [Field(rho0.grid, values) for (values,) in snaps]
