"""Mesoscopic solver: the nonlocal logistic kinetic equation on the
periodic grid, and the exact homogeneous (Bernoulli) dynamics used as an
analytic oracle.

    d rho/dt = -m rho - rho (a- * rho) + (a+ * rho)

with * the circular convolution on the torus.  The Bernoulli law and its
carrying capacity are read from the model's *discrete* kernel masses, so
``kinetic_rhs`` vanishes at ``ModelParams.carrying_capacity`` to round-off.
"""
from __future__ import annotations

import numpy as np

from .errors import InstabilityError, InvalidParameterError
from .grid import Field, require_same_grid
from .kernels import Kernel, convolve_spectra, spectral_work
from .model import ModelParams


# -- homogeneous (Bernoulli) dynamics ------------------------------------


def bernoulli_solution(u0: float, t, params: ModelParams):
    """Closed-form solution of du/dt = (<a+> - m) u - <a-> u^2 for the model.

    Supercritical (m < <a+>): logistic relaxation to q.  Critical
    (m = <a+>): algebraic decay u0/(1 + <a-> u0 t).  Subcritical: the same
    closed form with q < 0, an exponential-decay branch.  <a-> = 0 reduces
    to pure exponential growth/decay.
    """
    if u0 < 0:
        raise InvalidParameterError("u0 must be nonnegative")
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


def _rk4_step(y: tuple, dt: float, rhs, k: tuple, stage: tuple):
    """One classical RK4 step of y in place: y + dt/6 (k1 + 2 k2 + 2 k3 + k4),
    every product and sum the one of fresh arrays, in the same order, so
    the result is the same to the bit.  ``rhs(y, out)`` writes the
    derivative at y into the arrays of ``out``.  Each partial sum is formed
    as soon as its terms are known, so the two work tuples ``k`` and the
    tuple ``stage``, each shaped like y, hold every stage."""
    p, q = k
    rhs(y, p)  # p = k1
    _stage(y, 0.5 * dt, p, stage)
    rhs(stage, q)  # q = k2
    _stage(y, 0.5 * dt, q, stage)
    for a, b in zip(p, q):
        np.add(a, np.multiply(2.0, b, out=b), out=b)  # q = k1 + 2 k2
    rhs(stage, p)  # p = k3
    _stage(y, dt, p, stage)
    for b, c in zip(q, p):
        np.add(b, np.multiply(2.0, c, out=c), out=c)  # p = k1 + 2 k2 + 2 k3
    rhs(stage, q)  # q = k4
    for v, c, d in zip(y, p, q):
        np.add(c, d, out=d)
        np.add(v, np.multiply(dt / 6.0, d, out=d), out=v)


def _stage(y: tuple, coef: float, k: tuple, out: tuple):
    """out = y + coef * k, per component."""
    for v, kv, s in zip(y, k, out):
        np.add(v, np.multiply(coef, kv, out=s), out=s)


def _clip_negatives(values, t, scale):
    """Tolerance-clip tiny round-off negatives in place; hard-fail on real
    excursions."""
    low = float(values.min())
    if low >= 0.0:
        return
    tol = 1e-12 * max(scale, 1e-300)
    if low < -tol:
        cell = tuple(int(c) for c in np.unravel_index(int(np.argmin(values)), values.shape))
        raise InstabilityError(t, cell, low)
    np.maximum(values, 0.0, out=values)


def integrate_rk4(y: tuple, rhs, horizon: float, dt: float, snapshot_times, guard) -> list:
    """Classical RK4 for dy/dt = rhs(y), with y a tuple of nonnegative
    arrays; returns the state at each sorted snapshot time.

    ``rhs(y, out)`` writes the derivative at y into the tuple of arrays
    ``out``.  The state is stepped in a copy of y, and every stage in
    buffers allocated once per call, so the stepper itself makes no array
    of y's size.  Each snapshot but the last is a copy of the state; the
    last is the stepped state itself, as no step follows it.

    Segments between snapshots are covered by round(segment/dt) equal
    steps so snapshots land exactly on requested times.  Before each step
    dt is checked against ``guard(peaks)``, the explicit-stepping limit
    at the current per-component maxima of y.  After each step every
    component has round-off negatives clipped against its own running
    maximum.
    """
    times = sorted(float(t) for t in snapshot_times)
    if dt <= 0:
        raise InvalidParameterError("dt must be positive")
    if times and (times[0] < 0 or times[-1] > horizon + 1e-12):
        raise InvalidParameterError("snapshot times must lie in [0, horizon]")
    y = tuple(np.array(v, dtype=float) for v in y)
    k = tuple(tuple(np.empty_like(v) for v in y) for _ in range(2))
    stage = tuple(np.empty_like(v) for v in y)
    peaks = [float(v.max()) for v in y]
    scales = [max(p, 1e-300) for p in peaks]
    out = []
    t = 0.0
    for n, target in enumerate(times, 1):
        seg = target - t
        if seg > 1e-12:
            nsteps = max(1, round(seg / dt))
            step = seg / nsteps
            for _ in range(nsteps):
                limit = guard(peaks)
                if dt > limit * (1 + 1e-9):
                    raise InvalidParameterError(
                        f"dt={dt:.3g} exceeds the stability guard {limit:.3g} at t={t:.6g}"
                    )
                _rk4_step(y, step, rhs, k, stage)
                t += step
                for v, s in zip(y, scales):
                    _clip_negatives(v, t, s)
                peaks = [float(v.max()) for v in y]
                scales = [max(s, p) for s, p in zip(scales, peaks)]
            t = target
        out.append(y if n == len(times) else tuple(v.copy() for v in y))
    return out


def solve_kinetic(rho0: Field, params: ModelParams, horizon: float, dt: float, snapshot_times) -> list:
    """Classical RK4 integration (:func:`integrate_rk4`); returns one
    Field per snapshot time."""
    require_same_grid(rho0.grid, params.grid)
    if rho0.min < 0:
        raise InvalidParameterError("initial density must be nonnegative")

    work = spectral_work(params.spectra, params.grid, params.grid.shape)

    def rhs(y, out):
        kinetic_rhs(Field(rho0.grid, y[0]), params, out[0], work)

    def guard(peaks):
        return stability_dt(params, peaks[0])

    snaps = integrate_rk4((rho0.values,), rhs, horizon, dt, snapshot_times, guard)
    return [Field(rho0.grid, values) for (values,) in snaps]
