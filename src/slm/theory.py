"""Banach-scale bookkeeping for the correlation hierarchy.

Weighted sup-norms over truncated correlation states, the guaranteed
existence horizon of the hierarchy dynamics, and the admissibility check
for the initial space.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidIntervalError,
    InvalidParameterError,
    NoInteriorMaximumError,
)

_LOG_MAX = math.log(np.finfo(float).max)  # e^x overflows above this
_LOG_EPS = -53 * math.log(2.0)  # log of 2^-53, half an ulp of 1


@dataclass(frozen=True)
class NormedHierarchyState:
    """Sup-norms q_n of the stored correlation orders (truncation N <= 2)."""

    orders: tuple  # ((n, q_n), ...)
    k0: float = 1.0

    def __post_init__(self):
        orders = tuple((int(n), float(q)) for n, q in self.orders)
        for n, q in orders:
            if n < 0 or q < 0:
                raise InvalidParameterError("orders must have n >= 0 and q_n >= 0")
        if not any(n == 0 for n, _ in orders):
            orders = ((0, abs(self.k0)),) + orders
        object.__setattr__(self, "orders", orders)


def knorm_alpha(state: NormedHierarchyState, alpha: float) -> float:
    """max_n e^{alpha n} q_n over the stored orders.

    A lower bound on the full-hierarchy norm since only finitely many
    orders are kept; nonincreasing in alpha whenever some q_n > 0, n >= 1.
    """
    return max(np.exp(alpha * n) * q for n, q in state.orders)


def horizon_T(alpha_star: float, alpha_up: float, aplus_mass: float, aminus_mass: float) -> float:
    """Guaranteed existence horizon
    (alpha_up - alpha_star) / (<a+> + <a-> e^{-alpha_star}).  Where
    e^{-alpha_star} overflows, numerator and denominator are divided by
    it, and T* underflows towards 0; with <a-> = 0 the term is absent.
    """
    if alpha_up <= alpha_star:
        raise InvalidIntervalError(
            f"need alpha_up > alpha_star, got {alpha_up} <= {alpha_star}"
        )
    if aplus_mass < 0 or aminus_mass < 0:
        raise InvalidParameterError("kernel masses must be nonnegative")
    if aminus_mass > 0 and -alpha_star > _LOG_MAX:
        scale = math.exp(alpha_star)
        return (alpha_up - alpha_star) * scale / (aplus_mass * scale + aminus_mass)
    denom = aplus_mass + (aminus_mass * np.exp(-alpha_star) if aminus_mass else 0.0)
    if denom == 0:
        raise InvalidParameterError("both kernel masses vanish")
    return float((alpha_up - alpha_star) / denom)


def _lambert_w0(log_z: float) -> float:
    """Principal branch W0(z) for z > 0, given log z: Newton's method on
    w + log w = log z.  The function is increasing and concave in w, so
    after the first step the iterates rise monotonically to the root;
    convergence is quadratic, hence a relative step below 1e-12 leaves
    only round-off.  Below z = 2^-53, W0(z) = z - z^2 + ... is z to double
    precision (0 once z underflows)."""
    if log_z < _LOG_EPS:
        return math.exp(log_z)
    w = log_z if log_z > 1.0 else math.exp(log_z)
    for _ in range(100):
        step = (w + math.log(w) - log_z) * w / (1.0 + w)
        w -= step
        if abs(step) <= 1e-12 * w:
            break
    return w


def optimize_alpha(alpha_up: float, aplus_mass: float, aminus_mass: float) -> tuple:
    """(alpha_star, T_max) maximizing the horizon over alpha_star < alpha_up.

    Setting dT/dalpha = 0 gives (alpha_up - alpha - 1) <a-> e^{-alpha} = <a+>,
    whose unique root is alpha_star = alpha_up - 1 - W0(<a+> e^{alpha_up - 1} / <a->)
    with W0 the principal Lambert W branch (W0(0) = 0).
    """
    if aminus_mass <= 0:
        raise NoInteriorMaximumError(
            "horizon has no interior maximum when the competition mass vanishes"
        )
    if aplus_mass < 0:
        raise InvalidParameterError("dispersal mass must be nonnegative")
    w = 0.0
    if aplus_mass > 0:
        w = _lambert_w0(math.log(aplus_mass) - math.log(aminus_mass) + alpha_up - 1.0)
    alpha_star = alpha_up - 1.0 - w
    return alpha_star, horizon_T(alpha_star, alpha_up, aplus_mass, aminus_mass)


def check_initial_space(theta: float, alpha_up: float) -> bool:
    """Admissibility of the initial space: theta * e^{alpha_up} < 1
    (strict), tested as alpha_up < -log(theta)."""
    if theta <= 0:
        raise InvalidParameterError("theta must be positive")
    return bool(alpha_up < -math.log(theta))
