"""Dense reference implementations kept only as test oracles.

They are the direct forms the package used before convolution went
through the kernel's FFT and closures became contractions: a loop of
``np.roll`` shifts over the kernel support, the 1-d circulant matrix,
and the full M^3 closure tensor k3.
"""
import numpy as np

from slm.errors import ClosureSingularityError, InvalidParameterError
from slm.hierarchy import CLOSURES, KIRKWOOD_FLOOR_FACTOR


def roll_convolution(kernel, f):
    """(a * f)(x_i) = h^d sum_s a(s) f(x_i - s), one np.roll per support cell."""
    f = np.asarray(f, dtype=float)
    axes = tuple(range(kernel.dim))
    out = np.zeros_like(f)
    for shift in zip(*np.nonzero(kernel.values)):
        out += kernel.values[shift] * np.roll(f, shift=shift, axis=axes)
    return kernel.grid.cell_volume * out


def circulant(kernel):
    """C[i, j] = h a(x_i - x_j) on a 1-d grid."""
    m = kernel.grid.cells
    i = np.arange(m)
    return kernel.grid.spacing * kernel.values[(i[:, None] - i[None, :]) % m]


def closure_tensor(rule, state):
    """k3[i, j, z] = k3(x_i, x_j, x_z) for the closure ``rule``."""
    if rule not in CLOSURES:
        raise InvalidParameterError(f"unknown closure {rule!r}; choose from {CLOSURES}")
    k1 = state.k1.values
    k2 = state.k2.values
    if rule == "mean-field":
        return (
            k2[:, :, None] * k1[None, None, :]
            + k2[:, None, :] * k1[None, :, None]
            + k2[None, :, :] * k1[:, None, None]
        ) / 3.0
    floor = KIRKWOOD_FLOOR_FACTOR * max(float(k1.max()), 0.0)
    if float(k1.min()) < floor or floor == 0.0:
        raise ClosureSingularityError(f"kirkwood closure needs k1 >= {floor:.3g} everywhere")
    return (
        k2[:, :, None] * k2[:, None, :] * k2[None, :, :]
        / (k1[:, None, None] * k1[None, :, None] * k1[None, None, :])
    )


def closure_contraction(rule, state, competition):
    """t1[i, j] = sum_z C[i, z] k3[i, j, z] through the dense tensor."""
    return np.einsum("iz,ijz->ij", circulant(competition), closure_tensor(rule, state))


def rel_err(value, reference):
    """max |value - reference| / max |reference|."""
    reference = np.asarray(reference)
    return float(np.max(np.abs(np.asarray(value) - reference)) / np.max(np.abs(reference)))
