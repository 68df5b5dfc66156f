"""Exception hierarchy shared across the package.

Every error carries a short machine-parsable ``category`` used by the CLI
for its one-line failure reports.
"""


class SLMError(Exception):
    category = "error"


class InvalidParameterError(SLMError):
    category = "invalid-parameter"


class InvalidIntervalError(SLMError):
    category = "invalid-interval"


class NoInteriorMaximumError(SLMError):
    category = "no-interior-maximum"


class IncompatibleGridsError(SLMError):
    category = "incompatible-grids"


class PreconditionError(SLMError):
    category = "precondition-violation"


class BlowUpError(SLMError):
    """Population cap exceeded during a stochastic run."""

    category = "blow-up"

    def __init__(self, time, population, cap):
        super().__init__(
            f"population cap {cap} exceeded at t={time:.6g} (N={population})"
        )
        self.time = time
        self.population = population
        self.cap = cap


class AuditDriftError(SLMError):
    """Incremental competitive rates disagree with a recomputation."""

    category = "audit-drift"


class InstabilityError(SLMError):
    category = "instability"

    def __init__(self, time, cell, value):
        super().__init__(
            f"large negative value {value:.6g} in cell {cell} at t={time:.6g}"
        )
        self.time = time
        self.cell = cell
        self.value = value


class ClosureSingularityError(SLMError):
    category = "closure-singularity"


class ConfigError(SLMError):
    category = "config"
