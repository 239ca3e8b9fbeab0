"""Signal exceptions shared across the package.

Each class corresponds to one distinct failure mode of the public API; the
CLI maps them to distinct exit codes.  They are deliberate signals, not
sentinel return values, so a caller can never silently consume a budget or
a solution that the underlying conditions do not certify.
"""


class BinomflError(Exception):
    """Base class for all package-level signals."""


class NotApplicableError(BinomflError):
    """The Binomial-noise variance condition fails, so neither privacy
    budget estimator certifies anything for these parameters."""


class PrivacyInfeasibleError(BinomflError):
    """No trial count up to the configured cap brings the privacy budget
    under the requested bound."""


class CapacityInfeasibleError(BinomflError):
    """The transmit power needed for the requested payload exceeds the
    device's maximum power."""


class EmptyDomainError(BinomflError):
    """The channel cannot carry even the smallest quantized payload, so the
    search domains for the quantization level and trial count are empty."""


class AllInfeasibleError(BinomflError):
    """The privacy bound rules out every quantization level before any
    search starts (the lower-envelope test fails already at q = 2)."""


class InfeasibleError(BinomflError):
    """The grid search finished without finding any feasible point.  This is
    'no feasible grid point', not a proof that the continuous problem is
    infeasible."""


class ErrorBoundUnavailableError(BinomflError):
    """The grid-pitch error machinery requires eta < 1/4; above that no
    relative-error factor can be quoted."""


class DivergedError(BinomflError):
    """The training loss became non-finite."""


class ConfigError(BinomflError):
    """The run configuration failed validation before any computation."""
