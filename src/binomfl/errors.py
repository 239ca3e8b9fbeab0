"""Signal exceptions shared across the package.

Each class corresponds to one distinct failure mode of the public API and
declares the CLI's exit code for it as ``exit_code``; a subclass that sets
none inherits its parent's.  :class:`InfeasibleError` and its subclasses
are the one "no solution" family.  They are deliberate signals, not
sentinel return values, so a caller can never silently consume a budget or
a solution that the underlying conditions do not certify.

:class:`NotApplicableError` and the base class keep 1, which the CLI never
returns: every tuple it certifies clears the variance floor.
"""


class BinomflError(Exception):
    """Base class for all package-level signals."""

    exit_code = 1


class NotApplicableError(BinomflError):
    """The Binomial-noise variance condition fails, so neither privacy
    budget estimator certifies anything for these parameters."""


class InfeasibleError(BinomflError):
    """No solution, and the family of every signal that says so; the
    subclasses name the stage that ruled everything out.  Raised as itself
    when the grid search finds no feasible point ('no feasible grid point',
    not a proof that the continuous problem is infeasible), and when the
    variance floor needs more than n_cap trials even at q = 2, p = 1/2."""

    exit_code = 3


class PrivacyInfeasibleError(InfeasibleError):
    """No trial count up to the configured cap brings the privacy budget
    under the requested bound."""

    exit_code = 5


class CapacityInfeasibleError(InfeasibleError):
    """The transmit power needed for the requested payload exceeds the
    device's maximum power."""


class EmptyDomainError(InfeasibleError):
    """The channel cannot carry even the smallest quantized payload, so the
    search domains for the quantization level and trial count are empty."""

    exit_code = 8


class AllInfeasibleError(InfeasibleError):
    """The privacy bound rules out every quantization level before any
    search starts (the lower-envelope test fails already at q = 2)."""

    exit_code = 4


class DivergedError(BinomflError):
    """The training loss became non-finite."""

    exit_code = 7


class ConfigError(BinomflError):
    """The run configuration failed validation before any computation."""

    exit_code = 2
