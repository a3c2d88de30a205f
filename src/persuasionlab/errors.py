"""Exception taxonomy shared across the package.

Every domain error derives from PersuasionError so callers (and the CLI
exit-code mapping) can distinguish input problems from numeric failures.
"""


class PersuasionError(Exception):
    """Base class for all errors raised by this package."""


class NotStochastic(PersuasionError):
    """A transition matrix row fails to be a probability vector."""


class NotIrreducible(PersuasionError):
    """The positivity pattern of the transition matrix is not strongly connected."""


class SingularSystem(PersuasionError):
    """A linear system that should be regular came out singular or inconsistent."""


class SizeOverflow(PersuasionError):
    """Requested belief grid exceeds the configured point budget."""


class DimensionMismatch(PersuasionError):
    """Array shapes do not line up with the chain or grid dimensions."""


class NotBayesPlausible(PersuasionError):
    """Split posteriors do not average back to the prior."""


class BadWeights(PersuasionError):
    """Split weights are not a probability vector."""


class InvalidSplit(PersuasionError):
    """A split failed validation while being converted to a signal kernel."""


class NegativePayoff(PersuasionError):
    """Stage payoff came out negative somewhere on the grid."""


class NoConvergence(PersuasionError):
    """Value iteration hit its sweep cap before reaching the target residual."""


class PreconditionFailed(PersuasionError):
    """A check was invoked at a point where its hypothesis does not hold."""


class DegenerateTail(PersuasionError):
    """Conditioning event has numerically vanishing probability."""


class RateBoundary(PersuasionError):
    """Revelation rate outside the open interval a formula needs."""


class AllRejected(PersuasionError):
    """Every Monte Carlo replication was rejected by the conditioning event."""


class BadRates(PersuasionError):
    """Coupling construction requires the emulated rate to dominate the base rate."""


class ParseError(PersuasionError):
    """Scenario file is malformed or violates the schema."""
