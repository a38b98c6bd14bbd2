"""Exception hierarchy shared by all simulator modules."""


class DecoySimError(Exception):
    """Base class for every error raised by this package."""


class InvalidScenario(DecoySimError):
    """A scenario violates one of its invariants (bad domain, ticks, secrets...)."""


class ConfigError(DecoySimError):
    """A scenario config file or --set override could not be parsed.

    The message names the line number and offending key, when known, to
    point the user at the exact problem.
    """


class NonFiniteValue(DecoySimError):
    """A NaN or infinite value was pushed onto the channel."""


class InvalidTarget(DecoySimError):
    """Ramp target must be strictly positive."""


class OutOfDomain(DecoySimError):
    """Recovered value is too far from every element of the secret domain.

    Signals a corrupted transmission (jamming, excessive noise).
    """


class DomainError(DecoySimError):
    """A comparison-protocol argument is outside its allowed range."""


class VesselEmpty(DecoySimError):
    """The water level hit the bottom before the observation window ended."""


class VesselOverflow(DecoySimError):
    """The water level hit the vessel rim before the observation window ended."""


class InsufficientSamples(DecoySimError):
    """Too few samples to run an estimator at its stated guarantees."""
