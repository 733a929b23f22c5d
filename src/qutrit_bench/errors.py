"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """A run or experiment configuration is invalid or self-inconsistent."""


class DegenerateStateError(ValueError):
    """A state or scan carries no usable signal (zero vector, all-zero counts)."""


class OrderingError(ValueError):
    """Input events violate a required time ordering."""


class FitError(RuntimeError):
    """A least-squares fit failed to converge or was rejected."""


class NoFringeError(FitError):
    """A scan shows no detectable interference fringe."""
