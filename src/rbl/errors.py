"""Exception types shared across the package."""


class RobustBundlingError(Exception):
    """Base class for every package-specific error."""


class InfeasibleSpec(RobustBundlingError, ValueError):
    """Mean/MAD pair admits no distribution on [0, inf)."""


class AlphaOutOfRange(RobustBundlingError, ValueError):
    """Low-point mass outside [d/(2 mu), 1)."""


class IndexOutOfRange(RobustBundlingError, ValueError):
    """Heavy-tail index outside (1, 2]."""


class MadMismatch(RobustBundlingError, ValueError):
    """Member's induced MAD disagrees with the requested spec."""


class MembershipViolation(RobustBundlingError, ValueError):
    """Distribution failed the mean/MAD membership check."""


class NumericalInstability(RobustBundlingError, ArithmeticError):
    """Probability mass drifted beyond the certified tolerance."""


class TooManyFactors(RobustBundlingError, ValueError):
    """Exact product law requested for more factors than the cap."""


class LengthMismatch(RobustBundlingError, ValueError):
    """Member list length is neither 1 nor the number of goods."""


class NegativePrice(RobustBundlingError, ValueError):
    """Posted price must be non-negative."""


class EpsOutOfRange(RobustBundlingError, ValueError):
    """Slack parameter outside (0, 1 - d/(2 mu))."""


class TruncationTooLow(RobustBundlingError, ValueError):
    """Truncation level below mu + d/2."""


class LambdaOutOfRange(RobustBundlingError, ValueError):
    """Scale parameter must be positive."""


class RangeError(RobustBundlingError, ValueError):
    """Argument outside the certified parameter range."""


class ParamOutOfRange(RobustBundlingError, ValueError):
    """Generic parameter-domain violation."""


class CapExceeded(RobustBundlingError, ValueError):
    """Exact enumeration requested beyond its size cap."""


class ConfigError(RobustBundlingError, ValueError):
    """Malformed CLI flag, config file, or environment override."""
