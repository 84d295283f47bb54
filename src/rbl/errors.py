"""The one exception type the package raises on purpose, and its count rule."""

import numbers


class RobustBundlingError(ValueError):
    """An input or result rejected by an rbl check: the command line reports
    it as one "error:" line and exit code 2."""


def check_count(value, name: str = "m", least: int = 1) -> None:
    """Raise unless value is an integer >= least; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < least:
        raise RobustBundlingError(f"need {name} >= {least}, an integer, got {value!r}")
