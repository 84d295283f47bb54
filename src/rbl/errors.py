"""The one exception type the package raises on purpose."""


class RobustBundlingError(ValueError):
    """An input or result rejected by an rbl check: the command line reports
    it as one "error:" line and exit code 2."""
