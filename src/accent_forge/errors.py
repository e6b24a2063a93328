"""Exception types shared across the package."""


class UsageError(Exception):
    """Raised when the command line or its environment is invalid."""


class DataError(Exception):
    """Raised when an input file or dataset is malformed or unusable."""


class ConsistencyError(Exception):
    """Raised when artifacts produced under different configurations are mixed."""
