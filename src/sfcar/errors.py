"""Exception hierarchy shared across the library: three classes."""


class SfcarError(Exception):
    """Base class for all library errors."""


class DomainError(SfcarError, ValueError):
    """An argument left the mathematical domain of an operation."""


class NoFeasibleDensityError(SfcarError):
    """Every candidate lattice size in an optimization run is infeasible."""
