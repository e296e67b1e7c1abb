"""Exception hierarchy shared across the library."""


class SfcarError(Exception):
    """Base class for all library errors."""


class DomainError(SfcarError, ValueError):
    """An argument left the mathematical domain of an operation."""


class InfeasibleDensityError(SfcarError):
    """Communication energy meets or exceeds the total budget, leaving no
    sensing energy."""


class NoFeasibleDensityError(SfcarError):
    """Every candidate lattice size in an optimization run is infeasible."""
