"""Exception hierarchy shared across the library."""


class SfcarError(Exception):
    """Base class for all library errors."""


class DomainError(SfcarError, ValueError):
    """An argument left the mathematical domain of an operation."""


class DivergenceError(SfcarError, ArithmeticError):
    """A quantity diverges at the requested parameter point.

    Raised instead of returning infinity so that callers which define their
    own limit convention (e.g. the rate integrals at perfect correlation)
    never see a silent ``inf``.
    """


class InfeasibleDensityError(SfcarError):
    """Communication energy meets or exceeds the total budget, leaving no
    sensing energy."""


class NoFeasibleDensityError(SfcarError):
    """Every candidate lattice size in an optimization run is infeasible."""
