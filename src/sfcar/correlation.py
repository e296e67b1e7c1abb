"""Physical-to-lattice correlation chain.

A diffusive physical field with diffusion rate alpha sampled at spacing d
has edge correlation rho = alpha*d * K_1(alpha*d) between axially
adjacent samples.  The SFCAR lattice model reproduces a given edge
correlation when its edge dependence factor zeta satisfies

    rho = ((2/pi) K(4 zeta) - 1) / (4 zeta (2/pi) K(4 zeta)),

which maps zeta = 0 to rho = 0 and zeta = 1/4 to rho = 1 and is strictly
increasing in between.  With k = 4 zeta this is rho = (1 - pi/(2K))/k,
which one AGM sums from positive terms (special.elliptic_agm), exactly
zeta for zeta <= 1e-20.  The map has no closed-form inverse; it is
inverted by Newton's method in u = log(delta), delta = 1 - 4 zeta = 1 - k,
for every rho in (0, 1), with dK/dk = k S/k'^2 and S = (E - k'^2 K)/k^2
summed by the same AGM without cancellation down to k = 0.  Steps are
clamped to [log 2^-1022, log(1 - rho)], which holds the root as
K <= pi/(2k'), and as rho is concave in u they descend to it.  In u,
1/(1 - rho) ~ (2/pi) K ~ (2/pi) log(4/k') is nearly linear as delta -> 0,
and zeta = -expm1(u)/4 keeps the relative precision of small zeta:
within 4 ulps of a 40-digit root from rho = 1e-300 up to rho(1/8).

Precision note: near the upper endpoint zeta grows toward 1/4 only
double-exponentially slowly in rho (K is logarithmic in delta).  The
solver resolves delta down to the smallest normal double (rho ~ 0.9956),
and zeta reaches 1/4 by rounding alone, once delta <= 2^-54: from
rho ~ 0.9205 (n = 344 on the paper scenario).  Round trips through the
inverse are exact to 1e-10 in rho only for rho <~ 0.8, while round trips
in zeta are accurate over all of [0, 1/4].
"""

import math

from sfcar.errors import DomainError
from sfcar.records import record
# Nothing here calls complete_elliptic_k; sfcarbench's tracer wraps it
# under this module's name.
from sfcar.special import bessel_k1, complete_elliptic_k, elliptic_agm  # noqa: F401

# The solver's lower end in u = log(delta): the smallest normal delta.
_LOG_DELTA_MIN = math.log(2.0**-1022)
# Newton stops once a step is this small relative to the iterate; the
# error left after it is of the order of its square.
_NEWTON_TOL = 1e-9
# A cap only: the descent converges, in at most 5 steps on tested rho.
_MAX_STEPS = 60


class PhysicalEnvironment(record("PhysicalEnvironment", "alpha")):
    """Continuous-world field parameters: diffusion rate alpha (1/length)."""

    __slots__ = ()

    def __new__(cls, alpha: float):
        if not 0.0 < alpha < math.inf:
            raise DomainError(f"alpha must be finite and > 0, got {alpha!r}")
        return super().__new__(cls, alpha)


def edge_correlation(env: PhysicalEnvironment, spacing: float) -> float:
    """Edge correlation rho = alpha*d * K_1(alpha*d) for sample spacing d.

    Strictly decreasing in spacing; tends to 1 as d -> 0 and to 0 as
    d -> infinity.  Every finite alpha*d > 0 gives a value: 1.0 where
    K_1 overflows (alpha*d < 5.6e-309), 0.0 where it underflows.
    """
    if not 0.0 < spacing < math.inf:
        raise DomainError(f"spacing must be finite and > 0, got {spacing!r}")
    x = env.alpha * spacing
    if not 0.0 < x < math.inf:
        raise DomainError(
            f"alpha * spacing is out of range: alpha={env.alpha!r} * "
            f"spacing={spacing!r} = {x!r}"
        )
    return min(x * bessel_k1(x), 1.0)


def rho_of_zeta(zeta: float) -> float:
    """Edge correlation of an SFCAR field with edge dependence factor zeta.

    (1 - pi/(2 K(4 zeta))) / (4 zeta) from one AGM, whose positive terms
    sum to 0 at zeta = 0 and to 1 at 1/4 (kc = 0, K = 2.3e17 finite).
    """
    if not 0.0 <= zeta <= 0.25:
        raise DomainError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    k = 4.0 * zeta
    return elliptic_agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[2]


# rho at zeta = 1/8, where the solver's start changes.
_RHO_EIGHTH = rho_of_zeta(0.125)


def zeta_of_rho(rho: float) -> float:
    """Edge dependence factor reproducing edge correlation rho.

    Newton on rho_of_zeta(zeta) = rho in u = log(1 - 4 zeta), for every
    rho in (0, 1): below rho(1/8) from zeta_0 = rho - 5 rho^3, within
    31 rho^5 of the root (one step below rho = 1e-4), above it from
    delta_0 = 8 exp(-pi/(1 - rho)), the limit of K ~ log(4/k') as
    delta -> 0.  Each step is clamped to [log 2^-1022, log(1 - rho)]:
    K(k) <= pi/(2k') gives rho <= k/(1 + k') <= k, so the root lies
    below the upper end, and u = 0 (k = 0) is never evaluated.  As rho
    is decreasing and concave in u, the first step lands at or above the
    root and each later one descends to it; below the lower end
    (rho >= 0.99559) one AGM ends the search.  zeta = -expm1(u)/4 reaches
    1/4 by rounding, with no cut-off; rho = 0 and 1 give 0 and 1/4 exactly.
    """
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    if rho == 0.0 or rho == 1.0:
        return 0.25 * rho
    hi = math.log1p(-rho)
    if rho < _RHO_EIGHTH:
        u = math.log1p(-4.0 * (rho - 5.0 * rho**3))
    else:
        u = max(math.log(8.0) - math.pi / (1.0 - rho), _LOG_DELTA_MIN)
    for _ in range(_MAX_STEPS):
        delta = math.exp(u)
        k = -math.expm1(u)
        kc = math.sqrt(delta * (2.0 - delta))
        big_k, big_s, value = elliptic_agm(k, kc)
        # With c = (2/pi) K, rho = (1 - 1/c)/k, so d rho/dk = (c'/c^2 - rho)/k,
        # and c'/c^2 = (pi/2) k S / (K^2 kc^2), S = (E - kc^2 K)/k^2, from
        # dK/dk = (E - kc^2 K)/(k kc^2); dk/du = -delta.
        slope = -delta * (0.5 * math.pi * big_s / (big_k * big_k * kc * kc) - value / k)
        nxt = u - (value - rho) / slope
        if not _LOG_DELTA_MIN <= nxt <= hi:
            nxt = _LOG_DELTA_MIN if nxt < _LOG_DELTA_MIN else hi
        converged = abs(nxt - u) <= _NEWTON_TOL * abs(u)
        u = nxt
        if converged:
            break
    return -0.25 * math.expm1(u)


def zeta_of_spacing(env: PhysicalEnvironment, spacing: float) -> float:
    """Edge dependence factor for a deployment spacing: the composition
    zeta_of_rho(edge_correlation(...)).  Strictly decreasing in spacing."""
    return zeta_of_rho(edge_correlation(env, spacing))
