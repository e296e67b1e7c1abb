"""Physical-to-lattice correlation chain.

A diffusive physical field with diffusion rate alpha sampled at spacing d
has edge correlation rho = alpha*d * K_1(alpha*d) between axially
adjacent samples.  The SFCAR lattice model reproduces a given edge
correlation when its edge dependence factor zeta satisfies

    rho = ((2/pi) K(4 zeta) - 1) / (4 zeta (2/pi) K(4 zeta)),

which maps zeta = 0 to rho = 0 and zeta = 1/4 to rho = 1 and is strictly
increasing in between.  The map has no closed-form inverse; it is
inverted by bisection.

Precision note: near the upper endpoint zeta grows toward 1/4 only
double-exponentially slowly in rho (1 - rho ~ (pi/2)/K(4 zeta), with K
logarithmic in 1/4 - zeta), so the largest edge correlation attainable
at a double below 1/4 is rho ~ 0.919.  Inputs above that resolve to the
endpoint; round trips through the inverse are exact to 1e-10 in rho only
for rho <~ 0.8, while round trips in zeta are accurate over all of
[0, 1/4].
"""

import math
from dataclasses import dataclass

from sfcar.errors import DomainError
from sfcar.special import bessel_k1, complete_elliptic_k

# Below this, rho = zeta + 5 zeta^3 and zeta = rho - 5 rho^3 are exact to
# the next terms, 44 zeta^5 and 31 rho^5: under 5e-15 relative.
_SERIES_CUTOFF = 1e-4
# Below this, (2/pi) K(4 zeta) - 1 ~ 4 zeta^2 is summed from its power
# series (at most 15 terms); above it, subtracting 1 from the closed form
# loses up to 2e-14 relative.
_CNORM_SERIES_CUTOFF = 1.0 / 16.0
_NEGATIVE_CLAMP = -1e-13


@dataclass(frozen=True)
class PhysicalEnvironment:
    """Continuous-world field parameters: diffusion rate alpha (1/length)."""

    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < math.inf:
            raise DomainError(f"alpha must be finite and > 0, got {self.alpha!r}")


def edge_correlation(env: PhysicalEnvironment, spacing: float) -> float:
    """Edge correlation rho = alpha*d * K_1(alpha*d) for sample spacing d.

    Strictly decreasing in spacing; tends to 1 as d -> 0 and to 0 as
    d -> infinity.  Clamped into [0, 1] against floating-point overshoot.
    """
    if not 0.0 < spacing < math.inf:
        raise DomainError(f"spacing must be finite and > 0, got {spacing!r}")
    x = env.alpha * spacing
    if not 0.0 < x < math.inf:
        raise DomainError(
            f"alpha * spacing is out of range: alpha={env.alpha!r} * "
            f"spacing={spacing!r} = {x!r}"
        )
    rho = x * bessel_k1(x)
    if rho > 1.0:
        rho = 1.0
    elif rho < 0.0:
        rho = 0.0
    return rho


def rho_of_zeta(zeta: float) -> float:
    """Edge correlation of an SFCAR field with edge dependence factor zeta.

    Endpoints are exact by continuous extension: rho(0) = 0 and
    rho(1/4) = 1.  For zeta below 1e-4 the series zeta + 5 zeta^3 is
    returned; above, the numerator (2/pi) K(4 zeta) - 1 is summed from
    its power series up to zeta = 1/16, where the closed form would
    cancel.
    """
    if not 0.0 <= zeta <= 0.25:
        raise DomainError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if zeta == 0.0:
        return 0.0
    if zeta == 0.25:
        return 1.0
    if zeta < _SERIES_CUTOFF:
        return zeta + 5.0 * zeta**3
    cm1 = _cnorm_minus_one(zeta)
    return cm1 / (4.0 * zeta * (1.0 + cm1))


def _cnorm_minus_one(zeta: float) -> float:
    # (2/pi) K(4 zeta) - 1 = sum_{m>=1} ((2m-1)!! / (2m)!!)^2 (4 zeta)^(2m)
    if zeta >= _CNORM_SERIES_CUTOFF:
        return (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta) - 1.0
    k2 = 16.0 * zeta * zeta
    term = total = 0.25 * k2
    j = 1
    while term > 1e-17 * total:
        term *= ((2 * j + 1) / (2 * j + 2)) ** 2 * k2
        total += term
        j += 1
    return total


def zeta_of_rho(rho: float) -> float:
    """Edge dependence factor reproducing edge correlation rho.

    Numerical inverse of rho_of_zeta by bisection on [0, 1/4]; the map is
    strictly increasing, so bisection is unconditionally robust even
    against the logarithmically diverging elliptic integral at the top.
    """
    if _NEGATIVE_CLAMP <= rho < 0.0:
        rho = 0.0
    if not 0.0 <= rho <= 1.0:
        raise DomainError(f"rho must lie in [0, 1], got {rho!r}")
    if rho == 0.0:
        return 0.0
    if rho == 1.0:
        return 0.25
    if rho < _SERIES_CUTOFF:
        return rho - 5.0 * rho**3
    lo, hi = 0.0, 0.25
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if rho_of_zeta(mid) < rho:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def zeta_of_spacing(env: PhysicalEnvironment, spacing: float) -> float:
    """Edge dependence factor for a deployment spacing: the composition
    zeta_of_rho(edge_correlation(...)).  Strictly decreasing in spacing."""
    return zeta_of_rho(edge_correlation(env, spacing))
