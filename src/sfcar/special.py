"""Self-contained special functions: K(k), E(k) and K_1(x).

The field model needs the complete elliptic integrals of the first and
second kinds in the *modulus* convention,

    K(k) = integral_0^{pi/2} (1 - k^2 sin^2 t)^{-1/2} dt,   0 <= k < 1,
    E(k) = integral_0^{pi/2} (1 - k^2 sin^2 t)^{1/2} dt,    0 <= k <= 1,

and the modified Bessel function of the second kind of order one, K_1(x)
for x > 0.  The modulus convention matters: downstream formulas evaluate
K(4*zeta) with zeta in [0, 1/4) and rely on the divergence happening
exactly at the perfect-correlation endpoint.

elliptic_agm is the one arithmetic-geometric mean iteration behind all
three elliptic quantities.  Driven by the complementary modulus
k' = sqrt(1 - k^2), it gives K = pi / (2 * AGM(1, k')), converging
quadratically with no coefficient tables.  Carrying the half differences
c_n, it also gives (1 - pi/(2K)) / k = (sum_{n>=1} c_n) / k, the
quantity behind the correlation map, as a sum of positive terms free of
cancellation, and S = (E - k'^2 K)/k^2, behind the map's slope, with no
difference that cancels as k -> 0.  S loses about log10(K) digits as
k -> 1, within 2.3e-15 of mpmath from k = 0 to 1 - 1e-15; E = k'^2 K + k^2 S.
complete_elliptic_k checks the modulus and returns its K, within 6e-16
of 30-digit mpmath at k = 4 zeta, zeta in (1/4 - 0.2, 1/4 - 1e-16): about
4 ulps, from the roundings of the AGM steps, not from their convergence.

K_1 is one trapezoid sum, over nodes t = j h, of its integral
K_1(x) = e^-x integral_0^inf exp(-2x sinh^2(t/2)) cosh t dt.  The
integrand decays in the strip |Im t| < pi/2, so the error falls like
exp(-pi^2/h), under 1e-21 at h = 0.2 (small x); at large x it is a
Gaussian of width 1/sqrt(x), whose error exp(-2 pi^2/(x h^2)) is 3e-18 at
h = 0.7/sqrt(x).  Hence h = min(0.2, 0.7/sqrt(x)): 12 to 81 nodes on
[1e-5, 705], 12 to 32 on the paper's x = 100/n, and within 8.4e-16 of
40-digit mpmath on 6,000 log-spaced x in [1e-12, 705].  Below x = 1e-5,
1/x + (x/2)(ln x - ln 2 + gamma - 1/2) is exact to double precision.
Every x from the smallest subnormal to the largest double gives a value:
inf where 1/x overflows, and 0.0 once e^-x underflows.
"""

import math

from sfcar.errors import DomainError

# ln 2 - gamma + 1/2, for the small-x expansion of K_1
_LOG2_MINUS_GAMMA_PLUS_HALF = 0.6159315156584124


def complete_elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Raises DomainError outside 0 <= k < 1; the integral diverges at k = 1.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"elliptic modulus must satisfy 0 <= k < 1, got {k!r}")
    return elliptic_agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[0]


def elliptic_agm(k: float, kc: float) -> tuple[float, float, float]:
    """(K(k), S, (1 - pi/(2 K(k))) / k) from one AGM of 1 and kc.

    kc = sqrt(1 - k^2) > 0 is passed in, so that a caller holding the
    complementary modulus more accurately than k (k near 1) keeps it.
    With c_1 = k^2/(2 (1 + kc)) and c_{n+1} = c_n^2/(4 a_{n+1}), the third
    value is the deficit 1 - a_N = sum_{n>=1} c_n over k, 0 at k = 0, and
    S = (E - kc^2 K)/k^2 = K ((1 + 3 kc)/(4 (1 + kc)) - sum_{n>=2}
    2^(n-1) (c_n/k)^2), pi/4 at k = 0; E = kc^2 K + k^2 S sums positive
    terms.  No argument is checked.
    """
    a, b = 0.5 * (1.0 + kc), math.sqrt(kc)
    q = 0.5 * k / (1.0 + kc)  # c_n / k, here for n = 1
    c = q * k
    deficit = q
    s_over_k = (1.0 + 3.0 * kc) / (4.0 * (1.0 + kc))  # S/K through n = 1
    weight = 1.0
    while c > 1e-17 * deficit * k:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q *= c / (4.0 * a)
        c = q * k
        deficit += q
        weight += weight
        s_over_k -= weight * q * q
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * s_over_k, deficit


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    Relative accuracy ~1e-15 on [1e-12, 705].  Every finite x > 0 gives
    a value: inf where 1/x overflows, 0.0 once exp(-x) underflows.
    Raises DomainError for x <= 0 and for non-finite x.
    """
    if not 0.0 < x < math.inf:
        raise DomainError(f"bessel_k1 requires finite x > 0, got {x!r}")
    if x < 1e-5:
        # log(x), not log(x/2): x/2 rounds to 0 at the smallest subnormal
        return 1.0 / x + 0.5 * x * (math.log(x) - _LOG2_MINUS_GAMMA_PLUS_HALF)
    h = min(0.2, 0.7 / math.sqrt(x))
    total, j = 0.5, 0  # the t = 0 node is halved
    while True:
        j += 1
        s, c = math.sinh(0.5 * j * h), math.cosh(j * h)
        term = math.exp(-2.0 * x * s * s) * c
        total += term
        if x * c > 1.0 and term < 1e-17 * total:
            return h * total * math.exp(-x)
