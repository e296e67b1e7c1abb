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
cancellation, and E = K (1 - sum_n 2^(n-1) c_n^2), whose difference
loses about log10(K) digits as k -> 1 (relative error under 1e-14).
complete_elliptic_k checks the modulus and returns its K.
K_1 uses the ascending series with logarithmic term for x <= 2 and
Steed's continued fraction for x > 2; both branches agree to ~1e-15 at
the seam, comfortably inside the 1e-10 contract on [1e-8, 700].
"""

import math

from sfcar.errors import DomainError

_EULER_GAMMA = 0.5772156649015329


def complete_elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, modulus convention.

    Raises DomainError outside 0 <= k < 1; the integral diverges at k = 1.
    """
    if not 0.0 <= k < 1.0:
        raise DomainError(f"elliptic modulus must satisfy 0 <= k < 1, got {k!r}")
    return elliptic_agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[0]


def elliptic_agm(k: float, kc: float) -> tuple[float, float, float]:
    """(K(k), E(k), (1 - pi/(2 K(k))) / k) from one AGM of 1 and kc.

    kc = sqrt(1 - k^2) > 0 is passed in, so that a caller holding the
    complementary modulus more accurately than k (k near 1) keeps it.
    The third value is the AGM's deficit 1 - a_N = sum_{n>=1} c_n over k,
    with c_1 = k^2 / (2 (1 + kc)) and c_{n+1} = c_n^2 / (4 a_{n+1}); it
    tends to k/4 as k -> 0 and is 0 at k = 0.  No argument is checked.
    """
    a, b = 0.5 * (1.0 + kc), math.sqrt(kc)
    q = 0.5 * k / (1.0 + kc)  # c_n / k, here for n = 1
    c = q * k
    deficit = q
    e_over_k = a * a  # 1 - sum_n 2^(n-1) c_n^2 through n = 1 is a_1^2
    weight = 1.0
    while c > 1e-17 * deficit * k:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        q *= c / (4.0 * a)
        c = q * k
        deficit += q
        weight += weight
        e_over_k -= weight * c * c
    big_k = math.pi / (2.0 * a)
    return big_k, big_k * e_over_k, deficit


def bessel_k1(x: float) -> float:
    """Modified Bessel function of the second kind, order one.

    Relative accuracy ~1e-15 over [1e-8, 700]; underflows gracefully to
    0.0 once exp(-x) is subnormal.  Raises DomainError for x <= 0.
    """
    if x <= 0.0:
        raise DomainError(f"bessel_k1 requires x > 0, got {x!r}")
    if x <= 2.0:
        return _k1_series(x)
    return _k1_steed(x)


def _k1_series(x: float) -> float:
    # K_1(x) = ln(x/2) I_1(x) + 1/x
    #          - (x/4) sum_k [psi(k+1) + psi(k+2)] (x^2/4)^k / (k! (k+1)!)
    # The series terms fall off like 1/(k!)^2; cancellation stays below
    # e^{2x} ~ 55 for x <= 2, so double precision is preserved.
    h = 0.25 * x * x
    log_half_x = math.log(0.5 * x)
    term_i = 0.5 * x  # k = 0 term of I_1
    i1 = term_i
    psi_a = -_EULER_GAMMA  # psi(1)
    psi_b = 1.0 - _EULER_GAMMA  # psi(2)
    term_s = 1.0
    s = psi_a + psi_b
    for k in range(1, 64):
        term_i *= h / (k * (k + 1))
        i1 += term_i
        term_s *= h / (k * (k + 1))
        psi_a += 1.0 / k
        psi_b += 1.0 / (k + 1)
        ds = (psi_a + psi_b) * term_s
        s += ds
        if abs(ds) < 1e-17 * abs(s) and term_i < 1e-17 * i1:
            break
    return log_half_x * i1 + 1.0 / x - 0.25 * x * s


def _k1_steed(x: float) -> float:
    # Steed's algorithm for the continued fraction of K_mu at mu = 0,
    # yielding K_0 and then K_1 via the Wronskian relation.  Converges in
    # O(10) iterations for x > 2.
    a1 = 0.25
    b = 2.0 * (1.0 + x)
    d = 1.0 / b
    h = delh = d
    q1, q2 = 0.0, 1.0
    q = c = a1
    a = -a1
    s = 1.0 + q * delh
    for i in range(2, 40001):
        a -= 2.0 * (i - 1)
        c = -a * c / i
        qnew = (q1 - b * q2) / a
        q1, q2 = q2, qnew
        q += c * qnew
        b += 2.0
        d = 1.0 / (b + a * d)
        delh = (b * d - 1.0) * delh
        h += delh
        dels = q * delh
        s += dels
        if abs(dels) < 2.3e-16 * abs(s):
            break
    h = a1 * h
    k0 = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
    return k0 * (x + 0.5 - h) / x
