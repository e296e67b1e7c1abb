"""Asymptotic per-node information rates of the hidden SFCAR field.

For edge dependence factor zeta < 1/4 and measurement SNR the per-node
Kullback-Leibler and mutual-information rates are the frequency averages

    kli = (1/4pi^2) integral [ 0.5 log(1+s) + 0.5/(1+s) - 0.5 ] dw1 dw2
    mi  = (1/4pi^2) integral   0.5 log(1+s)               dw1 dw2

over [-pi, pi]^2, with the SNR-normalized spectral ratio

    s(w1, w2) = SNR / ( (2/pi) K(4 zeta) (1 - 2 zeta cos w1 - 2 zeta cos w2) ).

The normalization makes the frequency average of s equal to SNR exactly,
separating the SNR and correlation dependencies.  Rates are in nats per
node.  At zeta = 1/4 both rates are defined to be 0 (the limiting value
as correlation becomes perfect).  Every node's log1p(x) and KL bracket
below are >= 0, so the sums need no clamp; at SNR = 0 both are +0.

The inner w2 integral has closed forms (Gradshteyn & Ryzhik 2.553,
4.224): int_0^pi log(A - B cos w) dw = pi log((A + r)/2) and
int_0^pi dw / (A - B cos w) = pi / r with r = sqrt(A^2 - B^2).  With
c = (2/pi) K(4 zeta), A0 = c (1 - 2 zeta cos w), A1 = A0 + SNR and
B = 2 c zeta this leaves one dimension,

    mi  = (1/2pi) int_0^pi log1p(x) dw
    kli = (1/2pi) int_0^pi [ log1p(x) - SNR/r1 ] dw,

where 1 + x = (A1 + r1)/(A0 + r0).  Everything is written in
delta = 1 - 4 zeta, exact for every double zeta >= 1/8, and in units
of c: from here on A0, A1, r0 and r1 stand for their values over c, and
sigma = SNR/c.  With h = sin^2(w/2), A0 -+ B are g = delta + (1 - delta) h
and k = 1 + (1 - delta) h, so r0 = sqrt(g k) stays accurate as
zeta -> 1/4, and r1 = sqrt(g + sigma) sqrt(k + sigma), its factors
rooted apart so that no product overflows for any finite SNR.  Then
x = (sigma/v)(1 + (A0 + A1)/(r0 + r1)) with v = A0 + r0, and the KL
bracket m - sigma/r1, m = log1p(x), is O(SNR^2) while its terms are
O(SNR).  With A = B cosh(theta) and r = B sinh(theta), m = theta1 - theta0
and sigma/r1 = (cosh theta1 - cosh theta0)/sinh theta1; cosh theta0
expanded about theta1 gives

    m - sigma/r1 = coth(theta1) (cosh m - 1) - (sinh m - m),

coth(theta1) = A1/r1 (1 at zeta = 0) and cosh m - 1 = x^2/(2 (1 + x)).
Both terms are >= 0, the second at most m/3 of the first, so `_sums`
takes the bracket from them where m <= _SEAM = 0.4 (x <= 0.49), with
sinh m - m from `_sinh_excess`, the one series of the package.  Above
the seam the terms cancel at most 5.7-fold, m/(m + e^-m - 1): at zeta = 0
KLI is within 1.5e-15 of 0.5 log1p(s) - 0.5 s/(1 + s), s in [0.01, 30].

Quadrature: one periodic trapezoid sum under a conformal map (Hale &
Trefethen, SIAM J. Numer. Anal. 46, 2008).  With t = tan(w/2),
h = t^2/(1 + t^2) and g = (delta + t^2)/(1 + t^2), so the integrand peaks
at w = 0 with width sqrt(delta).  The map sin(w/2) = k' sd(u | m), with
k'^2 = a the anchor, the largest power of two <= min(delta, 1/2), and
m = 1 - a, takes u in [0, K(m)] onto w in [0, pi]: t = k' sc(u),
h = a sn^2/dn^2 and dw/du = 2 k'/dn.  For u << K it is t ~ sqrt(a) sinh u,
which takes the peak out, and at u = K it closes w = pi; the integrand
is even about both ends, so in u it is periodic with period 2K.  Every
singularity of the integrand in t has t^2 in {-delta, -1/(2 - delta),
-(delta + sigma)/(1 + sigma), -(1 + sigma)/(2 - delta + sigma)}, so |t|
lies in [sqrt(a), 1]; t = k' sc(u) takes those values on Im u = K'(m)
(t = i k'/dn(x) at u = x + i K'), and t = +-i, where h has its poles, is
not one, as the integrand is analytic in 1/h there.  So for every delta
of the octave it is analytic in the strip |Im u| < K' >= pi/2, where the
trapezoid rule converges geometrically (Trefethen & Weideman, SIAM
Review 56, 2014).  The rule is the sum over u = j K/N, N = ceil(K/0.24),
j = 0..N, with half weights at both ends: 9 nodes for delta in [1/2, 1]
and 84 at the last double below 1/4 (delta = 2^-53).  The map
t = sqrt(a) sinh(u) alone reaches w = pi only as u -> oo, and a rule in
it needs about 27 more nodes, a double-exponential tail over
w in (pi/2, pi] where the integrand is smooth.  The nodes depend on
delta only through its anchor, so `_table` builds them once per octave,
on first use: at most 53 tables, 2,451 nodes in all, as delta lies in
[2^-53, 1] for every double zeta < 1/4.  Against the 3,000 stored
mpmath rates of the benchmark's rate plane (zeta up to 1/4 - 1e-12, SNR
1e-6 to 1e4) the worst relative error is below 1.5e-15 (1.35e-15 in
KLI, 8.1e-16 in MI), with 35.3 nodes a call on average; against 40-digit
mpmath quadrature of the 1-D integrals it is 1.35e-15 in KLI and 7.7e-16
in MI from zeta = 0 to the last double below 1/4, the tops of the
octaves, farthest from their anchors, included, and SNR 2e-7 to 1e4.
A step of 0.25 would save 3.7% of the nodes (worst stored error
1.34e-15) but put the rule's integral of g, pi (1 + delta)/2, 9.7e-15
and 1.5e-14 off at delta = 2^-18 and 2^-29, so the step stays 0.24.
"""

import functools
import math

from sfcar.errors import DomainError
from sfcar.records import record
from sfcar.special import complete_elliptic_k, elliptic_agm

_STEP = 0.24
_SEAM = 0.4  # m, L or t up to which callers take sinh(m) - m from `_sinh_excess`
# 1/3!, 1/5!, ..., 1/13! of `_sinh_excess`; the next term is < 8e-17 of the sum
_S3, _S5, _S7, _S9, _S11, _S13 = (1.0 / math.factorial(j) for j in range(3, 14, 2))


class InfoRates(record("InfoRates", "kli mi")):
    """Per-node information rates in nats: 0 <= kli <= mi."""

    __slots__ = ()

    def __new__(cls, kli: float, mi: float):
        self = super().__new__(cls, kli, mi)
        if not (0.0 <= kli <= mi):
            raise DomainError(f"rates must satisfy 0 <= kli <= mi, got {self!r}")
        return self


def info_rates(zeta: float, snr: float) -> InfoRates:
    """Both per-node rates in one pass of the fixed rule."""
    _check_zeta_snr(zeta, snr)
    delta = 1.0 - 4.0 * zeta
    if delta == 0.0:
        return InfoRates(0.0, 0.0)
    kli, mi = _sums(delta, _rule(delta), snr / _spectral_norm(zeta))
    return InfoRates(kli / (2.0 * math.pi), mi / (2.0 * math.pi))


def _sums(delta: float, nodes, sigma: float):
    """Return (kli, mi): the sums over nodes (h, weight), h = sin^2(w/2),
    of weight times the KL bracket and log1p(x) at g = (A0 - B)/c =
    delta + (1 - delta) h and k = (A0 + B)/c = 1 + (1 - delta) h."""
    sqrt, log1p, excess = math.sqrt, math.log1p, _sinh_excess
    spread = 1.0 - delta
    kli = mi = 0.0
    for h, weight in nodes:
        d = spread * h
        g = delta + d
        k = 1.0 + d
        a = 0.5 * (g + k)
        r0 = sqrt(g * k)
        r1 = sqrt(g + sigma) * sqrt(k + sigma)
        v = a + r0
        rsum = r0 + r1
        x = (sigma / v) * (1.0 + (a + a + sigma) / rsum)
        m = log1p(x)
        if m > _SEAM:
            if m == math.inf:  # x overflows once sigma is near the largest double
                m = math.log(sigma / v) + log1p((a + a + sigma) / rsum)
            bracket = m - sigma / r1
        else:
            # coth(theta1) (cosh m - 1) - (sinh m - m), both terms >= 0
            bracket = (a + sigma) / r1 * (x * x / (2.0 + 2.0 * x)) - excess(m)
        mi += weight * m
        kli += weight * bracket
    return kli, mi


def _sinh_excess(m: float) -> float:
    """sinh(m) - m for |m| <= _SEAM from its odd Taylor series, without cancellation."""
    m2 = m * m
    return m * m2 * (_S3 + m2 * (_S5 + m2 * (_S7 + m2 * (_S9 + m2 * (_S11 + m2 * _S13)))))


def _check_zeta_snr(zeta: float, snr: float) -> None:
    if not 0.0 <= zeta <= 0.25:
        raise DomainError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be finite and >= 0, got {snr!r}")


def _spectral_norm(zeta: float) -> float:
    # (2/pi) K(4 zeta); equals 1 at zeta = 0.
    return (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)


def _rule(delta: float) -> tuple[tuple[float, float], ...]:
    """(h, weight) at every node of the rule for delta in (0, 1]: that of
    the largest power of two <= delta, which its whole octave shares;
    delta >= 1/2, delta = 1 included, shares the table of 1/2."""
    return _table(min(math.frexp(delta)[1], 0))


@functools.cache
def _table(exponent: int) -> tuple[tuple[float, float], ...]:
    """(h, weight) at every node of the rule anchored at a = 2^(exponent - 1),
    with k'^2 = a and m = k^2 = 1 - a: h = sin^2(w/2) and the weight
    (K/N) dw/du at u = j K/N, j = 0..N, halved at both ends.  Up to K/2,
    h = a sn^2/dn^2 and the weight is 2 k' (K/N)/dn; past it, with
    s = K - u, h = cn^2(s) and the weight is 2 (K/N) dn(s), so that h and
    dn keep full precision.  sn, cn and dn at x = P u (or P s),
    P = pi/(2 K'), are the image sums of Jacobi's imaginary
    transformation: dn = P sum_j sech(x - j L), and k cn and k sn the same
    sums of (-1)^j sech and (-1)^j tanh, the images at +-j L paired; 2
    pairs at a = 2^-53, 13 at a = 1/2.  K' comes from the AGM, and the
    period L = 2 P K = -log q' from Jacobi's series for the complementary
    nome, q' = eps + 2 eps^5 + 15 eps^9 + 150 eps^13 with
    eps = (1 - sqrt k)/(2 (1 + sqrt k)) = a/(2 (1 + k)(1 + sqrt k)^2).
    The AGM's K is up to 2.7 ulps off (at a = 2^-39), which moves the
    middle nodes enough to put h 5.7e-15 from 30-digit tables; from the
    nome h is within 2.9e-15 of them and the weights within 1.7e-15."""
    anchor = math.ldexp(0.5, exponent)
    kc, k = math.sqrt(anchor), math.sqrt(1.0 - anchor)
    p = math.pi / (2.0 * elliptic_agm(kc, k)[0])
    root = math.sqrt(k)
    eps = anchor / (2.0 * (1.0 + k) * (1.0 + root) ** 2)
    e4 = eps**4
    period = -math.log(eps * (1.0 + e4 * (2.0 + e4 * (15.0 + e4 * 150.0))))
    n = math.ceil(period / (2.0 * p * _STEP))
    step = period / (2.0 * p * n)  # K/N
    rule = [(0.0, kc * step)]
    for j in range(1, n):
        x = (min(j, n - j) * period) / (2 * n)
        # dn, k cn and k sn over P: the image at 0, then the pairs at +-shift
        dn = kcn = 1.0 / math.cosh(x)
        ksn = math.tanh(x)
        odd = math.sinh(2.0 * x)  # tanh(y + x) - tanh(y - x), times cosh(y + x) cosh(y - x)
        sign, shift = -1.0, period
        while True:
            plus, minus = math.cosh(shift + x), math.cosh(shift - x)
            pair = (plus + minus) / (plus * minus)
            dn += pair
            kcn += sign * pair
            ksn += sign * odd / (plus * minus)
            if pair < 1e-17 * dn:
                break
            sign, shift = -sign, shift + period
        if 2 * j <= n:
            rule.append((anchor * (ksn / dn) ** 2 / (1.0 - anchor), 2.0 * kc * step / (p * dn)))
        else:
            rule.append(((p * kcn) ** 2 / (1.0 - anchor), 2.0 * step * p * dn))
    rule.append((1.0, step))  # u = K, w = pi
    return tuple(rule)
