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
as correlation becomes perfect).  At SNR = 0 the general sum gives +0:
x = 0 and the KL bracket is 0 - phi(0) = 0 at every node.

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
bracket is log1p(x) - sigma/r1.  It is O(SNR^2) at low SNR; where
x <= _SEAM = 0.25 it is the cancellation-free
x - sigma/r1 = sigma^2 ((A0 + A1)(1 + A1/(r0 + r1)) + r0) / (v r1 (r0 + r1))
less phi(x) = x - log1p(x), which `_phi`, the one series for phi (the
torus's finite-N terms call it too), sums in y = x/(2 + x).  Above the
seam the two terms cancel at most tenfold: at zeta = 0 KLI is within
3.1e-15 of 0.5 log1p(s) - 0.5 s/(1 + s) for s in [0.01, 30], MI 1.1e-15.
`_sums` adds up this integrand over nodes (h, weight) in one loop.

Quadrature: one trapezoid sum in a doubly mapped variable.  With
t = tan(w/2), h = t^2/(1 + t^2) and g = (delta + t^2)/(1 + t^2), so the
integrand peaks at w = 0 with width sqrt(delta).  The substitution
t = sqrt(a) sinh(u), with the anchor a the largest power of two <= delta,
makes dw = 2 sqrt(a) cosh(u) du / (1 + t^2) and takes the peak out: the
integrand's singularities, t = +-i sqrt(delta) and t = +-i, sit at
u = +-acosh(sqrt(delta/a)) + i pi/2 and u = +-acosh(1/sqrt(a)) + i pi/2,
so for every delta in [a, 2a) it is analytic in the strip |Im u| < pi/2,
where the trapezoid rule converges geometrically (Trefethen & Weideman,
SIAM Review 56, 2014).  A second map u = v + beta sinh(v),
beta = e^-(U + 2) with U = asinh(1/sqrt(a)), leaves u ~ v up to U,
where w = pi/2, and makes the weights beyond fall double-exponentially.
The integrand is even in v, so the rule is the sum over v = 0.24 j,
j >= 0, with half weight at v = 0; it stops at the first node where
u > U + 1 and the weight is below 1e-17.  That is 31 nodes at zeta = 0
and 107 at the last double below 1/4 (delta = 2^-53).  The nodes
depend on delta only through its anchor, so `_table` builds them once
per octave, on first use: at most 54 tables, as delta lies in
[2^-53, 1] for every double zeta < 1/4.  Against the 3,000 stored
mpmath rates of the benchmark's rate plane (zeta up to 1/4 - 1e-12,
SNR 1e-6 to 1e4) the worst relative error is below 1.5e-15 (1.33e-15),
with 58.6 nodes a call on average; against adaptive SciPy quadrature of
the same integrals it is below 1.8e-15 (1.55e-15) from zeta = 0 to the
last double below 1/4 and SNR from 2e-7 to 1e4, the tops of the
octaves, where delta is farthest from its anchor, included.  A step of
0.26 would save 7% of the nodes and double the worst error (2.9e-15).
"""

import functools
import math

from sfcar.errors import DomainError
from sfcar.records import record
from sfcar.special import complete_elliptic_k

_STEP = 0.24
_SEAM = 0.25  # up to this |w| both callers take w - log1p(w) from `_phi`
# 2 / (2j + 1) for j = 1..9: the atanh series of `_phi`, truncated where the
# next term is below 5e-18 of the sum (|y| <= 1/7 for |w| <= _SEAM).
_C3, _C5, _C7, _C9, _C11, _C13, _C15, _C17, _C19 = (2.0 / j for j in range(3, 20, 2))


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
    return InfoRates(max(kli / (2.0 * math.pi), 0.0), max(mi / (2.0 * math.pi), 0.0))


def _sums(delta: float, nodes, sigma: float):
    """Return (kli, mi): the sums over nodes (h, weight), h = sin^2(w/2),
    of weight times the KL bracket and log1p(x) at g = (A0 - B)/c =
    delta + (1 - delta) h and k = (A0 + B)/c = 1 + (1 - delta) h."""
    sqrt, log1p, phi = math.sqrt, math.log1p, _phi
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
        if x > _SEAM:
            if m == math.inf:  # x overflows once sigma is near the largest double
                m = math.log(sigma / v) + log1p((a + a + sigma) / rsum)
            bracket = m - sigma / r1
        else:
            # x - sigma/r1 without cancellation, less x - log1p(x)
            a1 = a + sigma
            bracket = sigma * sigma * ((a + a1) * (1.0 + a1 / rsum) + r0) / (v * r1 * rsum) - phi(x)
        mi += weight * m
        kli += weight * bracket
    return kli, mi


def _phi(w: float) -> float:
    """w - log1p(w) >= 0 for |w| <= _SEAM, without cancellation: with
    y = w / (2 + w), log1p(w) = 2 atanh(y) and w - 2 y = w y."""
    y = w / (2.0 + w)
    y2 = y * y
    series = _C11 + y2 * (_C13 + y2 * (_C15 + y2 * (_C17 + y2 * _C19)))
    return w * y - y * y2 * (_C3 + y2 * (_C5 + y2 * (_C7 + y2 * (_C9 + y2 * series))))


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
    the largest power of two <= delta, which its whole octave shares."""
    return _table(math.frexp(delta)[1])


@functools.cache
def _table(exponent: int) -> tuple[tuple[float, float], ...]:
    """(h, weight) at every node of the rule anchored at 2^(exponent - 1):
    h = sin^2(w/2) = t^2/(1 + t^2) there, and the weight in w."""
    anchor = math.ldexp(0.5, exponent)
    root = math.sqrt(anchor)
    top = math.asinh(1.0 / root)
    beta = math.exp(-top - 2.0)
    # weight = _STEP (dw/du)(du/dv): dw/du = 2 sqrt(anchor) cosh(u) / (1 + t^2)
    # and du/dv = 1 + beta cosh(v)
    scale = 2.0 * _STEP * root
    end = top + 1.0
    rule = []
    j = 0
    while True:
        v = j * _STEP
        u = v + beta * math.sinh(v)
        t2 = anchor * math.sinh(u) ** 2
        q = 1.0 + t2
        weight = scale * (1.0 + beta * math.cosh(v)) * math.cosh(u) / q
        rule.append((t2 / q, weight))
        if u > end and weight < 1e-17:
            break
        j += 1
    rule[0] = (0.0, 0.5 * rule[0][1])  # v = 0: the sum over v >= 0 of an even integrand
    return tuple(rule)
