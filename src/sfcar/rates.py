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
as correlation becomes perfect); at SNR = 0 they are exactly 0.

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
sigma = SNR/c.  With h = (1 - delta) sin^2(w/2), A0 -+ B are
g = delta + h and k = 1 + h, so r0 = sqrt(g k) stays accurate as
zeta -> 1/4, and r1 = sqrt(g + sigma) sqrt(k + sigma), its factors
rooted apart so that no product overflows for any finite SNR.  Then
x = (sigma/v)(1 + (A0 + A1)/(r0 + r1)) with v = A0 + r0, and the KL
bracket is log1p(x) - sigma/r1.  It is O(SNR^2) at low SNR; where
x <= 0.1 it is summed as the two cancellation-free terms
x - sigma/r1 = sigma^2 ((A0 + A1)(1 + A1/(r0 + r1)) + r0) / (v r1 (r0 + r1))
and log1p(x) - x.  `_terms` evaluates this integrand at a sequence of
nodes (g, k, weight); its two consumers are the quadrature rule below and
the rows of the torus oracle (`sfcar.kernels`).

Quadrature: one fixed Gauss-Legendre rule in a single pass.  With
t = tan(w/2), g = (delta + t^2)/(1 + t^2), so the integrand peaks at
w = 0 with width sqrt(delta).  On w <= pi/2 the substitution
t = sqrt(delta) sinh(u) makes delta + t^2 = delta cosh^2(u) and
dw = 2 sqrt(delta) cosh(u) du / (1 + t^2), which takes the peak out:
u in [0, asinh(1/sqrt(delta))] is cut into the fewest equal panels of
length at most 1.5, each with the 12-point rule, and one more 12-point
panel covers [pi/2, pi] in w.  That is
12 (ceil(asinh(1/sqrt(delta)) / 1.5) + 1) nodes: 24 at zeta = 0 and at
most 168, at the last double below 1/4 (delta = 2^-53).  Against the
3,000 stored mpmath rates of the benchmark's rate plane (zeta up to
1/4 - 1e-12, SNR 1e-6 to 1e4) the worst relative error is 1.6e-15, with
76 nodes a call on average; against adaptive SciPy quadrature of the
same integrals it is 2.0e-15 from zeta = 0 to the last double below
1/4 and SNR from 2e-7 to 1e4.  Panels of length 2 would save a fifth
of the nodes and lose two digits (2.6e-13).
"""

import math

from sfcar.errors import DomainError
from sfcar.records import record
from sfcar.special import complete_elliptic_k

# Positive nodes and their weights of the 12-point Gauss-Legendre rule on
# [-1, 1], correctly rounded from 50-digit values; the rule is symmetric.
_GAUSS_HALF = (
    (0.1252334085114689, 0.24914704581340277),
    (0.3678314989981802, 0.2334925365383548),
    (0.5873179542866175, 0.20316742672306592),
    (0.7699026741943047, 0.16007832854334622),
    (0.9041172563704749, 0.10693932599531843),
    (0.9815606342467192, 0.04717533638651183),
)
_GAUSS = tuple((s * x, w) for x, w in _GAUSS_HALF for s in (-1.0, 1.0))
_PANEL_LENGTH = 1.5
# The panel on [pi/2, pi] in w: sin^2(w/2) and the weight at each node.
_OUTER = tuple(
    (math.sin(0.125 * math.pi * (3.0 + x)) ** 2, 0.25 * math.pi * w) for x, w in _GAUSS
)
# 2 / (2j + 1) for j = 1..7: the atanh series of log1p(x) - x, truncated
# where the next term is below 1e-19 of the sum (y^2 <= 0.0023 for x <= 0.1).
_C3, _C5, _C7, _C9, _C11, _C13, _C15 = (2.0 / j for j in range(3, 16, 2))


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
    if snr == 0.0 or delta == 0.0:
        return InfoRates(0.0, 0.0)
    sigma = snr / _spectral_norm(zeta)
    kli = mi = 0.0
    for weight, _, m, bracket in _terms(_rule(delta), sigma):
        mi += weight * m
        kli += weight * bracket
    return InfoRates(max(kli / (2.0 * math.pi), 0.0), max(mi / (2.0 * math.pi), 0.0))


def _terms(nodes, sigma: float):
    """Yield (weight, r0, log1p(x), bracket) at each (g, k, weight) of
    nodes: g = (A0 - B)/c, k = (A0 + B)/c and the node's weight."""
    sqrt, log1p = math.sqrt, math.log1p
    for g, k, weight in nodes:
        a = 0.5 * (g + k)
        r0 = sqrt(g * k)
        r1 = sqrt(g + sigma) * sqrt(k + sigma)
        v = a + r0
        rsum = r0 + r1
        x = (sigma / v) * (1.0 + (a + a + sigma) / rsum)
        m = log1p(x)
        if x > 0.1:
            if m == math.inf:  # x overflows once sigma is near the largest double
                m = math.log(sigma / v) + log1p((a + a + sigma) / rsum)
            yield weight, r0, m, m - sigma / r1
            continue
        a1 = a + sigma
        head = sigma * sigma * ((a + a1) * (1.0 + a1 / rsum) + r0) / (v * r1 * rsum)
        yield weight, r0, m, head + _atanh_tail(x / (2.0 + x)) - x * x / (2.0 + x)


def _atanh_tail(y: float) -> float:
    # 2 atanh(y) - 2 y for |y| <= 0.053: log1p(x) - x = 2 atanh(y) - 2 y - x y
    # with y = x / (2 + x)
    y2 = y * y
    series = _C11 + y2 * (_C13 + y2 * _C15)
    return y * y2 * (_C3 + y2 * (_C5 + y2 * (_C7 + y2 * (_C9 + y2 * series))))


def _check_zeta_snr(zeta: float, snr: float) -> None:
    if not 0.0 <= zeta <= 0.25:
        raise DomainError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be finite and >= 0, got {snr!r}")


def _spectral_norm(zeta: float) -> float:
    # (2/pi) K(4 zeta); equals 1 at zeta = 0.
    return (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)


def _rule(delta: float) -> list[tuple[float, float, float]]:
    """(g, k, weight) at every node of the rule for delta in (0, 1]:
    g = (A0 - B)/c and k = (A0 + B)/c there, and the weight in w."""
    root = math.sqrt(delta)
    top = math.asinh(1.0 / root)
    panels = math.ceil(top / _PANEL_LENGTH)
    half = 0.5 * top / panels
    scale = 2.0 * root * half  # dw/du = 2 sqrt(delta) cosh(u) / (1 + t^2)
    rule = []
    for p in range(panels):
        mid = (2 * p + 1) * half
        for x, w in _GAUSS:
            u = mid + half * x
            cosh_u = math.cosh(u)
            t2 = delta * math.sinh(u) ** 2
            q = 1.0 + t2
            g = delta * cosh_u * cosh_u / q
            rule.append((g, 1.0 + (1.0 - delta) * t2 / q, scale * w * cosh_u / q))
    for s2, w in _OUTER:
        h = (1.0 - delta) * s2
        rule.append((delta + h, 1.0 + h, w))
    return rule
