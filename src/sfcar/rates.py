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

where 1 + x = (A1 + r1)/(A0 + r0).  The factors are formed free of
cancellation: with h = 4 zeta sin^2(w/2) and delta = 1 - 4 zeta,
A0 -+ B = c (delta + h) and c (1 + h), so r0 = c sqrt((delta+h)(1+h))
stays accurate as zeta -> 1/4, and x = (SNR/u)(1 + (A0+A1)/(r0+r1))
with u = A0 + r0.  The KL bracket is O(SNR^2) at low SNR; where x <= 0.1
it is summed as the two cancellation-free terms
x - SNR/r1 = SNR^2 ((A0+A1)(1 + A1/(r0+r1)) + r0) / (u r1 (r0+r1)) and
log1p(x) - x.

Quadrature: Gauss-Legendre over w in [0, pi] on dyadically graded panels
concentrated toward the origin, where the integrand peaks as
zeta -> 1/4.  The grading automatically deepens until the innermost
panel resolves the spectral peak width sqrt((1 - 4 zeta)/zeta), and
whole-grid refinement halves every panel until two successive levels
agree to the target tolerance.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from sfcar.errors import DomainError, QuadratureError
from sfcar.special import complete_elliptic_k

_MAX_REFINEMENTS = 5
_MAX_GRADING_DEPTH = 64


@dataclass(frozen=True)
class QuadratureConfig:
    """Gauss-Legendre panel scheme for the one-dimensional rate integrals.

    panels_per_axis is the base dyadic panel count on the w interval
    [0, pi]; the grading deepens beyond it automatically near zeta = 1/4.
    points_per_panel is the Gauss-Legendre order on each panel, and
    target_tol the relative change between two successive refinement
    levels at which both rates are accepted.
    """

    panels_per_axis: int = 8
    points_per_panel: int = 16
    target_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.panels_per_axis < 1:
            raise DomainError("panels_per_axis must be >= 1")
        if self.points_per_panel < 2:
            raise DomainError("points_per_panel must be >= 2")
        if not self.target_tol > 0.0:
            raise DomainError("target_tol must be > 0")


DEFAULT_QUADRATURE = QuadratureConfig()


@dataclass(frozen=True)
class InfoRates:
    """Per-node information rates in nats: 0 <= kli <= mi."""

    kli: float
    mi: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.kli <= self.mi):
            raise DomainError(f"rates must satisfy 0 <= kli <= mi, got {self!r}")


def snr_spectral_ratio(zeta: float, snr: float, omega1, omega2):
    """SNR-normalized spectral ratio s(omega1, omega2).

    Accepts scalar or array frequencies.  The average of s over the
    frequency square equals snr for every zeta in [0, 1/4).
    """
    _check_zeta_snr(zeta, snr)
    if zeta == 0.25:
        raise DomainError("spectral ratio is undefined at zeta = 1/4")
    cnorm = _spectral_norm(zeta)
    denom = cnorm * (1.0 - 2.0 * zeta * (np.cos(omega1) + np.cos(omega2)))
    return snr / denom


def info_rates(zeta: float, snr: float, config: QuadratureConfig | None = None) -> InfoRates:
    """Both per-node rates in one quadrature pass."""
    _check_zeta_snr(zeta, snr)
    if snr == 0.0 or zeta == 0.25:
        return InfoRates(0.0, 0.0)
    config = config or DEFAULT_QUADRATURE
    cnorm = _spectral_norm(zeta)
    edges = _graded_edges(zeta, config.panels_per_axis)
    prev = None
    for _ in range(_MAX_REFINEMENTS + 1):
        nodes, weights = _panel_rule(tuple(edges), config.points_per_panel)
        kli_terms, mi_terms = _rate_integrands(nodes, zeta, snr, cnorm)
        cur = (
            float(weights @ kli_terms) / (2.0 * math.pi),
            float(weights @ mi_terms) / (2.0 * math.pi),
        )
        if prev is not None and _converged(cur, prev, config.target_tol):
            return InfoRates(max(cur[0], 0.0), max(cur[1], 0.0))
        prev = cur
        edges = _split_edges(edges)
    raise QuadratureError(
        f"rate quadrature did not reach tol={config.target_tol} "
        f"after {_MAX_REFINEMENTS} refinements (zeta={zeta}, snr={snr})"
    )


def kli_rate(zeta: float, snr: float, config: QuadratureConfig | None = None) -> float:
    """Per-node Kullback-Leibler rate in nats."""
    return info_rates(zeta, snr, config).kli


def mi_rate(zeta: float, snr: float, config: QuadratureConfig | None = None) -> float:
    """Per-node mutual-information rate in nats."""
    return info_rates(zeta, snr, config).mi


def _check_zeta_snr(zeta: float, snr: float) -> None:
    if not 0.0 <= zeta <= 0.25:
        raise DomainError(f"zeta must lie in [0, 1/4], got {zeta!r}")
    if not 0.0 <= snr < math.inf:
        raise DomainError(f"snr must be finite and >= 0, got {snr!r}")


def _spectral_norm(zeta: float) -> float:
    # (2/pi) K(4 zeta); equals 1 at zeta = 0.
    return (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)


def _rate_integrands(omega: np.ndarray, zeta: float, snr: float, cnorm: float):
    """KL and MI integrands of the one-dimensional form at the nodes omega.

    The square roots are taken factor by factor so that no product
    overflows for any finite snr.
    """
    h = 4.0 * zeta * np.sin(0.5 * omega) ** 2
    lo = cnorm * ((1.0 - 4.0 * zeta) + h)  # A0 - B
    hi = cnorm * (1.0 + h)  # A0 + B
    a0 = cnorm * (1.0 - 2.0 * zeta * np.cos(omega))
    a1 = a0 + snr
    r0 = np.sqrt(lo) * np.sqrt(hi)
    r1 = np.sqrt(lo + snr) * np.sqrt(hi + snr)
    u = a0 + r0
    rsum = r0 + r1
    x = (snr / u) * (1.0 + (a0 + a1) / rsum)
    mi = np.log1p(x)
    kli = mi - snr / r1
    small = x <= 0.1
    if small.any():
        a0, a1, r0, r1, u, rsum, xs = (
            v[small] for v in (a0, a1, r0, r1, u, rsum, x)
        )
        head = (snr * snr) * ((a0 + a1) * (1.0 + a1 / rsum) + r0) / (u * r1 * rsum)
        kli[small] = head + _log1p_minus_x(xs)
    return kli, mi


# 2 / (2k + 3) for k = 6..0, highest power first: the atanh series in
# _log1p_minus_x, truncated where the next term is below 1e-19 of the sum
# (y^2 <= 0.0023 for x <= 0.1).
_ATANH_COEFFS = 2.0 / np.arange(15.0, 2.0, -2.0)


def _log1p_minus_x(x: np.ndarray) -> np.ndarray:
    # log(1 + x) - x for 0 <= x <= 0.1 without cancellation:
    # log(1 + x) = 2 atanh(y) with y = x / (2 + x), and x - 2y = x^2 / (2 + x).
    y = x / (2.0 + x)
    y2 = y * y
    return y * y2 * np.polyval(_ATANH_COEFFS, y2) - x * x / (2.0 + x)


def _graded_edges(zeta: float, base_panels: int) -> list[float]:
    # Dyadic edges pi * 2^-j on [0, pi].  Depth covers at least the base
    # panel count and deepens so the innermost panel is narrower than half
    # the spectral peak width at the origin.
    if zeta > 0.0:
        delta = max(1.0 - 4.0 * zeta, 1e-18)
        peak_width = math.sqrt(delta / zeta)
    else:
        peak_width = math.pi
    depth = base_panels - 1
    while math.pi * 2.0 ** (-depth) > 0.5 * peak_width and depth < _MAX_GRADING_DEPTH:
        depth += 1
    return [0.0] + [math.pi * 2.0 ** (-j) for j in range(depth, -1, -1)]


def _split_edges(edges: list[float]) -> list[float]:
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        out.append(0.5 * (a + b))
        out.append(b)
    return out


@lru_cache(maxsize=64)
def _gauss_rule(npts: int):
    x, w = np.polynomial.legendre.leggauss(npts)
    return x, w


@lru_cache(maxsize=256)
def _panel_rule(edges: tuple[float, ...], npts: int):
    x, w = _gauss_rule(npts)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        nodes.append(half * (x + 1.0) + a)
        weights.append(half * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _converged(cur, prev, tol: float) -> bool:
    return all(
        abs(c - p) <= tol * max(abs(c), 1e-300) for c, p in zip(cur, prev)
    )
