"""High-precision reference values for the benchmark, from mpmath alone.

This module imports nothing from ``sfcar``: it re-derives every quantity
the benchmark checks from the model's defining formulas, by routes that
share no code path with the library.

* Rates.  The inner frequency integral of the 2-D rate integrands has a
  closed form (Gradshteyn & Ryzhik 2.553, 4.224):

      int_0^pi log(A - B cos w) dw = pi log((A + sqrt(A^2 - B^2)) / 2)
      int_0^pi dw / (A - B cos w)  = pi / sqrt(A^2 - B^2)

  so with c = (2/pi) K(4 zeta), A0 = c (1 - 2 zeta cos w1), A1 = A0 + snr,
  B = 2 c zeta and r = sqrt(A^2 - B^2):

      mi  = (1/2pi) int_0^pi log((A1 + r1) / (A0 + r0)) dw1
      kli = (1/2pi) int_0^pi [log((A1 + r1) / (A0 + r0)) - snr / r1] dw1

  evaluated by tanh-sinh quadrature at 30 digits, on panels graded
  toward the spectral peak at w1 = 0.  The KL integrand is one
  expression, so its O(snr^2) value costs no digits that matter.
* Torus.  The DFT-grid sums reduce by the Chebyshev product
  prod_k (x - cos(2 pi k/N)) = 2^(1-N) (T_N(x) - 1) to one sum over N
  terms per axis.
* Correlation chain.  rho = x K_1(x) by mpmath's Bessel function, and
  the inverse of rho(zeta) by bisection in log(1/4 - zeta) at 60 digits,
  so zeta may sit far closer to 1/4 than a double can.
* Network.  Hop counts by summing |i| + |j| over one axis.

Rates at zeta = 1/4 and at snr = 0 are 0 by the library's stated
convention.
"""

from functools import lru_cache

import mpmath as mp

RATE_DPS = 30
CHAIN_DPS = 60


def _norm(z):
    # (2/pi) K(4 zeta); mpmath's ellipk takes the parameter m = k^2.
    return 2 / mp.pi * mp.ellipk(16 * z * z)


def rates(zeta: float, snr: float) -> tuple[float, float]:
    """(kli, mi) per-node rates in nats at exactly these doubles."""
    kli, mi = rates_mp(zeta, snr)
    return float(kli), float(mi)


def rates_mp(zeta, snr):
    """(kli, mi) as mpf; zeta and snr may be doubles or mpf."""
    with mp.workdps(RATE_DPS):
        z = mp.mpf(zeta)
        s = mp.mpf(snr)
        if s == 0 or z == mp.mpf(0.25):
            return mp.mpf(0), mp.mpf(0)
        if z == 0:
            lg = mp.log1p(s)
            return (lg - s / (1 + s)) / 2, lg / 2
        c = _norm(z)
        b = 2 * c * z

        @lru_cache(maxsize=None)  # both integrals visit the same nodes
        def parts(w):
            a0 = c * (1 - 2 * z * mp.cos(w))
            a1 = a0 + s
            r0 = mp.sqrt((a0 - b) * (a0 + b))
            r1 = mp.sqrt((a1 - b) * (a1 + b))
            log_ratio = mp.log((a1 + r1) / (a0 + r0))
            return log_ratio, log_ratio - s / r1

        points = _graded_points(z)
        mi = mp.quad(lambda w: parts(w)[0], points)
        kli = mp.quad(lambda w: parts(w)[1], points)
        return kli / (2 * mp.pi), mi / (2 * mp.pi)


def _graded_points(z):
    # The integrand varies on the scale sqrt((1 - 4 zeta)/zeta) at w = 0.
    width = mp.sqrt((1 - 4 * z) / z)
    points = [mp.pi]
    while points[-1] > width / 4 and len(points) < 200:
        points.append(points[-1] / 2)
    return [mp.mpf(0)] + points[::-1]


def torus_rates(zeta: float, snr: float, n: int) -> tuple[float, float]:
    """(kli, mi) per node on the n x n torus at exactly these doubles."""
    if snr == 0.0:
        return 0.0, 0.0
    with mp.workdps(RATE_DPS):
        z = mp.mpf(zeta)
        s = mp.mpf(snr)
        if z == 0:
            lg = mp.log1p(s)
            return float((lg - s / (1 + s)) / 2), float(lg / 2)
        c = _norm(z)
        b = 2 * c * z
        mi = mp.mpf(0)
        trace = mp.mpf(0)
        for j in range(n):
            a0 = c * (1 - 2 * z * mp.cos(2 * mp.pi * j / n))
            a1 = a0 + s
            # sum_k log(A - B cos w_k) = N log(B/2) + 2 log 2 + 2 log sinh(N t/2)
            # with t = acosh(A/B); its A-derivative gives the 1/(A - B cos) sum.
            h0 = n * mp.acosh(a0 / b) / 2
            h1 = n * mp.acosh(a1 / b) / 2
            mi += mp.log(mp.sinh(h1) / mp.sinh(h0))
            trace += mp.coth(h1) / mp.sqrt((a1 - b) * (a1 + b))
        mi /= n * n
        kli = mi - s * trace / (2 * n)
        return float(kli), float(mi)


def edge_correlation(alpha: float, spacing: float):
    """rho = x K_1(x) at x = alpha * spacing, as an mpf at CHAIN_DPS."""
    with mp.workdps(CHAIN_DPS):
        x = mp.mpf(alpha) * mp.mpf(spacing)
        return x * mp.besselk(1, x)


def rho_of_zeta(z):
    """Edge correlation of the lattice model with edge dependence factor z."""
    with mp.workdps(CHAIN_DPS):
        z = mp.mpf(z)
        if z == 0:
            return mp.mpf(0)
        c = _norm(z)
        return (c - 1) / (4 * z * c)


def zeta_of_rho(rho):
    """Inverse of rho_of_zeta by bisection on log(1/4 - zeta), and its
    derivative d zeta / d rho, both as mpf at CHAIN_DPS."""
    with mp.workdps(CHAIN_DPS):
        rho = mp.mpf(rho)
        if rho == 0:
            return mp.mpf(0), mp.mpf(1)
        lo, hi = mp.log(mp.mpf(10) ** (-CHAIN_DPS + 10)), mp.log(mp.mpf(0.25))
        for _ in range(200):  # rho decreases as log(1/4 - zeta) grows
            mid = (lo + hi) / 2
            if rho_of_zeta(mp.mpf(0.25) - mp.exp(mid)) > rho:
                lo = mid
            else:
                hi = mid
        u = mp.exp((lo + hi) / 2)
        z = mp.mpf(0.25) - u
        h = u * mp.mpf(10) ** -15
        slope = (rho_of_zeta(z + h) - rho_of_zeta(z - h)) / (2 * h)
        return z, 1 / slope


def hop_count_sum(n: int) -> int:
    """sum of |i| + |j| over the (2n+1)^2 lattice."""
    axis = sum(abs(i) for i in range(-n, n + 1))
    return 2 * (2 * n + 1) * axis
