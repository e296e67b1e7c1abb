"""Independent numerical oracles used across the test suite.

Each oracle evaluates a defining integral, root or brute-force sum with
SciPy's special functions, adaptive quadrature and root finding, with
40-digit decimal arithmetic or with plain enumeration; `spectral_ratio`,
the tensor-grid sum and the dense torus covariance are written in NumPy,
and `jacobi_rule` takes Jacobi's elliptic functions from 30-digit mpmath.
Nothing here imports sfcar: the oracles share no code path with the
library implementations they check.
"""

import math
import sys
from decimal import Decimal, localcontext
from itertools import accumulate

import mpmath
import numpy as np
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq
from scipy.special import ellipe, ellipk, ellipkm1, k1


def ellipk_integral(k: float) -> float:
    """K(k) from its defining integral (modulus convention)."""
    val, _ = quad(
        lambda t: 1.0 / math.sqrt(1.0 - (k * math.sin(t)) ** 2),
        0.0,
        math.pi / 2.0,
        epsabs=0.0,
        epsrel=1e-13,
        limit=300,
    )
    return val


def ellipk_mpmath(k: float) -> float:
    """K(k) at exactly this double modulus, by 30-digit mpmath, whose
    ellipk takes the parameter m = k^2."""
    with mpmath.workdps(30):
        return float(mpmath.ellipk(mpmath.mpf(k) ** 2))


def elliptic_s_mpmath(k: float) -> float:
    """S = (E - k'^2 K) / k^2 at exactly this double modulus, as
    (E(m) - (1 - m) K(m)) / m with m = k^2 by mpmath, whose difference
    loses -log10(m) digits: they are added to 40.  pi/4 at k = 0."""
    m = mpmath.mpf(k) ** 2
    if not m:
        return math.pi / 4.0
    with mpmath.workdps(40 + max(0, int(-mpmath.log10(m)))):
        m = mpmath.mpf(k) ** 2
        return float((mpmath.ellipe(m) - (1 - m) * mpmath.ellipk(m)) / m)


def rho_second_derivative_mpmath(u: float) -> float:
    """d^2 rho / du^2 of the SFCAR edge correlation rho = (1 - pi/(2K(k)))/k
    in u = log(delta), k = 1 - delta, by mpmath's numerical derivative at
    30 + |u|/2.3 digits, so that k = -expm1(u) keeps 30 digits of delta."""
    with mpmath.workdps(30 + int(abs(u) / 2.3)):

        def rho(v):
            k = -mpmath.expm1(v)
            return (1 - mpmath.pi / (2 * mpmath.ellipk(k * k))) / k

        return float(mpmath.diff(rho, mpmath.mpf(u), 2))


def bessel_k1_integral(x: float) -> float:
    """K_1(x) from the integral representation
    K_1(x) = integral_0^inf exp(-x cosh t) cosh t dt."""
    # cosh(45) ~ 1.7e19, so the integrand is identically zero beyond t = 45
    # for every x >= 1e-2 used in the tests.
    val, _ = quad(
        lambda t: math.exp(-x * math.cosh(t)) * math.cosh(t),
        0.0,
        45.0,
        epsabs=0.0,
        epsrel=1e-12,
        limit=500,
    )
    return val


def spectral_density(zeta: float, kappa: float, omega1: float, omega2: float) -> float:
    """Power spectral density 1 / (4 pi^2 kappa (1 - 2 zeta (cos w1 + cos w2)))
    of the SFCAR field with conditional precision kappa."""
    return 1.0 / (
        4.0 * math.pi**2 * kappa * (1.0 - 2.0 * zeta * (math.cos(omega1) + math.cos(omega2)))
    )


def spectral_density_dblquad(zeta: float, kappa: float) -> float:
    """Integral of the spectral density over the full frequency square."""
    val, _ = dblquad(
        lambda w2, w1: spectral_density(zeta, kappa, w1, w2),
        -math.pi,
        math.pi,
        -math.pi,
        math.pi,
        epsabs=0.0,
        epsrel=1e-10,
    )
    return val


def brute_hop_sums(n_max: int) -> list[int]:
    """Exhaustive sums of |i| + |j| over the (2m+1)^2 lattices, m = 0..n_max.

    One pass over every cell of the largest lattice: cell (i, j) lies on
    ring max(|i|, |j|), each lattice is the union of the rings up to its
    index, so the running totals of the ring sums are every lattice's sum.
    """
    axis = [abs(i) for i in range(-n_max, n_max + 1)]
    rings = [0] * (n_max + 1)
    for a in axis:
        for b in axis:
            rings[a if a > b else b] += a + b
    return list(accumulate(rings))


def brute_hop_sum(n: int) -> int:
    """Exhaustive sum of |i| + |j| over the (2n+1)^2 lattice."""
    return brute_hop_sums(n)[n]


# ---------------------------------------------------------------------------
# The density chain of the network model, rebuilt from its defining formulas:
# spacing -> rho = alpha d K_1(alpha d) -> zeta -> SNR -> (2n+1)^2 * kli.
# SciPy supplies K_1 and K(k); zeta(rho) is found by Brent's method and the
# KL rate by adaptive quadrature of its one-dimensional form.

# Relative tolerance of the KL-rate quadrature.  The integrand below is
# free of cancellation (its worst relative error against 50-digit values
# is 3e-15), so quad meets this, with error estimates at most 2.5e-14 of
# the value on the paper scenario.
KLI_EPSREL = 1e-12


def _k_series(m: float) -> float:
    # (2/pi) K - 1 at parameter m = k^2 from its power series
    # sum_{j>=1} ((2j-1)!!/(2j)!!)^2 m^j, a sum of positive terms.
    term, total, j = 1.0, 0.0, 0
    while True:
        term *= ((2 * j + 1) / (2 * j + 2)) ** 2 * m
        total += term
        if term <= 1e-17 * total:
            return total
        j += 1


def _cnorm_minus_one(zeta: float) -> float:
    # (2/pi) K(4 zeta) - 1.  Below zeta = 1/8 it is summed from the series,
    # which avoids the cancellation of 1 against (2/pi) K near zeta = 0;
    # above, SciPy's ellipkm1 takes the complementary parameter
    # 1 - 16 zeta^2 without rounding it.
    if zeta < 0.125:
        return _k_series(16.0 * zeta * zeta)
    return (2.0 / math.pi) * ellipkm1((1.0 - 4.0 * zeta) * (1.0 + 4.0 * zeta)) - 1.0


def jacobi_rule(anchor: float, n: int) -> list[tuple[float, float]]:
    """(h, weight) of the periodic trapezoid rule under the map
    sin(w/2) = k' sd(u | m), k'^2 = anchor, m = 1 - anchor, at
    u = j K(m)/n for j = 0..n: h = sin^2(w/2) = anchor sn^2 / dn^2 and
    the weight (K/n) dw/du = 2 k' (K/n) / dn, halved at both ends; by
    mpmath's ellipfun at 30 digits."""
    with mpmath.workdps(30):
        a = mpmath.mpf(anchor)
        m = 1 - a
        step = mpmath.ellipk(m) / n
        rule = []
        for j in range(n + 1):
            # sn(0) = 0; mpmath returns rounding noise there
            sn = mpmath.ellipfun("sn", j * step, m=m) if j else mpmath.mpf(0)
            dn = mpmath.ellipfun("dn", j * step, m=m)
            weight = 2 * mpmath.sqrt(a) * step / dn
            rule.append((float(a * (sn / dn) ** 2), float(weight / 2 if j in (0, n) else weight)))
    return rule


def rho_of_zeta_elliptic(zeta: float) -> float:
    """Edge correlation ((2/pi)K(4z) - 1) / (4z (2/pi)K(4z)) of an SFCAR
    field, with rho(0) = 0 and rho(1/4) = 1."""
    if zeta == 0.0:
        return 0.0
    if zeta == 0.25:
        return 1.0
    cm1 = _cnorm_minus_one(zeta)
    return cm1 / (4.0 * zeta * (1.0 + cm1))


def zeta_of_rho_brent(rho: float) -> float:
    """Inverse of rho_of_zeta_elliptic on [0, 1/4] by Brent's method, to a
    few ulps of zeta (xtol is tiny so that zeta ~ rho ~ 1e-43 resolves)."""
    return brentq(
        lambda z: rho_of_zeta_elliptic(z) - rho,
        0.0,
        0.25,
        xtol=1e-300,
        rtol=4.0 * sys.float_info.epsilon,
        maxiter=500,
    )


def zeta_of_rho_decimal(rho: float) -> float:
    """zeta(rho) for 0 < rho <= rho(1/8), correctly rounded.

    Secant iteration in 40-digit decimal arithmetic on
    rho = s / (4 zeta (1 + s)), where s = (2/pi) K(4 zeta) - 1 is the
    power series sum_{m>=1} ((2m-1)!!/(2m)!!)^2 (4 zeta)^(2m), whose terms
    fall at least as fast as 4^-m for zeta <= 1/8.  A double-precision
    root of the same map is uncertain by a few ulps of zeta.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        target = Decimal(rho)

        def residual(z: Decimal) -> Decimal:
            m = 16 * z * z
            term, total, j = Decimal(1), Decimal(0), 0
            while True:
                term *= (Decimal(2 * j + 1) / (2 * j + 2)) ** 2 * m
                total += term
                if term < total * Decimal("1e-42"):
                    return total / (4 * z * (1 + total)) - target
                j += 1

        z0, z1 = target - 5 * target**3, target
        f0, f1 = residual(z0), residual(z1)
        for _ in range(50):
            if f1 == f0 or abs(z1 - z0) <= z1 * Decimal("1e-36"):
                break
            z0, z1 = z1, z1 - f1 * (z1 - z0) / (f1 - f0)
            f0, f1 = f1, residual(z1)
        return float(z1)


def _rho_of_delta(delta: float) -> float:
    # rho = (c - 1) / ((1 - delta) c), c = (2/pi) K(k), k = 1 - delta,
    # k'^2 = delta (2 - delta).  From delta = 1/64 up, where c - 1 < 1, it
    # takes one descending Landen step, K(k) = (1 + k1) K(k1) with
    # k1 = (k / (1 + k'))^2, and the series of (2/pi) K(k1) - 1, so that
    # no term cancels; below, SciPy's ellipkm1, where c - 1 >= 0.99.
    p = delta * (2.0 - delta)
    if delta < 1.0 / 64.0:
        cm1 = (2.0 / math.pi) * ellipkm1(p) - 1.0
    else:
        k1 = ((1.0 - delta) / (1.0 + math.sqrt(p))) ** 2
        cm1 = k1 + (1.0 + k1) * _k_series(k1 * k1)
    return cm1 / ((1.0 - delta) * (1.0 + cm1))


def delta_of_rho(rho: float) -> float:
    """delta = 1 - 4 zeta of the SFCAR field with edge correlation rho,
    for rho(1/8) <= rho <= 0.995: Brent's method on log(delta) in
    [log(1e-300), log(1/2)] against rho(delta) with K from SciPy's
    ellipkm1(delta (2 - delta)) (or a Landen step and a power series
    where c - 1 < 1).  1/4 - delta/4 then lies within 2 ulps of zeta
    (measured against 40-digit values)."""
    u = brentq(
        lambda u: _rho_of_delta(math.exp(u)) - rho,
        math.log(1e-300),
        math.log(0.5),
        xtol=1e-300,
        rtol=4.0 * sys.float_info.epsilon,
        maxiter=500,
    )
    return math.exp(u)


def low_snr_kli(zeta: float, snr: float) -> float:
    """Per-node KL rate to second order in the SNR,

        (snr^2/4) <1/(cD)^2> - (snr^3/3) <1/(cD)^3>,

    with D = 1 - 2 zeta (cos w1 + cos w2), c = (2/pi) K(k) and k = 4 zeta.
    The averages follow from the lattice Green's function
    <1/(lam - 2 zeta (cos w1 + cos w2))> = (2/(pi lam)) K(4 zeta/lam)
    (Gradshteyn & Ryzhik 8.123; Morita, J. Math. Phys. 12, 1744 (1971))
    by differentiating in lam at lam = 1: <1/D^2> = (2/pi) E/(1 - k^2)
    and <1/D^3> = (2E - (K - E)(1 - k^2)) / (pi (1 - k^2)^2), with
    SciPy's ellipkm1 and ellipe.  The first omitted term is
    (3/8) <s^4> for s = snr/(cD), under 1.5 s_max^2 of the rate with
    s_max = snr / (c (1 - 4 zeta)).
    """
    p = (1.0 - 4.0 * zeta) * (1.0 + 4.0 * zeta)  # 1 - k^2
    big_k = ellipkm1(p) if zeta >= 0.125 else ellipk(16.0 * zeta * zeta)
    big_e = ellipe(16.0 * zeta * zeta)
    c = (2.0 / math.pi) * big_k
    mean_d2 = (2.0 / math.pi) * big_e / p
    mean_d3 = (2.0 * big_e - (big_k - big_e) * p) / (math.pi * p * p)
    return snr**2 / 4.0 * mean_d2 / c**2 - snr**3 / 3.0 * mean_d3 / c**3


def rates_by_snr_integral(zeta: float, snr: float) -> tuple[float, float]:
    """(kli, mi) per node as integrals over the SNR, for zeta < 1/4.

    With the lattice Green's function <1/(a - 2 zeta (cos w1 + cos w2))>
    = (2/(pi a)) K(k), k = 4 zeta / a, the derivatives of the rates in
    sigma = snr / c, c = (2/pi) K(4 zeta), are

        d mi / dt  = K(k) / (pi a)
        d kli / dt = t E(k) / (pi a^2 (1 - k^2))

    at a = 1 + t, where a^2 (1 - k^2) = (t + delta)(2 + t - delta) and
    delta = 1 - 4 zeta.  Both are integrated from 0 to sigma by SciPy's
    quad in v = log1p(t / delta), dt = (t + delta) dv, which spreads the
    logarithmic peak of K at t = 0 as zeta -> 1/4 and cancels the
    1/(t + delta) of the KL integrand.  K and E come from SciPy: ellipkm1
    takes 1 - k^2 without rounding it, and c is ellipkm1(delta (2 - delta))
    above zeta = 1/8, where delta is exact, and ellipk(16 zeta^2) below.
    """
    delta = 1.0 - 4.0 * zeta
    big_k = ellipkm1(delta * (2.0 - delta)) if zeta > 0.125 else ellipk(16.0 * zeta * zeta)
    sigma = snr / ((2.0 / math.pi) * big_k)

    def mi_integrand(v: float) -> float:
        t = delta * math.expm1(v)
        a = 1.0 + t
        return ellipkm1((t + delta) * (2.0 + t - delta) / (a * a)) * (t + delta) / a

    def kli_integrand(v: float) -> float:
        t = delta * math.expm1(v)
        k = 4.0 * zeta / (1.0 + t)
        return t * ellipe(k * k) / (2.0 + t - delta)

    top = math.log1p(sigma / delta)
    rates = [
        quad(f, 0.0, top, epsabs=0.0, epsrel=1e-13)[0] / math.pi
        for f in (kli_integrand, mi_integrand)
    ]
    return rates[0], rates[1]


def mean_log_d(zeta: float) -> float:
    """<log D> for D = 1 - 2 zeta (cos w1 + cos w2), averaged over the
    frequency square, for 0 <= zeta <= 1/4.

    As SNR -> inf, mi -> (1/2) log(snr / c) - (1/2) <log D> and kli -> mi - 1/2.
    The lattice Green's function gives d<log D>/d zeta = -(c - 1)/zeta, with
    c = (2/pi) K(4 zeta), so <log D> = -int_0^zeta (c(z) - 1)/z dz; at
    zeta = 1/4 it is 4G/pi - ln 4 (G Catalan's constant), the square
    lattice's spanning-tree entropy less ln 4.  SciPy's quad integrates it
    in v = -log(1 - 4z), dz = e^-v dv / 4, which turns the logarithmic peak
    of K at z = 1/4 into a tail v e^-v.  c - 1 is summed from its power
    series below z = 1/8, where it cancels, and from ellipkm1 of the exact
    1 - 16 z^2 = e^-v (2 - e^-v) above.
    """

    def integrand(v: float) -> float:
        d = math.exp(-v)  # 1 - 4z
        if d == 0.0:  # v past 745, where the tail is below 1e-300
            return 0.0
        z = -0.25 * math.expm1(-v)
        if z < 0.125:
            c_minus_one = _k_series(16.0 * z * z)
        else:
            c_minus_one = (2.0 / math.pi) * ellipkm1(d * (2.0 - d)) - 1.0
        return 0.25 * d * c_minus_one / z

    if zeta == 0.0:
        return 0.0
    top = -math.log1p(-4.0 * zeta) if zeta < 0.25 else math.inf
    return -quad(integrand, 0.0, top, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def _log1p_minus_x(x: float) -> float:
    # log(1 + x) - x for 0 <= x <= 0.1 without cancellation:
    # log(1 + x) = 2 atanh(y) with y = x / (2 + x), and x - 2y = x^2 / (2 + x).
    y = x / (2.0 + x)
    y2 = y * y
    term, tail, k = y, 0.0, 3
    while True:
        term *= y2
        tail += term / k
        if term <= 1e-17 * tail:
            return 2.0 * tail - x * x / (2.0 + x)
        k += 2


def spectral_ratio(zeta: float, snr: float, cnorm: float, omega1, omega2):
    """The spectral ratio s = snr / (cnorm (1 - 2 zeta (cos w1 + cos w2)))
    at scalar or array frequencies.  With cnorm = (2/pi) K(4 zeta) its
    average over the frequency square is snr."""
    return snr / (cnorm * (1.0 - 2.0 * zeta * (np.cos(omega1) + np.cos(omega2))))


def tensor_rate_sums(half1, w1, half2, w2, zeta: float, snr: float, cnorm: float):
    """(kli_sum, mi_sum), the weighted sums over the grid i, j of

        0.5 log1p(s) - 0.5 s / (1 + s)   and   0.5 log1p(s),

    with weights w1[i] w2[j] and s = snr / (cnorm (1 - 2 zeta (cos w1 +
    cos w2))), over the whole grid at once.  The grid is given by the
    half-angle sines half[i] = sin^2(w / 2), and the denominator is taken
    as delta + 4 zeta (half1[i] + half2[j]), delta = 1 - 4 zeta, which
    keeps its digits near the spectral peak as zeta -> 1/4.  KL subtracts
    the two integrands, so it carries a relative error of about 1e-16 / s
    at low SNR."""
    half1, w1, half2, w2 = (np.asarray(a, dtype=np.float64) for a in (half1, w1, half2, w2))
    s = np.add.outer(half1, half2)
    s *= 4.0 * zeta
    s += 1.0 - 4.0 * zeta
    s *= cnorm
    np.divide(snr, s, out=s)
    m = 0.5 * np.log1p(s)
    mi = float(w1 @ (m @ w2))
    denominator = s + 1.0
    np.divide(s, denominator, out=s)
    del denominator
    m -= 0.5 * s
    return float(w1 @ (m @ w2)), mi


def torus_grid_rates(zeta: float, snr: float, n: int) -> tuple[float, float]:
    """(kli, mi) per node on the n x n torus: `tensor_rate_sums` over the
    DFT grid, each axis folded onto its n // 2 + 1 distinct frequencies
    with shares 1/n (k = 0 and k = n/2) and 2/n, and c = (2/pi) K(4 zeta)."""
    k = np.arange(n // 2 + 1)
    half = np.sin(math.pi * k / n) ** 2
    w = np.where((k == 0) | (2 * k == n), 1.0 / n, 2.0 / n)
    cnorm = 1.0 + _cnorm_minus_one(zeta)
    return tensor_rate_sums(half, w, half, w, zeta, snr, cnorm)


_DENSE_N_MAX = 12


def dense_gaussian_rates(zeta: float, snr: float, n: int) -> tuple[float, float]:
    """(kli, mi) per node from the dense n^2 x n^2 torus covariance.

    Builds Sigma_X by inverse 2-D DFT of the spectral eigenvalues
    snr / (c (1 - 2 zeta (cos w1 + cos w2))), c = (2/pi) K(4 zeta), then
    per-node D(p0 || p1) = (1/2n^2) [tr((Sigma_X+I)^-1) - n^2
    + log det(Sigma_X+I)] and per-node MI = (1/2n^2) log det(Sigma_X+I),
    via a Cholesky factorization: the defining Gaussian formulas, with no
    spectral shortcut.  Restricted to n <= 12.
    """
    if n > _DENSE_N_MAX:
        raise ValueError(f"dense route limited to n <= {_DENSE_N_MAX}, got {n}")
    if snr == 0.0:
        return 0.0, 0.0
    omega = 2.0 * math.pi * np.arange(n) / n
    denom = 1.0 - 2.0 * zeta * (np.cos(omega)[:, None] + np.cos(omega)[None, :])
    eigs = snr / ((1.0 + _cnorm_minus_one(zeta)) * denom)
    gen = np.real(np.fft.ifft2(eigs))  # circulant generator r[di, dj]
    idx = np.arange(n)
    diff = (idx[:, None] - idx[None, :]) % n
    cov = gen[diff[:, None, :, None], diff[None, :, None, :]].reshape(n * n, n * n)
    chol = np.linalg.cholesky(cov + np.eye(n * n))
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    chol_inv = np.linalg.solve(chol, np.eye(n * n))
    trace_inv = float(np.sum(chol_inv * chol_inv))
    nn = n * n
    return 0.5 * (trace_inv - nn + logdet) / nn, 0.5 * logdet / nn


_DECIMAL_PI = Decimal("3.14159265358979323846264338327950288419716939937510582")


def _decimal_cos(x: Decimal) -> Decimal:
    # Taylor series, for |x| <= 2 pi at the context precision
    term = total = Decimal(1)
    j = 0
    while True:
        j += 2
        term *= -x * x / (j * (j - 1))
        if total + term == total:
            return total
        total += term


def torus_rates_decimal(zeta: float, snr: float, n: int) -> tuple[float, float]:
    """(kli, mi) per node on the n x n torus, summed in 40-digit decimal
    arithmetic over all n^2 DFT frequencies, with no fold and no closed
    form: 0.5 ln(1 + s) - 0.5 s / (1 + s) and 0.5 ln(1 + s) averaged,
    s = snr / (c (1 - 2 zeta (cos w1 + cos w2))) and c = (2/pi) K(4 zeta)
    rounded to a double.  For small n: the cost is n^2 logarithms."""
    with localcontext() as ctx:
        ctx.prec = 40
        cnorm = Decimal(1.0 + _cnorm_minus_one(zeta))
        z, sn = Decimal(zeta), Decimal(snr)
        cos = [_decimal_cos(2 * _DECIMAL_PI * k / n) for k in range(n)]
        kli = mi = Decimal(0)
        for c1 in cos:
            for c2 in cos:
                s = sn / (cnorm * (1 - 2 * z * (c1 + c2)))
                log = (1 + s).ln()
                mi += log
                kli += log - s / (1 + s)
        return float(kli / (2 * n * n)), float(mi / (2 * n * n))


def kli_rate_1d(zeta: float, snr: float) -> float:
    """Per-node KL rate from the one-dimensional form of its integral.

    The inner frequency integral has closed forms (Gradshteyn & Ryzhik
    2.553, 4.224): int_0^pi log(A - B cos w) dw = pi log((A + r)/2) and
    int_0^pi dw / (A - B cos w) = pi / r with r = sqrt(A^2 - B^2).  With
    c = (2/pi) K(4 zeta), A0 = c (1 - 2 zeta cos w), A1 = A0 + snr and
    B = 2 c zeta,

        kli = (1/2pi) int_0^pi [log((A1 + r1)/(A0 + r0)) - snr/r1] dw.

    The bracket is O(snr^2) at low SNR; it is evaluated as
    log1p(x) - snr/r1 with x = snr (u + v) / (u (r0 + r1)), u = A0 + r0,
    v = A1 + r1, and for x <= 0.1 regrouped into two terms that carry no
    cancellation: x - snr/r1 = snr^2 ((A0 + A1)(1 + A1/(r0 + r1)) + r0)
    / (u r1 (r0 + r1)), and log1p(x) - x.  quad gets break points at
    doubling multiples of the spectral peak width sqrt((1 - 4 zeta)/zeta),
    and its error estimate is checked against KLI_EPSREL.
    """
    return _rate_1d(zeta, snr, kl=True)


def mi_rate_1d(zeta: float, snr: float) -> float:
    """Per-node MI rate (1/2pi) int_0^pi log1p(x) dw, with x and the
    quadrature as in kli_rate_1d."""
    return _rate_1d(zeta, snr, kl=False)


def _rate_1d(zeta: float, snr: float, kl: bool) -> float:
    c = 1.0 + _cnorm_minus_one(zeta)
    delta = 1.0 - 4.0 * zeta

    def bracket(w: float) -> float:
        h = 4.0 * zeta * math.sin(0.5 * w) ** 2
        lo, hi = c * (delta + h), c * (1.0 + h)  # A0 - B and A0 + B
        a0 = c * (1.0 - 2.0 * zeta * math.cos(w))
        a1 = a0 + snr
        r0 = math.sqrt(lo * hi)
        r1 = math.sqrt((lo + snr) * (hi + snr))
        u = a0 + r0
        x = snr * (u + a1 + r1) / (u * (r0 + r1))
        if not kl:
            return math.log1p(x)
        if x > 0.1:
            return math.log1p(x) - snr / r1
        head = snr * snr * ((a0 + a1) * (1.0 + a1 / (r0 + r1)) + r0)
        return head / (u * r1 * (r0 + r1)) + _log1p_minus_x(x)

    points = []
    if zeta > 0.0:
        point = math.sqrt(delta / zeta)
        while point < math.pi:
            points.append(point)
            point *= 2.0
    val, err = quad(
        bracket,
        0.0,
        math.pi,
        points=points or None,
        epsabs=0.0,
        epsrel=KLI_EPSREL,
        limit=200,
    )
    assert err <= KLI_EPSREL * val, f"quad error {err:.1e} on {val:.3e}"
    return val / (2.0 * math.pi)


def rates_mpmath(zeta: float, snr: float) -> tuple[float, float]:
    """(kli, mi) per node from the one-dimensional integrals of
    kli_rate_1d and mi_rate_1d, by 40-digit mpmath tanh-sinh quadrature
    at exactly these doubles.  With d = 1 - 4 zeta, the integrand is
    written in A0 -+ B = c (d + 4 zeta sin^2(w/2)) and c (1 + 4 zeta
    sin^2(w/2)), so that no digit goes to 1 - 2 zeta cos w near w = 0; the
    KL bracket is the one expression log((A1 + r1)/(A0 + r0)) - snr/r1,
    whose O(snr^2) cancellation the 40 digits absorb.  Panels halve from
    pi toward the spectral peak, down to a quarter of its width
    sqrt(d/zeta).  About half a second a point near zeta = 1/4."""
    with mpmath.workdps(40):
        z, s = mpmath.mpf(zeta), mpmath.mpf(snr)
        d = 1 - 4 * z
        c = 2 / mpmath.pi * mpmath.ellipk(16 * z * z)  # ellipk takes m = k^2

        def parts(w):
            lift = 4 * z * mpmath.sin(w / 2) ** 2
            lo, hi = c * (d + lift), c * (1 + lift)
            a0 = (lo + hi) / 2
            r0 = mpmath.sqrt(lo * hi)
            r1 = mpmath.sqrt((lo + s) * (hi + s))
            log_ratio = mpmath.log((a0 + s + r1) / (a0 + r0))
            return log_ratio - s / r1, log_ratio

        points = [mpmath.pi]
        if z > 0:
            while points[-1] > mpmath.sqrt(d / z) / 4:
                points.append(points[-1] / 2)
        points = [mpmath.mpf(0)] + points[::-1]
        kli = mpmath.quad(lambda w: parts(w)[0], points)
        mi = mpmath.quad(lambda w: parts(w)[1], points)
        return float(kli / (2 * mpmath.pi)), float(mi / (2 * mpmath.pi))


def chain_total_kli(
    n: int,
    *,
    half_width: float,
    alpha: float,
    total_energy: float,
    e0: float,
    nu: float,
    beta: float,
    rho_max: float,
) -> tuple[float, float | None]:
    """(rho, total KLI) of the (2n+1)^2 lattice under the network model.

    Spacing d = L/n, rho = alpha d K_1(alpha d), communication energy
    E0 d^nu per hop summed over every node's |i| + |j| hops, sensing
    energy (E - that) / (2n+1)^2, SNR = beta E_s and total (2n+1)^2 kli.
    The total is None when rho > rho_max: near rho ~ 0.9205 zeta reaches
    the last double below 1/4 and no longer resolves rho.
    """
    d = half_width / n
    rho = alpha * d * k1(alpha * d)
    if rho > rho_max:
        return rho, None
    nodes = (2 * n + 1) ** 2
    # |i| + |j| is separable: each of the 2n+1 rows and columns repeats
    # the one-axis sum of |i|.
    hops = 2 * (2 * n + 1) * sum(abs(i) for i in range(-n, n + 1))
    snr = beta * (total_energy - hops * e0 * d**nu) / nodes
    return rho, nodes * kli_rate_1d(zeta_of_rho_brent(rho), snr)
