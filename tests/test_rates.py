import json
import math
import random
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ellipk, ellipkm1

from sfcar.errors import DomainError
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.rates import (
    _SEAM,
    _rule,
    _sinh_excess,
    _spectral_norm,
    _sums,
    InfoRates,
    info_rates,
)
from sfcar.special import complete_elliptic_k

from oracles import (
    _DECIMAL_PI,
    _cnorm_minus_one,
    _log1p_minus_x,
    ellipk_integral,
    jacobi_rule,
    kli_rate_1d,
    low_snr_kli,
    mean_log_d,
    mi_rate_1d,
    rates_by_snr_integral,
    rates_mpmath,
    spectral_ratio,
    tensor_rate_sums,
)


def closed_form_kli(snr: float) -> float:
    return 0.5 * (math.log1p(snr) + 1.0 / (1.0 + snr) - 1.0)


def closed_form_mi(snr: float) -> float:
    return 0.5 * math.log1p(snr)


def nodes_gkw(delta: float) -> list[tuple[float, float, float]]:
    # (g, k, weight) at the rule's nodes, g and k formed as `_sums` forms them
    spread = 1.0 - delta
    return [(delta + spread * h, 1.0 + spread * h, w) for h, w in _rule(delta)]


class TestSpectralRatio:
    # the library's normalization (2/pi) K(4 zeta) in the spectral ratio
    def test_white_field_is_flat(self):
        for w1, w2 in [(0.0, 0.0), (1.0, 2.0), (math.pi, math.pi)]:
            s = spectral_ratio(0.0, 3.0, _spectral_norm(0.0), w1, w2)
            assert s == pytest.approx(3.0)

    def test_corner_value(self):
        c = (2.0 / math.pi) * ellipk_integral(0.8)
        expected = 1.0 / (c * 1.8)
        s = spectral_ratio(0.2, 1.0, _spectral_norm(0.2), math.pi, math.pi)
        assert s == pytest.approx(expected)

    def test_zero_snr(self):
        assert spectral_ratio(0.1, 0.0, _spectral_norm(0.1), 0.3, 0.7) == 0.0

    def test_average_equals_snr(self):
        # normalization identity on a large DFT grid
        n = 512
        w = 2.0 * np.pi * np.arange(n) / n
        s = spectral_ratio(0.2, 2.5, _spectral_norm(0.2), w[:, None], w[None, :])
        assert float(np.mean(s)) == pytest.approx(2.5, rel=1e-6)

    def test_endpoint_rejected(self):
        # the normalization diverges where the ratio is undefined
        with pytest.raises(DomainError):
            _spectral_norm(0.25)


class TestClosedForms:
    @pytest.mark.parametrize("snr", [0.01, 1.0, 100.0])
    def test_white_field_kli(self, snr):
        assert info_rates(0.0, snr).kli == pytest.approx(closed_form_kli(snr), rel=1e-10)

    @pytest.mark.parametrize("snr", [0.01, 1.0, 9.0, 100.0])
    def test_white_field_mi(self, snr):
        assert info_rates(0.0, snr).mi == pytest.approx(closed_form_mi(snr), rel=1e-10)

    def test_unit_snr_frozen(self):
        assert info_rates(0.0, 1.0).kli == pytest.approx(0.0965735903, abs=1e-9)
        assert info_rates(0.0, 1.0).mi == pytest.approx(0.3465735903, abs=1e-9)

    def test_zero_snr_everywhere(self):
        # the general sum, not a branch, gives +0 (as -0.0 the CLI would
        # print "-0.0"); 1/4 itself is the convention
        for zeta in (0.0, 1e-300, 0.1, 0.24, 0.2499, math.nextafter(0.25, 0.0), 0.25):
            rates = info_rates(zeta, 0.0)
            assert rates == InfoRates(0.0, 0.0)
            assert math.copysign(1.0, rates.kli) == math.copysign(1.0, rates.mi) == 1.0

    def test_perfect_correlation_convention(self):
        assert info_rates(0.25, 10.0) == InfoRates(0.0, 0.0)


class TestLowSnrAccuracy:
    # The KL integrand is O(snr^2) made of O(snr) parts; the references
    # below are summed free of that cancellation.
    @pytest.mark.parametrize("snr", [1e-4, 1e-6, 2e-7])
    @pytest.mark.parametrize("zeta", [0.0, 1e-3, 0.2])
    def test_kli_matches_cancellation_free_reference(self, zeta, snr):
        if zeta == 0.0:
            expected = 0.5 * (snr * snr / (1.0 + snr) + _log1p_minus_x(snr))
        else:
            expected = kli_rate_1d(zeta, snr)
        assert info_rates(zeta, snr).kli == pytest.approx(expected, rel=1e-11, abs=0.0)


class TestLowSnrExpansion:
    # Against the closed-form expansion to SNR^3 in K and E, an oracle that
    # shares no quadrature with the rule.  Points are kept where
    # s_max = snr / (c delta) <= 2e-6, so that the omitted term, under
    # 1.5 s_max^2 of the rate, stays below 6e-12; at s_max = 1e-3 it is
    # 5e-7 (zeta = 0.249).
    @pytest.mark.parametrize("snr", [1e-9, 1e-8, 1e-7, 1e-6])
    def test_kli_matches_two_term_expansion(self, snr):
        checked = 0
        for zeta in (0.0, 0.05, 0.1, 0.15, 0.2, 0.24, 0.249, 0.2499):
            if snr / (_spectral_norm(zeta) * (1.0 - 4.0 * zeta)) > 2e-6:
                continue
            expected = low_snr_kli(zeta, snr)
            assert info_rates(zeta, snr).kli == pytest.approx(expected, rel=1e-10, abs=0.0)
            checked += 1
        assert checked >= 3


class TestAgainstTorus:
    def test_moderate_zeta(self):
        quad = info_rates(0.2, 10.0)
        torus = torus_rates(0.2, 10.0, TorusSpec(2048))
        assert quad.kli == pytest.approx(torus.kli, abs=1e-4)
        assert quad.mi == pytest.approx(torus.mi, abs=1e-4)

    def test_near_endpoint(self):
        quad = info_rates(0.24, 1.0)
        torus = torus_rates(0.24, 1.0, TorusSpec(4096))
        assert quad.kli == pytest.approx(torus.kli, abs=1e-3)
        assert quad.mi == pytest.approx(torus.mi, abs=1e-3)

    def test_extreme_zeta_still_converges(self):
        # one double below the endpoint: the rule's anchor at delta = 2^-53
        # must resolve a spectral peak of width ~3e-9 (in 84 nodes)
        zeta = float(np.nextafter(0.25, 0.0))
        rates = info_rates(zeta, 1e-4)
        assert 0.0 < rates.kli < rates.mi < 1e-3


class TestProperties:
    def test_monotone_in_snr(self):
        snrs = np.logspace(-2, 4, 30)
        for zeta in (0.0, 0.1, 0.24):
            rates = [info_rates(zeta, float(s)) for s in snrs]
            assert all(b.kli > a.kli for a, b in zip(rates, rates[1:]))
            assert all(b.mi > a.mi for a, b in zip(rates, rates[1:]))

    def test_ordering(self):
        for zeta in (0.0, 0.12, 0.24):
            for snr in (0.01, 1.0, 50.0):
                r = info_rates(zeta, snr)
                assert 0.0 < r.kli < r.mi

    def test_agrees_with_tensor_sum(self):
        # the 2-D tensor Gauss-Legendre sum of the defining integrands, with
        # no closed-form inner integral, on 16-point panels graded toward
        # the spectral peak: [0, pi 2^-d], ..., [pi/2, pi], each halved once,
        # with the innermost no wider than the peak width sqrt(delta/zeta)
        x, w = np.polynomial.legendre.leggauss(16)
        snr = 3.0
        for zeta in (0.0, 0.18, 0.25 - 1e-12):
            width = math.sqrt((1.0 - 4.0 * zeta) / zeta) if zeta else math.pi
            depth = max(7, math.ceil(math.log2(math.pi / width)))
            edges = np.concatenate(([0.0], math.pi * 2.0 ** -np.arange(depth, -1, -1)))
            edges = np.sort(np.concatenate((edges, 0.5 * (edges[:-1] + edges[1:]))))
            half = 0.5 * np.diff(edges)[:, None]
            nodes = (half * (x + 1.0) + edges[:-1, None]).ravel()
            weights = (half * w).ravel()
            cnorm = (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)
            half = np.sin(0.5 * nodes) ** 2
            kli, mi = tensor_rate_sums(half, weights, half, weights, zeta, snr, cnorm)
            rates = info_rates(zeta, snr)
            assert rates.kli == pytest.approx(kli / math.pi**2, rel=1e-12, abs=0.0)
            assert rates.mi == pytest.approx(mi / math.pi**2, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.001, 0.1, 0.2, 0.25 - 1e-12])
    def test_doubling_at_the_top_of_the_double_range(self, zeta):
        # Both rates are (1/2) log SNR + O(1) + O(1/SNR), so doubling SNR adds
        # (1/2) ln 2.  At 1.7e308 the integrand's x overflows for zeta of
        # 0.1 and 0.2 and is taken in logarithms instead.
        spec = TorusSpec(16)
        for rates in (info_rates, lambda z, s: torus_rates(z, s, spec)):
            high, low = rates(zeta, 1.7e308), rates(zeta, 0.85e308)
            assert high.mi - low.mi == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
            assert high.kli - low.kli == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_deterministic(self):
        a = info_rates(0.21, 7.3)
        b = info_rates(0.21, 7.3)
        assert (a.kli, a.mi) == (b.kli, b.mi)


class TestSnrIntegral:
    # rates_by_snr_integral integrates the derivatives of the rates in the
    # SNR, a path that shares no integrand with rates._sums
    GRID = [
        (0.25 - float(gap), float(snr))
        for gap in np.logspace(-12, math.log10(0.25), 13)
        for snr in np.logspace(-6, 4, 11)
    ]
    CORNERS = [
        (zeta, snr)
        for zeta in (0.0, 1e-300, 0.125, 0.249, 0.25 - 1e-12, float(np.nextafter(0.25, 0.0)))
        for snr in (1e-12, 1e-9, 1e-3, 1e3, 1e10)
    ]

    @pytest.mark.parametrize("points", ["GRID", "CORNERS"])
    def test_matches_info_rates(self, points):
        for zeta, snr in getattr(self, points):
            rates = info_rates(zeta, snr)
            kli, mi = rates_by_snr_integral(zeta, snr)
            assert rates.kli == pytest.approx(kli, rel=1e-13, abs=0.0), (zeta, snr)
            assert rates.mi == pytest.approx(mi, rel=1e-13, abs=0.0), (zeta, snr)

    def test_kl_identity(self):
        # integrating d kli / dt by parts: kli = mi - sigma K(k_s) / (pi (1 + sigma))
        # with k_s = 4 zeta / (1 + sigma); free of cancellation for sigma >= 1
        checked = 0
        for zeta, snr in self.GRID + self.CORNERS:
            delta = 1.0 - 4.0 * zeta
            c = ellipkm1(delta * (2.0 - delta)) if zeta > 0.125 else ellipk(16.0 * zeta**2)
            sigma = snr / ((2.0 / math.pi) * c)
            if sigma < 1.0:
                continue
            a = 1.0 + sigma
            k_sigma = ellipkm1((sigma + delta) * (2.0 + sigma - delta) / (a * a))
            rates = info_rates(zeta, snr)
            expected = rates.mi - sigma * k_sigma / (math.pi * a)
            assert rates.kli == pytest.approx(expected, rel=1e-14, abs=0.0), (zeta, snr)
            checked += 1
        assert checked >= 50


class TestBracketSeam:
    # The KL bracket switches from log1p(x) - sigma/r1 to
    # coth(theta1) (cosh m - 1) - _sinh_excess(m) at m = log1p(x) = _SEAM.
    # At each node h = sin^2(w/2), where `_sums` takes
    # g = delta + (1 - delta) h and k = 1 + (1 - delta) h, sigma is put just
    # below and just above the seam, found in closed form: with
    # A1 = a + sigma, r1 = sqrt((g + sigma)(k + sigma)) and v = a + r0,
    # A1 + r1 = e^_SEAM v at sigma = (c^2 - g k) / (2 (a + c)),
    # c = e^_SEAM v - a.  Both values are checked against 50-digit
    # decimal arithmetic (worst seen 2.1e-15 over 74 points).
    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2, 0.2499, float(np.nextafter(0.25, 0.0))])
    def test_matches_decimal_on_both_sides(self, zeta):
        delta = 1.0 - 4.0 * zeta
        for h, _ in _rule(delta)[::4]:
            g, k = delta + (1.0 - delta) * h, 1.0 + (1.0 - delta) * h
            a, r0 = 0.5 * (g + k), math.sqrt(g * k)
            c = math.exp(_SEAM) * (a + r0) - a
            seam = (c * c - g * k) / (2.0 * (a + c))
            for sigma, above in ((seam * (1.0 - 1e-9), False), (seam * (1.0 + 1e-9), True)):
                bracket, m = _sums(delta, [(h, 1.0)], sigma)
                with localcontext() as ctx:
                    ctx.prec = 50
                    dg, dk, ds = Decimal(g), Decimal(k), Decimal(sigma)
                    r1 = ((dg + ds) * (dk + ds)).sqrt()
                    ratio = ((dg + dk) / 2 + ds + r1) / ((dg + dk) / 2 + (dg * dk).sqrt())
                    exact_m = ratio.ln()
                    exact_bracket = exact_m - ds / r1
                    assert (exact_m > Decimal(_SEAM)) == above
                assert m == pytest.approx(float(exact_m), rel=2e-14, abs=0.0)
                assert bracket == pytest.approx(float(exact_bracket), rel=2e-14, abs=0.0)

    def test_flat_spectrum_across_the_seam(self):
        # at zeta = 0, x = s on every node, and the rates are exactly
        # 0.5 ln(1 + s) - 0.5 s / (1 + s) and 0.5 ln(1 + s); 4,000 s across
        # the seam against 40-digit decimal (worst seen 1.4e-15 in KLI, at
        # s = 0.554 just above the seam, where log1p(x) and sigma/r1 cancel
        # fivefold, and 5.6e-16 in MI)
        for snr in np.logspace(-2, math.log10(30.0), 4000):
            rates = info_rates(0.0, float(snr))
            with localcontext() as ctx:
                ctx.prec = 40
                s = Decimal(float(snr))
                mi = (1 + s).ln() / 2
                kli = mi - s / (2 * (1 + s))
            assert rates.kli == pytest.approx(float(kli), rel=2e-15, abs=0.0), snr
            assert rates.mi == pytest.approx(float(mi), rel=1.5e-15, abs=0.0), snr

    def test_sinh_excess_matches_decimal(self):
        # sinh(m) - m over the whole range its callers give it, m >= 0, and
        # its mirror (worst seen 4.2e-16)
        for m in np.linspace(-_SEAM, _SEAM, 2001):
            with localcontext() as ctx:
                ctx.prec = 40
                e = Decimal(float(m)).exp()
                exact = (e - 1 / e) / 2 - Decimal(float(m))
            assert _sinh_excess(float(m)) == pytest.approx(float(exact), rel=5e-16, abs=0.0), m


class TestNoClamp:
    # info_rates and torus_rates return their sums as they stand: every
    # node's log1p(x) and KL bracket is >= +0.0, never -0.0, and so the
    # torus's sums satisfy 0 <= kli <= mi, which InfoRates checks.  zeta
    # log-uniform from 1e-300 and 1/4 - 10^U(-16, -1); SNR = 0 or
    # log-uniform from 1e-320 to 1e308.
    @staticmethod
    def points(seed, count):
        rng = random.Random(seed)
        for _ in range(count):
            if rng.random() < 0.5:
                zeta = 0.25 * 10.0 ** rng.uniform(-300.0, 0.0)
            else:
                zeta = 0.25 - 10.0 ** rng.uniform(-16.0, -1.0)
            snr = 0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-320.0, 308.0)
            yield zeta, snr

    def test_every_node_non_negative(self):
        for zeta, snr in self.points(1, 10_000):
            delta = 1.0 - 4.0 * zeta
            sigma = snr / _spectral_norm(zeta)
            for h, _ in _rule(delta):
                for value in _sums(delta, [(h, 1.0)], sigma):
                    assert value >= 0.0 and math.copysign(1.0, value) == 1.0, (zeta, snr, h)

    def test_torus_sums_non_negative(self):
        for j, (zeta, snr) in enumerate(self.points(2, 10_000)):
            rates = torus_rates(zeta, snr, TorusSpec(2 + j % 15))
            signs = math.copysign(1.0, rates.kli), math.copysign(1.0, rates.mi)
            assert signs == (1.0, 1.0), (zeta, snr)


class TestHighSnrClosedForm:
    # As SNR -> inf, mi -> (1/2) log(SNR / c) - (1/2) <log D> and
    # kli -> mi - 1/2, with the O(1/SNR) rest below an ulp from SNR = 1e100
    # on; 1.7e308 takes log1p(x) in two parts, as x overflows there (worst
    # seen 4.4e-16)

    def test_oracle_at_the_quarter(self):
        # <log D> at zeta = 1/4 is 4G/pi - ln 4, G Catalan's constant
        # (worst seen 8.9e-16)
        with localcontext() as ctx:
            ctx.prec = 40
            catalan = Decimal("0.9159655941772190150546035149323841107741")
            exact = 4 * catalan / _DECIMAL_PI - Decimal(4).ln()
        assert mean_log_d(0.25) == pytest.approx(float(exact), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2, 0.24])
    def test_intercept(self, zeta):
        log_d = mean_log_d(zeta)
        c = 1.0 + _cnorm_minus_one(zeta)
        for snr in (1e100, 1e200, 1e300, 1.7e308):
            rates = info_rates(zeta, snr)
            mi = 0.5 * math.log(snr / c) - 0.5 * log_d
            assert rates.mi == pytest.approx(mi, rel=2e-15, abs=0.0), snr
            assert rates.kli == pytest.approx(mi - 0.5, rel=2e-15, abs=0.0), snr


class TestQuadratureScheme:
    # 0, a subnormal, a grid toward 1/4, the doubles next to each zeta at
    # which asinh(1/sqrt(delta)) = 1.5 m, the last double below 1/4, and
    # the zetas whose delta = 1 - 4 zeta lies, exactly, at the top of its
    # octave, 2^(e+1) - 2^-53, or at its middle, 1.5 2^e: the deltas
    # farthest from the power of two whose rule they share
    ZETAS = [
        z
        for z in (
            [0.0, 5e-324, 1e-300, 1e-12, 1e-4, 0.05, 0.1, 0.2, 0.24, 0.2499]
            + [0.25 - float(t) for t in np.logspace(-16, -0.7, 200)]
            + [
                float(np.nextafter(0.25 * (1.0 - math.sinh(1.5 * m) ** -2), side))
                for m in range(1, 13)
                for side in (0.0, 1.0)
            ]
            + [float(np.nextafter(0.25, 0.0))]
            + [
                0.25 - 0.25 * delta
                for e in range(-1, -53, -1)
                for delta in (2.0 ** (e + 1) - 2.0**-53, 1.5 * 2.0**e)
            ]
        )
        if z < 0.25
    ]
    # the same two places in every octave as (delta, anchor), the top one
    # the largest double below 2^(e+1), (2 - 2^-52) 2^e
    MISMATCHED = [
        (m * 2.0**e, 2.0**e) for e in range(-1, -53, -1) for m in (2.0 - 2.0**-52, 1.5)
    ]

    @pytest.mark.parametrize("snr", [2e-7, 1e-3, 1.0, 1e2, 1e4])
    def test_matches_adaptive_quadrature(self, snr):
        for zeta in self.ZETAS:
            rates = info_rates(zeta, snr)
            kli, mi = kli_rate_1d(zeta, snr), mi_rate_1d(zeta, snr)
            assert rates.kli == pytest.approx(kli, rel=1e-12, abs=0.0), zeta
            assert rates.mi == pytest.approx(mi, rel=1e-12, abs=0.0), zeta

    def test_against_mpmath_near_the_quarter(self):
        # near the last double below 1/4, at the grid's lowest SNR, SciPy's
        # adaptive quadrature is itself 7.5e-16 from 40-digit mpmath, so the
        # rule's error is stated against mpmath: 1.2e-15 in KLI, 6.9e-16 in MI
        zeta, snr = 0.24999999999999967, 2e-7
        kli, mi = rates_mpmath(zeta, snr)
        rates = info_rates(zeta, snr)
        assert rates.kli == pytest.approx(kli, rel=1.5e-15, abs=0.0)
        assert rates.mi == pytest.approx(mi, rel=1.5e-15, abs=0.0)

    def test_node_count(self):
        # u = j K/N, N = ceil(K/0.24), from w = 0 (h = 0) to w = pi (h = 1),
        # both ends halved: there the full weight (K/N) dw/du is 2 k' K/N and
        # 2 K/N, with k'^2 = a the anchor, the largest power of two
        # <= min(delta, 1/2), so that K' stays finite; 9 nodes for delta in
        # [1/2, 1], all from the table of 1/2, and 84 at delta = 2^-53
        for zeta in self.ZETAS:
            delta = 1.0 - 4.0 * zeta
            rule = _rule(delta)
            anchor = min(2.0 ** (math.frexp(delta)[1] - 1), 0.5)
            n = len(rule) - 1
            assert n == math.ceil(ellipkm1(anchor) / 0.24), zeta
            assert (rule[0][0], rule[-1][0]) == (0.0, 1.0), zeta
            assert rule[-1][1] == pytest.approx(ellipkm1(anchor) / n, rel=1e-15, abs=0.0), zeta
            assert rule[0][1] == pytest.approx(math.sqrt(anchor) * rule[-1][1], rel=1e-15, abs=0.0)
        for delta in (1.0, float(np.nextafter(1.0, 0.0)), 0.75, 0.5):
            assert _rule(delta) is _rule(0.5) and len(_rule(delta)) == 9, delta
        assert len(_rule(1.0 - 4.0 * float(np.nextafter(0.25, 0.0)))) == 84

    def test_tables_match_mpmath(self):
        # every node of the 53 tables against 30-digit Jacobi elliptic
        # functions (worst seen 2.9e-15 in h and 1.7e-15 in the weight)
        for exponent in range(0, -53, -1):
            anchor = 2.0 ** (exponent - 1)
            rule = _rule(anchor)
            for (h, weight), (exact_h, exact_weight) in zip(rule, jacobi_rule(anchor, len(rule) - 1)):
                assert h == pytest.approx(exact_h, rel=4e-15, abs=0.0), (exponent, h)
                assert weight == pytest.approx(exact_weight, rel=4e-15, abs=0.0), (exponent, h)

    def test_total_table_size(self):
        # the 53 tables, one per octave of delta in [2^-53, 1]: 2,451 nodes
        tables = {id(rule): rule for rule in (_rule(2.0**-i) for i in range(54))}
        assert len(tables) == 53
        assert sum(len(rule) for rule in tables.values()) <= 2460

    def test_weights_integrate_the_interval(self):
        # the weights in w add up to pi (worst seen 2.8e-16 relative)
        for zeta in self.ZETAS:
            total = math.fsum(w for _, w in _rule(1.0 - 4.0 * zeta))
            assert total == pytest.approx(math.pi, rel=2e-15, abs=0.0), zeta

    @pytest.mark.parametrize("depth", [7, 18, 29])
    @pytest.mark.parametrize("level", [0, 1])
    def test_panel_rule(self, depth, level):
        # the trapezoid rule's polynomial moments at delta = 2^-depth:
        # positive weights, g rising with w from delta at w = 0 to 1 at
        # w = pi, and the integrals over [0, pi] of g^level and k^level
        # against their closed forms
        # pi sum_j C(n, j) b^(n-j) (1-delta)^j C(2j, j)/4^j, with b = delta
        # for g and b = 1 for k (worst seen 3.1e-15: at level 1 the poles
        # of h at t = +-i lie on the edge of the rule's strip, and the rule
        # itself, in 30-digit arithmetic, is 2.9e-15 off)
        delta = 2.0**-depth
        rule = nodes_gkw(delta)
        assert all(w > 0.0 for _, _, w in rule)
        gs = [g for g, _, _ in rule]
        assert (gs[0], gs[-1]) == (delta, 1.0)
        assert all(b > a for a, b in zip(gs, gs[1:]))
        for base, position in ((delta, 0), (1.0, 1)):
            exact = math.pi * math.fsum(
                math.comb(level, j) * base ** (level - j) * (1.0 - delta) ** j
                * math.comb(2 * j, j) / 4**j
                for j in range(level + 1)
            )
            total = math.fsum(node[position] ** level * node[2] for node in rule)
            assert total == pytest.approx(exact, rel=5e-15, abs=0.0), base

    @pytest.mark.parametrize("depth", [0, 7, 18, 29, 53])
    def test_elliptic_integral(self, depth):
        # int_0^pi dw / sqrt(g k) = 2 K(4 zeta), a peaked integrand of the
        # rates' kind; polynomials in g of degree 1 and up are not, as they
        # have poles at t = tan(w/2) = +-i that no rate integrand has
        # (worst seen 3.2e-16)
        delta = 2.0**-depth
        total = math.fsum(w / math.sqrt(g * k) for g, k, w in nodes_gkw(delta))
        exact = 2.0 * ellipkm1(delta * (2.0 - delta))
        assert total == pytest.approx(exact, rel=5e-15, abs=0.0)

    def test_mismatched_anchor(self):
        # each delta takes the rule of the largest power of two <= delta;
        # at the top and the middle of every octave the same integral is
        # 2 K(4 zeta) and the weights add up to pi (worst seen 4.2e-16 and
        # 2.8e-16)
        for delta, anchor in self.MISMATCHED:
            assert _rule(delta) is _rule(anchor)
            rule = nodes_gkw(delta)
            total = math.fsum(w / math.sqrt(g * k) for g, k, w in rule)
            exact = 2.0 * ellipkm1(delta * (2.0 - delta))
            assert total == pytest.approx(exact, rel=5e-15, abs=0.0), delta
            assert math.fsum(w for _, _, w in rule) == pytest.approx(math.pi, rel=2e-15, abs=0.0)


class TestStoredReference:
    # the 3,000 rate-plane points of the benchmark's reference file, each
    # with its rates from 50-digit mpmath (zeta up to 1/4 - 1e-12, SNR
    # 1e-6 to 1e4); read only
    POINTS = [
        tuple(point)
        for cell in json.loads(
            (Path(__file__).resolve().parents[1] / "sfcarbench" / "reference.json").read_text()
        )["rate_plane"]["cells"]
        for point in cell
    ]

    def test_stated_accuracy(self):
        # the rates docstring states 1.5e-15 (worst seen 1.35e-15)
        assert len(self.POINTS) == 3000
        for zeta, snr, kli, mi in self.POINTS:
            rates = info_rates(zeta, snr)
            assert rates.kli == pytest.approx(kli, rel=2e-15, abs=0.0), (zeta, snr)
            assert rates.mi == pytest.approx(mi, rel=2e-15, abs=0.0), (zeta, snr)

    def test_mean_node_count(self):
        # the rule's cost on this plane: 35.3 nodes a call on average, each
        # delta taking the rule of the power of two at the foot of its octave
        counts = [len(_rule(1.0 - 4.0 * zeta)) for zeta, _, _, _ in self.POINTS]
        assert sum(counts) / len(counts) <= 36.0


class TestValidation:
    @pytest.mark.parametrize(
        "zeta,snr",
        [(-0.01, 1.0), (0.26, 1.0), (0.1, -1.0), (0.1, math.inf), (0.1, math.nan),
         (math.nan, 1.0)],
    )
    def test_domain_errors(self, zeta, snr):
        # each names its argument: past 1/4, K(4 zeta) would report a modulus
        subject = "^snr" if 0.0 <= zeta <= 0.25 else "^zeta"
        with pytest.raises(DomainError, match=subject):
            info_rates(zeta, snr)

    def test_info_rates_invariant(self):
        with pytest.raises(DomainError):
            InfoRates(kli=0.5, mi=0.4)
        with pytest.raises(DomainError):
            InfoRates(kli=-0.1, mi=0.4)
