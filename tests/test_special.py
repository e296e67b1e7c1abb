import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcar.errors import DomainError
from scipy.special import ellipe, k1
from sfcar.special import bessel_k1, complete_elliptic_k, elliptic_agm

from oracles import bessel_k1_integral, elliptic_s_mpmath, ellipk_integral, ellipk_mpmath

# Frozen from the defining-integral oracles (ellipk_integral, bessel_k1_integral).
K_HALF = 1.6857503548125963
K1_AT_1 = 0.6019072301972346
K1_AT_2 = 0.1398658818165224

# 2,000 log-spaced x over the range the accuracy is stated for
K1_GRID = [float(x) for x in np.logspace(-12, math.log10(705.0), 2000)]


class TestEllipticK:
    def test_k_zero_is_half_pi(self):
        assert complete_elliptic_k(0.0) == math.pi / 2.0

    def test_k_half_frozen(self):
        assert complete_elliptic_k(0.5) == pytest.approx(K_HALF, rel=1e-12)

    def test_divergence_side_stays_finite_and_ordered(self):
        k999 = complete_elliptic_k(0.999)
        assert math.isfinite(k999)
        assert k999 > complete_elliptic_k(0.99) > complete_elliptic_k(0.9)

    @pytest.mark.parametrize("bad", [-1e-12, -0.5, 1.0, 1.5])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            complete_elliptic_k(bad)

    def test_strictly_increasing(self):
        grid = np.linspace(0.0, 0.9999, 400)
        values = [complete_elliptic_k(float(k)) for k in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_modulus_series(self):
        # K(k) = (pi/2)(1 + k^2/4) + O(k^4) with a small constant
        for k in np.linspace(1e-3, 0.1, 50):
            err = abs(complete_elliptic_k(float(k)) - (math.pi / 2) * (1 + k * k / 4))
            assert err <= 0.5 * k**4

    def test_against_integral_oracle(self):
        grid = np.logspace(-6, math.log10(0.9999), 60)
        for k in grid:
            oracle = ellipk_integral(float(k))
            assert complete_elliptic_k(float(k)) == pytest.approx(oracle, rel=1e-9)

    def test_near_one_against_mpmath(self):
        # K(4 zeta) as the rates take it, on 3,000 seeded zeta with 1/4 - zeta
        # log-uniform in (1e-16, 0.2) and at the 53 zeta whose delta =
        # 1 - 4 zeta is a rule anchor 2^-1 .. 2^-53 (worst seen 5.1e-16, at
        # zeta = 1/4 - 1.1e-10); the error is the AGM's rounding, about 4
        # ulps, not its convergence
        rng = random.Random(2008)
        zetas = [0.25 - 10.0 ** rng.uniform(-16.0, math.log10(0.2)) for _ in range(3000)]
        zetas += [0.25 * (1.0 - math.ldexp(1.0, -e)) for e in range(1, 54)]
        for zeta in zetas:
            k = 4.0 * zeta
            assert complete_elliptic_k(k) == pytest.approx(ellipk_mpmath(k), rel=6e-16, abs=0.0), zeta

    @given(st.floats(min_value=0.0, max_value=0.998))
    @settings(max_examples=50, deadline=None)
    def test_monotone_pairs(self, k):
        assert complete_elliptic_k(k + 1e-3) > complete_elliptic_k(k)


class TestEllipticE:
    # E = k'^2 K + k^2 S from elliptic_agm, with k' rebuilt from k
    @staticmethod
    def big_e(k):
        kc2 = (1.0 - k) * (1.0 + k)
        big_k, big_s, _ = elliptic_agm(k, math.sqrt(kc2))
        return kc2 * big_k + k * k * big_s

    def test_against_scipy(self):
        # k from its complement k' = 1e-15 .. 1; below k' ~ 1.5e-8, k
        # rounds to 1 and is skipped (196 points remain).  S/K is a difference that loses up to ~log10(K)
        # digits as k -> 1 (measured worst 3.8e-15).
        for kc in np.logspace(-15, 0, 300):
            k = math.sqrt((1.0 - kc) * (1.0 + kc))
            if k < 1.0:
                assert self.big_e(k) == pytest.approx(ellipe(k * k), rel=1e-14, abs=0.0)

    def test_strictly_decreasing(self):
        values = [self.big_e(float(k)) for k in np.linspace(0.0, 1.0, 400)[:-1]]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestEllipticAgm:
    # K, S = (E - k'^2 K)/k^2 and (1 - pi/(2K))/k from one AGM driven by
    # the complementary modulus
    @pytest.mark.parametrize("k", [0.0, 1e-3, 0.5, 0.9, 0.999999])
    def test_matches_single_integrals(self, k):
        kc = math.sqrt((1.0 - k) * (1.0 + k))
        big_k, big_s, deficit = elliptic_agm(k, kc)
        assert big_k == complete_elliptic_k(k)  # one AGM loop, not two
        big_e = kc * kc * big_k + k * k * big_s
        assert big_e == pytest.approx(ellipe(k * k), rel=1e-14)
        if k == 0.0:
            assert deficit == 0.0
        else:
            expected = (1.0 - math.pi / (2.0 * ellipk_integral(k))) / k
            assert deficit == pytest.approx(expected, rel=1e-12)

    def test_is_the_k_of_complete_elliptic_k(self):
        # Bit for bit on a dense grid: an AGM loop of its own, with another
        # stopping rule, differs in the last bit at about 7% of moduli.
        for k in map(float, np.linspace(0.0, 0.9999, 2001)):
            kc = math.sqrt((1.0 - k) * (1.0 + k))
            assert elliptic_agm(k, kc)[0] == complete_elliptic_k(k)

    def test_s_against_mpmath(self):
        # S is summed, not taken as E - k'^2 K, which cancels as k -> 0:
        # from the smallest subnormal to k = 1 - 1e-15, where it loses
        # about log10(K) digits as E does (worst seen 2.3e-15, at
        # k = 1 - 1e-14); pi/4 exactly at k = 0
        assert elliptic_agm(0.0, 1.0)[1] == math.pi / 4.0
        grid = [5e-324, 1e-300, 1e-150, 1e-20]
        grid += [10.0 ** (-e / 4.0) for e in range(1, 41)]
        grid += [1.0 - 10.0**-e for e in range(1, 16)]
        for k in grid:
            big_s = elliptic_agm(k, math.sqrt((1.0 - k) * (1.0 + k)))[1]
            assert big_s == pytest.approx(elliptic_s_mpmath(k), rel=5e-15, abs=0.0), k

    def test_complement_carries_precision(self):
        # k = 1 - delta rounds; k' = sqrt(delta (2 - delta)) does not: K
        # follows log(4/k') down to delta = 2^-54
        delta = 2.0**-54
        big_k, _, deficit = elliptic_agm(1.0 - delta, math.sqrt(delta * (2.0 - delta)))
        assert big_k == pytest.approx(math.log(4.0 / math.sqrt(2.0 * delta)), rel=1e-15)
        assert deficit == pytest.approx(1.0 - math.pi / (2.0 * big_k), rel=1e-15)

    def test_small_modulus_deficit(self):
        # (1 - pi/(2K))/k = k/4 + 5 k^3/64 + O(k^5): summed, not cancelled
        for k in (1e-8, 1e-5, 1e-3):
            _, _, deficit = elliptic_agm(k, math.sqrt((1.0 - k) * (1.0 + k)))
            assert deficit == pytest.approx(k / 4.0 + 5.0 * k**3 / 64.0, rel=1e-14)


class TestBesselK1:
    def test_frozen_values(self):
        assert bessel_k1(1.0) == pytest.approx(K1_AT_1, abs=1e-8)
        assert bessel_k1(2.0) == pytest.approx(K1_AT_2, abs=1e-8)

    def test_small_argument_limit(self):
        x = 1e-6
        assert abs(x * bessel_k1(x) - 1.0) < 1e-6

    def test_x_k1_bounded_by_one(self):
        # x K_1(x) rises to 1 as x -> 0; it must not round past it
        for x in K1_GRID:
            assert 0.0 < x * bessel_k1(x) <= 1.0

    def test_against_scipy(self):
        # scipy's k1 is within 5.8e-16 of 40-digit mpmath on these points
        for x in K1_GRID:
            assert bessel_k1(x) == pytest.approx(k1(x), rel=1e-14, abs=0.0)

    def test_strictly_decreasing(self):
        grid = np.logspace(-6, math.log10(600), 300)
        values = [bessel_k1(float(x)) for x in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_underflows_gracefully(self):
        for x in (800.0, 1e308, sys.float_info.max):
            assert bessel_k1(x) == 0.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            bessel_k1(bad)

    def test_branch_seam_agreement(self):
        # the small-x expansion hands over to the trapezoid sum at 1e-5
        below = bessel_k1(1e-5 * (1.0 - 1e-12))
        above = bessel_k1(1e-5)
        assert abs(below - above) / below < 1e-10

    def test_against_integral_oracle(self):
        grid = np.logspace(-2, math.log10(500), 60)
        for x in grid:
            oracle = bessel_k1_integral(float(x))
            assert bessel_k1(float(x)) == pytest.approx(oracle, rel=1e-8)
