import math
import random
import sys
import warnings

import numpy as np
import pytest

import sfcar.correlation
from sfcar.correlation import (
    PhysicalEnvironment,
    edge_correlation,
    rho_of_zeta,
    zeta_of_rho,
    zeta_of_spacing,
)
from sfcar.errors import DomainError

from oracles import (
    bessel_k1_integral,
    delta_of_rho,
    rho_of_zeta_elliptic,
    rho_second_derivative_mpmath,
    zeta_of_rho_brent,
    zeta_of_rho_decimal,
)

ENV = PhysicalEnvironment(alpha=100.0)

# rho at alpha*d = 2, frozen from the Bessel integral oracle: 2 * K_1(2).
RHO_AT_X2 = 0.2797317636330449


class TestEdgeCorrelation:
    def test_contact_limit(self):
        assert edge_correlation(ENV, 1e-10) == pytest.approx(1.0, abs=1e-6)

    def test_far_field_is_zero(self):
        assert edge_correlation(ENV, 0.5) < 1e-15  # alpha*d = 50

    def test_derived_value_at_x2(self):
        rho = edge_correlation(ENV, 0.02)
        assert rho == pytest.approx(2.0 * bessel_k1_integral(2.0), abs=1e-12)
        assert rho == pytest.approx(RHO_AT_X2, abs=1e-4)

    def test_strictly_decreasing(self):
        spacings = np.logspace(-4, -0.5, 200)
        values = [edge_correlation(ENV, float(d)) for d in spacings]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_bounds(self):
        for d in np.logspace(-9, 1, 80):
            assert 0.0 <= edge_correlation(ENV, float(d)) <= 1.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_domain_error(self, bad):
        # the spacing's own message, not that of the product alpha * spacing
        with pytest.raises(DomainError, match="^spacing must be finite"):
            edge_correlation(ENV, bad)

    @pytest.mark.parametrize("alpha,spacing", [(1e308, 1e10), (1e-300, 1e-300)])
    def test_out_of_range_product(self, alpha, spacing):
        with pytest.raises(DomainError, match="alpha"):
            edge_correlation(PhysicalEnvironment(alpha), spacing)

    def test_contact_limit_at_the_smallest_subnormal(self):
        # K_1(5e-324) overflows; rho is its limit, and zeta follows
        env = PhysicalEnvironment(1.0)
        assert edge_correlation(env, 5e-324) == 1.0
        assert zeta_of_spacing(env, 5e-324) == 0.25

    @pytest.mark.parametrize("alpha", [1e308, sys.float_info.max])
    def test_far_field_at_the_largest_doubles(self, alpha):
        # exp(-alpha*d) underflows to 0 and takes K_1 with it, with no nan
        env = PhysicalEnvironment(alpha)
        assert edge_correlation(env, 1.0) == 0.0
        assert zeta_of_spacing(env, 1.0) == 0.0

    def test_alpha_validated(self):
        with pytest.raises(DomainError):
            PhysicalEnvironment(alpha=0.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_alpha(self, bad):
        with pytest.raises(DomainError):
            PhysicalEnvironment(alpha=bad)


class TestRhoOfZeta:
    def test_endpoints_exact(self):
        assert rho_of_zeta(0.0) == 0.0
        assert rho_of_zeta(0.25) == 1.0

    def test_midpoint_against_elliptic_oracle(self):
        from oracles import ellipk_integral

        c = (2.0 / math.pi) * ellipk_integral(0.5)
        expected = (c - 1.0) / (4.0 * 0.125 * c)
        assert rho_of_zeta(0.125) == pytest.approx(expected, abs=1e-9)

    def test_strictly_increasing_on_dense_grid(self):
        grid = np.linspace(0.0, 0.25, 1000)
        values = [rho_of_zeta(float(z)) for z in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_small_zeta_series(self):
        # The AGM's positive terms, with no series branch: below about
        # 1e-20 the bound demands rho == zeta exactly, down to the
        # smallest subnormal.
        grid = [5e-324, 1e-300, 1e-150, 1e-20, *np.linspace(1e-5, 0.01, 60)]
        for z in grid:
            assert abs(rho_of_zeta(float(z)) - float(z)) <= 10.0 * float(z) ** 3

    @pytest.mark.parametrize("bad", [-0.01, 0.2500001, 1.0])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            rho_of_zeta(bad)


class TestZetaOfRho:
    def test_endpoints_exact(self):
        assert zeta_of_rho(0.0) == 0.0
        assert zeta_of_rho(1.0) == 0.25

    def test_root_verified_forward(self):
        z = zeta_of_rho(0.3)
        assert rho_of_zeta(z) == pytest.approx(0.3, abs=1e-12)

    @pytest.mark.parametrize("bad", [-1e-12, -1e-14, 1.0000001, 2.0])
    def test_domain_error(self, bad):
        with pytest.raises(DomainError):
            zeta_of_rho(bad)

    def test_round_trip_in_rho(self):
        # rho -> zeta -> rho.  Restricted to [0, 0.8]: beyond rho ~ 0.85 the
        # inverse collapses into the ulp gap below 1/4 (zeta(rho) approaches
        # the endpoint double-exponentially), so 1e-10 round trips are not
        # representable in double precision there.
        for rho in np.linspace(0.0, 0.8, 1000):
            back = rho_of_zeta(zeta_of_rho(float(rho)))
            assert back == pytest.approx(float(rho), abs=1e-10)
        assert rho_of_zeta(zeta_of_rho(1.0)) == 1.0

    def test_round_trip_in_zeta(self):
        # zeta -> rho -> zeta is well-conditioned over the whole range.
        for z in np.linspace(0.0, 0.25, 1000):
            back = zeta_of_rho(rho_of_zeta(float(z)))
            assert back == pytest.approx(float(z), abs=1e-10)


# rho at zeta = 1/8 (k = 1/2), where the solver's start changes, from the
# elliptic integral oracle.
RHO_EIGHTH = rho_of_zeta_elliptic(0.125)
# 520 edge correlations from 1e-4 to beyond the paper rows' largest
# (0.955), so past rho ~ 0.9205, from which zeta rounds to 1/4.
SOLVER_GRID = [float(r) for r in np.linspace(1e-4, 0.955, 520)]
# Below it: log-spaced from 1e-300, and 200 seeded on [5e-5, 1e-4), which
# holds the paper rows' smallest (6.45e-5, n = 9) and where the start
# rho - 5 rho^3 alone is up to 23 ulps off.
_SEEDED = random.Random(29)
SMALL_GRID = [float(r) for r in np.logspace(-300, -4, 296, endpoint=False)]
SMALL_GRID += [_SEEDED.uniform(5e-5, 1e-4) for _ in range(200)]
# Above the paper rows up to rho ~ 0.9956, where delta reaches the
# smallest normal double, the solver's lower clamp, and on to the last
# double below 1.
SATURATED_GRID = [float(r) for r in np.linspace(0.9205, 0.995, 200)] + [1.0 - 2.0**-53]
# Roots below the smallest normal delta, from rho ~ 0.99559.
BELOW_CLAMP_GRID = [float(r) for r in np.linspace(0.9956, 1.0 - 2.0**-53, 50)]


class TestSolver:
    def test_within_four_ulps_of_oracles(self):
        # Below rho(1/8) against the 40-digit decimal root, correctly
        # rounded; above, against 1/4 - delta/4 from SciPy's delta.  A
        # delta near 1 would fix zeta only to ulp(delta)/4, 2,000 ulps of
        # zeta at rho = 1e-4, so the lower range is checked in zeta.
        worst = 0.0
        for rho in SMALL_GRID + SOLVER_GRID:
            if rho < RHO_EIGHTH:
                expected = zeta_of_rho_decimal(rho)
            else:
                expected = 0.25 - delta_of_rho(rho) / 4.0
            got = zeta_of_rho(rho)
            assert (got == 0.25) == (expected == 0.25), rho
            worst = max(worst, abs(got - expected) / math.ulp(expected))
        assert worst <= 4.0

    def test_saturates_exactly_where_zeta_rounds_to_quarter(self):
        # 1/4 - delta/4 rounds to 1/4 once delta <= 2^-54: from rho ~ 0.9205
        grid = [float(r) for r in np.linspace(0.9200, 0.9210, 201)]
        for rho in grid:
            expected = 0.25 - delta_of_rho(rho) / 4.0
            assert (zeta_of_rho(rho) == 0.25) == (expected == 0.25), rho
        assert zeta_of_rho(grid[0]) < 0.25 == zeta_of_rho(grid[-1])

    def test_stops_at_tolerance(self, monkeypatch):
        # Newton from a close start: at most 5 AGM evaluations a call, 4
        # on average, and one below rho = 1e-4, where the start is within
        # 31 rho^5 of the root, and above rho ~ 0.99559, where the first
        # step falls below the lower clamp and stays there
        calls = []
        agm = sfcar.correlation.elliptic_agm

        def counted(k, kc):
            calls.append(k)
            return agm(k, kc)

        monkeypatch.setattr(sfcar.correlation, "elliptic_agm", counted)
        counts = []
        # the grids, and roots just below delta = 1/2, where the start changes
        for rho in SOLVER_GRID + SATURATED_GRID + [RHO_EIGHTH, 0.13639, 0.1364, 0.137, 0.14]:
            calls.clear()
            zeta_of_rho(rho)
            counts.append(len(calls))
        assert max(counts) <= 5
        assert sum(counts) / len(counts) <= 4.0
        for rho in SMALL_GRID:
            calls.clear()
            zeta_of_rho(rho)
            assert len(calls) == 1, rho
        for rho in BELOW_CLAMP_GRID:
            calls.clear()
            assert zeta_of_rho(rho) == 0.25, rho
            assert len(calls) == 1, rho

    def test_concave_in_log_delta(self):
        # The solver's descent from above needs rho concave in u = log(delta)
        # (it is decreasing, as rho_of_zeta increases), from the lower clamp
        # up to u -> 0
        grid = -np.logspace(math.log10(-math.log(2.0**-1022)), -12, 48)
        assert all(rho_second_derivative_mpmath(float(u)) < 0.0 for u in grid)

    def test_root_below_the_upper_clamp(self):
        # K(k) <= pi/(2k') gives rho <= (1 - k')/k = k/(1 + k') <= k = 4 zeta,
        # so the root u* = log(1 - k) lies at or below log1p(-rho)
        zetas = [zeta_of_rho(rho) for rho in SOLVER_GRID] + SMALL_ARGUMENTS
        for zeta in zetas:
            k = 4.0 * zeta
            bound = k / (1.0 + math.sqrt((1.0 - k) * (1.0 + k)))
            assert rho_of_zeta(zeta) <= bound <= k, zeta

    @pytest.mark.parametrize("rho", [0.93, 0.99, 0.995, 0.999, 1.0 - 2.0**-53, 1.0])
    def test_quarter_by_rounding_up_to_one(self, rho):
        # no cut-off: the Newton path itself lands on 1/4, and rho = 1 is
        # the endpoint rho_of_zeta(1/4) = 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert zeta_of_rho(rho) == 0.25


# Around 1e-4, where E - k'^2 K would cancel in the solver's slope, and
# far below, where the SciPy oracle still resolves them.
SMALL_ARGUMENTS = [1e-150, 1e-20, 1e-6, 9.9e-5, 1.0001e-4, 3e-4, 1e-3, 1e-2]


class TestSmallArguments:
    @pytest.mark.parametrize("zeta", SMALL_ARGUMENTS)
    def test_rho_of_zeta(self, zeta):
        expected = rho_of_zeta_elliptic(zeta)
        assert rho_of_zeta(zeta) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("rho", SMALL_ARGUMENTS)
    def test_zeta_of_rho(self, rho):
        expected = zeta_of_rho_brent(rho)
        assert zeta_of_rho(rho) == pytest.approx(expected, rel=1e-13, abs=0.0)


class TestZetaOfSpacing:
    def test_composition(self):
        d = 0.02
        expected = zeta_of_rho(edge_correlation(ENV, d))
        assert zeta_of_spacing(ENV, d) == expected

    def test_limits(self):
        assert zeta_of_spacing(ENV, 100.0) < 1e-15
        assert zeta_of_spacing(ENV, 1e-9) == pytest.approx(0.25, abs=1e-12)

    def test_strictly_decreasing(self):
        # Strict decrease holds wherever zeta is representable below 1/4;
        # closer contact saturates at the endpoint (rho above ~0.9205 maps
        # into the ulp gap below 1/4).
        spacings = np.logspace(-2.2, -1, 120)
        values = [zeta_of_spacing(ENV, float(d)) for d in spacings]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_contact_zone_saturates_at_endpoint(self):
        assert zeta_of_spacing(ENV, 1e-4) == 0.25
