import math

import numpy as np
import pytest

from sfcar.errors import DomainError
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.rates import (
    InfoRates,
    QuadratureConfig,
    info_rates,
    kli_rate,
    mi_rate,
    snr_spectral_ratio,
)
from sfcar.special import complete_elliptic_k

from oracles import _log1p_minus_x, kli_rate_1d


def closed_form_kli(snr: float) -> float:
    return 0.5 * (math.log1p(snr) + 1.0 / (1.0 + snr) - 1.0)


def closed_form_mi(snr: float) -> float:
    return 0.5 * math.log1p(snr)


class TestSpectralRatio:
    def test_white_field_is_flat(self):
        for w1, w2 in [(0.0, 0.0), (1.0, 2.0), (math.pi, math.pi)]:
            assert snr_spectral_ratio(0.0, 3.0, w1, w2) == pytest.approx(3.0)

    def test_corner_value(self):
        c = (2.0 / math.pi) * complete_elliptic_k(0.8)
        expected = 1.0 / (c * 1.8)
        assert snr_spectral_ratio(0.2, 1.0, math.pi, math.pi) == pytest.approx(expected)

    def test_zero_snr(self):
        assert snr_spectral_ratio(0.1, 0.0, 0.3, 0.7) == 0.0

    def test_average_equals_snr(self):
        # normalization identity on a large DFT grid
        n = 512
        w = 2.0 * np.pi * np.arange(n) / n
        s = snr_spectral_ratio(0.2, 2.5, w[:, None], w[None, :])
        assert float(np.mean(s)) == pytest.approx(2.5, rel=1e-6)

    def test_endpoint_rejected(self):
        with pytest.raises(DomainError):
            snr_spectral_ratio(0.25, 1.0, 0.0, 0.0)


class TestClosedForms:
    @pytest.mark.parametrize("snr", [0.01, 1.0, 100.0])
    def test_white_field_kli(self, snr):
        assert kli_rate(0.0, snr) == pytest.approx(closed_form_kli(snr), rel=1e-10)

    @pytest.mark.parametrize("snr", [0.01, 1.0, 9.0, 100.0])
    def test_white_field_mi(self, snr):
        assert mi_rate(0.0, snr) == pytest.approx(closed_form_mi(snr), rel=1e-10)

    def test_unit_snr_frozen(self):
        assert kli_rate(0.0, 1.0) == pytest.approx(0.0965735903, abs=1e-9)
        assert mi_rate(0.0, 1.0) == pytest.approx(0.3465735903, abs=1e-9)

    def test_zero_snr_everywhere(self):
        for zeta in (0.0, 0.1, 0.24, 0.25):
            assert info_rates(zeta, 0.0) == InfoRates(0.0, 0.0)

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
        assert kli_rate(zeta, snr) == pytest.approx(expected, rel=1e-11, abs=0.0)


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
        # one double below the endpoint: the graded panels must resolve a
        # spectral peak of width ~3e-9 without refinement blowup
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
        # the 2-D tensor Gauss-Legendre sum of the defining integrands on
        # the same graded panels, with no closed-form inner integral
        from sfcar import kernels
        from sfcar.rates import _graded_edges, _panel_rule

        snr = 3.0
        for zeta in (0.0, 0.18, 0.25 - 1e-12):
            cnorm = (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)
            nodes, weights = _panel_rule(tuple(_graded_edges(zeta, 8)), 16)
            cos_nodes = np.cos(nodes)
            kli, mi = kernels.rate_sums(
                cos_nodes, weights, cos_nodes, weights, zeta, snr, cnorm
            )
            rates = info_rates(zeta, snr)
            assert rates.kli == pytest.approx(kli / math.pi**2, rel=1e-12, abs=0.0)
            assert rates.mi == pytest.approx(mi / math.pi**2, rel=1e-12, abs=0.0)

    def test_deterministic(self):
        a = info_rates(0.21, 7.3)
        b = info_rates(0.21, 7.3)
        assert (a.kli, a.mi) == (b.kli, b.mi)


class TestValidation:
    @pytest.mark.parametrize(
        "zeta,snr",
        [(-0.01, 1.0), (0.26, 1.0), (0.1, -1.0), (0.1, math.inf), (0.1, math.nan),
         (math.nan, 1.0)],
    )
    def test_domain_errors(self, zeta, snr):
        with pytest.raises(DomainError):
            info_rates(zeta, snr)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(points_per_panel=1)
        with pytest.raises(DomainError):
            QuadratureConfig(target_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(panels_per_axis=0)

    def test_info_rates_invariant(self):
        with pytest.raises(DomainError):
            InfoRates(kli=0.5, mi=0.4)
        with pytest.raises(DomainError):
            InfoRates(kli=-0.1, mi=0.4)
