"""The SFCAR field model: its spectral density and the spectral average
(2/pi) K(4 zeta) / kappa, the per-site variance that normalizes the
spectral ratio in sfcar.rates."""

import math

import numpy as np
import pytest

from sfcar.errors import DomainError
from sfcar.rates import _spectral_norm
from sfcar.special import complete_elliptic_k

from oracles import spectral_density, spectral_density_dblquad


def signal_power(zeta: float, kappa: float) -> float:
    # per-site variance of the field with conditional precision kappa
    return _spectral_norm(zeta) / kappa


class TestSpectralDensity:
    def test_white_field_is_flat(self):
        for w in (0.0, 1.0, math.pi):
            assert spectral_density(0.0, 1.0, w, -w) == pytest.approx(1.0 / (4 * math.pi**2))

    def test_direct_substitution_at_origin(self):
        assert spectral_density(0.2, 1.0, 0.0, 0.0) == pytest.approx(5.0 / (4 * math.pi**2))

    def test_direct_substitution_at_corner(self):
        assert spectral_density(0.1, 2.0, math.pi, math.pi) == pytest.approx(
            1.0 / (8 * math.pi**2 * 1.4)
        )

    def test_symmetries(self):
        for w1, w2 in [(0.3, 1.1), (2.0, -0.7)]:
            ref = spectral_density(0.22, 1.5, w1, w2)
            assert spectral_density(0.22, 1.5, -w1, -w2) == pytest.approx(ref, rel=1e-15)
            assert spectral_density(0.22, 1.5, w2, w1) == pytest.approx(ref, rel=1e-15)

    def test_extrema_at_origin_and_corner(self):
        grid = np.linspace(-math.pi, math.pi, 41)
        values = [spectral_density(0.15, 1.0, float(a), float(b)) for a in grid for b in grid]
        assert max(values) == pytest.approx(spectral_density(0.15, 1.0, 0.0, 0.0))
        assert min(values) == pytest.approx(spectral_density(0.15, 1.0, math.pi, math.pi))

    def test_singularity_at_perfect_correlation(self):
        with pytest.raises(ZeroDivisionError):
            spectral_density(0.25, 1.0, 0.0, 0.0)
        assert spectral_density(0.25, 1.0, math.pi, math.pi) > 0.0


class TestSignalPower:
    def test_white_unit_precision(self):
        assert signal_power(0.0, 1.0) == pytest.approx(1.0)

    def test_white_scales_as_inverse_precision(self):
        assert signal_power(0.0, 4.0) == pytest.approx(0.25)

    def test_matches_density_integral(self):
        oracle = spectral_density_dblquad(0.2, 1.0)
        assert signal_power(0.2, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_diverges_at_endpoint(self):
        with pytest.raises(DomainError):
            signal_power(0.25, 1.0)

    def test_monotone_in_zeta_and_kappa(self):
        powers = [signal_power(float(z), 1.0) for z in np.linspace(0, 0.24, 30)]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        powers = [signal_power(0.1, float(k)) for k in np.linspace(0.5, 5, 30)]
        assert all(b < a for a, b in zip(powers, powers[1:]))


class TestMeasurementSnr:
    def test_derived_from_quadrature(self):
        # against noise of variance 0.5, the SNR is the spectral average over 0.5
        oracle = spectral_density_dblquad(0.15, 2.0)
        assert signal_power(0.15, 2.0) / 0.5 == pytest.approx(oracle / 0.5, rel=1e-8)


def test_normalization_identity():
    # integral of dw / (1 - 2 zeta (cos w1 + cos w2)) over the square equals
    # 4 pi^2 (2/pi) K(4 zeta): the identity behind the SNR separation.
    for zeta in (0.05, 0.15, 0.24):
        oracle = spectral_density_dblquad(zeta, 1.0)
        expected = 2.0 * complete_elliptic_k(4.0 * zeta) / math.pi
        assert oracle == pytest.approx(expected, abs=1e-8)
