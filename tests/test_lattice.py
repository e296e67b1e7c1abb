import math

import numpy as np
import pytest

from sfcar import kernels
from sfcar.errors import DomainError
from sfcar.lattice import TorusSpec, dense_gaussian_rates, torus_rates
from sfcar.rates import info_rates
from sfcar.special import complete_elliptic_k

# Exponential spectral convergence reaches double precision quickly, so gap
# sequences are compared down to an absolute accumulation-noise floor.
GAP_FLOOR = 1e-10


class TestTorusRates:
    def test_white_field_exact_at_any_n(self):
        for n in (2, 7, 64):
            rates = torus_rates(0.0, 1.0, TorusSpec(n))
            assert rates.mi == pytest.approx(0.5 * math.log(2.0), rel=1e-14)

    def test_zero_snr(self):
        rates = torus_rates(0.1, 0.0, TorusSpec(16))
        assert (rates.kli, rates.mi) == (0.0, 0.0)

    def test_gap_shrinks_with_n(self):
        quad = info_rates(0.2, 10.0)
        gaps = []
        for n in (64, 128, 256):
            torus = torus_rates(0.2, 10.0, TorusSpec(n))
            gaps.append(abs(torus.mi - quad.mi))
        for a, b in zip(gaps, gaps[1:]):
            assert b <= max(a, GAP_FLOOR)

    def test_convergence_along_dyadic_sizes(self):
        for zeta in (0.05, 0.15, 0.24):
            quad = info_rates(zeta, 1.0)
            gaps = []
            for k in range(5, 12):
                torus = torus_rates(zeta, 1.0, TorusSpec(2**k))
                gaps.append(
                    max(abs(torus.kli - quad.kli), abs(torus.mi - quad.mi))
                )
            for a, b in zip(gaps, gaps[1:]):
                assert b <= max(a, GAP_FLOOR)
            assert gaps[-1] < 1e-6

    def test_frequency_convention_immaterial(self):
        # the spectral ratio is 2pi-periodic, so mapping the DFT grid to
        # (-pi, pi] leaves the sums unchanged
        zeta, snr, n = 0.22, 3.0, 32
        cnorm = (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)
        omega = 2.0 * np.pi * np.arange(n) / n
        shifted = np.where(omega > np.pi, omega - 2.0 * np.pi, omega)
        w = np.full(n, 1.0 / n)
        a = kernels.rate_sums(np.cos(omega), w, np.cos(omega), w, zeta, snr, cnorm)
        b = kernels.rate_sums(np.cos(shifted), w, np.cos(shifted), w, zeta, snr, cnorm)
        assert a[0] == pytest.approx(b[0], rel=1e-14)
        assert a[1] == pytest.approx(b[1], rel=1e-14)

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            TorusSpec(1)
        with pytest.raises(DomainError):
            torus_rates(0.25, 1.0, TorusSpec(8))
        with pytest.raises(DomainError):
            torus_rates(0.1, -1.0, TorusSpec(8))


class TestDenseGaussianRates:
    def test_white_field_closed_form(self):
        # Sigma_X = 2 I at zeta = 0, snr = 2: every eigenvalue is 2
        rates = dense_gaussian_rates(0.0, 2.0, TorusSpec(4))
        assert rates.kli == pytest.approx(0.5 * (math.log(3.0) + 1.0 / 3.0 - 1.0), abs=1e-12)
        assert rates.mi == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_zero_snr(self):
        rates = dense_gaussian_rates(0.13, 0.0, TorusSpec(4))
        assert (rates.kli, rates.mi) == (0.0, 0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2, 0.24])
    @pytest.mark.parametrize("snr", [0.5, 1.0, 5.0])
    def test_matches_eigenvalue_route(self, zeta, snr):
        spec = TorusSpec(8)
        dense = dense_gaussian_rates(zeta, snr, spec)
        torus = torus_rates(zeta, snr, spec)
        assert dense.kli == pytest.approx(torus.kli, abs=1e-10)
        assert dense.mi == pytest.approx(torus.mi, abs=1e-10)

    def test_size_limit(self):
        with pytest.raises(DomainError):
            dense_gaussian_rates(0.1, 1.0, TorusSpec(13))

    def test_ordering_inherited(self):
        rates = dense_gaussian_rates(0.2, 1.0, TorusSpec(6))
        assert 0.0 < rates.kli < rates.mi
