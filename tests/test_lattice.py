import math
import tracemalloc

import numpy as np
import pytest

from sfcar.errors import DomainError
from sfcar.lattice import TORUS_N_MAX, TorusSpec, torus_rates
from sfcar.rates import info_rates
from sfcar.special import complete_elliptic_k

from oracles import dense_gaussian_rates, tensor_rate_sums

# Exponential spectral convergence reaches double precision quickly, so gap
# sequences are compared down to an absolute accumulation-noise floor.
GAP_FLOOR = 1e-10


class TestTorusRates:
    def test_white_field_exact_at_any_n(self):
        # at zeta = 0 every row is the same and the finite-N terms vanish
        for n in (2, 7, 64, 4096):
            for snr in (1e-6, 1.0, 1e4):
                rates = torus_rates(0.0, snr, TorusSpec(n))
                assert rates.mi == pytest.approx(0.5 * math.log1p(snr), rel=1e-14)
                kli = 0.5 * (math.log1p(snr) - snr / (1.0 + snr))
                assert rates.kli == pytest.approx(kli, rel=1e-9)

    def test_zero_snr(self):
        # the general sums give +0 in every term, on the small tori and
        # near 1/4 too, where the finite-N terms are nonzero at SNR > 0;
        # the CLI prints repr, so -0.0 would show
        for zeta in (0.0, 1e-300, 0.1, 0.2499, 0.25 - 1e-12, math.nextafter(0.25, 0.0)):
            for n in (2, 3, 4, 16, 512):
                rates = torus_rates(zeta, 0.0, TorusSpec(n))
                assert (rates.kli, rates.mi) == (0.0, 0.0)
                assert math.copysign(1.0, rates.kli) == math.copysign(1.0, rates.mi) == 1.0

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
        half, half_shifted = np.sin(0.5 * omega) ** 2, np.sin(0.5 * shifted) ** 2
        a = tensor_rate_sums(half, w, half, w, zeta, snr, cnorm)
        b = tensor_rate_sums(half_shifted, w, half_shifted, w, zeta, snr, cnorm)
        assert a[0] == pytest.approx(b[0], rel=1e-14)
        assert a[1] == pytest.approx(b[1], rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 7, 64, 511, 512])
    @pytest.mark.parametrize("zeta", [0.1, 0.2499])
    def test_fold_matches_full_grid(self, n, zeta):
        # the plain average over all N^2 DFT frequencies, unfolded; odd N
        # has no k = N/2 term, even N weights it like k = 0
        snr = 3.0
        cnorm = (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)
        c = np.cos(2.0 * np.pi * np.arange(n) / n)
        s = snr / (cnorm * (1.0 - 2.0 * zeta * (c[:, None] + c[None, :])))
        mi = np.mean(0.5 * np.log1p(s))
        kli = np.mean(0.5 * np.log1p(s) - 0.5 * s / (1.0 + s))
        rates = torus_rates(zeta, snr, TorusSpec(n))
        assert rates.kli == pytest.approx(kli, rel=1e-13, abs=0)
        assert rates.mi == pytest.approx(mi, rel=1e-13, abs=0)

    def test_memory_does_not_grow_with_grid(self):
        # the folded 2049^2 grid is summed one row at a time in closed
        # form; the whole grid as one array would be 34 MB
        tracemalloc.start()
        try:
            torus_rates(0.2, 1.0, TorusSpec(4096))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            TorusSpec(1)
        with pytest.raises(DomainError):
            TorusSpec(TORUS_N_MAX + 1)
        assert TorusSpec(TORUS_N_MAX).n_per_axis == TORUS_N_MAX
        with pytest.raises(DomainError, match="zeta = 1/4"):
            torus_rates(0.25, 1.0, TorusSpec(8))
        with pytest.raises(DomainError):
            torus_rates(0.1, -1.0, TorusSpec(8))


class TestDenseGaussianRates:
    def test_white_field_closed_form(self):
        # Sigma_X = 2 I at zeta = 0, snr = 2: every eigenvalue is 2
        kli, mi = dense_gaussian_rates(0.0, 2.0, 4)
        assert kli == pytest.approx(0.5 * (math.log(3.0) + 1.0 / 3.0 - 1.0), abs=1e-12)
        assert mi == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_zero_snr(self):
        assert dense_gaussian_rates(0.13, 0.0, 4) == (0.0, 0.0)

    @pytest.mark.parametrize("zeta", [0.0, 0.1, 0.2, 0.24])
    @pytest.mark.parametrize("snr", [0.5, 1.0, 5.0])
    def test_matches_eigenvalue_route(self, zeta, snr):
        kli, mi = dense_gaussian_rates(zeta, snr, 8)
        torus = torus_rates(zeta, snr, TorusSpec(8))
        assert kli == pytest.approx(torus.kli, abs=1e-10)
        assert mi == pytest.approx(torus.mi, abs=1e-10)

    def test_size_limit(self):
        with pytest.raises(ValueError):
            dense_gaussian_rates(0.1, 1.0, 13)

    def test_ordering_inherited(self):
        kli, mi = dense_gaussian_rates(0.2, 1.0, 6)
        assert 0.0 < kli < mi
