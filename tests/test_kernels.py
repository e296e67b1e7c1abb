import math

import pytest

import sfcar
from sfcar import kernels
from sfcar.lattice import TorusSpec, torus_rates

from oracles import torus_grid_rates, torus_rates_decimal


def folded_rows(n):
    rows = [math.sin(math.pi * j / n) ** 2 for j in range(n // 2 + 1)]
    weights = [(1.0 if j == 0 or 2 * j == n else 2.0) / n for j in range(len(rows))]
    return rows, weights


class TestClosedForm:
    # MI and KL of the closed form against the NumPy grid sum over the
    # folded N x N grid, which sums both axes term by term; the grid's KL
    # subtracts its two integrands and is good to about 1e-16 / s
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 17, 64, 511, 512, 4096])
    def test_matches_grid_oracle(self, n):
        for zeta in (0.0, 5e-324, 0.1, 0.2, 0.2499, 0.25 - 1e-12):
            for snr in (1e-6, 1e-3, 1.0, 1e2, 1e4):
                rates = torus_rates(zeta, snr, TorusSpec(n))
                kli, mi = torus_grid_rates(zeta, snr, n)
                assert rates.mi == pytest.approx(mi, rel=1e-12, abs=0.0)
                assert rates.kli == pytest.approx(kli, rel=1e-9, abs=0.0)

    def test_low_snr_pin_against_decimal(self):
        # KL is O(SNR^2) while each of its integrands is O(SNR); the row
        # terms must carry no cancellation for KL to keep its digits
        kli, mi = torus_rates_decimal(0.12459, 1.15e-6, 4)
        rates = torus_rates(0.12459, 1.15e-6, TorusSpec(4))
        assert rates.kli == pytest.approx(kli, rel=1e-13, abs=0.0)
        assert rates.mi == pytest.approx(mi, rel=1e-13, abs=0.0)


class TestDispatch:
    def test_backend_reported(self):
        assert sfcar.backend_name() == "python"

    def test_dispatch_callable(self):
        # the column axis is passed as range(N), whose length gives N
        rows, weights = folded_rows(16)
        kli, mi = kernels.rate_sums(rows, weights, range(16), 0.1, 1.0, 1.05)
        assert 0.0 < kli < mi

    def test_deterministic(self):
        rows, weights = folded_rows(64)
        a = kernels.rate_sums(rows, weights, range(64), 0.22, 5.0, 1.4)
        b = kernels.rate_sums(rows, weights, range(64), 0.22, 5.0, 1.4)
        assert a == b

    def test_zero_snr_sums(self):
        rows, weights = folded_rows(8)
        assert kernels.rate_sums(rows, weights, range(8), 0.2, 0.0, 1.3) == (0.0, 0.0)

    def test_called_through_module_attribute(self, monkeypatch):
        # torus_rates looks kernels.rate_sums up at call time, so a wrapper
        # put there sees the (N // 2 + 1) x N grid of each call
        seen = []
        original = kernels.rate_sums

        def wrapper(rows, weights, columns, *args):
            seen.append(len(rows) * len(columns))
            return original(rows, weights, columns, *args)

        monkeypatch.setattr(kernels, "rate_sums", wrapper)
        torus_rates(0.2, 1.0, TorusSpec(9))
        torus_rates(0.2, 1.0, TorusSpec(512))
        assert seen == [5 * 9, 257 * 512]
