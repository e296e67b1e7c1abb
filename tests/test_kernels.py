import math
import tracemalloc

import numpy as np
import pytest

import sfcar
from sfcar import kernels


def random_grid(rng, n):
    nodes = rng.uniform(0.0, math.pi, size=n)
    weights = rng.uniform(0.0, 0.1, size=n)
    return np.cos(nodes), weights


def single_block_sums(cos1, w1, cos2, w2, zeta, snr, cnorm):
    # the whole grid in one temporary, summed in a different order
    s = snr / (cnorm * (1.0 - 2.0 * zeta * (cos1[:, None] + cos2[None, :])))
    m = 0.5 * np.log1p(s)
    k = m - 0.5 * s / (1.0 + s)
    return float(w1 @ k @ w2), float(w1 @ m @ w2)


class TestBlockedSum:
    @pytest.mark.parametrize("zeta,snr", [(0.0, 1.0), (0.2, 10.0), (0.2499, 1e-4)])
    def test_many_blocks_match_single_block(self, zeta, snr, monkeypatch):
        rng = np.random.default_rng(42)
        cos1, w1 = random_grid(rng, 257)
        cos2, w2 = random_grid(rng, 129)
        cnorm = 1.0 if zeta == 0.0 else 1.3
        monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1000)  # 7 rows a block
        blocked = kernels.rate_sums(cos1, w1, cos2, w2, zeta, snr, cnorm)
        single = single_block_sums(cos1, w1, cos2, w2, zeta, snr, cnorm)
        for a, b in zip(blocked, single):
            assert a == pytest.approx(b, rel=5e-13)

    def test_default_blocks_match_on_large_grid(self):
        # 2100^2 points exceed one default block
        n = 2100
        assert n * n > kernels._BLOCK_ELEMENTS
        omega = 2.0 * np.pi * np.arange(n) / n
        w = np.full(n, 1.0 / n)
        c = np.cos(omega)
        blocked = kernels.rate_sums(c, w, c, w, 0.15, 2.0, 1.1)
        single = single_block_sums(c, w, c, w, 0.15, 2.0, 1.1)
        for a, b in zip(blocked, single):
            assert a == pytest.approx(b, rel=5e-13)

    def test_long_rows_in_column_blocks(self):
        # rows longer than 2^14 are summed in blocks of 4 rows by 2^12
        # columns (10 here), so the temporaries stay near 128 KB each
        rng = np.random.default_rng(7)
        cos1, w1 = random_grid(rng, 3)
        cos2, w2 = random_grid(rng, 40_000)
        assert cos2.size > kernels._BLOCK_ELEMENTS // 2
        tracemalloc.start()
        try:
            blocked = kernels.rate_sums(cos1, w1, cos2, w2, 0.2, 10.0, 1.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        single = single_block_sums(cos1, w1, cos2, w2, 0.2, 10.0, 1.3)
        for a, b in zip(blocked, single):
            assert a == pytest.approx(b, rel=5e-13)
        assert peak < 2**20


class TestDispatch:
    def test_backend_reported(self):
        assert sfcar.backend_name() == "python"

    def test_dispatch_callable(self):
        c = np.cos(np.linspace(0.1, 3.0, 16))
        w = np.full(16, 0.05)
        kli, mi = kernels.rate_sums(c, w, c, w, 0.1, 1.0, 1.05)
        assert 0.0 < kli < mi

    def test_deterministic(self):
        c = np.cos(np.linspace(0.0, math.pi, 64))
        w = np.full(64, 1.0 / 64.0)
        a = kernels.rate_sums(c, w, c, w, 0.22, 5.0, 1.4)
        b = kernels.rate_sums(c, w, c, w, 0.22, 5.0, 1.4)
        assert a == b

    def test_zero_snr_sums(self):
        c = np.cos(np.linspace(0.0, math.pi, 8))
        w = np.full(8, 0.125)
        assert kernels.rate_sums(c, w, c, w, 0.2, 0.0, 1.3) == (0.0, 0.0)
