import json
import math
import types
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
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


class TestSeam:
    # on small tori near 1/4 the finite-N terms are large, and the log
    # variables L = -log1p(-u) and t = 2D of L - u and expm1(t) - t, which
    # take sinh(L) - L and sinh(t) - t from rates._sinh_excess within the
    # seam, fall on both sides of it; against the 40-digit decimal sum over
    # all N^2 frequencies (worst seen 8.9e-16 in KLI)
    ZETAS = (0.1, 0.15, 0.194, 0.2, 0.22, 0.24, 0.249, 0.2499, 0.25 - 1e-6)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_tori_against_decimal(self, n):
        for zeta in self.ZETAS:
            for snr in np.logspace(-2, 0, 40):
                rates = torus_rates(zeta, float(snr), TorusSpec(n))
                kli, mi = torus_rates_decimal(zeta, float(snr), n)
                assert rates.kli == pytest.approx(kli, rel=1.5e-15, abs=0.0), (zeta, snr)
                assert rates.mi == pytest.approx(mi, rel=1.5e-15, abs=0.0), (zeta, snr)


class TestRowSum:
    # at zeta = 0 (and 1e-300, where the spectrum differs from flat by
    # O(zeta^2)) every row carries the same terms, and the exact rates
    # are 0.5 ln(1 + s) and 0.5 ln(1 + s) - 0.5 s / (1 + s); a plain
    # running sum over the N/2 + 1 rows would let its rounding error grow
    # with N (5.6e-13 at N = 65,536)
    @pytest.mark.parametrize("n", [512, 2048, 4096, 65535, 65536])
    def test_flat_spectrum_against_decimal(self, n):
        for zeta in (0.0, 1e-300):
            for snr in (1e-3, 1.0, 1e4):
                rates = torus_rates(zeta, snr, TorusSpec(n))
                with localcontext() as ctx:
                    ctx.prec = 40
                    s = Decimal(snr)
                    mi = (1 + s).ln() / 2
                    kli = mi - s / (2 * (1 + s))
                assert rates.mi == pytest.approx(float(mi), rel=2e-15, abs=0.0)
                assert rates.kli == pytest.approx(float(kli), rel=2e-15, abs=0.0)

    @pytest.mark.parametrize(
        "zeta,sizes,most",
        [(0.0, (512, 4096, 65536), 0), (0.1, (512, 4096, 65536), 0),
         (0.25 - 1e-12, (4096, 65536), 120)],
    )
    def test_finite_n_terms_only_where_nonzero(self, monkeypatch, zeta, sizes, most):
        # a row's finite-N terms take its bracket and log1p(x) from one
        # single-node, unit-weight call of _sums; they are computed only
        # where e^(-2 h0) > 0, which is no row at all once N sqrt(delta)
        # is large (119 rows at zeta = 1/4 - 1e-12 for both sizes)
        original = kernels._sums
        for n in sizes:
            corrected = []

            def counting(delta, nodes, sigma):
                if len(nodes) == 1 and nodes[0][1] == 1.0:
                    corrected.append(nodes[0])
                return original(delta, nodes, sigma)

            monkeypatch.setattr(kernels, "_sums", counting)
            torus_rates(zeta, 1.0, TorusSpec(n))
            assert len(corrected) <= most, (n, len(corrected))

    @pytest.mark.parametrize(
        "zeta,n,most", [(0.1, 4096, 1), (0.25 - 1e-12, 65536, 120)]
    )
    def test_pass_stops_at_first_row_without_terms(self, monkeypatch, zeta, n, most):
        # the rows ascend and h0 rises with them, so the finite-N pass
        # stops at the first row whose e^(-2 h0) underflows: one asinh a
        # row it examines (1 and 120 here; every one of the N/2 + 1 rows,
        # 2,049 and 32,769, if it went on to the end)
        calls = []

        def asinh(x):
            calls.append(x)
            return math.asinh(x)

        names = {name: getattr(math, name) for name in dir(math) if not name.startswith("_")}
        monkeypatch.setattr(kernels, "math", types.SimpleNamespace(**{**names, "asinh": asinh}))
        torus_rates(zeta, 1.0, TorusSpec(n))
        assert 0 < len(calls) <= most


class TestStoredReference:
    # the 54 torus values of the benchmark's reference file: 18 points,
    # zeta from 0.017 to 1/4 - 4e-12 and SNR from 3e-6 to 1.4e3, at
    # N = 512, 2048 and 4096, from 30-digit mpmath; read only
    CELLS = json.loads(
        (Path(__file__).resolve().parents[1] / "sfcarbench" / "reference.json").read_text()
    )["torus"]["cells"]

    def test_torus_values(self):
        checked = 0
        for cell in self.CELLS:
            for point in cell:
                for size, (kli, mi) in point["torus"].items():
                    rates = torus_rates(point["zeta"], point["snr"], TorusSpec(int(size)))
                    where = (point["zeta"], point["snr"], size)
                    assert rates.kli == pytest.approx(kli, rel=5e-15, abs=0.0), where
                    assert rates.mi == pytest.approx(mi, rel=5e-15, abs=0.0), where
                    checked += 1
        assert checked == 54


class TestDispatch:
    def test_backend_reported(self):
        assert sfcar.backend_name() == "python"

    def test_dispatch_callable(self):
        # the column axis is passed as range(N), whose length gives N
        rows, weights = folded_rows(16)
        kli, mi = kernels.rate_sums(rows, weights, range(16), 0.1, 1.0)
        assert 0.0 < kli < mi

    def test_deterministic(self):
        rows, weights = folded_rows(64)
        a = kernels.rate_sums(rows, weights, range(64), 0.22, 5.0)
        b = kernels.rate_sums(rows, weights, range(64), 0.22, 5.0)
        assert a == b

    def test_zero_snr_sums(self):
        rows, weights = folded_rows(8)
        assert kernels.rate_sums(rows, weights, range(8), 0.2, 0.0) == (0.0, 0.0)

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
