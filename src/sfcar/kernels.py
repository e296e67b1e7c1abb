"""Blocked spectral sum over a tensor-product frequency grid.

The torus oracle averages the KL and MI integrands over the 2-D DFT grid
with this sum.  It shares no formula with the one-dimensional rate
quadrature in ``sfcar.rates``, so the two check each other.  Rows are
processed in blocks of about 2**15 elements, 256 KB per temporary, so
that each block's temporaries stay in cache and peak memory does not
grow with the grid.  While a block holds two or more rows (rows of up
to 2**14 points), its BLAS matrix-vector products also stay on one
thread; a second thread costs more CPU time than it saves wall time.
"""

import numpy as np

_BLOCK_ELEMENTS = 1 << 15


def rate_sums(cos1, w1, cos2, w2, zeta: float, snr: float, cnorm: float):
    """Return (kli_sum, mi_sum), the weighted sums over the grid i, j of

        0.5 log1p(s) - 0.5 s / (1 + s)   and   0.5 log1p(s),

    with s = snr / (cnorm (1 - 2 zeta (cos1[i] + cos2[j]))) and weights
    w1[i] w2[j].
    """
    cos1 = np.ascontiguousarray(cos1, dtype=np.float64)
    w1 = np.ascontiguousarray(w1, dtype=np.float64)
    cos2 = np.ascontiguousarray(cos2, dtype=np.float64)
    w2 = np.ascontiguousarray(w2, dtype=np.float64)
    n2 = cos2.shape[0]
    block = max(1, _BLOCK_ELEMENTS // max(n2, 1))
    kli = 0.0
    mi = 0.0
    for a in range(0, cos1.shape[0], block):
        cc = cos1[a : a + block, None] + cos2[None, :]
        s = snr / (cnorm * (1.0 - 2.0 * zeta * cc))
        m = 0.5 * np.log1p(s)
        mi += float(w1[a : a + block] @ (m @ w2))
        m -= 0.5 * (s / (1.0 + s))
        kli += float(w1[a : a + block] @ (m @ w2))
    return kli, mi
