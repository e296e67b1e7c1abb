"""Blocked spectral sum over a tensor-product frequency grid.

The torus oracle averages the KL and MI integrands over the 2-D DFT grid
with this sum.  It shares no formula with the one-dimensional rate
quadrature in ``sfcar.rates``, so the two check each other.  Rows are
processed in fixed-size blocks to bound peak memory on large DFT grids
(a 4096x4096 grid would otherwise materialize ~135 MB per temporary).
"""

import numpy as np

_BLOCK_ELEMENTS = 1 << 22


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
