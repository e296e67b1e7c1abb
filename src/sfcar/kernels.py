"""Blocked spectral sum over a tensor-product frequency grid.

The torus oracle averages the KL and MI integrands over the 2-D DFT grid
with this sum.  It shares no formula with the one-dimensional rate
quadrature in ``sfcar.rates``, so the two check each other.  The grid is
processed in blocks of about 2**15 elements, 256 KB per temporary, so
that each block's temporaries stay in cache and peak memory does not
grow with the grid.  Rows of up to 2**14 points are taken whole, two
or more to a block, which keeps each block's BLAS matrix-vector
products on one thread; a second thread costs more CPU time than it
saves wall time.  Longer rows (a torus N of 32,768 or more) are cut
into blocks of 4 rows by 2**12 columns.  Taken whole they made
one-row blocks, whose products OpenBLAS split over two threads; these
smaller blocks measured fastest at N = 32,768 and 65,536, at about
10 ns a point on one thread, against 15-28 ns for 2**15-element blocks
of long rows.
"""

import numpy as np

_BLOCK_ELEMENTS = 1 << 15
_LONG_ROW_BLOCK = (4, 1 << 12)  # (rows, columns) once a row exceeds 2**14


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
    if n2 > _BLOCK_ELEMENTS // 2:
        rows, cols = _LONG_ROW_BLOCK
    else:
        cols = max(n2, 1)
        rows = _BLOCK_ELEMENTS // cols
    kli = 0.0
    mi = 0.0
    for a in range(0, cos1.shape[0], rows):
        for b in range(0, cos2.shape[0], cols):
            cc = cos1[a : a + rows, None] + cos2[None, b : b + cols]
            s = snr / (cnorm * (1.0 - 2.0 * zeta * cc))
            m = 0.5 * np.log1p(s)
            mi += float(w1[a : a + rows] @ (m @ w2[b : b + cols]))
            m -= 0.5 * (s / (1.0 + s))
            kli += float(w1[a : a + rows] @ (m @ w2[b : b + cols]))
    return kli, mi
