"""Spectral sums of the torus oracle, in closed form along the column axis.

On the N x N torus the KL and MI integrands are averaged over the 2-D
DFT grid.  Along the column axis the Chebyshev product identity
prod_k (x - cos 2 pi k / N) = 2^(1-N) (T_N(x) - 1) sums each row in
closed form, so only the rows are visited: O(N) work in plain Python.

Work in units of c = (2/pi) K(4 zeta), which `rate_sums` derives from
zeta, and put sigma = SNR/c.  Each row is given as sin^2(w1/2), the
node h of `rates._sums`, in ascending order, and has
A0 - B = g = delta + (1 - delta) h and A0 + B = k = 1 + (1 - delta) h,
with B = 2 zeta and delta = 1 - 4 zeta; A1 = A0 + sigma, r0, x and the
KL bracket are those of `sfcar.rates`.  With
cosh(2 h/N) = A/B for A = A0, A1 (h = h0, h1) the row's log-sum is
N log(B/2) + 2 log 2 + 2 log sinh h and its sum of 1/(A - B cos w2) is
N coth(h)/r.  So

    h0 = (N/2) asinh(r0 / (2 zeta)),  D = h1 - h0 = (N/2) log1p(x),
    row MI = (N/2) log1p(x) - log1p(-u),
    row KL = (N/2) bracket coth(h1) + [-log1p(-u) - u] + p (expm1(2D) - 2D),

with u = e^(-2 h0) (1 - e^(-2D)) / (1 - e^(-2 h1)) and p = 1/expm1(2 h1);
u = p expm1(2D) and coth(h1) = 1 + 2p.  The (N/2) log1p(x) and
(N/2) bracket terms are the N-point trapezoid rule in w1: `rates._sums`
over the rows and their weights, in blocks of 64 whose sums `math.fsum`
adds, so that the rounding error does not grow with N.  The other,
finite-N terms are exponentially small in h0, about N sqrt(delta) on
the first row.  h0 rises with the row, so the pass over them stops at
the first row where e^(-2 h0) underflows to 0, as no later row has any:
at zeta <= 0.1 and N >= 362 that is the first row.  All three KL terms
are >= 0 and each is taken without cancellation, so KL keeps its
digits as SNR -> 0: the bracket by `sfcar.rates`, the other two by the
same split in the log variable each row holds, L = -log1p(-u) and t = 2D:
within `rates._SEAM`, L - u = 2 sinh^2(L/2) - (sinh L - L) and
expm1(t) - t = 2 sinh^2(t/2) + (sinh t - t), by `rates._sinh_excess`;
above it they cancel at most 5.7-fold.  The subtraction of the whole
trace from MI would lose them.
"""

import math

from sfcar.rates import _SEAM, _sinh_excess, _spectral_norm, _sums

_BLOCK = 64


def rate_sums(rows, weights, columns, zeta: float, snr: float):
    """Return (kli, mi): the sums over rows i of weights[i] times the
    average over the columns k = 0 .. N-1, N = len(columns), of

        0.5 log1p(s) - 0.5 s / (1 + s)   and   0.5 log1p(s),

    with s = snr / (c (1 - 2 zeta (cos w1 + cos(2 pi k / N)))),
    c = (2/pi) K(4 zeta), and rows[i] = sin^2(w1 / 2) ascending.
    """
    n = len(columns)
    half_n = 0.5 * n
    sigma = snr / _spectral_norm(zeta)
    delta = 1.0 - 4.0 * zeta
    spread = 1.0 - delta
    nodes = list(zip(rows, weights))
    blocks = [_sums(delta, nodes[i:i + _BLOCK], sigma) for i in range(0, len(nodes), _BLOCK)]
    kl_blocks, mi_blocks = zip(*blocks)
    kli = mi = 0.0
    inv_b = 0.5 / zeta if zeta else math.inf
    for row, weight in nodes:
        lift = spread * row
        h0 = half_n * math.asinh(math.sqrt((delta + lift) * (1.0 + lift)) * inv_b)
        e0 = math.exp(-2.0 * h0)
        if e0 == 0.0:  # and on every later row, as h0 rises with the row
            break
        # the finite-N terms, from h0, h1 and D = h1 - h0
        bracket, m = _sums(delta, ((row, 1.0),), sigma)
        d = half_n * m
        h1 = h0 + d
        em0 = -math.expm1(-2.0 * h0)
        em1 = -math.expm1(-2.0 * h1)
        q = e0 * -math.expm1(-2.0 * d)  # e^(-2 h0) - e^(-2 h1)
        u = q / em1
        p = math.exp(-2.0 * h1) / em1
        ell = math.log1p(q / em0)  # L = -log1p(-u) = log(em1 / em0)
        t = d + d
        u_term = 2.0 * math.sinh(0.5 * ell) ** 2 - _sinh_excess(ell) if ell <= _SEAM else ell - u
        p_term = p * (2.0 * math.sinh(0.5 * t) ** 2 + _sinh_excess(t)) if t <= _SEAM else u - t * p
        mi += weight * ell
        kli += weight * (n * bracket * p + u_term + p_term)
    return 0.5 * math.fsum(kl_blocks) + kli / n, 0.5 * math.fsum(mi_blocks) + mi / n
