"""Spectral sums of the torus oracle, in closed form along the column axis.

On the N x N torus the KL and MI integrands are averaged over the 2-D
DFT grid.  Along the column axis the Chebyshev product identity
prod_k (x - cos 2 pi k / N) = 2^(1-N) (T_N(x) - 1) sums each row in
closed form, so only the rows are visited: O(N) work in plain Python.

Work in units of c = (2/pi) K(4 zeta) and put sigma = SNR/c.  A row with
sin^2(w1/2) = s has A0 - B = g = delta + 4 zeta s and A0 + B = k =
1 + 4 zeta s, with B = 2 zeta and delta = 1 - 4 zeta; A1 = A0 + sigma,
r0, x and the KL bracket are those of `sfcar.rates`, whose summing loop
`_sums` evaluates them row by row and, given N, adds the finite-N terms
derived here.  With cosh(2 h/N) = A/B for A = A0, A1 (h = h0, h1) the
row's log-sum is N log(B/2) + 2 log 2 + 2 log sinh h and its sum of
1/(A - B cos w2) is N coth(h)/r.  So

    h0 = (N/2) asinh(r0 / (2 zeta)),  D = h1 - h0 = (N/2) log1p(x),
    row MI = (N/2) log1p(x) - log1p(-u),
    row KL = (N/2) bracket coth(h1) + [-log1p(-u) - u] + p (expm1(2D) - 2D),

with u = e^(-2 h0) (1 - e^(-2D)) / (1 - e^(-2 h1)) and p = 1/expm1(2 h1);
u = p expm1(2D).  The finite-N terms are exponentially small in h0, which
is about N sqrt(delta) on the first row.  All three KL terms are >= 0 and
each is taken without cancellation, so KL keeps its digits as SNR -> 0:
the bracket by `sfcar.rates`, the other two by the series of
expm1(z) - z where they are O(D^2): p (expm1(2D) - 2D) directly, and
-log1p(-u) - u = L + expm1(-L) at L = -log1p(-u), as u = -expm1(-L).
The subtraction of the whole trace from MI would lose them.
"""

from sfcar.rates import _sums


def rate_sums(rows, weights, columns, zeta: float, snr: float, cnorm: float):
    """Return (kli, mi): the sums over rows i of weights[i] times the
    average over the columns k = 0 .. N-1, N = len(columns), of

        0.5 log1p(s) - 0.5 s / (1 + s)   and   0.5 log1p(s),

    with s = snr / (cnorm (1 - 2 zeta (cos w1 + cos(2 pi k / N)))) and
    rows[i] = sin^2(w1 / 2).
    """
    n = len(columns)
    delta = 1.0 - 4.0 * zeta
    four_zeta = 4.0 * zeta
    nodes = ((delta + four_zeta * s2, 1.0 + four_zeta * s2, w) for s2, w in zip(rows, weights))
    kli, mi = _sums(nodes, snr / cnorm, n, zeta)
    return kli / n, mi / n
