"""Exact finite-lattice information on an N x N torus.

The torus wraps the lattice periodically, so the observation covariance
is block circulant and its eigenvalues sit on the 2-D DFT grid
w_k = 2 pi k / N.  Per-node information then reduces to plain averages of
the spectral integrands over that grid and converges to the asymptotic
rate integrals as N grows; this provides an independent check of the
quadrature without any matrix factorization.

The integrands depend on a frequency only through its cosine, and
cos(2 pi k / N) = cos(2 pi (N - k) / N), so the row axis is folded onto
its N // 2 + 1 distinct cosines, k = 0 .. N // 2.  Each carries the share
of the N frequencies that map to it: 1/N for k = 0 and, when N is even,
for k = N / 2, and 2/N for every other k.  The rows go to `sfcar.kernels`
as sin^2(pi k / N), ascending in k as its early stop needs, and it sums
each over all N frequencies in closed form, so the cost is O(N) and
needs no array library.  SNR = 0 takes the same sums, which give +0.

Per node, the result is the N-point trapezoid rule in w1 for the
one-dimensional integrals of `sfcar.rates`, plus the finite-N terms of
`sfcar.kernels`.  Both the rule's error and these terms are
exponentially small in N sqrt(delta), delta = 1 - 4 zeta, which is why
the torus converges to the asymptotic rates that fast, and why it does
not once the lattice is shorter than a correlation length.
"""

import math

from sfcar import kernels
from sfcar.errors import DomainError
from sfcar.rates import InfoRates, _check_zeta_snr
from sfcar.records import integer, record
# Not called here; sfcarbench/spans.py wraps this module attribute by name.
from sfcar.special import complete_elliptic_k  # noqa: F401

# A cap on the CLI's --N: the sum is O(N) and takes 28-42 ms at
# N = 65,536 on a 2-vCPU VM, the low-SNR series branches the slowest.
TORUS_N_MAX = 65536


class TorusSpec(record("TorusSpec", "n_per_axis")):
    """Validation lattice size: N x N nodes, 2 <= N <= TORUS_N_MAX."""

    __slots__ = ()

    def __new__(cls, n_per_axis: int):
        n_per_axis = integer(n_per_axis, "torus N")
        if not 2 <= n_per_axis <= TORUS_N_MAX:
            raise DomainError(
                f"torus needs 2 <= N <= {TORUS_N_MAX}, got {n_per_axis!r}"
            )
        return super().__new__(cls, n_per_axis)


def torus_rates(zeta: float, snr: float, spec: TorusSpec) -> InfoRates:
    """Per-node KL and MI rates of the hidden field on an N x N torus.

    Discrete averages of the spectral integrands over the DFT frequency
    grid, folded onto its distinct row cosines and summed in closed form
    along the columns; noise variance is fixed at 1 inside the oracle and
    snr scales the signal spectrum directly.
    """
    _check_zeta_snr(zeta, snr)
    if zeta == 0.25:
        raise DomainError("torus rates are undefined at zeta = 1/4")
    n = spec.n_per_axis
    rows = [math.sin(math.pi * j / n) ** 2 for j in range(n // 2 + 1)]
    weights = [2.0 / n] * len(rows)
    weights[0] = 1.0 / n
    if n % 2 == 0:
        weights[-1] = 1.0 / n
    kli, mi = kernels.rate_sums(rows, weights, range(n), zeta, snr)
    return InfoRates(kli, mi)
