"""Exact finite-lattice information on an N x N torus.

The torus wraps the lattice periodically, so the observation covariance
is block circulant and its eigenvalues sit on the 2-D DFT grid
w_k = 2 pi k / N.  Per-node information then reduces to plain averages of
the spectral integrands over that grid and converges to the asymptotic
rate integrals as N grows; this provides an independent check of the
quadrature without any matrix factorization.

The integrands depend on a frequency only through its cosine, and
cos(2 pi k / N) = cos(2 pi (N - k) / N), so each axis is folded onto its
N // 2 + 1 distinct cosines, k = 0 .. N // 2.  Each carries the share of
the N frequencies that map to it: 1/N for k = 0 and, when N is even, for
k = N / 2, and 2/N for every other k.  The average is unchanged; the sum
has about a quarter of the points.

For tiny N a second, first-principles route is provided: synthesize the
dense N^2 x N^2 covariance from the spectral eigenvalues and evaluate
the Gaussian KL divergence and mutual information from log-determinants
and traces.  Dense and eigenvalue routes must agree to ~1e-10, tying the
spectral shortcut to the defining Gaussian formulas.

Both oracles import NumPy when first called, so that importing the
library, which exports them, does not load it.
"""

import math

from sfcar.errors import DomainError
from sfcar.rates import InfoRates, _check_zeta_snr, _spectral_norm
from sfcar.records import integer, record
# Not called here; sfcarbench/spans.py wraps this module attribute by name.
from sfcar.special import complete_elliptic_k  # noqa: F401

_DENSE_N_MAX = 12
# About 1.07e9 folded grid points: on the order of ten seconds of summing.
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
    grid, folded onto its distinct cosines; noise variance is fixed at 1
    inside the oracle and snr scales the signal spectrum directly.
    """
    _check_zeta_snr(zeta, snr)
    if zeta == 0.25:
        raise DomainError("torus rates are undefined at zeta = 1/4")
    if snr == 0.0:
        return InfoRates(0.0, 0.0)
    import numpy as np

    from sfcar import kernels

    n = spec.n_per_axis
    k = np.arange(n // 2 + 1)
    cos_omega = np.cos(2.0 * math.pi * k / n)
    w = np.where((k == 0) | (2 * k == n), 1.0 / n, 2.0 / n)
    kli, mi = kernels.rate_sums(
        cos_omega, w, cos_omega, w, zeta, snr, _spectral_norm(zeta)
    )
    return InfoRates(max(kli, 0.0), max(mi, 0.0))


def dense_gaussian_rates(zeta: float, snr: float, spec: TorusSpec) -> InfoRates:
    """First-principles Gaussian rates from the dense torus covariance.

    Builds Sigma_X by inverse 2-D DFT of the spectral eigenvalues, then
    per-node D(p0 || p1) = (1/2N^2) [tr((Sigma_X+I)^-1) - N^2
    + log det(Sigma_X+I)] and per-node MI = (1/2N^2) log det(Sigma_X+I),
    via a Cholesky factorization.  Restricted to N <= 12.
    """
    _check_zeta_snr(zeta, snr)
    if zeta == 0.25:
        raise DomainError("dense torus rates are undefined at zeta = 1/4")
    n = spec.n_per_axis
    if n > _DENSE_N_MAX:
        raise DomainError(f"dense route limited to N <= {_DENSE_N_MAX}, got {n}")
    if snr == 0.0:
        return InfoRates(0.0, 0.0)
    import numpy as np

    omega = 2.0 * math.pi * np.arange(n) / n
    denom = 1.0 - 2.0 * zeta * (np.cos(omega)[:, None] + np.cos(omega)[None, :])
    eigs = snr / (_spectral_norm(zeta) * denom)
    gen = np.real(np.fft.ifft2(eigs))  # circulant generator r[di, dj]
    idx = np.arange(n)
    diff = (idx[:, None] - idx[None, :]) % n
    cov = gen[diff[:, None, :, None], diff[None, :, None, :]].reshape(n * n, n * n)
    cov_y = cov + np.eye(n * n)
    chol = np.linalg.cholesky(cov_y)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    chol_inv = np.linalg.solve(chol, np.eye(n * n))
    trace_inv = float(np.sum(chol_inv * chol_inv))
    nn = n * n
    kli = 0.5 * (trace_inv - nn + logdet) / nn
    mi = 0.5 * logdet / nn
    return InfoRates(max(kli, 0.0), mi)
