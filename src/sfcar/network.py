"""Deployment geometry and energy accounting for the lattice network.

(2n+1)^2 sensors sit on the lattice [-n:n]^2 covering a 2L x 2L area,
with spacing d_n = L/n and density mu_n = (2n+1)^2/(2L)^2.  A fusion
center at the origin collects every measurement over minimum-hop routes
(|i| + |j| hops for node (i, j)), each hop costing E0 * d_n^nu.  The
remaining budget is split uniformly into per-node sensing energy E_s,
and measurement SNR grows linearly with it: SNR = beta * E_s.  A
density is infeasible exactly when E_s = 0: nothing is left to sense with.
"""

import math
import sys

from sfcar.errors import DomainError
from sfcar.rates import InfoRates
from sfcar.records import integer, record


class Deployment(record("Deployment", "half_width n")):
    """Lattice deployment: coverage half-width L and lattice index n."""

    __slots__ = ()

    def __new__(cls, half_width: float, n: int):
        if not half_width > 0.0:
            raise DomainError(f"half_width must be > 0, got {half_width!r}")
        n = integer(n, "lattice index")
        if n < 1:
            raise DomainError(f"lattice index must be >= 1, got {n!r}")
        if hop_count_sum(n) > sys.float_info.max:  # exact: an int against a float
            raise DomainError("lattice index too large: 2n(n+1)(2n+1) hops overflow a double")
        self = super().__new__(cls, half_width, n)
        side = 2.0 * half_width
        if not (0.0 < side * side < math.inf and self.density < math.inf):
            raise DomainError(
                f"half_width {half_width!r} is out of range at n={n}: "
                "the density (2n+1)^2 / (2L)^2 must be a positive finite double"
            )
        return self

    @property
    def spacing(self) -> float:
        """Sensor spacing d_n = L / n."""
        return self.half_width / self.n

    @property
    def node_count(self) -> int:
        """(2n+1)^2 sensors, fusion center included."""
        return (2 * self.n + 1) ** 2

    @property
    def density(self) -> float:
        """Node density mu_n = (2n+1)^2 / (2L)^2."""
        return self.node_count / (2.0 * self.half_width) ** 2


class EnergyModel(record("EnergyModel", "total_energy e0 nu beta")):
    """Budget and rate constants: E (J), E0 (J/length^nu), nu >= 2, beta (1/J)."""

    __slots__ = ()

    def __new__(cls, total_energy: float, e0: float, nu: float, beta: float):
        if not 0.0 < total_energy < math.inf:
            raise DomainError(f"total_energy must be finite and > 0, got {total_energy!r}")
        if not 0.0 <= e0 < math.inf:
            raise DomainError(f"e0 must be finite and >= 0, got {e0!r}")
        if not 2.0 <= nu < math.inf:
            raise DomainError(f"attenuation factor nu must be finite and >= 2, got {nu!r}")
        if not 0.0 < beta < math.inf:
            raise DomainError(f"beta must be finite and > 0, got {beta!r}")
        return super().__new__(cls, total_energy, e0, nu, beta)


def comm_energy_per_edge(energy: EnergyModel, spacing: float) -> float:
    """Energy of one hop across one lattice edge: E0 * d^nu.

    A d^nu beyond the double range costs more than any budget: the hop
    energy is then inf, or 0 when E0 = 0.
    """
    if not 0.0 < spacing < math.inf:
        raise DomainError(f"spacing must be finite and > 0, got {spacing!r}")
    try:
        return energy.e0 * spacing**energy.nu
    except OverflowError:
        return math.inf if energy.e0 > 0.0 else 0.0


def hop_count_sum(n: int) -> int:
    """Total minimum-hop count to the origin: sum over the lattice of
    |i| + |j|, in closed form 2n(n+1)(2n+1)."""
    n = integer(n, "lattice index")
    if n < 0:
        raise DomainError(f"lattice index must be >= 0, got {n!r}")
    return 2 * n * (n + 1) * (2 * n + 1)


def total_comm_energy(energy: EnergyModel, deployment: Deployment) -> float:
    """Energy to deliver every measurement to the fusion center."""
    hop = comm_energy_per_edge(energy, deployment.spacing)
    return hop_count_sum(deployment.n) * hop


def sensing_energy_per_node(energy: EnergyModel, deployment: Deployment) -> float:
    """Budget-saturating uniform sensing allocation
    E_s = max(E - total communication energy, 0) / (2n+1)^2.

    0 means infeasible: communication alone meets or exceeds the budget,
    or what it leaves underflows when shared among the nodes.
    """
    remaining = energy.total_energy - total_comm_energy(energy, deployment)
    return max(remaining, 0.0) / deployment.node_count


def node_snr(energy: EnergyModel, sensing_energy: float) -> float:
    """Measurement SNR of one node: beta * E_s."""
    if not 0.0 <= sensing_energy < math.inf:
        raise DomainError(f"sensing energy must be finite and >= 0, got {sensing_energy!r}")
    return energy.beta * sensing_energy


def total_information(deployment: Deployment, rates: InfoRates) -> tuple[float, float]:
    """Network totals (total KLI, total MI) = (2n+1)^2 * per-node rates."""
    nodes = deployment.node_count
    return nodes * rates.kli, nodes * rates.mi
