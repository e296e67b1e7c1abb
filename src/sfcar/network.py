"""Deployment geometry and energy accounting for the lattice network.

(2n+1)^2 sensors sit on the lattice [-n:n]^2 covering a 2L x 2L area,
with spacing d_n = L/n and density mu_n = (2n+1)^2/(2L)^2.  A fusion
center at the origin collects every measurement over minimum-hop routes
(|i| + |j| hops for node (i, j)), each hop costing E0 * d_n^nu.  The
remaining budget is split uniformly into per-node sensing energy E_s,
and measurement SNR grows linearly with it: SNR = beta * E_s.
"""

import math
from dataclasses import dataclass

from sfcar.errors import DomainError, InfeasibleDensityError
from sfcar.rates import InfoRates


@dataclass(frozen=True)
class Deployment:
    """Lattice deployment: coverage half-width L and lattice index n."""

    half_width: float
    n: int

    def __post_init__(self) -> None:
        if not self.half_width > 0.0:
            raise DomainError(f"half_width must be > 0, got {self.half_width!r}")
        if self.n < 1:
            raise DomainError(f"lattice index must be >= 1, got {self.n!r}")
        side = 2.0 * self.half_width
        if not (0.0 < side * side < math.inf and self.density < math.inf):
            raise DomainError(
                f"half_width {self.half_width!r} is out of range at n={self.n}: "
                "the density (2n+1)^2 / (2L)^2 must be a positive finite double"
            )

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


@dataclass(frozen=True)
class EnergyModel:
    """Budget and rate constants: E (J), E0 (J/length^nu), nu >= 2, beta (1/J)."""

    total_energy: float
    e0: float
    nu: float
    beta: float

    def __post_init__(self) -> None:
        if not self.total_energy > 0.0:
            raise DomainError(f"total_energy must be > 0, got {self.total_energy!r}")
        if self.e0 < 0.0:
            raise DomainError(f"e0 must be >= 0, got {self.e0!r}")
        if not self.nu >= 2.0:
            raise DomainError(f"attenuation factor nu must be >= 2, got {self.nu!r}")
        if not self.beta > 0.0:
            raise DomainError(f"beta must be > 0, got {self.beta!r}")


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
    if n < 0:
        raise DomainError(f"lattice index must be >= 0, got {n!r}")
    return 2 * n * (n + 1) * (2 * n + 1)


def total_comm_energy(energy: EnergyModel, deployment: Deployment) -> float:
    """Energy to deliver every measurement to the fusion center."""
    return hop_count_sum(deployment.n) * comm_energy_per_edge(
        energy, deployment.spacing
    )


def sensing_energy_per_node(energy: EnergyModel, deployment: Deployment) -> float:
    """Budget-saturating uniform sensing allocation
    E_s = (E - total communication energy) / (2n+1)^2.

    Raises InfeasibleDensityError when communication alone meets or
    exceeds the budget (E_s = 0 counts as infeasible: zero sensing energy
    means zero information).
    """
    remaining = energy.total_energy - total_comm_energy(energy, deployment)
    if remaining <= 0.0:
        raise InfeasibleDensityError(
            f"communication energy exhausts the budget at n={deployment.n}"
        )
    return remaining / deployment.node_count


def node_snr(energy: EnergyModel, sensing_energy: float) -> float:
    """Measurement SNR of one node: beta * E_s."""
    if sensing_energy < 0.0:
        raise DomainError(f"sensing energy must be >= 0, got {sensing_energy!r}")
    return energy.beta * sensing_energy


def total_information(deployment: Deployment, rates: InfoRates) -> tuple[float, float]:
    """Network totals (total KLI, total MI) = (2n+1)^2 * per-node rates."""
    nodes = deployment.node_count
    return nodes * rates.kli, nodes * rates.mi
