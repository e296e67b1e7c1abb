"""Information rates and sensor-density planning for 2-D conditionally
autoregressive Gauss-Markov random fields observed in Gaussian noise.

The library is plain Python: no name below, the finite-lattice oracle
`torus_rates` included, needs NumPy."""

from sfcar.correlation import (
    PhysicalEnvironment,
    edge_correlation,
    rho_of_zeta,
    zeta_of_rho,
    zeta_of_spacing,
)
from sfcar.density import (
    ScenarioConfig,
    SweepRow,
    evaluate_density,
    feasibility_boundary,
    optimize,
    sweep,
)
from sfcar.errors import (
    DomainError,
    NoFeasibleDensityError,
    SfcarError,
)
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.network import (
    Deployment,
    EnergyModel,
    comm_energy_per_edge,
    hop_count_sum,
    node_snr,
    sensing_energy_per_node,
    total_comm_energy,
    total_information,
)
from sfcar.rates import InfoRates, info_rates
from sfcar.special import bessel_k1, complete_elliptic_k

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the code path that evaluates the rates: plain Python."""
    return "python"


__all__ = [
    "backend_name",
    "bessel_k1",
    "comm_energy_per_edge",
    "complete_elliptic_k",
    "Deployment",
    "DomainError",
    "edge_correlation",
    "EnergyModel",
    "evaluate_density",
    "feasibility_boundary",
    "hop_count_sum",
    "InfoRates",
    "info_rates",
    "NoFeasibleDensityError",
    "node_snr",
    "optimize",
    "PhysicalEnvironment",
    "rho_of_zeta",
    "ScenarioConfig",
    "sensing_energy_per_node",
    "SfcarError",
    "sweep",
    "SweepRow",
    "TorusSpec",
    "torus_rates",
    "total_comm_energy",
    "total_information",
    "zeta_of_rho",
    "zeta_of_spacing",
]
