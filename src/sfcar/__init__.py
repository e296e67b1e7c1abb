"""Information rates and sensor-density planning for 2-D conditionally
autoregressive Gauss-Markov random fields observed in Gaussian noise."""

from sfcar.correlation import (
    PhysicalEnvironment,
    edge_correlation,
    rho_of_zeta,
    zeta_of_rho,
    zeta_of_spacing,
)
from sfcar.density import (
    Objective,
    ScenarioConfig,
    SweepRow,
    evaluate_density,
    feasibility_boundary,
    optimize,
    sweep,
)
from sfcar.errors import (
    DivergenceError,
    DomainError,
    InfeasibleDensityError,
    NoFeasibleDensityError,
    QuadratureError,
    SfcarError,
)
from sfcar.lattice import TorusSpec, dense_gaussian_rates, torus_rates
from sfcar.model import (
    NoiseModel,
    SfcarParams,
    measurement_snr,
    signal_power,
    spectral_density,
)
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
from sfcar.rates import (
    InfoRates,
    info_rates,
    kli_rate,
    mi_rate,
    snr_spectral_ratio,
)
from sfcar.special import bessel_k1, complete_elliptic_k

__version__ = "0.1.0"


def backend_name() -> str:
    """Name of the code path that evaluates the rates; NumPy is the only one."""
    return "numpy"


__all__ = [
    "backend_name",
    "bessel_k1",
    "comm_energy_per_edge",
    "complete_elliptic_k",
    "dense_gaussian_rates",
    "Deployment",
    "DivergenceError",
    "DomainError",
    "edge_correlation",
    "EnergyModel",
    "evaluate_density",
    "feasibility_boundary",
    "hop_count_sum",
    "InfeasibleDensityError",
    "InfoRates",
    "info_rates",
    "kli_rate",
    "measurement_snr",
    "mi_rate",
    "NoFeasibleDensityError",
    "NoiseModel",
    "node_snr",
    "Objective",
    "optimize",
    "PhysicalEnvironment",
    "QuadratureError",
    "rho_of_zeta",
    "ScenarioConfig",
    "sensing_energy_per_node",
    "SfcarError",
    "SfcarParams",
    "signal_power",
    "snr_spectral_ratio",
    "spectral_density",
    "sweep",
    "SweepRow",
    "TorusSpec",
    "torus_rates",
    "total_comm_energy",
    "total_information",
    "zeta_of_rho",
    "zeta_of_spacing",
]
