"""Density sweep and argmax: which lattice size extracts the most
information from a fixed area and energy budget.

For each candidate n the evaluation chain runs in the model's natural
order: geometry (d_n, mu_n), per-edge and total communication energy,
sensing split E_s, SNR = beta E_s, spacing -> edge correlation -> edge
dependence factor, per-node rates, and finally network totals
(2n+1)^2 * rate.  The objective is non-concave in general (the KL total
can develop secondary structure from the correlation benefit at low
SNR), so the search is an exhaustive sweep over integer n.

On the paper scenario (L = 1, alpha = 100, beta = 1, E0 = 0.1, nu = 2)
that structure is a second local maximum of total KLI near n ~ 150,
where rho ~ 0.76 and SNR ~ 1e-3 (n = 157, 155, 152 at E = 100, 150,
200).  It appears only when the budget reaches that density, E >= 100:
at E = 50 communication exhausts the budget at n = 124 and total KLI
has its single maximum at n = 2.
"""

from dataclasses import dataclass
from enum import Enum

from sfcar.correlation import PhysicalEnvironment, edge_correlation, zeta_of_rho
from sfcar.errors import (
    DomainError,
    InfeasibleDensityError,
    NoFeasibleDensityError,
)
from sfcar.network import (
    Deployment,
    EnergyModel,
    node_snr,
    sensing_energy_per_node,
    total_comm_energy,
    total_information,
)
from sfcar.rates import info_rates

N_MAX_CAP = 500


class Objective(str, Enum):
    """Which network total the optimizer maximizes."""

    KLI = "kli"
    MI = "mi"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a sweep needs.

    n_max = None means "up to the feasibility boundary" (see
    feasibility_boundary).  No lattice index in the range may exceed
    N_MAX_CAP.
    """

    half_width: float
    energy: EnergyModel
    environment: PhysicalEnvironment
    n_min: int = 1
    n_max: int | None = None
    objective: Objective = Objective.KLI

    def __post_init__(self) -> None:
        if self.n_min < 1:
            raise DomainError(f"n_min must be >= 1, got {self.n_min!r}")
        if self.n_max is not None and self.n_max < self.n_min:
            raise DomainError(
                f"need n_min <= n_max, got {self.n_min!r} > {self.n_max!r}"
            )
        largest = self.n_min if self.n_max is None else self.n_max
        if largest > N_MAX_CAP:
            raise DomainError(
                f"lattice index must be <= N_MAX_CAP = {N_MAX_CAP}, got {largest!r}"
            )


@dataclass(frozen=True)
class SweepRow:
    """One density candidate with every derived quantity.

    Infeasible rows keep their geometric fields (they depend only on n)
    and carry None for the energy-dependent ones; values are never
    fabricated.
    """

    n: int
    mu_n: float
    d_n: float
    rho: float
    zeta: float
    e_s: float | None
    snr: float | None
    kli_rate: float | None
    mi_rate: float | None
    total_kli: float | None
    total_mi: float | None
    feasible: bool

    def objective_total(self, objective: Objective) -> float | None:
        return self.total_kli if objective is Objective.KLI else self.total_mi


def evaluate_density(config: ScenarioConfig, n: int) -> SweepRow:
    """Evaluate one lattice size; infeasibility is encoded, not raised."""
    deployment = Deployment(config.half_width, n)
    spacing = deployment.spacing
    rho = edge_correlation(config.environment, spacing)
    zeta = zeta_of_rho(rho)
    try:
        e_s = sensing_energy_per_node(config.energy, deployment)
    except InfeasibleDensityError:
        return SweepRow(
            n=n,
            mu_n=deployment.density,
            d_n=spacing,
            rho=rho,
            zeta=zeta,
            e_s=None,
            snr=None,
            kli_rate=None,
            mi_rate=None,
            total_kli=None,
            total_mi=None,
            feasible=False,
        )
    snr = node_snr(config.energy, e_s)
    rates = info_rates(zeta, snr)
    total_kli, total_mi = total_information(deployment, rates)
    return SweepRow(
        n=n,
        mu_n=deployment.density,
        d_n=spacing,
        rho=rho,
        zeta=zeta,
        e_s=e_s,
        snr=snr,
        kli_rate=rates.kli,
        mi_rate=rates.mi,
        total_kli=total_kli,
        total_mi=total_mi,
        feasible=True,
    )


def feasibility_boundary(config: ScenarioConfig) -> int:
    """Smallest n >= n_min past which every lattice size is infeasible,
    capped at N_MAX_CAP.

    Total communication energy f(n) = 2n(n+1)(2n+1) E0 (L/n)^nu is, as a
    function of log n, a sum of exponentials with positive coefficients,
    hence convex: it falls and then rises, and the feasible n form one
    interval.  For nu above 1 + log2(2.5) ~ 2.32 it falls from n = 1 to 2,
    so small n can be infeasible below that interval.  The boundary is the
    first infeasible n with f(n) < f(n + 1): f rises from there on.  The
    comparison is strict so that two energies that both overflow to inf
    do not end the scan.
    """
    for n in range(config.n_min, N_MAX_CAP + 1):
        deployment = Deployment(config.half_width, n)
        try:
            sensing_energy_per_node(config.energy, deployment)
        except InfeasibleDensityError:
            following = Deployment(config.half_width, n + 1)
            if total_comm_energy(config.energy, deployment) < total_comm_energy(
                config.energy, following
            ):
                return n
    return N_MAX_CAP


def resolve_n_max(config: ScenarioConfig) -> int:
    return config.n_max if config.n_max is not None else feasibility_boundary(config)


def sweep(config: ScenarioConfig) -> list[SweepRow]:
    """One SweepRow per n in [n_min, n_max], ascending."""
    n_max = resolve_n_max(config)
    return [evaluate_density(config, n) for n in range(config.n_min, n_max + 1)]


def optimize(config: ScenarioConfig) -> SweepRow:
    """The feasible row maximizing the configured objective total.

    Ties break toward smaller n.  Raises NoFeasibleDensityError when no
    candidate is feasible.
    """
    best: SweepRow | None = None
    for row in sweep(config):
        if not row.feasible:
            continue
        if best is None or row.objective_total(config.objective) > best.objective_total(
            config.objective
        ):
            best = row
    if best is None:
        raise NoFeasibleDensityError(
            "no feasible density in the configured range"
        )
    return best
