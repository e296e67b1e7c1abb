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

The rates are those of the infinite lattice, so a total describes the
finite (2n+1) x (2n+1) array only once it spans several correlation
lengths, (2n+1) sqrt(delta) >~ 7 with delta = 1 - 4 zeta: from there on
the exact torus of that size agrees with it within 1e-4, and within 1e-7
from (2n+1) sqrt(delta) = 10 (acceptance criterion 10d).  The second KLI
maximum sits at (2n+1) sqrt(delta) = 1.1 to 1.4, outside that regime.

At low SNR the sweep has a closed form.  Per node, KLI = (SNR^2/4) G +
O(SNR^3) with G = (2/pi) E(4 zeta) / ((1 - 16 zeta^2) c^2) and
c = (2/pi) K(4 zeta), so with N = (2n+1)^2 nodes sharing what the total
communication energy C(n) leaves, total KLI ~ beta^2 (E - C(n))^2 G / (4N).
As zeta -> 1/4, G grows like pi / (delta ln^2(8/delta)), delta = 1 - 4 zeta:
at low SNR, correlation raises the information per unit of sensing energy.
The law needs the spectral peak's ratio s_max = SNR / (c delta) << 1, not
only SNR << 1: at the second KLI maxima above, SNR is 3.7e-4 to 1.5e-3,
but s_max is 6.7, 13.6 and 16.7, and the law overstates their totals 4.8,
8.4 and 10.1 times.
"""

from operator import attrgetter

from sfcar.correlation import PhysicalEnvironment, edge_correlation, zeta_of_rho
from sfcar.errors import DomainError, NoFeasibleDensityError
from sfcar.network import (
    Deployment,
    EnergyModel,
    node_snr,
    sensing_energy_per_node,
    total_comm_energy,
    total_information,
)
from sfcar.rates import info_rates
from sfcar.records import integer, record

N_MAX_CAP = 500


_SCENARIO_FIELDS = "half_width energy environment n_min n_max"


class ScenarioConfig(record("ScenarioConfig", _SCENARIO_FIELDS)):
    """Everything a sweep needs; the objective is optimize's argument.

    n_max = None means "up to the feasibility boundary" (see
    feasibility_boundary).  No lattice index in the range may exceed
    N_MAX_CAP.
    """

    __slots__ = ()

    def __new__(
        cls,
        half_width: float,
        energy: EnergyModel,
        environment: PhysicalEnvironment,
        n_min: int = 1,
        n_max: int | None = None,
    ):
        n_min = integer(n_min, "n_min")
        if n_max is not None:
            n_max = integer(n_max, "n_max")
        if n_min < 1:
            raise DomainError(f"n_min must be >= 1, got {n_min!r}")
        if n_max is not None and n_max < n_min:
            raise DomainError(f"need n_min <= n_max, got {n_min!r} > {n_max!r}")
        largest = n_min if n_max is None else n_max
        if largest > N_MAX_CAP:
            raise DomainError(
                f"lattice index must be <= N_MAX_CAP = {N_MAX_CAP}, got {largest!r}"
            )
        return super().__new__(cls, half_width, energy, environment, n_min, n_max)


_SWEEP_FIELDS = "n mu_n d_n rho zeta e_s snr kli_rate mi_rate total_kli total_mi feasible"


class SweepRow(record("SweepRow", _SWEEP_FIELDS)):
    """One density candidate with every derived quantity, in the CLI's
    column order.

    Infeasible rows keep their geometric fields (they depend only on n)
    and carry None for the energy-dependent ones; values are never
    fabricated.
    """

    __slots__ = ()


def evaluate_density(config: ScenarioConfig, n: int) -> SweepRow:
    """Evaluate one lattice size; infeasibility is encoded, not raised."""
    deployment = Deployment(config.half_width, n)
    spacing = deployment.spacing
    rho = edge_correlation(config.environment, spacing)
    zeta = zeta_of_rho(rho)
    geometry = (n, deployment.density, spacing, rho, zeta)
    e_s = sensing_energy_per_node(config.energy, deployment)
    if e_s == 0.0:
        return SweepRow(*geometry, *(None,) * 6, feasible=False)
    snr = node_snr(config.energy, e_s)
    rates = info_rates(zeta, snr)
    totals = total_information(deployment, rates)
    return SweepRow(*geometry, e_s, snr, rates.kli, rates.mi, *totals, feasible=True)


def feasibility_boundary(config: ScenarioConfig) -> int:
    """Smallest n >= n_min from which every lattice size is infeasible,
    capped at N_MAX_CAP even where larger lattices are feasible: on the
    paper scenario at E = 201 that n is 501, and 500 is returned.

    Total communication energy f(n) = 2n(n+1)(2n+1) E0 (L/n)^nu is, as a
    function of log n, a sum of exponentials with positive coefficients,
    hence convex: it falls and then rises, and the feasible n form one
    interval.  For nu above 1 + log2(2.5) ~ 2.32 it falls from n = 1 to 2,
    so small n can be infeasible below that interval.  The boundary is the
    first infeasible n with f(n) < f(n + 1): f rises from there on.  The
    comparison is strict so that two energies that both overflow to inf
    do not end the scan.  It stops short of N_MAX_CAP, the answer there
    either way, so no lattice past the cap is ever built.
    """
    for n in range(config.n_min, N_MAX_CAP):
        deployment = Deployment(config.half_width, n)
        if sensing_energy_per_node(config.energy, deployment) == 0.0:
            following = Deployment(config.half_width, n + 1)
            if total_comm_energy(config.energy, deployment) < total_comm_energy(
                config.energy, following
            ):
                return n
    return N_MAX_CAP


def sweep(config: ScenarioConfig) -> list[SweepRow]:
    """One SweepRow per n in [n_min, n_max], ascending; n_max None means
    feasibility_boundary, so at most N_MAX_CAP even where larger n are feasible."""
    n_max = config.n_max if config.n_max is not None else feasibility_boundary(config)
    return [evaluate_density(config, n) for n in range(config.n_min, n_max + 1)]


def optimize(config: ScenarioConfig, objective: str = "kli") -> SweepRow:
    """The feasible row maximizing the network total of objective,
    "kli" (total_kli) or "mi" (total_mi).

    Ties break toward smaller n.  Raises DomainError for any other
    objective, and NoFeasibleDensityError when no candidate is feasible.
    """
    if objective not in ("kli", "mi"):
        raise DomainError(f"objective must be 'kli' or 'mi', got {objective!r}")
    feasible = [row for row in sweep(config) if row.feasible]
    if not feasible:
        raise NoFeasibleDensityError("no feasible density in the configured range")
    # max keeps the first of equal values: the smaller n
    return max(feasible, key=attrgetter("total_" + objective))
