import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcar.errors import DomainError, InfeasibleDensityError
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
from sfcar.rates import InfoRates

from oracles import brute_hop_sum, brute_hop_sums

PAPER_ENERGY = EnergyModel(total_energy=50.0, e0=0.1, nu=2.0, beta=1.0)


class TestDeployment:
    def test_derived_quantities(self):
        dep = Deployment(half_width=1.0, n=3)
        assert dep.spacing == pytest.approx(1.0 / 3.0)
        assert dep.node_count == 49
        assert dep.density == pytest.approx(49.0 / 4.0)

    # (2L)^2 overflows at 1e300 and underflows to 0 at 1e-300; at 1e-154
    # it is finite but the density 9 / (2L)^2 overflows
    @pytest.mark.parametrize(
        "L,n", [(0.0, 1), (-1.0, 2), (1.0, 0), (1e300, 1), (1e-300, 1), (1e-154, 1)]
    )
    def test_validation(self, L, n):
        with pytest.raises(DomainError):
            Deployment(half_width=L, n=n)


class TestEnergyModel:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(total_energy=0.0, e0=0.1, nu=2.0, beta=1.0),
            dict(total_energy=1.0, e0=-0.1, nu=2.0, beta=1.0),
            dict(total_energy=1.0, e0=0.1, nu=1.5, beta=1.0),
            dict(total_energy=1.0, e0=0.1, nu=2.0, beta=0.0),
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(DomainError):
            EnergyModel(**kw)


class TestEdgeEnergy:
    def test_unit_spacing(self):
        assert comm_energy_per_edge(PAPER_ENERGY, 1.0) == pytest.approx(0.1)

    def test_power_law(self):
        assert comm_energy_per_edge(PAPER_ENERGY, 0.5) == pytest.approx(0.025)

    def test_vanishes_with_spacing(self):
        assert comm_energy_per_edge(PAPER_ENERGY, 1e-9) == pytest.approx(0.0, abs=1e-18)

    def test_domain(self):
        with pytest.raises(DomainError):
            comm_energy_per_edge(PAPER_ENERGY, 0.0)
        with pytest.raises(DomainError):
            comm_energy_per_edge(PAPER_ENERGY, float("inf"))

    def test_overflowing_power(self):
        # 10^1000 is beyond the double range: no budget pays for the hop
        steep = EnergyModel(total_energy=1.0, e0=0.1, nu=1000.0, beta=1.0)
        assert comm_energy_per_edge(steep, 10.0) == float("inf")
        free = EnergyModel(total_energy=1.0, e0=0.0, nu=1000.0, beta=1.0)
        assert comm_energy_per_edge(free, 10.0) == 0.0
        with pytest.raises(InfeasibleDensityError):
            sensing_energy_per_node(steep, Deployment(10.0, 1))


class TestHopCount:
    def test_single_node(self):
        assert hop_count_sum(0) == 0

    def test_three_by_three(self):
        # corners contribute 2 hops x4, edge midpoints 1 hop x4
        assert hop_count_sum(1) == 12

    def test_matches_brute_force_everywhere(self):
        brute = brute_hop_sums(200)
        for n in range(0, 201):
            assert hop_count_sum(n) == brute[n]

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_property(self, n):
        assert hop_count_sum(n) == brute_hop_sum(n)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            hop_count_sum(-1)


class TestTotalCommEnergy:
    def test_composition(self):
        dep = Deployment(half_width=1.0, n=1)
        assert total_comm_energy(PAPER_ENERGY, dep) == pytest.approx(1.2)

    def test_free_communication(self):
        em = EnergyModel(total_energy=1.0, e0=0.0, nu=2.0, beta=1.0)
        assert total_comm_energy(em, Deployment(1.0, 37)) == 0.0

    def test_symbolic_simplification(self):
        # for L = 1, nu = 2: total = E0 (4n + 6 + 2/n)
        for n in range(1, 101):
            dep = Deployment(1.0, n)
            expected = 0.1 * (4.0 * n + 6.0 + 2.0 / n)
            assert total_comm_energy(PAPER_ENERGY, dep) == pytest.approx(expected, rel=1e-12)


class TestSensingEnergy:
    def test_paper_example(self):
        dep = Deployment(half_width=1.0, n=1)
        assert sensing_energy_per_node(PAPER_ENERGY, dep) == pytest.approx(48.8 / 9.0)

    def test_free_comm_gives_full_budget(self):
        em = EnergyModel(total_energy=50.0, e0=0.0, nu=2.0, beta=1.0)
        assert sensing_energy_per_node(em, Deployment(1.0, 3)) == pytest.approx(50.0 / 49.0)

    def test_infeasible(self):
        with pytest.raises(InfeasibleDensityError):
            sensing_energy_per_node(PAPER_ENERGY, Deployment(1.0, 200))

    def test_strictly_decreasing_in_n(self):
        values = [
            sensing_energy_per_node(PAPER_ENERGY, Deployment(1.0, n))
            for n in range(1, 100)
        ]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_high_density_scaling(self):
        # n^2 E_s approaches a finite limit for nu = 2
        em = EnergyModel(total_energy=1e5, e0=0.1, nu=2.0, beta=1.0)
        p500 = 500**2 * sensing_energy_per_node(em, Deployment(1.0, 500))
        p1000 = 1000**2 * sensing_energy_per_node(em, Deployment(1.0, 1000))
        assert abs(p1000 / p500 - 1.0) < 0.01

    def test_feasibility_monotone(self):
        feasible = []
        for n in range(1, 300):
            try:
                sensing_energy_per_node(PAPER_ENERGY, Deployment(1.0, n))
                feasible.append(True)
            except InfeasibleDensityError:
                feasible.append(False)
        boundary = feasible.index(False)
        assert not any(feasible[boundary:])


class TestNodeSnr:
    def test_linear_law(self):
        assert node_snr(PAPER_ENERGY, 48.8 / 9.0) == pytest.approx(48.8 / 9.0)
        assert node_snr(EnergyModel(1.0, 0.0, 2.0, 2.0), 3.0) == pytest.approx(6.0)
        assert node_snr(PAPER_ENERGY, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            node_snr(PAPER_ENERGY, -1.0)


class TestTotalInformation:
    def test_nine_nodes(self):
        dep = Deployment(half_width=1.0, n=1)
        totals = total_information(dep, InfoRates(kli=0.1, mi=0.3))
        assert totals[0] == pytest.approx(0.9)
        assert totals[1] == pytest.approx(2.7)

    def test_zero_rates(self):
        dep = Deployment(half_width=2.0, n=5)
        assert total_information(dep, InfoRates(0.0, 0.0)) == (0.0, 0.0)

    def test_density_identity(self):
        # (2n+1)^2 * rate == (2L)^2 * mu_n * rate
        rates = InfoRates(kli=0.125, mi=0.5)
        for L in (1.0, 0.7):
            for n in range(1, 101):
                dep = Deployment(half_width=L, n=n)
                total_kli, _ = total_information(dep, rates)
                via_density = (2.0 * L) ** 2 * dep.density * rates.kli
                assert total_kli == pytest.approx(via_density, rel=1e-14)
