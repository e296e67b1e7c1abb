import math

import pytest

from sfcar.correlation import PhysicalEnvironment, edge_correlation, zeta_of_rho
from sfcar.density import (
    N_MAX_CAP,
    ScenarioConfig,
    evaluate_density,
    feasibility_boundary,
    optimize,
    sweep,
)
from sfcar.errors import DomainError, NoFeasibleDensityError
from sfcar.network import (
    Deployment,
    EnergyModel,
    node_snr,
    sensing_energy_per_node,
    total_information,
)
from sfcar.rates import info_rates


def paper_scenario(total_energy: float = 50.0, **kwargs) -> ScenarioConfig:
    return ScenarioConfig(
        half_width=1.0,
        energy=EnergyModel(total_energy=total_energy, e0=0.1, nu=2.0, beta=1.0),
        environment=PhysicalEnvironment(alpha=100.0),
        **kwargs,
    )


class TestEvaluateDensity:
    def test_decoupled_special_case(self):
        # free communication and a spacing far beyond the correlation
        # length: totals reduce to node_count * white-field closed forms
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(total_energy=50.0, e0=0.0, nu=2.0, beta=1.0),
            environment=PhysicalEnvironment(alpha=100.0),
        )
        row = evaluate_density(cfg, 2)
        snr = 50.0 / 25.0
        assert row.snr == pytest.approx(snr)
        assert row.zeta < 1e-12
        expected_kli = 25.0 * 0.5 * (math.log1p(snr) + 1.0 / (1.0 + snr) - 1.0)
        expected_mi = 25.0 * 0.5 * math.log1p(snr)
        assert row.total_kli == pytest.approx(expected_kli, rel=1e-9)
        assert row.total_mi == pytest.approx(expected_mi, rel=1e-9)

    def test_composition_consistency(self):
        # every field re-derived from independent component calls
        cfg = paper_scenario()
        row = evaluate_density(cfg, 20)
        dep = Deployment(cfg.half_width, 20)
        assert row.mu_n == dep.density
        assert row.d_n == dep.spacing
        rho = edge_correlation(cfg.environment, dep.spacing)
        assert row.rho == rho
        zeta = zeta_of_rho(rho)
        assert row.zeta == zeta
        e_s = sensing_energy_per_node(cfg.energy, dep)
        assert row.e_s == e_s
        snr = node_snr(cfg.energy, e_s)
        assert row.snr == snr
        rates = info_rates(zeta, snr)
        assert row.kli_rate == rates.kli
        assert row.mi_rate == rates.mi
        assert (row.total_kli, row.total_mi) == total_information(dep, rates)

    def test_infeasible_row_encoding(self):
        cfg = paper_scenario()
        row = evaluate_density(cfg, 200)
        assert not row.feasible
        assert row.e_s is None
        assert row.snr is None
        assert row.kli_rate is None and row.mi_rate is None
        assert row.total_kli is None and row.total_mi is None
        # geometric fields remain populated
        assert row.mu_n == pytest.approx(401**2 / 4.0)
        assert 0.0 <= row.zeta <= 0.25

    def test_lattice_past_the_double_range(self):
        # its hop count, 4e330, would overflow when multiplied by a double
        with pytest.raises(DomainError, match="too large"):
            evaluate_density(paper_scenario(), 10**110)

    def test_underflowing_sensing_energy_is_infeasible(self):
        # E = 5e-324 is positive, but E / 9 underflows: E_s = 0 means
        # infeasible even though communication is free
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(total_energy=5e-324, e0=0.0, nu=2.0, beta=1.0),
            environment=PhysicalEnvironment(alpha=100.0),
            n_max=3,
        )
        assert sensing_energy_per_node(cfg.energy, Deployment(1.0, 1)) == 0.0
        row = evaluate_density(cfg, 1)
        assert row.feasible is False
        assert row[5:11] == (None,) * 6
        with pytest.raises(NoFeasibleDensityError):
            optimize(cfg)


class TestSweep:
    def test_single_candidate(self):
        cfg = paper_scenario(n_min=7, n_max=7)
        rows = sweep(cfg)
        assert len(rows) == 1
        assert rows[0] == evaluate_density(cfg, 7)

    def test_ascending_and_boundary_included(self):
        cfg = paper_scenario()
        rows = sweep(cfg)
        ns = [row.n for row in rows]
        assert ns == sorted(ns)
        assert rows[-1].feasible is False
        assert all(row.feasible for row in rows[:-1])

    def test_feasibility_boundary_value(self):
        # comm(n) = 0.1 (4n + 6 + 2/n) first exceeds 50 J at n = 124
        assert feasibility_boundary(paper_scenario()) == 124

    def test_feasibility_boundary_at_paper_energies(self):
        boundaries = [feasibility_boundary(paper_scenario(e)) for e in (100.0, 150.0, 200.0)]
        assert boundaries == [249, 374, 499]

    def test_boundary_past_falling_energy(self):
        # at nu = 3 comm(n) = 0.2 (2 + 3/n + 1/n^2) falls from 1.2 J at n = 1
        # toward 0.4 J, so only n = 1 exceeds E = 1 and the range runs on
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(total_energy=1.0, e0=0.1, nu=3.0, beta=1.0),
            environment=PhysicalEnvironment(alpha=100.0),
        )
        assert feasibility_boundary(cfg) == N_MAX_CAP
        assert optimize(cfg).feasible

    def test_boundary_when_nothing_is_feasible(self):
        # at nu = 2.5 comm(n) is 1.2, 1.06, 1.08 J at n = 1, 2, 3: its least
        # value exceeds E = 1, and the range ends where it starts to rise
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(total_energy=1.0, e0=0.1, nu=2.5, beta=1.0),
            environment=PhysicalEnvironment(alpha=100.0),
        )
        assert feasibility_boundary(cfg) == 2
        with pytest.raises(NoFeasibleDensityError):
            optimize(cfg)

    def test_boundary_builds_no_lattice_past_the_cap(self):
        # L is in range at n = N_MAX_CAP but not at N_MAX_CAP + 1, where the
        # density overflows; every n in 490 .. 499 is feasible
        cfg = ScenarioConfig(
            half_width=3.737e-152,
            energy=EnergyModel(total_energy=279862545.9264864, e0=1e308, nu=2.0, beta=1.0),
            environment=PhysicalEnvironment(alpha=100.0),
            n_min=490,
        )
        assert feasibility_boundary(cfg) == N_MAX_CAP

    def test_deterministic(self):
        cfg = paper_scenario(n_min=1, n_max=30)
        assert sweep(cfg) == sweep(cfg)

    def test_unsaturated_rows_report_information(self):
        # A row reports zero KLI only where zeta itself rounds to 1/4: from
        # n = 344 at E = 200 (rho ~ 0.9205), where the bisection used to
        # saturate from n = 340
        rows = [r for r in sweep(paper_scenario(200.0)) if r.feasible]
        unsaturated = [r for r in rows if r.zeta < 0.25 and r.snr > 0.0]
        assert all(r.kli_rate > 0.0 and r.total_kli > 0.0 for r in unsaturated)
        assert max(r.n for r in unsaturated) == 343
        assert min(r.n for r in rows if r.zeta == 0.25) == 344


class TestOptimize:
    def test_single_feasible(self):
        cfg = paper_scenario(n_min=5, n_max=5)
        assert optimize(cfg) == evaluate_density(cfg, 5)

    def test_matches_manual_argmax(self):
        cfg = paper_scenario(n_max=40)
        rows = [row for row in sweep(cfg) if row.feasible]
        assert optimize(cfg, "mi") == max(rows, key=lambda r: r.total_mi)
        assert optimize(cfg, "kli") == max(rows, key=lambda r: r.total_kli)
        assert optimize(cfg) == optimize(cfg, "kli")

    @pytest.mark.parametrize("objective", ["mse", "KLI", "total_kli", ""])
    def test_unknown_objective(self, objective):
        with pytest.raises(DomainError, match="objective"):
            optimize(paper_scenario(n_max=3), objective)

    def test_argmax_invariant_under_scaling(self):
        cfg = paper_scenario(n_max=40)
        rows = [row for row in sweep(cfg) if row.feasible]
        best_n = optimize(cfg).n
        for scale in (1e-6, 1.0, 1e6):
            scaled_best = max(rows, key=lambda r: scale * r.total_kli)
            assert scaled_best.n == best_n

    def test_no_feasible_density(self):
        cfg = paper_scenario(total_energy=0.5, n_min=3, n_max=6)
        with pytest.raises(NoFeasibleDensityError):
            optimize(cfg)

    def test_tie_break_toward_smaller_n(self):
        # a vanishing diffusion rate pins zeta at exactly 1/4 for every
        # spacing, so all totals are exactly zero and ties resolve low
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(total_energy=50.0, e0=0.1, nu=2.0, beta=1.0),
            environment=PhysicalEnvironment(alpha=1e-12),
            n_min=1,
            n_max=4,
        )
        rows = sweep(cfg)
        assert all(row.total_kli == 0.0 for row in rows if row.feasible)
        assert optimize(cfg).n == 1

    def test_config_validation(self):
        with pytest.raises(DomainError):
            paper_scenario(n_min=0)
        with pytest.raises(DomainError):
            paper_scenario(n_min=5, n_max=4)
        with pytest.raises(DomainError):
            paper_scenario(n_max=N_MAX_CAP + 1)
        with pytest.raises(DomainError):
            paper_scenario(n_min=N_MAX_CAP + 1)
