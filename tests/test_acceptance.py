"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion.  Gap-monotonicity checks compare down to an
absolute floor of 1e-10: the torus rates converge exponentially for
these spectra, so the true gaps reach double-precision noise by N ~ 128
and differences below the floor are accumulation noise, not signal.
"""

import csv
import io
import json
import math
import time

import numpy as np
import pytest

from sfcar.cli import main as cli_main
from sfcar.correlation import PhysicalEnvironment, rho_of_zeta, zeta_of_rho
from sfcar.density import ScenarioConfig, sweep
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.network import EnergyModel
from sfcar.rates import info_rates
from sfcar.special import bessel_k1, complete_elliptic_k

from oracles import (
    bessel_k1_integral,
    chain_total_kli,
    dense_gaussian_rates,
    ellipk_integral,
    spectral_density_dblquad,
)

GAP_FLOOR = 1e-10


def report(criterion: str, passed: bool, elapsed: float, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status} ({elapsed:.2f}s) {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_closed_form_white_field_rates():
    t0 = time.perf_counter()
    worst = 0.0
    for snr in (0.01, 1.0, 100.0):
        kli_ref = 0.5 * (math.log1p(snr) + 1.0 / (1.0 + snr) - 1.0)
        mi_ref = 0.5 * math.log1p(snr)
        worst = max(worst, abs(info_rates(0.0, snr).kli - kli_ref) / kli_ref)
        worst = max(worst, abs(info_rates(0.0, snr).mi - mi_ref) / mi_ref)
    elapsed = time.perf_counter() - t0
    report(
        "01 closed-form zeta=0 rates",
        worst <= 1e-10 and elapsed < 1.0,
        elapsed,
        f"worst relative error {worst:.2e} (tol 1e-10)",
    )


def test_criterion_02_torus_convergence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for zeta in (0.05, 0.15, 0.24):
        for snr in (0.1, 10.0):
            quad = info_rates(zeta, snr)
            gaps = []
            for n in (32, 128, 512, 2048):
                torus = torus_rates(zeta, snr, TorusSpec(n))
                gaps.append(max(abs(torus.kli - quad.kli), abs(torus.mi - quad.mi)))
            monotone = all(b <= max(a, GAP_FLOOR) for a, b in zip(gaps, gaps[1:]))
            ok = ok and monotone and gaps[-1] < 1e-3
            details.append(f"z={zeta},snr={snr}: gap(2048)={gaps[-1]:.1e}")
    elapsed = time.perf_counter() - t0
    report(
        "02 torus oracle convergence",
        ok and elapsed < 30.0,
        elapsed,
        "; ".join(details[:3]) + " ...",
    )


def test_criterion_03_dense_matrix_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for zeta in (0.0, 0.1, 0.2):
        for snr in (0.5, 5.0):
            kli, mi = dense_gaussian_rates(zeta, snr, 8)
            torus = torus_rates(zeta, snr, TorusSpec(8))
            worst = max(worst, abs(kli - torus.kli), abs(mi - torus.mi))
    elapsed = time.perf_counter() - t0
    report(
        "03 dense-matrix equivalence",
        worst <= 1e-10 and elapsed < 5.0,
        elapsed,
        f"worst |dense - torus| = {worst:.2e} (tol 1e-10)",
    )


def test_criterion_04_monotone_in_snr():
    t0 = time.perf_counter()
    snrs = 10.0 ** (np.linspace(-20.0, 40.0, 30) / 10.0)
    ok = True
    for zeta in (0.0, 0.1, 0.2, 0.24):
        rates = [info_rates(zeta, float(s)) for s in snrs]
        ok = ok and all(b.kli > a.kli for a, b in zip(rates, rates[1:]))
        ok = ok and all(b.mi > a.mi for a, b in zip(rates, rates[1:]))
    elapsed = time.perf_counter() - t0
    report(
        "04 monotone in SNR",
        ok and elapsed < 30.0,
        elapsed,
        "both rates strictly increasing on 30-point grid, zeta in {0, 0.1, 0.2, 0.24}",
    )


def test_criterion_05_low_snr_exponents():
    t0 = time.perf_counter()
    snrs = np.logspace(-4, -3, 8)
    kli_slope = np.polyfit(
        np.log(snrs), np.log([info_rates(0.15, float(s)).kli for s in snrs]), 1
    )[0]
    mi_slope = np.polyfit(
        np.log(snrs), np.log([info_rates(0.15, float(s)).mi for s in snrs]), 1
    )[0]
    kli_const = info_rates(0.0, 1e-4).kli / 1e-8
    mi_const = info_rates(0.0, 1e-4).mi / 1e-4
    ok = (
        abs(kli_slope - 2.0) <= 0.05
        and abs(mi_slope - 1.0) <= 0.05
        and abs(kli_const - 0.25) <= 0.0025
        and abs(mi_const - 0.5) <= 0.005
    )
    elapsed = time.perf_counter() - t0
    report(
        "05 low-SNR exponents",
        ok and elapsed < 10.0,
        elapsed,
        f"slopes kli={kli_slope:.4f} (2±0.05), mi={mi_slope:.4f} (1±0.05); "
        f"constants kli/SNR^2={kli_const:.4f} (0.25±1%), mi/SNR={mi_const:.4f} (0.5±1%)",
    )


def test_criterion_06_high_snr_slope():
    t0 = time.perf_counter()
    half_ln_100 = 0.5 * math.log(100.0)
    kli_slope = (info_rates(0.1, 1e6).kli - info_rates(0.1, 1e4).kli) / half_ln_100
    mi_slope = (info_rates(0.1, 1e6).mi - info_rates(0.1, 1e4).mi) / half_ln_100
    ok = abs(kli_slope - 1.0) <= 0.05 and abs(mi_slope - 1.0) <= 0.05
    elapsed = time.perf_counter() - t0
    report(
        "06 high-SNR slope",
        ok and elapsed < 5.0,
        elapsed,
        f"kli slope {kli_slope:.5f}, mi slope {mi_slope:.5f} (1±5%)",
    )


def test_criterion_07_special_functions_vs_integral_oracles():
    t0 = time.perf_counter()
    worst_k = max(
        abs(complete_elliptic_k(float(k)) - ellipk_integral(float(k)))
        / ellipk_integral(float(k))
        for k in np.logspace(-6, math.log10(0.9999), 50)
    )
    worst_b = max(
        abs(bessel_k1(float(x)) - bessel_k1_integral(float(x)))
        / bessel_k1_integral(float(x))
        for x in np.logspace(-2, math.log10(500.0), 50)
    )
    ok = worst_k <= 1e-9 and worst_b <= 1e-8
    elapsed = time.perf_counter() - t0
    report(
        "07 special functions vs oracles",
        ok and elapsed < 10.0,
        elapsed,
        f"worst rel: K {worst_k:.1e} (tol 1e-9), K1 {worst_b:.1e} (tol 1e-8)",
    )


def test_criterion_08_correlation_mapping():
    t0 = time.perf_counter()
    endpoints = rho_of_zeta(0.0) == 0.0 and rho_of_zeta(0.25) == 1.0
    worst_rt = max(
        abs(zeta_of_rho(rho_of_zeta(float(z))) - float(z))
        for z in np.linspace(0.0, 0.25, 1000)
    )
    worst_norm = 0.0
    for zeta in (0.05, 0.15, 0.24):
        oracle = spectral_density_dblquad(zeta, 1.0)  # (1/4pi^2) * integral dw/D
        target = (2.0 / math.pi) * complete_elliptic_k(4.0 * zeta)
        worst_norm = max(worst_norm, abs(oracle - target) / target)
    ok = endpoints and worst_rt <= 1e-10 and worst_norm <= 1e-8
    elapsed = time.perf_counter() - t0
    report(
        "08 correlation mapping",
        ok and elapsed < 10.0,
        elapsed,
        f"endpoints exact={endpoints}; round-trip worst {worst_rt:.1e} (tol 1e-10); "
        f"normalization worst rel {worst_norm:.1e} (tol 1e-8)",
    )


def test_criterion_09_hop_count_identity():
    t0 = time.perf_counter()
    from sfcar.network import hop_count_sum

    from oracles import brute_hop_sums

    brute = brute_hop_sums(200)
    ok = all(hop_count_sum(n) == brute[n] for n in range(0, 201))
    elapsed = time.perf_counter() - t0
    report(
        "09 hop-count identity",
        ok and elapsed < 1.0,
        elapsed,
        "closed form equals brute-force sum for all n <= 200",
    )


# ---------------------------------------------------------------------------
# Criterion 10: density/energy trade-off with the stated parameters
# (L = 1 m, alpha = 100, beta = 1, E0 = 0.1, nu = 2; E in {50, 100, 150, 200} J)
#
# 10b takes the expected local maxima of total KLI from oracles.chain_total_kli,
# which rebuilds the whole chain (spacing -> rho -> zeta -> SNR -> total) with
# SciPy and shares no code with sfcar.  Its former target, a second maximum
# within ±30% of mu = 95 nodes/m^2 at E = 50, had no source in the repo and
# contradicts the documented model: there (n = 8..10) rho <= 1.9e-4, so the
# per-node KLI is the white-field K0(SNR) to O(zeta^2), and
# N K0((E - C(n))/N) has a single maximum.  The correlation-driven maximum
# the chain does give sits near n ~ 150 (rho ~ 0.76, SNR ~ 1e-3), which the
# E = 50 budget cannot reach (its feasibility boundary is n = 124).
# Those second maxima sit where the array is about one correlation length
# wide: N sqrt(delta), with N = 2n + 1 and delta = 1 - 4 zeta, is 1.13, 1.24
# and 1.43 at n = 157, 155 and 152 (E = 100, 150, 200).  There the
# asymptotic per-node rate, the N -> infinity limit, is a poor model of a
# finite array (ROADMAP item 4).
# Rows with rho > 0.9 are not compared: zeta is documented to resolve to 1/4
# above rho ~ 0.9205, and both sides lose digits of 1/4 - zeta before that.
CHAIN_RHO_MAX = 0.9


def paper_config(total_energy: float) -> ScenarioConfig:
    return ScenarioConfig(
        half_width=1.0,
        energy=EnergyModel(total_energy=total_energy, e0=0.1, nu=2.0, beta=1.0),
        environment=PhysicalEnvironment(alpha=100.0),
    )


@pytest.fixture(scope="module")
def paper_sweeps():
    t0 = time.perf_counter()
    sweeps = {e: sweep(paper_config(e)) for e in (50.0, 100.0, 150.0, 200.0)}
    return sweeps, time.perf_counter() - t0


def local_maxima(values):
    return [
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    ]


def test_criterion_10a_interior_optimum_exists(paper_sweeps):
    sweeps, sweep_time = paper_sweeps
    t0 = time.perf_counter()
    ok = True
    details = []
    for energy, rows in sweeps.items():
        feasible = [r for r in rows if r.feasible]
        boundary = rows[-1].n if not rows[-1].feasible else None
        for objective in ("kli", "mi"):
            best = max(feasible, key=lambda r: getattr(r, "total_" + objective))
            interior = feasible[0].n < best.n and (boundary is None or best.n < boundary)
            ok = ok and interior
            details.append(f"E={energy:.0f}/{objective}: n*={best.n}")
    elapsed = sweep_time + (time.perf_counter() - t0)
    report(
        "10a interior optimal density",
        ok and elapsed < 60.0,
        elapsed,
        "; ".join(details),
    )


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_criterion_10b_second_kli_peak_location(paper_sweeps):
    sweeps, sweep_time = paper_sweeps
    t0 = time.perf_counter()
    ok = True
    correlated_peak = False
    details = []
    for energy, rows in sweeps.items():
        config = paper_config(energy)
        chain = {
            r.n: chain_total_kli(
                r.n,
                half_width=config.half_width,
                alpha=config.environment.alpha,
                total_energy=config.energy.total_energy,
                e0=config.energy.e0,
                nu=config.energy.nu,
                beta=config.energy.beta,
                rho_max=CHAIN_RHO_MAX,
            )
            for r in rows
            if r.feasible
        }
        compared = [r for r in rows if r.feasible and chain[r.n][1] is not None]
        found = [compared[i].n for i in local_maxima([r.total_kli for r in compared])]
        expected = [compared[i].n for i in local_maxima([chain[r.n][1] for r in compared])]
        ok = ok and found == expected
        correlated_peak = correlated_peak or (
            len(expected) >= 2 and chain[expected[1]][0] > 0.5
        )
        details.append(
            f"E={energy:.0f}: sweep n={found}, chain n={expected} "
            f"(rho={[round(float(chain[n][0]), 3) for n in expected]})"
        )
    elapsed = sweep_time + (time.perf_counter() - t0)
    report(
        "10b KLI local maxima match the oracle chain",
        ok and correlated_peak,
        elapsed,
        "; ".join(details)
        + "; need equal maxima over rows with rho <= 0.9 and a second one at rho > 0.5 "
        "(the former target, mu=95 at E=50, had no source in the repo)",
    )


def test_criterion_10c_high_density_tail(paper_sweeps):
    sweeps, sweep_time = paper_sweeps
    t0 = time.perf_counter()
    ok = True
    details = []
    for energy, rows in sweeps.items():
        feasible = [r for r in rows if r.feasible]
        tail = [r for r in feasible if r.snr < 0.01 and r.zeta < 0.2]
        spans_doubling = len(tail) >= 6 and tail[-1].mu_n >= 2.0 * tail[0].mu_n
        if spans_doubling:
            mu = np.array([r.mu_n for r in tail])
            slope = np.polyfit(np.log(mu), np.log([r.total_kli for r in tail]), 1)[0]
            lo = tail[0]
            hi = next(r for r in tail if r.mu_n >= 2.0 * lo.mu_n)
            mi_change = abs(hi.total_mi / lo.total_mi - 1.0)
            branch_ok = abs(slope + 1.0) <= 0.15 and mi_change < 0.2
            details.append(
                f"E={energy:.0f}: slope={slope:.3f} (-1±0.15), MI change {mi_change:.1%}"
            )
        else:
            totals = [r.total_kli for r in feasible]
            peak = totals.index(max(totals))
            tail_vals = totals[max(peak, len(totals) - 6) :]
            branch_ok = (
                all(b <= a for a, b in zip(tail_vals, tail_vals[1:]))
                and totals[-1] < 0.5 * max(totals)
            )
            details.append(f"E={energy:.0f}: eventually decreasing={branch_ok}")
        ok = ok and branch_ok
    elapsed = sweep_time + (time.perf_counter() - t0)
    report("10c high-density asymptotics", ok and elapsed < 60.0, elapsed, "; ".join(details))


def test_criterion_10d_torus_total_matches_past_the_crossover(paper_sweeps):
    # The sweep's total is (2n+1)^2 times the N -> infinity rate; a finite
    # N x N torus with N = 2n+1 agrees once the array is several
    # correlation lengths wide, N sqrt(delta) large.  Measured worst: KLI
    # 1.0e-5 on the 440 rows with N sqrt(delta) >= 7 and 2.7e-8 on the
    # 396 with >= 10; at 5.10 (E=50, n=122) KLI is 6.1e-4 off.
    sweeps, sweep_time = paper_sweeps
    t0 = time.perf_counter()
    worst = {7.0: 0.0, 10.0: 0.0}
    counts = {7.0: 0, 10.0: 0}
    for rows in sweeps.values():
        for r in rows:
            size = 2 * r.n + 1
            width = size * math.sqrt(1.0 - 4.0 * r.zeta) if r.feasible else 0.0
            if width < 7.0:
                continue
            torus = torus_rates(r.zeta, r.snr, TorusSpec(size))
            err = max(
                abs(size * size * torus.kli - r.total_kli) / r.total_kli,
                abs(size * size * torus.mi - r.total_mi) / r.total_mi,
            )
            for floor in worst:
                if width >= floor:
                    worst[floor] = max(worst[floor], err)
                    counts[floor] += 1
    elapsed = sweep_time + (time.perf_counter() - t0)
    report(
        "10d torus total matches the sweep past the crossover",
        worst[7.0] <= 1e-4 and worst[10.0] <= 1e-7 and counts[10.0] > 0,
        elapsed,
        f"N sqrt(delta) >= 7: {counts[7.0]} rows, worst {worst[7.0]:.1e} (tol 1e-4); "
        f">= 10: {counts[10.0]} rows, worst {worst[10.0]:.1e} (tol 1e-7)",
    )


def test_criterion_11_correlation_benefit_shape():
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 0.25, 50)
    high = [info_rates(float(z), 10.0).kli for z in grid]
    low = [info_rates(float(z), 10.0 ** (-0.5)).kli for z in grid]
    monotone_high = all(b < a for a, b in zip(high, high[1:]))
    peaks = local_maxima(low)
    interior_peak = bool(peaks) and grid[peaks[0]] > 0.1
    elapsed = time.perf_counter() - t0
    report(
        "11 correlation benefit shape",
        monotone_high and interior_peak and elapsed < 20.0,
        elapsed,
        f"+10dB monotone decreasing={monotone_high}; "
        f"-5dB interior peak at zeta={grid[peaks[0]]:.4f}" if peaks else "no interior peak",
    )


def test_criterion_12_cli_contract(capsys, tmp_path):
    t0 = time.perf_counter()
    args = ["--L", "1", "--E", "50", "--alpha", "100", "--beta", "1",
            "--E0", "0.1", "--nu", "2", "--n-max", "15"]

    code_csv = cli_main(["sweep", *args, "--format", "csv"])
    out_csv = capsys.readouterr().out
    code_json = cli_main(["sweep", *args, "--format", "json"])
    out_json = capsys.readouterr().out
    csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)
    fields_agree = len(csv_rows) == len(json_rows)
    for crow, jrow in zip(csv_rows, json_rows):
        for field, value in jrow.items():
            raw = crow[field]
            parsed = (
                None if raw == "" else raw == "true" if raw in ("true", "false")
                else type(value)(raw)
            )
            fields_agree = fields_agree and parsed == value

    code_opt = cli_main(["optimize", *args, "--format", "json"])
    opt_row = json.loads(capsys.readouterr().out)[0]
    best = max(
        (r for r in json_rows if r["feasible"]), key=lambda r: r["total_kli"]
    )
    opt_matches = opt_row["n"] == best["n"] and opt_row["total_kli"] == best["total_kli"]

    code_bad = cli_main(["rates", "--zeta", "0.4", "--snr-db", "0"])
    capsys.readouterr()
    code_infeasible = cli_main(
        ["optimize", "--L", "1", "--E", "0.5", "--alpha", "100", "--beta", "1",
         "--E0", "0.1", "--nu", "2", "--n-min", "3", "--n-max", "5"]
    )
    capsys.readouterr()

    ok = (
        code_csv == 0 and code_json == 0 and code_opt == 0
        and fields_agree and opt_matches
        and code_bad == 2 and code_infeasible == 3
    )
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        report(
            "12 CLI contract",
            ok and elapsed < 10.0,
            elapsed,
            f"csv/json agree={fields_agree}, optimize=argmax({opt_matches}), "
            f"exit codes 0/2/3=({code_csv},{code_bad},{code_infeasible})",
        )
