#!/usr/bin/env python3
"""Build reference.json: the benchmark's inputs and their oracle values.

    python3 sfcarbench/make_reference.py

Imports nothing from sfcar; every value comes from oracle.py, in one
worker process per available CPU.  Takes about 15 minutes on two cores.
The file holds:

* paper: every row of the paper sweeps (L=1, alpha=100, beta=1, E0=0.1,
  nu=2, E in {50,100,150,200}) and the optimum n at E=50 for both
  objectives.  Rates are stored at the correctly rounded zeta, with their
  sensitivity d log(rate) / d zeta, and for rows within 1e-9 of 1/4 also
  at the two doubles on either side, where one ulp of zeta already moves
  the rates by more than the check's tolerance.
* rate_plane: 1,500 cells over log10(1/4 - zeta) in [-12, log10(1/4)] x
  log10(snr) in [-6, 4], two log-uniform candidates per cell.
* torus: 6 cells (3 zeta bands x 2 snr bands over the same ranges), three
  candidates each, with the torus values at N = 512, 2048 and 4096.

A run's seed picks one candidate per cell, so the mix of hard and easy
points is the same for every seed while the points themselves differ.
"""

import argparse
import json
import math
import multiprocessing
import os
import random
from pathlib import Path

import mpmath as mp

import oracle

HERE = Path(__file__).resolve().parent
SCENARIO = {"L": 1.0, "alpha": 100.0, "beta": 1.0, "E0": 0.1, "nu": 2.0}
ENERGIES = (50.0, 100.0, 150.0, 200.0)
OPTIMIZE_ENERGY = 50.0
N_CAP = 500  # the library's stated cap on the feasibility boundary
NEAR_QUARTER = 1e-9
U_RANGE = (-12.0, math.log10(0.25))
SNR_RANGE = (-6.0, 4.0)
PLANE_BANDS = (30, 50)
TORUS_BANDS = (3, 2)
TORUS_SIZES = (512, 2048, 4096)
POOL_SEED = 20080508


def chain(n: int) -> dict:
    """Geometry and correlation chain of lattice index n."""
    spacing = mp.mpf(SCENARIO["L"]) / n
    rho = oracle.edge_correlation(SCENARIO["alpha"], spacing)
    zeta, dzeta_drho = oracle.zeta_of_rho(rho)
    return {
        "n": n,
        "d_n": float(spacing),
        "mu_n": float(mp.mpf((2 * n + 1) ** 2) / (2 * mp.mpf(SCENARIO["L"])) ** 2),
        "rho": float(rho),
        "zeta": float(zeta),
        "dzeta_drho": float(dzeta_drho),
    }


def sensing(energy: float, n: int):
    """Exact remaining sensing energy per node; <= 0 means infeasible."""
    with mp.workdps(oracle.CHAIN_DPS):
        spacing = mp.mpf(SCENARIO["L"]) / n
        comm = oracle.hop_count_sum(n) * mp.mpf(SCENARIO["E0"]) * spacing ** mp.mpf(SCENARIO["nu"])
        remaining = mp.mpf(energy) - comm
        return remaining / (2 * n + 1) ** 2, remaining / energy


def rate_task(task):
    kind, zeta, snr = task
    if kind == "value":
        return oracle.rates(zeta, snr)
    # Forward difference of log(rate) in zeta, step 1e-7 of the distance
    # to the nearer end of [0, 1/4].
    with mp.workdps(oracle.RATE_DPS):
        z = mp.mpf(zeta)
        h = min(z, mp.mpf(0.25) - z) * mp.mpf(10) ** -7
        k0, m0 = oracle.rates_mp(z, snr)
        k1, m1 = oracle.rates_mp(z + h, snr)
        return [float((k1 - k0) / (h * k0)), float((m1 - m0) / (h * m0))]


def torus_task(task):
    zeta, snr, n = task
    return oracle.torus_rates(zeta, snr, n)


def log_uniform_cells(rng, bands, per_cell):
    """Candidates (zeta, log10 snr) drawn log-uniformly inside each cell."""
    nu, ns = bands
    cells = []
    for i in range(nu):
        for j in range(ns):
            cell = []
            for _ in range(per_cell):
                lu = U_RANGE[0] + (i + rng.random()) * (U_RANGE[1] - U_RANGE[0]) / nu
                ls = SNR_RANGE[0] + (j + rng.random()) * (SNR_RANGE[1] - SNR_RANGE[0]) / ns
                cell.append((0.25 - 10.0**lu, ls))
            cells.append(cell)
    return cells


def neighbours(zeta: float) -> list[float]:
    below = [math.nextafter(zeta, 0.0)]
    below.append(math.nextafter(below[0], 0.0))
    above = []
    z = zeta
    for _ in range(2):
        z = math.nextafter(z, 1.0)
        if z > 0.25:
            break
        above.append(z)
    return below + above


def build_paper(pool) -> dict:
    chains = pool.map(chain, range(1, N_CAP + 1), chunksize=8)
    sweeps = {}
    rate_jobs = []
    for energy in ENERGIES:
        rows = []
        for c in chains:
            n = c["n"]
            e_s, margin = sensing(energy, n)
            if abs(margin) < 1e-9:
                raise SystemExit(f"feasibility of n={n} at E={energy} is a near tie")
            row = dict(c)
            row["feasible"] = bool(e_s > 0)
            if row["feasible"]:
                row["e_s"] = float(e_s)
                row["snr"] = float(e_s * mp.mpf(SCENARIO["beta"]))
                points = [row["zeta"]]
                if 0.0 < 0.25 - row["zeta"] < NEAR_QUARTER:
                    points += neighbours(row["zeta"])
                row["rates"] = {}
                for z in points:
                    rate_jobs.append((("value", z, row["snr"]), row, repr(z)))
                if 0.0 < row["zeta"] < 0.25:
                    rate_jobs.append((("dlog", row["zeta"], row["snr"]), row, None))
            rows.append(row)
            if not row["feasible"]:
                break
        sweeps[repr(energy)] = rows
    results = pool.map(rate_task, [job[0] for job in rate_jobs], chunksize=4)
    for (task, row, key), result in zip(rate_jobs, results):
        if key is None:
            row["dlog_dzeta"] = result
        else:
            row["rates"][key] = list(result)
    optimum = {}
    for index, objective in enumerate(("kli", "mi")):
        totals = sorted(
            (
                (2 * r["n"] + 1) ** 2 * r["rates"][repr(r["zeta"])][index],
                r["n"],
            )
            for r in sweeps[repr(OPTIMIZE_ENERGY)]
            if r["feasible"]
        )
        (second, _), (best, n_best) = totals[-2:]
        if best - second < 1e-6 * best:
            raise SystemExit(f"{objective} optimum is a near tie")
        optimum[objective] = n_best
    return {
        "scenario": SCENARIO,
        "energies": list(ENERGIES),
        "optimize_energy": OPTIMIZE_ENERGY,
        "sweeps": sweeps,
        "optimum": optimum,
    }


def build_rate_plane(pool, rng) -> dict:
    cells = log_uniform_cells(rng, PLANE_BANDS, 2)
    points = [(z, 10.0**ls) for cell in cells for z, ls in cell]
    values = pool.map(rate_task, [("value", z, s) for z, s in points], chunksize=8)
    flat = [[z, s, k, m] for (z, s), (k, m) in zip(points, values)]
    return {"cells": [flat[i : i + 2] for i in range(0, len(flat), 2)]}


def build_torus(pool, rng) -> dict:
    cells = log_uniform_cells(rng, TORUS_BANDS, 3)
    points = []
    for cell in cells:
        for z, ls in cell:
            snr_db = round(10.0 * ls, 3)
            points.append((z, snr_db, 10.0 ** (snr_db / 10.0)))
    quad = pool.map(rate_task, [("value", z, s) for z, _, s in points])
    torus = pool.map(torus_task, [(z, s, n) for z, _, s in points for n in TORUS_SIZES])
    sizes = TORUS_SIZES
    flat = []
    for i, (z, snr_db, s) in enumerate(points):
        flat.append(
            {
                "zeta": z,
                "snr_db": snr_db,
                "snr": s,
                "rates": list(quad[i]),
                "torus": {
                    str(n): list(torus[i * len(sizes) + j]) for j, n in enumerate(sizes)
                },
            }
        )
    return {"sizes": list(TORUS_SIZES), "cells": [flat[i : i + 3] for i in range(0, len(flat), 3)]}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=str(HERE / "reference.json"))
    args = parser.parse_args()
    rng = random.Random(POOL_SEED)
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        reference = {
            "oracle": f"mpmath {mp.__version__}, rates at {oracle.RATE_DPS} digits, "
            f"chain at {oracle.CHAIN_DPS} digits",
            "paper": build_paper(pool),
            "rate_plane": build_rate_plane(pool, rng),
            "torus": build_torus(pool, rng),
        }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")


if __name__ == "__main__":
    main()
