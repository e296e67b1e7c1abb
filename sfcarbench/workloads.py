"""The benchmark's inputs, made from the seed, and the checks of outputs.

Inputs and reference values come from reference.json (see
make_reference.py).  Every check compares against those oracle values,
never against sfcar itself:

* rates (kli, mi and the network totals): relative 1e-9, the library's
  stated quadrature target, at exactly the zeta and snr the library used;
* torus rates: relative 1e-9;
* rho: relative 1e-10 (the K_1 contract); zeta: absolute 1e-10 (the
  stated round-trip accuracy of the correlation chain);
* spacing, density, sensing energy and snr: relative 1e-12;
* n, the optimum n, row counts and feasibility flags: exactly.

A row or point fails if any of its fields fails, if it holds a NaN, or
if its command exits nonzero.
"""

import csv
import io
import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

RATE_TOL = 1e-9
RHO_TOL = 1e-10
ZETA_TOL = 1e-10
ARITH_TOL = 1e-12
# Largest first-order correction in zeta trusted when the library's zeta
# is not one of the stored points; beyond it the oracle is evaluated.
LINEAR_LIMIT = 1e-6

WORKLOADS = ("paper-sweep", "rate-plane", "torus-validate")


@cache
def reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the check of its standard output."""

    label: str
    argv: tuple[str, ...]
    rows: int  # operations the output holds when correct
    check: Callable[[str], int]  # stdout -> number of failed operations


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


# ---------------------------------------------------------------- paper-sweep


def paper_commands() -> list[Command]:
    """4 sweeps and 2 optimize runs on the paper scenario, in fixed order."""
    paper = reference()["paper"]
    sc = paper["scenario"]
    base = [
        "--L", repr(sc["L"]), "--alpha", repr(sc["alpha"]), "--beta", repr(sc["beta"]),
        "--E0", repr(sc["E0"]), "--nu", repr(sc["nu"]),
    ]
    commands = []
    for energy in paper["energies"]:
        rows = paper["sweeps"][repr(energy)]
        commands.append(
            Command(
                f"sweep E={energy:g}",
                ("sweep", "--E", repr(energy), *base),
                len(rows),
                lambda text, rows=rows: check_sweep(text, rows),
            )
        )
    energy = paper["optimize_energy"]
    for objective in ("kli", "mi"):
        commands.append(
            Command(
                f"optimize {objective} E={energy:g}",
                ("optimize", "--E", repr(energy), *base, "--objective", objective),
                1,
                lambda text, objective=objective: check_optimize(text, objective),
            )
        )
    return commands


def check_sweep(text: str, want_rows: list[dict]) -> int:
    rows = list(csv.DictReader(io.StringIO(text)))
    failed = abs(len(rows) - len(want_rows))
    return failed + sum(not row_ok(got, want) for got, want in zip(rows, want_rows))


def check_optimize(text: str, objective: str) -> int:
    paper = reference()["paper"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if len(rows) != 1 or rows[0].get("objective") != objective:
        return 1
    n = paper["optimum"][objective]
    want = paper["sweeps"][repr(paper["optimize_energy"])][n - 1]
    return int(not row_ok(rows[0], want))


def row_ok(got: dict, want: dict) -> bool:
    """One sweep row against its oracle row."""
    try:
        if int(got["n"]) != want["n"] or got["feasible"] != ("true" if want["feasible"] else "false"):
            return False
        d_n, mu_n, rho, zeta = (float(got[k]) for k in ("d_n", "mu_n", "rho", "zeta"))
        if not (
            close(d_n, want["d_n"], ARITH_TOL)
            and close(mu_n, want["mu_n"], ARITH_TOL)
            and close(rho, want["rho"], RHO_TOL)
            and abs(zeta - want["zeta"]) <= ZETA_TOL
        ):
            return False
        energy_fields = ("e_s", "snr", "kli_rate", "mi_rate", "total_kli", "total_mi")
        if not want["feasible"]:
            return all(got[k] == "" for k in energy_fields)
        e_s, snr, kli, mi, total_kli, total_mi = (float(got[k]) for k in energy_fields)
    except (KeyError, TypeError, ValueError):
        return False
    if not (close(e_s, want["e_s"], ARITH_TOL) and close(snr, want["snr"], ARITH_TOL)):
        return False
    want_kli, want_mi = sweep_rates(want, zeta, snr)
    nodes = (2 * want["n"] + 1) ** 2
    return (
        close(kli, want_kli, RATE_TOL)
        and close(mi, want_mi, RATE_TOL)
        and close(total_kli, nodes * want_kli, RATE_TOL)
        and close(total_mi, nodes * want_mi, RATE_TOL)
    )


def sweep_rates(want: dict, zeta: float, snr: float) -> tuple[float, float]:
    """Oracle rates at the zeta the library reported.

    The stored points cover the correctly rounded zeta (and its
    neighbours where one ulp matters); nearby, a first-order correction
    is exact to far below the tolerance; elsewhere the oracle runs here.
    The snr agrees to 1e-12 by the time this is called, and the rates are
    no worse than linear in it, so snr is not corrected.
    """
    if repr(zeta) in want["rates"]:
        return tuple(want["rates"][repr(zeta)])
    if not (0.0 <= zeta <= 0.25):
        return math.nan, math.nan
    z0 = want["zeta"]
    k0, m0 = want["rates"][repr(z0)]
    dk, dm = want.get("dlog_dzeta", (0.0, 0.0))
    step = zeta - z0
    if z0 < 0.25 and zeta < 0.25 and max(abs(dk * step), abs(dm * step)) <= LINEAR_LIMIT:
        return k0 * (1.0 + dk * step), m0 * (1.0 + dm * step)
    import oracle  # mpmath is loaded only when this fallback runs

    return oracle.rates(zeta, snr)


# ----------------------------------------------------------------- rate-plane


def rate_plane_points(seed: int) -> list[tuple[float, float, float, float]]:
    """One (zeta, snr, kli_ref, mi_ref) per cell, chosen and ordered by seed."""
    rng = random.Random(seed)
    cells = reference()["rate_plane"]["cells"]
    points = [tuple(cell[rng.randrange(len(cell))]) for cell in cells]
    rng.shuffle(points)
    return points


def rate_failed(point, result) -> bool:
    _, _, want_kli, want_mi = point
    return not (close(result[0], want_kli, RATE_TOL) and close(result[1], want_mi, RATE_TOL))


# ------------------------------------------------------------- torus-validate


def torus_commands(seed: int) -> list[Command]:
    """One `sfcar validate` per cell, its point chosen by seed."""
    rng = random.Random(seed)
    torus = reference()["torus"]
    sizes = [str(n) for n in torus["sizes"]]
    commands = []
    for cell in torus["cells"]:
        point = cell[rng.randrange(len(cell))]
        commands.append(
            Command(
                f"validate zeta={point['zeta']:.6g} snr_db={point['snr_db']:g}",
                ("validate", "--zeta", repr(point["zeta"]), "--snr-db", repr(point["snr_db"]),
                 "--N", *sizes),
                len(sizes),
                lambda text, point=point: check_validate(text, point),
            )
        )
    return commands


def check_validate(text: str, point: dict) -> int:
    rows = list(csv.DictReader(io.StringIO(text)))
    want_sizes = list(point["torus"])
    failed = abs(len(rows) - len(want_sizes))
    for got, size in zip(rows, want_sizes):
        failed += not validate_row_ok(got, size, point)
    return failed


def validate_row_ok(got: dict, size: str, point: dict) -> bool:
    try:
        if got["N"] != size:
            return False
        kt, mt, kq, mq, gk, gm = (
            float(got[k])
            for k in ("kli_torus", "mi_torus", "kli_quad", "mi_quad", "abs_gap_kli", "abs_gap_mi")
        )
    except (KeyError, TypeError, ValueError):
        return False
    want_kt, want_mt = point["torus"][size]
    want_kq, want_mq = point["rates"]
    return (
        close(kt, want_kt, RATE_TOL)
        and close(mt, want_mt, RATE_TOL)
        and close(kq, want_kq, RATE_TOL)
        and close(mq, want_mq, RATE_TOL)
        and close(gk, abs(kt - kq), ARITH_TOL)
        and close(gm, abs(mt - mq), ARITH_TOL)
    )
