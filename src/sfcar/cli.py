"""Command-line front end.

Subcommands: rates, map, sweep, optimize, validate.  Every command takes
--format {csv|json}, --output PATH and --config PATH (a JSON file whose
keys match the command's option names; explicit flags override file
values, and a key the command lacks or a value its flag would reject is
invalid input).  Numeric options must be finite.  Output tables are
plot-ready: CSV with a fixed header row, or a JSON array of flat records
with identical field names.  Floats are emitted in shortest round-trip
form, so outputs keep full double precision and can serve as regression
fixtures.

Exit codes: 0 success, 2 invalid input, 3 no feasible density.
"""

import argparse
import json
import math
import sys

from sfcar.correlation import PhysicalEnvironment, edge_correlation, zeta_of_rho
from sfcar.density import (
    N_MAX_CAP,
    Objective,
    ScenarioConfig,
    SweepRow,
    optimize,
    sweep,
)
from sfcar.errors import (
    DivergenceError,
    DomainError,
    NoFeasibleDensityError,
    QuadratureError,
)
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.network import EnergyModel
from sfcar.rates import info_rates

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_FEASIBLE = 3

SWEEP_FIELDS = [
    "n",
    "mu_n",
    "d_n",
    "rho",
    "zeta",
    "e_s",
    "snr",
    "kli_rate",
    "mi_rate",
    "total_kli",
    "total_mi",
    "feasible",
]


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad argument as a DomainError, so that flags and config
    file values fail the same way: one message and exit code 2."""

    def error(self, message: str):
        raise DomainError(message)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            args = _apply_config_file(parser, argv, args)
        return args.handler(args)
    except (DomainError, DivergenceError, QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NoFeasibleDensityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_FEASIBLE


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--output", default=None, help="output path (default stdout)")
    common.add_argument("--config", default=None, help="JSON file with option values")

    parser = _ArgumentParser(
        prog="sfcar",
        description="Information rates and density planning for 2-D "
        "conditionally autoregressive Gauss-Markov fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", parents=[common], help="per-node rates at one point")
    p.add_argument("--zeta", type=_finite, default=None)
    p.add_argument("--snr-db", type=_finite, default=None)
    p.set_defaults(handler=_cmd_rates)

    p = sub.add_parser("map", parents=[common], help="spacing -> rho -> zeta chain")
    p.add_argument("--alpha", type=_finite, default=None)
    p.add_argument("--spacing", type=_finite, default=None)
    p.set_defaults(handler=_cmd_map)

    for name, handler in (("sweep", _cmd_sweep), ("optimize", _cmd_optimize)):
        p = sub.add_parser(name, parents=[common], help=f"density {name}")
        p.add_argument("--L", type=_finite, default=None, help="coverage half-width")
        p.add_argument(
            "--E", type=_finite, default=None, help="total energy budget (J)"
        )
        p.add_argument("--alpha", type=_finite, default=None, help="diffusion rate")
        p.add_argument("--beta", type=_finite, default=None, help="SNR per joule")
        p.add_argument(
            "--E0", type=_finite, default=None, help="per-edge energy coefficient"
        )
        p.add_argument("--nu", type=_finite, default=None, help="path-loss exponent")
        p.add_argument("--n-min", type=int, default=None)
        p.add_argument("--n-max", type=int, default=None)
        p.add_argument(
            "--mu-min", type=_finite, default=None, help="density lower bound"
        )
        p.add_argument(
            "--mu-max", type=_finite, default=None, help="density upper bound"
        )
        p.add_argument("--objective", choices=("kli", "mi"), default=None)
        p.set_defaults(handler=handler)

    p = sub.add_parser("validate", parents=[common], help="torus vs quadrature gaps")
    p.add_argument("--zeta", type=_finite, default=None)
    p.add_argument("--snr-db", type=_finite, default=None)
    p.add_argument("--N", type=int, nargs="+", default=None, help="torus sizes")
    p.set_defaults(handler=_cmd_validate)
    return parser


def _apply_config_file(
    parser: argparse.ArgumentParser, argv: list[str], args: argparse.Namespace
) -> argparse.Namespace:
    # The file's values are parsed as flags placed before the command
    # line's own, so they pass the same checks and explicit flags win.
    path = args.config
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"--config {path}: {exc}") from None
    if not isinstance(values, dict):
        raise DomainError(f"--config {path}: expected a JSON object of option values")
    tokens = []
    for key, value in values.items():
        dest = key.replace("-", "_")
        if dest in ("command", "handler", "config") or not hasattr(args, dest):
            raise DomainError(f"--config {path}: {args.command} has no option {key!r}")
        flag = "--" + dest.replace("_", "-")
        if isinstance(value, list):
            tokens += [flag, *map(str, value)]
        else:
            tokens.append(f"{flag}={value}")
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + tokens + argv[at:])
    except DomainError as exc:
        raise DomainError(f"--config {path}: {exc}") from None


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise DomainError(
            "missing required option(s): "
            + ", ".join("--" + n.replace("_", "-") for n in missing)
        )


def _snr_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise DomainError(
            f"--snr-db {snr_db!r} is too large: the linear SNR overflows"
        ) from None


def _cmd_rates(args: argparse.Namespace) -> int:
    _require(args, "zeta", "snr_db")
    snr = _snr_linear(args.snr_db)
    rates = info_rates(args.zeta, snr)
    record = {
        "zeta": args.zeta,
        "snr_db": args.snr_db,
        "snr_linear": snr,
        "kli_rate": rates.kli,
        "mi_rate": rates.mi,
    }
    _emit([record], list(record), args)
    return EXIT_OK


def _cmd_map(args: argparse.Namespace) -> int:
    _require(args, "alpha", "spacing")
    env = PhysicalEnvironment(args.alpha)
    rho = edge_correlation(env, args.spacing)
    record = {
        "alpha": args.alpha,
        "spacing": args.spacing,
        "rho": rho,
        "zeta": zeta_of_rho(rho),
    }
    _emit([record], list(record), args)
    return EXIT_OK


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    _require(args, "L", "E", "alpha", "beta", "E0", "nu")
    area = (2.0 * args.L) * (2.0 * args.L)
    if not (0.0 < area < math.inf and (2 * N_MAX_CAP + 1) ** 2 / area < math.inf):
        raise DomainError(
            f"--L {args.L!r} is out of range: the density (2n+1)^2 / (2L)^2 "
            f"must be a positive finite double for every n <= {N_MAX_CAP}"
        )
    # E_s = (E - communication energy) / (2n+1)^2 never exceeds E / 9
    if not args.beta * (args.E / 9.0) < math.inf:
        raise DomainError(
            f"--E {args.E!r} and --beta {args.beta!r} are too large: the "
            "SNR beta * E_s overflows"
        )
    for flag, n in (("--n-min", args.n_min), ("--n-max", args.n_max)):
        if n is not None and n > N_MAX_CAP:
            raise DomainError(f"{flag} {n} is above the largest lattice index, {N_MAX_CAP}")
    n_min = args.n_min
    n_max = args.n_max
    if args.mu_min is not None and n_min is None:
        n_min = max(1, math.ceil(_lattice_index(args.L, args.mu_min, "--mu-min")))
    if args.mu_max is not None and n_max is None:
        n_max = math.floor(_lattice_index(args.L, args.mu_max, "--mu-max"))
    return ScenarioConfig(
        half_width=args.L,
        energy=EnergyModel(
            total_energy=args.E, e0=args.E0, nu=args.nu, beta=args.beta
        ),
        environment=PhysicalEnvironment(args.alpha),
        n_min=1 if n_min is None else n_min,
        n_max=n_max,
        objective=Objective(args.objective or "kli"),
    )


def _lattice_index(half_width: float, mu: float, flag: str) -> float:
    # n at which the density (2n+1)^2 / (2L)^2 equals mu; checked against
    # the cap while a float, since an infinite one has no integer
    n = (2.0 * half_width * math.sqrt(mu) - 1.0) / 2.0
    if not n <= N_MAX_CAP:
        raise DomainError(
            f"{flag} {mu!r} maps to lattice index {n!r}, above the largest, {N_MAX_CAP}"
        )
    return n


def _row_record(row: SweepRow) -> dict:
    return {name: getattr(row, name) for name in SWEEP_FIELDS}


def _cmd_sweep(args: argparse.Namespace) -> int:
    rows = sweep(_scenario_from_args(args))
    _emit([_row_record(r) for r in rows], SWEEP_FIELDS, args)
    return EXIT_OK


def _cmd_optimize(args: argparse.Namespace) -> int:
    config = _scenario_from_args(args)
    best = optimize(config)
    record = _row_record(best)
    record["objective"] = config.objective.value
    _emit([record], SWEEP_FIELDS + ["objective"], args)
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    _require(args, "zeta", "snr_db", "N")
    snr = _snr_linear(args.snr_db)
    quad = info_rates(args.zeta, snr)
    records = []
    for n in args.N:
        torus = torus_rates(args.zeta, snr, TorusSpec(n))
        records.append(
            {
                "N": n,
                "kli_torus": torus.kli,
                "mi_torus": torus.mi,
                "kli_quad": quad.kli,
                "mi_quad": quad.mi,
                "abs_gap_kli": abs(torus.kli - quad.kli),
                "abs_gap_mi": abs(torus.mi - quad.mi),
            }
        )
    _emit(records, list(records[0]), args)
    return EXIT_OK


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _emit(records: list[dict], fields: list[str], args: argparse.Namespace) -> None:
    if args.format == "json":
        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(fields)]
        for record in records:
            lines.append(",".join(_format_cell(record[f]) for f in fields))
        text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    raise SystemExit(main())
