"""Command-line front end.

Subcommands: rates, map, sweep, optimize, validate.  Every command takes
--format {csv|json}, --output PATH and --config PATH (a JSON file whose
keys match the command's option names, with numbers, strings or lists of
them as values; explicit flags override file values, and a key the
command lacks, a null or boolean, or a value its flag would reject is
invalid input).  Numeric options must be finite.  Output tables are
plot-ready: CSV with a fixed header row, or a JSON array of flat records
with identical field names.  Floats are emitted in shortest round-trip
form, so outputs keep full double precision and can serve as regression
fixtures.

sweep and optimize bound the lattice index n directly (--n-min, --n-max)
or by density (--mu-min, --mu-max); a lattice flag and a density flag
for the same end exclude each other.  Density bounds are inclusive and
exact: they select the rows whose printed mu_n lies within them.  With
no upper bound, rows end at the feasibility boundary but never past
N_MAX_CAP = 500, even where larger lattices are feasible.  Only optimize
takes --objective {kli|mi} (default kli), the total it maximizes.

Exit codes: 0 success, 2 invalid input or unwritable output, 3 no
feasible density.  A reader that closes stdout early (`sfcar sweep ...
| head`) ends the output silently, with exit code 0.
"""

import argparse
import bisect
import math
import os
import sys

from sfcar.correlation import PhysicalEnvironment, edge_correlation, zeta_of_rho
from sfcar.density import N_MAX_CAP, ScenarioConfig, optimize, sweep
from sfcar.errors import DomainError, NoFeasibleDensityError
from sfcar.lattice import TorusSpec, torus_rates
from sfcar.network import Deployment, EnergyModel
from sfcar.rates import info_rates

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NO_FEASIBLE = 3


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
        _emit(args.handler(args), args)
        return EXIT_OK
    except ValueError as exc:
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
        for end in ("min", "max"):
            bound = p.add_mutually_exclusive_group()
            bound.add_argument(f"--n-{end}", type=int, default=None)
            bound.add_argument(
                f"--mu-{end}", type=_finite, default=None, help=f"{end}imum density"
            )
        if name == "optimize":
            p.add_argument("--objective", choices=("kli", "mi"), default="kli")
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
    import json

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
        items = value if isinstance(value, list) else [value]
        if not all(type(item) in (int, float, str) for item in items):
            raise DomainError(f"--config {path}: {key!r} takes no {json.dumps(value)}")
        tokens += [flag, *map(str, items)] if isinstance(value, list) else [f"{flag}={value}"]
    at = argv.index(args.command) + 1
    try:
        return parser.parse_args(argv[:at] + tokens + argv[at:])
    except DomainError as exc:
        raise DomainError(f"--config {path}: {exc}") from None


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise DomainError(f"missing required option(s): {flags}")


def _snr_linear(snr_db: float) -> float:
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise DomainError(
            f"--snr-db {snr_db!r} is too large: the linear SNR overflows"
        ) from None


def _cmd_rates(args: argparse.Namespace) -> list[dict]:
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
    return [record]


def _cmd_map(args: argparse.Namespace) -> list[dict]:
    _require(args, "alpha", "spacing")
    env = PhysicalEnvironment(args.alpha)
    rho = edge_correlation(env, args.spacing)
    record = {
        "alpha": args.alpha,
        "spacing": args.spacing,
        "rho": rho,
        "zeta": zeta_of_rho(rho),
    }
    return [record]


def _scenario_from_args(args: argparse.Namespace) -> ScenarioConfig:
    _require(args, "L", "E", "alpha", "beta", "E0", "nu")
    # density rises with n, so the largest lattice is the one that can fail
    try:
        largest = Deployment(args.L, N_MAX_CAP)
    except DomainError as exc:
        raise DomainError(f"--L {args.L!r}: {exc}") from None
    # E_s = (E - communication energy) / (2n+1)^2 never exceeds E / 9
    if not args.beta * (args.E / 9.0) < math.inf:
        raise DomainError(
            f"--E {args.E!r} and --beta {args.beta!r} are too large: the "
            "SNR beta * E_s overflows"
        )
    for flag, n in (("--n-min", args.n_min), ("--n-max", args.n_max)):
        if n is not None and not 1 <= n <= N_MAX_CAP:
            raise DomainError(f"{flag} {n} is outside the lattice indices 1 to {N_MAX_CAP}")
    for flag, mu in (("--mu-min", args.mu_min), ("--mu-max", args.mu_max)):
        if mu is not None and mu < 0.0:
            raise DomainError(f"{flag} {mu!r} is a density and must be >= 0")
        if mu is not None and mu > largest.density:
            raise DomainError(
                f"{flag} {mu!r} is above {largest.density!r}, the density of "
                f"the largest lattice, n = {N_MAX_CAP}"
            )
    n_min = 1 if args.n_min is None else args.n_min
    n_max = args.n_max

    # bisected over the lattices themselves, so that a bound equal to a
    # row's printed mu_n selects that row
    def density(n: int) -> float:
        return Deployment(args.L, n).density

    lattices = range(1, N_MAX_CAP + 1)
    if args.mu_min is not None:
        n_min = lattices[bisect.bisect_left(lattices, args.mu_min, key=density)]
    if args.mu_max is not None:
        # the count of lattices with density <= mu_max is the last such n
        n_max = bisect.bisect_right(lattices, args.mu_max, key=density)
        if n_max < 1:
            raise DomainError(
                f"--mu-max {args.mu_max!r} is below {density(1)!r}, the density "
                "9 / (2L)^2 of the smallest lattice, n = 1"
            )
    if n_max is not None and n_min > n_max:
        lower = f"--n-min {n_min}" if args.mu_min is None else f"--mu-min {args.mu_min!r}"
        upper = f"--n-max {n_max}" if args.mu_max is None else f"--mu-max {args.mu_max!r}"
        raise DomainError(f"no lattice size satisfies both {lower} and {upper}")
    return ScenarioConfig(
        half_width=args.L,
        energy=EnergyModel(
            total_energy=args.E, e0=args.E0, nu=args.nu, beta=args.beta
        ),
        environment=PhysicalEnvironment(args.alpha),
        n_min=n_min,
        n_max=n_max,
    )


def _cmd_sweep(args: argparse.Namespace) -> list[dict]:
    return [row._asdict() for row in sweep(_scenario_from_args(args))]


def _cmd_optimize(args: argparse.Namespace) -> list[dict]:
    row = optimize(_scenario_from_args(args), args.objective)
    return [{**row._asdict(), "objective": args.objective}]


def _cmd_validate(args: argparse.Namespace) -> list[dict]:
    _require(args, "zeta", "snr_db", "N")
    specs = []
    for n in args.N:
        try:
            specs.append(TorusSpec(n))
        except DomainError as exc:
            raise DomainError(f"--N {n}: {exc}") from None
    snr = _snr_linear(args.snr_db)
    quad = info_rates(args.zeta, snr)
    records = []
    for spec in specs:
        torus = torus_rates(args.zeta, snr, spec)
        records.append(
            {
                "N": spec.n_per_axis,
                "kli_torus": torus.kli,
                "mi_torus": torus.mi,
                "kli_quad": quad.kli,
                "mi_quad": quad.mi,
                "abs_gap_kli": abs(torus.kli - quad.kli),
                "abs_gap_mi": abs(torus.mi - quad.mi),
            }
        )
    return records


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def _emit(records: list[dict], args: argparse.Namespace) -> None:
    # every command returns at least one record, all with the same keys
    fields = list(records[0])
    if args.format == "json":
        import json

        text = json.dumps(records, indent=2) + "\n"
    else:
        lines = [",".join(fields)]
        for record in records:
            lines.append(",".join(_format_cell(record[f]) for f in fields))
        text = "\n".join(lines) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"--output {args.output}: {exc}") from None
    else:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # Point stdout at devnull so that the interpreter's final flush
            # does not fail as well.  A reader that left is no error.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            if not isinstance(exc, BrokenPipeError):
                raise DomainError(f"stdout: {exc}") from None


if __name__ == "__main__":
    raise SystemExit(main())
