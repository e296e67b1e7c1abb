import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sfcar
import sfcar.cli
from sfcar.cli import main
from sfcar.correlation import PhysicalEnvironment, zeta_of_spacing
from sfcar.density import N_MAX_CAP, ScenarioConfig, optimize, sweep
from sfcar.lattice import TORUS_N_MAX
from sfcar.network import Deployment, EnergyModel
from sfcar.rates import info_rates

from oracles import dense_gaussian_rates

PAPER_ARGS = ["--L", "1", "--E", "50", "--alpha", "100", "--beta", "1", "--E0", "0.1", "--nu", "2"]
SUBNORMAL_ARGS = ["--L", "1", "--E", "5e-324", "--alpha", "100", "--beta", "1",
                  "--E0", "0", "--nu", "2", "--n-max", "3"]
ENERGY_FIELDS = ("e_s", "snr", "kli_rate", "mi_rate", "total_kli", "total_mi")


def buffered_child_env():
    # stdout buffered, as a shell usually leaves it: with PYTHONUNBUFFERED
    # each write reaches the pipe at once, and a child without the flush in
    # `cli._emit` or its redirect of stdout would still pass
    env = dict(os.environ, PYTHONPATH=str(Path(sfcar.__file__).resolve().parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    return rows


def cell_value(raw: str):
    if raw == "":
        return None
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        return float(raw)


class TestRatesCommand:
    def test_white_field_zero_db(self, capsys):
        code, out = run(capsys, ["rates", "--zeta", "0", "--snr-db", "0"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["kli_rate"]) == pytest.approx(0.0965735903, abs=1e-9)
        assert float(row["mi_rate"]) == pytest.approx(0.3465735903, abs=1e-9)
        assert float(row["snr_linear"]) == pytest.approx(1.0)

    def test_endpoint_convention(self, capsys):
        code, out = run(capsys, ["rates", "--zeta", "0.25", "--snr-db", "10"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["kli_rate"]) == 0.0
        assert float(row["mi_rate"]) == 0.0

    def test_matches_library(self, capsys):
        code, out = run(capsys, ["rates", "--zeta", "0.2", "--snr-db", "10", "--format", "json"])
        assert code == 0
        record = json.loads(out)[0]
        rates = info_rates(0.2, 10.0)
        assert record["kli_rate"] == rates.kli
        assert record["mi_rate"] == rates.mi

    def test_domain_violation_exits_2(self, capsys):
        assert main(["rates", "--zeta", "0.3", "--snr-db", "0"]) == 2


class TestMapCommand:
    def test_bessel_chain(self, capsys):
        code, out = run(capsys, ["map", "--alpha", "100", "--spacing", "0.02"])
        assert code == 0
        row = parse_csv(out)[0]
        assert float(row["rho"]) == pytest.approx(0.2797317636, abs=1e-4)
        expected_zeta = zeta_of_spacing(PhysicalEnvironment(100.0), 0.02)
        assert float(row["zeta"]) == expected_zeta

    def test_far_field(self, capsys):
        code, out = run(capsys, ["map", "--alpha", "100", "--spacing", "10"])
        row = parse_csv(out)[0]
        assert float(row["rho"]) < 1e-15
        assert float(row["zeta"]) < 1e-15

    def test_contact_limit(self, capsys):
        code, out = run(capsys, ["map", "--alpha", "100", "--spacing", "1e-9"])
        row = parse_csv(out)[0]
        assert float(row["rho"]) == pytest.approx(1.0, abs=1e-6)
        assert float(row["zeta"]) == pytest.approx(0.25, abs=1e-6)

    def test_invalid_spacing_exits_2(self, capsys):
        assert main(["map", "--alpha", "100", "--spacing", "-1"]) == 2


class TestSweepCommand:
    def test_csv_json_round_trip(self, capsys):
        args = ["sweep", *PAPER_ARGS, "--n-min", "1", "--n-max", "12"]
        code_csv, out_csv = run(capsys, args + ["--format", "csv"])
        code_json, out_json = run(capsys, args + ["--format", "json"])
        assert code_csv == code_json == 0
        csv_rows = parse_csv(out_csv)
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows) == 12
        for crow, jrow in zip(csv_rows, json_rows):
            assert list(crow) == list(jrow)
            for field in jrow:
                assert cell_value(crow[field]) == jrow[field]

    def test_free_communication_sensing_split(self, capsys):
        args = ["sweep", "--L", "1", "--E", "50", "--alpha", "100", "--beta", "1",
                "--E0", "0", "--nu", "2", "--n-max", "6", "--format", "json"]
        code, out = run(capsys, args)
        assert code == 0
        for record in json.loads(out):
            n = record["n"]
            assert record["e_s"] == pytest.approx(50.0 / (2 * n + 1) ** 2, rel=1e-15)

    def test_rows_rederivable_from_library(self, capsys):
        code, out = run(capsys, ["sweep", *PAPER_ARGS, "--n-max", "8", "--format", "json"])
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(50.0, 0.1, 2.0, 1.0),
            environment=PhysicalEnvironment(100.0),
            n_max=8,
        )
        expected = sweep(cfg)
        for record, row in zip(json.loads(out), expected):
            for field in ("n", "mu_n", "d_n", "rho", "zeta", "e_s", "snr",
                          "kli_rate", "mi_rate", "total_kli", "total_mi", "feasible"):
                assert record[field] == getattr(row, field)

    def test_infeasible_rows_flagged(self, capsys):
        code, out = run(capsys, ["sweep", *PAPER_ARGS, "--n-min", "123", "--n-max", "125",
                                 "--format", "json"])
        records = json.loads(out)
        assert [r["feasible"] for r in records] == [True, False, False]
        assert records[1]["e_s"] is None

    def test_underflowing_budget_rows_are_infeasible(self, capsys):
        # E / 9 underflows to E_s = 0: infeasible rows with empty energy cells
        code, out = run(capsys, ["sweep", *SUBNORMAL_ARGS])
        assert code == 0
        rows = parse_csv(out)
        assert [r["n"] for r in rows] == ["1", "2", "3"]
        for row in rows:
            assert row["feasible"] == "false"
            assert [row[f] for f in ENERGY_FIELDS] == [""] * 6

    def test_boundary_scan_stays_within_the_cap(self, capsys):
        # --L is checked at n = N_MAX_CAP; n = N_MAX_CAP + 1 would overflow
        code, out = run(capsys, ["sweep", "--L", "3.737e-152", "--E", "279862545.9264864",
                                 "--alpha", "100", "--beta", "1", "--E0", "1e308", "--nu", "2",
                                 "--n-min", "490", "--format", "json"])
        assert code == 0
        records = json.loads(out)
        assert [r["n"] for r in records] == list(range(490, N_MAX_CAP + 1))
        assert records[-1]["feasible"] is False

    def test_density_bounds_convert_inward(self, capsys):
        # mu in [20, 130] with L=1: 2n+1 in [sqrt(80), sqrt(520)] -> n in [4, 10]
        code, out = run(capsys, ["sweep", *PAPER_ARGS, "--mu-min", "20", "--mu-max", "130",
                                 "--format", "json"])
        ns = [r["n"] for r in json.loads(out)]
        assert ns == list(range(4, 11))

    @pytest.mark.parametrize("half_width", [0.3, 1.0])
    def test_density_bounds_are_exact(self, half_width):
        # a bound equal to a row's own mu_n selects that row, at every n
        parser = sfcar.cli._build_parser()
        base = ["sweep", "--L", repr(half_width), *PAPER_ARGS[2:]]
        for n in range(1, N_MAX_CAP + 1):
            mu = repr(Deployment(half_width, n).density)
            lower = sfcar.cli._scenario_from_args(parser.parse_args([*base, "--mu-min", mu]))
            upper = sfcar.cli._scenario_from_args(parser.parse_args([*base, "--mu-max", mu]))
            assert (lower.n_min, upper.n_max) == (n, n)

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "sweep.csv"
        code, out = run(capsys, ["sweep", *PAPER_ARGS, "--n-max", "3", "--output", str(dest)])
        assert code == 0
        assert out == ""
        assert len(parse_csv(dest.read_text())) == 3


class TestOptimizeCommand:
    def test_matches_sweep_argmax(self, capsys):
        code, out = run(capsys, ["optimize", *PAPER_ARGS, "--n-max", "30", "--format", "json"])
        assert code == 0
        record = json.loads(out)[0]
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(50.0, 0.1, 2.0, 1.0),
            environment=PhysicalEnvironment(100.0),
            n_max=30,
        )
        best = optimize(cfg)
        assert record["n"] == best.n
        assert record["total_kli"] == best.total_kli
        assert record["objective"] == "kli"

    def test_single_candidate(self, capsys):
        code, out = run(capsys, ["optimize", *PAPER_ARGS, "--n-min", "5", "--n-max", "5",
                                 "--format", "json"])
        assert json.loads(out)[0]["n"] == 5

    def test_mi_objective(self, capsys):
        code, out = run(capsys, ["optimize", *PAPER_ARGS, "--n-max", "30",
                                 "--objective", "mi", "--format", "json"])
        record = json.loads(out)[0]
        cfg = ScenarioConfig(
            half_width=1.0,
            energy=EnergyModel(50.0, 0.1, 2.0, 1.0),
            environment=PhysicalEnvironment(100.0),
            n_max=30,
        )
        assert record["n"] == optimize(cfg, "mi").n
        assert record["objective"] == "mi"

    def test_no_feasible_exits_3(self, capsys):
        code = main(["optimize", "--L", "1", "--E", "0.5", "--alpha", "100", "--beta", "1",
                     "--E0", "0.1", "--nu", "2", "--n-min", "3", "--n-max", "6"])
        assert code == 3

    def test_underflowing_budget_exits_3(self, capsys):
        code = main(["optimize", *SUBNORMAL_ARGS])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == "error: no feasible density in the configured range\n"

    def test_feasible_past_falling_comm_energy(self, capsys):
        # at nu = 3 communication costs 1.2 J at n = 1 but 0.75 J at n = 2
        code, out = run(capsys, ["optimize", "--L", "1", "--E", "1", "--alpha", "100",
                                 "--beta", "1", "--E0", "0.1", "--nu", "3", "--format", "json"])
        assert code == 0
        assert json.loads(out)[0]["feasible"] is True

    def test_no_n_feasible_at_nu_2_5_exits_3(self, capsys):
        code = main(["optimize", "--L", "1", "--E", "1", "--alpha", "100", "--beta", "1",
                     "--E0", "0.1", "--nu", "2.5"])
        assert code == 3

    def test_invalid_config_exits_2(self, capsys):
        code = main(["optimize", "--L", "-1", "--E", "50", "--alpha", "100", "--beta", "1",
                     "--E0", "0.1", "--nu", "2"])
        assert code == 2


class TestValidateCommand:
    def test_white_field_gaps_vanish(self, capsys):
        code, out = run(capsys, ["validate", "--zeta", "0", "--snr-db", "0",
                                 "--N", "8", "16", "32", "--format", "json"])
        assert code == 0
        for record in json.loads(out):
            assert record["abs_gap_kli"] < 1e-14
            assert record["abs_gap_mi"] < 1e-14

    def test_gaps_decrease_with_floor(self, capsys):
        code, out = run(capsys, ["validate", "--zeta", "0.24", "--snr-db", "10",
                                 "--N", "16", "64", "256", "--format", "json"])
        records = json.loads(out)
        gaps = [r["abs_gap_mi"] for r in records]
        for a, b in zip(gaps, gaps[1:]):
            assert b <= max(a, 1e-10)

    def test_dense_cross_check_at_n8(self, capsys):
        code, out = run(capsys, ["validate", "--zeta", "0.2", "--snr-db", "10",
                                 "--N", "8", "--format", "json"])
        record = json.loads(out)[0]
        kli, mi = dense_gaussian_rates(0.2, 10.0, 8)
        assert record["kli_torus"] == pytest.approx(kli, abs=1e-10)
        assert record["mi_torus"] == pytest.approx(mi, abs=1e-10)

    def test_domain_violation_exits_2(self, capsys):
        assert main(["validate", "--zeta", "0.25", "--snr-db", "0", "--N", "8"]) == 2

    def test_torus_looked_up_at_call_time(self, capsys, monkeypatch):
        # validate calls the module attribute cli.torus_rates, so a wrapper
        # put there (as a tracer does) sees every torus call
        calls = []
        original = sfcar.cli.torus_rates

        def wrapper(*args):
            calls.append(args[2].n_per_axis)
            return original(*args)

        monkeypatch.setattr(sfcar.cli, "torus_rates", wrapper)
        code, _ = run(capsys, ["validate", "--zeta", "0.1", "--snr-db", "0", "--N", "8", "16"])
        assert code == 0
        assert calls == [8, 16]


class TestImportGraph:
    # the library is plain Python: a fresh interpreter runs every command,
    # the torus oracle included, without loading NumPy
    SCRIPT = """
import contextlib, io, sys
before = set(sys.modules)
import sfcar
from sfcar.cli import main

paper = {paper!r}
seen = {{}}
for argv in (
    ["rates", "--zeta", "0.2", "--snr-db", "10"],
    ["map", "--alpha", "100", "--spacing", "0.01"],
    ["sweep", *paper, "--n-max", "3"],
    ["optimize", *paper],
):
    with contextlib.redirect_stdout(io.StringIO()):
        seen[argv[0]] = main(argv)
seen["loaded"] = sorted({{"dataclasses", "json"}} & (set(sys.modules) - before))
import json
with contextlib.redirect_stdout(io.StringIO()):
    seen["validate"] = main(["validate", "--zeta", "0.2", "--snr-db", "0", "--N", "8"])
from sfcar import TorusSpec, torus_rates
seen["lattice_names"] = torus_rates(0.2, 1.0, TorusSpec(8)) == sfcar.torus_rates(
    0.2, 1.0, sfcar.TorusSpec(8)) and "dense_gaussian_rates" not in sfcar.__all__
seen["numpy_never_loaded"] = "numpy" not in sys.modules
print(json.dumps(seen))
"""

    # nor does the library or a CSV run load dataclasses or json: the
    # records are namedtuples, and json serves --format json and --config
    def test_no_command_loads_numpy(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sfcar.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(paper=PAPER_ARGS)],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen == {
            "rates": 0, "map": 0, "sweep": 0, "optimize": 0, "loaded": [],
            "validate": 0, "lattice_names": True, "numpy_never_loaded": True,
        }

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError):
            sfcar.no_such_name  # noqa: B018

    # validate runs without NumPy and sets no BLAS variable: whatever the
    # caller put in OPENBLAS_NUM_THREADS is left as it was
    VALIDATE_SCRIPT = """
import contextlib, io, json, os, sys
import sfcar.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = sfcar.cli.main(["validate", "--zeta", "0.2", "--snr-db", "0", "--N", "8", "4096"])
print(json.dumps({"validate": code, "numpy": "numpy" in sys.modules,
                  "blas": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""

    @pytest.mark.parametrize("preset", [None, "2"])
    def test_validate_leaves_numpy_and_blas_alone(self, preset):
        env = dict(os.environ, PYTHONPATH=str(Path(sfcar.__file__).resolve().parents[1]))
        env.pop("OPENBLAS_NUM_THREADS", None)
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        done = subprocess.run(
            [sys.executable, "-c", self.VALIDATE_SCRIPT],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"validate": 0, "numpy": False, "blas": preset}

    # the library exports the torus oracle as plain names, and neither it
    # nor its module loads NumPy
    @pytest.mark.parametrize(
        "code",
        [
            "from sfcar import *\nprint('numpy' not in sys.modules)",
            "import sfcar.lattice\nprint('numpy' not in sys.modules)",
            "import sfcar\nprint('TorusSpec' in dir(sfcar))",
        ],
        ids=["star-import", "lattice-import", "dir"],
    )
    def test_lattice_names_without_numpy(self, code):
        env = dict(os.environ, PYTHONPATH=str(Path(sfcar.__file__).resolve().parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "True\n"

    # the quadrature rule's tables are built on first use, one per octave
    # of delta = 1 - 4 zeta: importing the CLI builds none, and a paper
    # sweep no more than the 53 octaves that delta in [2^-53, 1] spans,
    # delta >= 1/2 sharing the table of 1/2
    TABLES_SCRIPT = """
import contextlib, io, json
import sfcar.cli
from sfcar import rates
built = [rates._table.cache_info().currsize]
with contextlib.redirect_stdout(io.StringIO()):
    code = sfcar.cli.main({argv!r})
built.append(rates._table.cache_info().currsize)
print(json.dumps([code, *built]))
"""

    def test_rule_tables_built_lazily(self):
        env = dict(os.environ, PYTHONPATH=str(Path(sfcar.__file__).resolve().parents[1]))
        argv = ["sweep", *PAPER_ARGS]
        argv[argv.index("--E") + 1] = "200"
        done = subprocess.run(
            [sys.executable, "-c", self.TABLES_SCRIPT.format(argv=argv)],
            capture_output=True, text=True, env=env, check=False, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        code, at_import, after_sweep = json.loads(done.stdout)
        assert (code, at_import) == (0, 0)
        assert 0 < after_sweep <= 53


class TestClosedPipe:
    # A reader that leaves early (`sfcar sweep ... | head`) ends the output
    # quietly: exit 0 and nothing on stderr.
    def into_closed_pipe(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "sfcar.cli", *argv],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=buffered_child_env(), text=True,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert err == ""

    def test_sweep_into_closed_pipe(self):
        # the E=200 JSON sweep, about 200 KB, overfills a pipe buffer, so
        # the write meets the closed pipe wherever the race falls
        argv = ["sweep", *PAPER_ARGS, "--format", "json"]
        argv[argv.index("--E") + 1] = "200"
        self.into_closed_pipe(argv)

    def test_rates_into_closed_pipe(self):
        # one buffered line, met by the closed pipe at the flush
        self.into_closed_pipe(["rates", "--zeta", "0.2", "--snr-db", "10"])


class TestFullStdout:
    # Any other failed write to stdout, here a full device, is an error: one
    # message and exit 2, with no traceback from the interpreter's final flush
    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv",
        [["rates", "--zeta", "0.2", "--snr-db", "10"], ["sweep", *PAPER_ARGS, "--format", "json"]],
        ids=["rates", "sweep-json"],
    )
    def test_write_to_full_device(self, argv):
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "sfcar.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=buffered_child_env(),
                check=False, timeout=60,
            )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: stdout: ")
        assert done.stderr.count("\n") == 1


class TestConfigFile:
    def test_file_supplies_values(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "E": 50.0, "alpha": 100.0, "beta": 1.0,
            "E0": 0.1, "nu": 2.0, "n_max": 4,
        }))
        code, out = run(capsys, ["sweep", "--config", str(cfg), "--format", "json"])
        assert code == 0
        assert [r["n"] for r in json.loads(out)] == [1, 2, 3, 4]

    def test_flags_override_file(self, capsys, tmp_path):
        cfg = tmp_path / "scenario.json"
        cfg.write_text(json.dumps({
            "L": 1.0, "E": 50.0, "alpha": 100.0, "beta": 1.0,
            "E0": 0.1, "nu": 2.0, "n_max": 4,
        }))
        code, out = run(capsys, ["sweep", "--config", str(cfg), "--n-max", "2",
                                 "--format", "json"])
        assert [r["n"] for r in json.loads(out)] == [1, 2]

    def test_file_read_when_argv_is_none(self, capsys, tmp_path, monkeypatch):
        # main() reads sys.argv, as `python -m sfcar.cli` has it
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"zeta": 0.2, "snr_db": 10}))
        monkeypatch.setattr(sys, "argv", ["sfcar", "rates", "--config", str(cfg), "--format=json"])
        code, out = run(capsys, None)
        assert code == 0
        assert json.loads(out)[0]["kli_rate"] == info_rates(0.2, 10.0).kli

    def test_full_precision_round_trip(self, capsys):
        # CSV floats re-parse to the exact library doubles
        code, out = run(capsys, ["rates", "--zeta", "0.2", "--snr-db", "7.5"])
        row = parse_csv(out)[0]
        rates = info_rates(0.2, 10 ** 0.75)
        assert float(row["kli_rate"]) == rates.kli
        assert float(row["mi_rate"]) == rates.mi
        assert float(row["snr_linear"]) == 10 ** 0.75


class TestRejectedInput:
    """Bad input ends in exit 2 with one message naming it: no traceback,
    no warning."""

    def rejected(self, capsys, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert caught == []
        return captured.err

    def test_infinite_snr(self, capsys):
        err = self.rejected(capsys, ["rates", "--zeta", "0.1", "--snr-db", "inf"])
        assert "--snr-db" in err

    def test_overflowing_snr(self, capsys):
        err = self.rejected(capsys, ["rates", "--zeta", "0.1", "--snr-db", "4000"])
        assert "--snr-db" in err

    def test_overflowing_map_product(self, capsys):
        err = self.rejected(capsys, ["map", "--alpha", "1e308", "--spacing", "1e10"])
        assert "alpha" in err and "spacing" in err

    REQUIRED = {
        "rates": ["--zeta", "0.1", "--snr-db", "0"],
        "map": ["--alpha", "100", "--spacing", "0.1"],
        "sweep": PAPER_ARGS,
        "optimize": PAPER_ARGS,
        "validate": ["--zeta", "0.1", "--snr-db", "0", "--N", "16"],
    }

    @pytest.mark.parametrize(
        "command,flag", [(c, flag) for c, flags in REQUIRED.items() for flag in flags[::2]]
    )
    def test_missing_option_exits_2(self, capsys, command, flag):
        flags = self.REQUIRED[command]
        at = flags.index(flag)
        err = self.rejected(capsys, [command, *flags[:at], *flags[at + 2:]])
        assert err == f"error: missing required option(s): {flag}\n"

    @pytest.mark.parametrize("text", ["[1, 2]", "3", '"x"', "null"])
    def test_config_not_an_object(self, capsys, tmp_path, text):
        cfg = tmp_path / "c.json"
        cfg.write_text(text)
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert err == f"error: --config {cfg}: expected a JSON object of option values\n"

    def test_missing_config_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        err = self.rejected(capsys, ["rates", "--config", path])
        assert "--config" in err and path in err

    def test_config_string_for_number(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"zeta": "abc", "snr_db": 0}))
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert "--zeta" in err and "abc" in err

    @pytest.mark.parametrize("value", [None, False, [None], [True]])
    def test_config_null_or_boolean(self, capsys, tmp_path, monkeypatch, value):
        # no flag spells JSON null, true or false; taken as text they
        # would name the output file "None" or "False"
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"zeta": 0.1, "snr_db": 0, "output": value}))
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert err.startswith(f"error: --config {cfg}: ") and "'output'" in err
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["c.json"]

    def test_unknown_config_key(self, capsys, tmp_path):
        # "snr" is no option, though the parser would take it for an
        # abbreviation of --snr-db on the command line
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"zeta": 0.1, "snr": 3}))
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert "'snr'" in err

    def test_objective_is_optimize_only(self, capsys):
        # a sweep prints both totals; only optimize picks one
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, "--objective", "mi"])
        assert "--objective" in err and err.count("\n") == 1

    def test_objective_in_sweep_config(self, capsys, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"objective": "mi"}))
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, "--config", str(cfg)])
        assert "'objective'" in err and err.count("\n") == 1

    @pytest.mark.parametrize("half_width", ["1e300", "1e-300", "1e-154", "-1"])
    def test_density_out_of_range(self, capsys, half_width):
        # (2L)^2 overflows, underflows to 0, or leaves (2n+1)^2 / (2L)^2
        # overflowing; or L is negative
        err = self.rejected(capsys, ["sweep", "--L", half_width, "--E", "1", "--alpha", "100",
                                     "--beta", "1", "--E0", "0.1", "--nu", "2", "--n-max", "2"])
        assert "--L" in err

    def test_overflowing_network_snr(self, capsys):
        err = self.rejected(capsys, ["sweep", "--L", "1", "--E", "1e308", "--alpha", "100",
                                     "--beta", "1e308", "--E0", "0.1", "--nu", "2",
                                     "--n-max", "2"])
        assert "--E" in err and "--beta" in err

    @pytest.mark.parametrize(
        "flags",
        [["--n-max", "100000000"], ["--n-min", "100000000"], ["--mu-max", "1e308"],
         ["--mu-min", "1e308"]],
    )
    def test_lattice_index_above_cap(self, capsys, flags):
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, *flags])
        assert flags[0] in err

    @pytest.mark.parametrize("flag", ["--mu-min", "--mu-max"])
    def test_negative_density_bound(self, capsys, flag):
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, flag, "-1"])
        assert flag in err and "-1" in err

    @pytest.mark.parametrize("mu_max", ["0", "2.2"])
    def test_density_bound_below_smallest_lattice(self, capsys, mu_max):
        # at L = 1 the n = 1 lattice has density 9 / 4; the message names
        # the flag and that density, not a derived lattice index
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, "--mu-max", mu_max])
        assert f"--mu-max {float(mu_max)!r}" in err and "2.25" in err
        assert "n_max" not in err

    @pytest.mark.parametrize(
        "flags",
        [["--n-max", "0"], ["--n-min", "0"], ["--n-min", "5", "--mu-max", "10"],
         ["--mu-min", "50", "--mu-max", "52"]],
    )
    def test_empty_range_names_flags(self, capsys, flags):
        # at L = 1, 10 lies between the n = 2 and 3 densities and [50, 52]
        # between those of n = 6 and 7
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, *flags])
        assert err.count("\n") == 1
        for flag, value in zip(flags[::2], flags[1::2]):
            assert f"{flag} {value}" in err
        assert "n_min" not in err and "n_max" not in err

    @pytest.mark.parametrize("end", ["min", "max"])
    def test_index_and_density_flags_exclusive(self, capsys, end):
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, f"--n-{end}", "3",
                                     f"--mu-{end}", "1000"])
        assert f"--n-{end}" in err and f"--mu-{end}" in err

    def test_exclusive_flag_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps({"mu_min": 20}))
        err = self.rejected(capsys, ["sweep", *PAPER_ARGS, "--config", str(cfg),
                                     "--n-min", "3"])
        assert err.startswith(f"error: --config {cfg}: ")
        assert "--n-min" in err and "--mu-min" in err

    @pytest.mark.parametrize("target", ["missing/out.csv", "."])
    def test_unwritable_output(self, capsys, tmp_path, target):
        # a directory that does not exist, and a path that is a directory
        path = str(tmp_path / target)
        err = self.rejected(capsys, ["rates", "--zeta", "0.1", "--snr-db", "0",
                                     "--output", path])
        assert err.startswith(f"error: --output {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("size", ["1", str(TORUS_N_MAX + 1)])
    def test_torus_size_out_of_range(self, capsys, size):
        err = self.rejected(capsys, ["validate", "--zeta", "0.1", "--snr-db", "0",
                                     "--N", "8", size])
        assert "--N" in err and size in err


# Finite magnitudes from 1e-300 to 1e300, drawn both evenly and evenly in
# the exponent, so that the fuzz reaches every decade.
MAGNITUDE = st.one_of(
    st.floats(1e-300, 1e300),
    st.floats(-300.0, 300.0).map(lambda e: 10.0**e),
)
FUZZ = settings(max_examples=150, deadline=None, derandomize=True)


class TestFuzz:
    """Any finite input ends in a result or one error line: exit 0, 2 or
    3, no exception out of main, no nan or inf in the output, no warning."""

    def check(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with redirect_stdout(out), redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2, 3), err.getvalue()
        assert caught == []
        assert not re.search(r"\b(nan|inf|infinity)\b", out.getvalue(), re.IGNORECASE)
        return code

    @FUZZ
    @given(zeta=MAGNITUDE, snr_db=MAGNITUDE)
    @example(zeta=0.2, snr_db=3081.0)  # x in the rate integrand overflows
    def test_rates(self, zeta, snr_db):
        self.check(["rates", "--zeta", repr(zeta), "--snr-db", repr(snr_db)])

    @FUZZ
    @given(alpha=MAGNITUDE, spacing=MAGNITUDE)
    @example(alpha=1.0, spacing=5e-324)
    @example(alpha=1e308, spacing=1.0)
    @example(alpha=sys.float_info.max, spacing=1.0)
    def test_map(self, alpha, spacing):
        code = self.check(["map", "--alpha", repr(alpha), "--spacing", repr(spacing)])
        # every alpha*d that is a finite, nonzero double has a correlation
        if 0.0 < alpha * spacing < math.inf:
            assert code == 0

    @FUZZ
    @given(
        values=st.tuples(*[MAGNITUDE] * 5),
        nu=st.floats(2.0, 1e3),
        n_max=st.integers(1, 3),
    )
    @example(values=(1.0, 1e308, 1.0, 15.0, 0.0), nu=2.0, n_max=1)  # snr 1.7e308
    def test_sweep(self, values, nu, n_max):
        flags = ("--L", "--E", "--alpha", "--beta", "--E0")
        argv = ["sweep", "--nu", repr(nu), "--n-max", str(n_max)]
        for flag, value in zip(flags, values):
            argv += [flag, repr(value)]
        self.check(argv)

    @FUZZ
    @given(zeta=MAGNITUDE, snr_db=MAGNITUDE, n=st.integers(2, 64))
    @example(zeta=0.1, snr_db=0.0, n=TORUS_N_MAX + 1)
    @example(zeta=0.1, snr_db=3082.0, n=8)  # x in the rate integrand overflows
    def test_validate(self, zeta, snr_db, n):
        code = self.check(["validate", "--zeta", repr(zeta), "--snr-db", repr(snr_db),
                           "--N", str(n)])
        # every zeta below 1/4 and linear SNR below the largest double has rates
        if zeta < 0.25 and snr_db <= 3082.5 and n <= TORUS_N_MAX:
            assert code == 0
