import csv
import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfcar.cli import main
from sfcar.correlation import PhysicalEnvironment, zeta_of_spacing
from sfcar.density import Objective, ScenarioConfig, optimize, sweep
from sfcar.lattice import TorusSpec, dense_gaussian_rates
from sfcar.network import EnergyModel
from sfcar.rates import info_rates

PAPER_ARGS = ["--L", "1", "--E", "50", "--alpha", "100", "--beta", "1", "--E0", "0.1", "--nu", "2"]


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

    def test_missing_option_exits_2(self, capsys):
        assert main(["rates", "--zeta", "0.1"]) == 2


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

    def test_density_bounds_convert_inward(self, capsys):
        # mu in [20, 130] with L=1: 2n+1 in [sqrt(80), sqrt(520)] -> n in [4, 10]
        code, out = run(capsys, ["sweep", *PAPER_ARGS, "--mu-min", "20", "--mu-max", "130",
                                 "--format", "json"])
        ns = [r["n"] for r in json.loads(out)]
        assert ns == list(range(4, 11))

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
            objective=Objective.MI,
        )
        assert record["n"] == optimize(cfg).n
        assert record["objective"] == "mi"

    def test_no_feasible_exits_3(self, capsys):
        code = main(["optimize", "--L", "1", "--E", "0.5", "--alpha", "100", "--beta", "1",
                     "--E0", "0.1", "--nu", "2", "--n-min", "3", "--n-max", "6"])
        assert code == 3

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
        dense = dense_gaussian_rates(0.2, 10.0, TorusSpec(8))
        assert record["kli_torus"] == pytest.approx(dense.kli, abs=1e-10)
        assert record["mi_torus"] == pytest.approx(dense.mi, abs=1e-10)

    def test_domain_violation_exits_2(self, capsys):
        assert main(["validate", "--zeta", "0.25", "--snr-db", "0", "--N", "8"]) == 2


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

    def test_missing_config_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        err = self.rejected(capsys, ["rates", "--config", path])
        assert "--config" in err and path in err

    def test_config_string_for_number(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"zeta": "abc", "snr_db": 0}))
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert "--zeta" in err and "abc" in err

    def test_unknown_config_key(self, capsys, tmp_path):
        # "snr" is no option, though the parser would take it for an
        # abbreviation of --snr-db on the command line
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps({"zeta": 0.1, "snr": 3}))
        err = self.rejected(capsys, ["rates", "--config", str(cfg)])
        assert "'snr'" in err

    @pytest.mark.parametrize("half_width", ["1e300", "1e-300", "1e-154"])
    def test_density_out_of_range(self, capsys, half_width):
        # (2L)^2 overflows, underflows to 0, or leaves (2n+1)^2 / (2L)^2
        # overflowing
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

    @FUZZ
    @given(zeta=MAGNITUDE, snr_db=MAGNITUDE)
    def test_rates(self, zeta, snr_db):
        self.check(["rates", "--zeta", repr(zeta), "--snr-db", repr(snr_db)])

    @FUZZ
    @given(alpha=MAGNITUDE, spacing=MAGNITUDE)
    def test_map(self, alpha, spacing):
        self.check(["map", "--alpha", repr(alpha), "--spacing", repr(spacing)])

    @FUZZ
    @given(
        values=st.tuples(*[MAGNITUDE] * 5),
        nu=st.floats(2.0, 1e3),
        n_max=st.integers(1, 3),
    )
    def test_sweep(self, values, nu, n_max):
        flags = ("--L", "--E", "--alpha", "--beta", "--E0")
        argv = ["sweep", "--nu", repr(nu), "--n-max", str(n_max)]
        for flag, value in zip(flags, values):
            argv += [flag, repr(value)]
        self.check(argv)
