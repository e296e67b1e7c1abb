"""Tests of the benchmark itself: inputs, emitted metrics, spans, checks.

    PYTHONPATH=src python3 -m pytest -q sfcarbench
"""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

run.load_sfcar()

import sfcar.cli  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
PAPER_ARGS = ("--L", "1.0", "--alpha", "100.0", "--beta", "1.0", "--E0", "0.1", "--nu", "2.0")


def cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert sfcar.cli.main(list(argv)) == 0
    return buf.getvalue()


def corrupt(text: str, line: int, field: str, factor: float) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = lines[line].split(",")
    i = header.index(field)
    cells[i] = repr(float(cells[i]) * factor)
    lines[line] = ",".join(cells)
    return "\n".join(lines) + "\n"


def last_json_line(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().splitlines()[-1])


class TestSeededInputs:
    def test_rate_plane_is_deterministic(self):
        assert workloads.rate_plane_points(7) == workloads.rate_plane_points(7)

    def test_rate_plane_differs_by_seed(self):
        a, b = workloads.rate_plane_points(7), workloads.rate_plane_points(8)
        assert len(a) == len(b) == 1500
        assert set(a) != set(b)

    def test_torus_is_deterministic(self):
        argv = [c.argv for c in workloads.torus_commands(3)]
        assert argv == [c.argv for c in workloads.torus_commands(3)]

    def test_torus_differs_by_seed(self):
        a = [c.argv for c in workloads.torus_commands(3)]
        assert a != [c.argv for c in workloads.torus_commands(4)]

    def test_paper_sweep_has_the_acceptance_rows(self):
        assert sum(c.rows for c in workloads.paper_commands()) == 1248


class TestEmittedMetrics:
    @pytest.fixture
    def small(self, monkeypatch, tmp_path):
        monkeypatch.setattr(run, "OUT", tmp_path)
        points = workloads.rate_plane_points(1)[:20]
        monkeypatch.setattr(workloads, "rate_plane_points", lambda seed: points)
        monkeypatch.setattr(run, "SETUP_REPEATS", 1)
        small_validate = workloads.Command(
            "validate", ("validate", "--zeta", "0.1", "--snr-db", "0", "--N", "16"), 1, lambda t: 0
        )
        monkeypatch.setattr(run, "cli_commands", lambda workload, seed: [small_validate])

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    @pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
    def test_every_metric_is_emitted(self, small, workload, trace, key):
        out = last_json_line(
            ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
        )
        assert set(out) == {"correct", "attempted", "failed", "metrics"}
        want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in out["metrics"].items()} == want
        assert all(math.isfinite(v["value"]) for v in out["metrics"].values())

    def test_workloads_match_benchmark_json(self):
        assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_sum_to_traced_wall():
    tracer = spans.Tracer()
    with tracer.installed():
        main = tracer.span("cli.main", sfcar.cli.main)

        def one_pass():
            with contextlib.redirect_stdout(io.StringIO()):
                main(["sweep", "--E", "5.0", *PAPER_ARGS])
                main(["validate", "--zeta", "0.2", "--snr-db", "3", "--N", "64"])

        tracer.span("bench.pass", one_pass)()
    root = tracer.spans[0]
    names = {s[0] for s in tracer.spans}
    assert {"density.evaluate_density", "rates.info_rates", "kernels.rate_sums"} <= names
    assert sum(tracer.self_times()) == pytest.approx(root[2] - root[1], rel=1e-9)
    assert sfcar.density.info_rates is sfcar.rates.info_rates  # wrappers removed


class TestCorruptionIsCounted:
    @pytest.fixture(scope="class")
    def sweep_e50(self):
        return cli_output("sweep", "--E", "50.0", *PAPER_ARGS)

    def test_correct_sweep_passes(self, sweep_e50):
        command = workloads.paper_commands()[0]
        assert command.check(sweep_e50) == 0

    @pytest.mark.parametrize(
        "line, field, factor",
        [(30, "kli_rate", 1 + 1e-8), (100, "mi_rate", 1 - 1e-8), (100, "zeta", 1 + 1e-3),
         (60, "total_kli", float("nan"))],
    )
    def test_corrupted_row_fails(self, sweep_e50, line, field, factor):
        command = workloads.paper_commands()[0]
        assert command.check(corrupt(sweep_e50, line, field, factor)) == 1

    def test_missing_row_fails(self, sweep_e50):
        command = workloads.paper_commands()[0]
        assert command.check("\n".join(sweep_e50.splitlines()[:-1]) + "\n") == 1

    def test_nonzero_exit_fails_every_row(self):
        verdicts = run.Verdicts()
        command = workloads.paper_commands()[0]
        verdicts.add(command, 2, "")
        assert (verdicts.attempted, verdicts.failed) == (command.rows, command.rows)

    def test_rate_point(self):
        point = workloads.rate_plane_points(1)[0]
        assert not workloads.rate_failed(point, point[2:])
        assert workloads.rate_failed(point, (point[2] * (1 + 1e-8), point[3]))

    def test_validate(self):
        command = workloads.torus_commands(1)[0]
        text = cli_output(*command.argv)
        assert command.check(text) == 0
        assert command.check(corrupt(text, 2, "kli_torus", 1 + 1e-8)) == 1
