#!/usr/bin/env python3
"""Benchmark of sfcar: one workload, measured for a fixed time, checked.

    python3 sfcarbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0

Workloads (see README.md for why each exists):

* paper-sweep: `sfcar sweep` at E in {50,100,150,200} and `sfcar optimize
  --objective kli|mi` at E=50 on the paper scenario, one subprocess at a
  time; the seed permutes the command order of each pass.
* rate-plane: `info_rates` in one process over 1,500 (zeta, snr) points,
  one per cell of a log-spaced grid, chosen by the seed (rate_pass.py).
* torus-validate: `sfcar validate --N 512 2048 4096` at 6 seeded points,
  one subprocess at a time.

With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
per-layer metrics of an in-process run with spans around the calls
between layers (spans.py).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A results file
with the environment record and the raw samples goes to sfcarbench/out/.
The program is taken from src/ of the checkout holding this directory;
without it the run exits with code 2.
"""

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import rate_pass
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 8  # before and again after the workload
COMMAND_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Sample:
    wall: float
    cpu: float
    rss_mb: float


def load_sfcar():
    """Import sfcar from this checkout's src/, or exit with code 2."""
    if not (SRC / "sfcar" / "__init__.py").is_file():
        print(f"error: no sfcar sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sfcar

    if Path(sfcar.__file__).resolve().parent != SRC / "sfcar":
        print(f"error: imported sfcar from {sfcar.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return sfcar


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def timed_child(argv: list[str], timeout: float = COMMAND_TIMEOUT_S) -> tuple[Sample, int, str]:
    """Run one child to completion: its sample, exit code and stdout."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode("utf-8", "replace")
        if proc.returncode:
            err.seek(0)
            sys.stderr.write(err.read().decode("utf-8", "replace"))
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    return sample, proc.returncode, text


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import sfcar and exit."""
    return [
        timed_child([sys.executable, "-c", "import sfcar"])[0].wall
        for _ in range(SETUP_REPEATS)
    ]


class Verdicts:
    """Failed-operation counts, each distinct output checked once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self._seen = {}

    def add(self, command: workloads.Command, code: int, text: str) -> None:
        key = (command.label, code, text)
        if key not in self._seen:
            self._seen[key] = command.rows if code else command.check(text)
        self.attempted += command.rows
        self.failed += self._seen[key]


def cli_commands(workload: str, seed: int) -> list[workloads.Command]:
    if workload == "paper-sweep":
        return workloads.paper_commands()
    return workloads.torus_commands(seed)


def run_cli_untraced(workload: str, seed: int, seconds: float) -> dict:
    """Subprocess passes until the time is up; every command runs at least once.

    A pass's wall time is estimated as the sum over its commands of each
    command's median, which uses every command run, also from the last,
    unfinished pass.
    """
    commands = cli_commands(workload, seed)
    rng = random.Random(seed)
    samples = {c.label: [] for c in commands}
    verdicts = Verdicts()
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        order = commands[:]
        rng.shuffle(order)
        for command in order:
            if time.perf_counter() >= deadline and all(samples.values()):
                return cli_metrics(samples, verdicts, passes)
            sample, code, text = timed_child(
                [sys.executable, "-m", "sfcar.cli", *command.argv]
            )
            samples[command.label].append(sample)
            verdicts.add(command, code, text)
        passes += 1


def cli_metrics(samples: dict, verdicts: Verdicts, passes: int) -> dict:
    medians = {
        label: {
            "wall": statistics.median(s.wall for s in runs),
            "cpu": statistics.median(s.cpu for s in runs),
            "rss_mb": statistics.median(s.rss_mb for s in runs),
            "runs": len(runs),
        }
        for label, runs in samples.items()
    }
    return {
        "metrics": {
            "wall_s": (sum(m["wall"] for m in medians.values()), "s"),
            "cpu_s": (sum(m["cpu"] for m in medians.values()), "s"),
            "peak_rss_mb": (max(m["rss_mb"] for m in medians.values()), "MB"),
        },
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "detail": {"full_passes": passes, "commands": medians},
    }


def rate_failures(points, values) -> int:
    return sum(v is None or workloads.rate_failed(p, v) for p, v in zip(points, values))


def run_rate_plane_untraced(seed: int, seconds: float) -> dict:
    """rate_pass.py passes in one child; its peak memory is the workload's."""
    points = workloads.rate_plane_points(seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.NamedTemporaryFile("w", dir=OUT, suffix=".json") as job:
        json.dump({"points": [p[:2] for p in points], "seed": seed, "seconds": seconds}, job)
        job.flush()
        sample, code, text = timed_child(
            [sys.executable, str(HERE / "rate_pass.py"), job.name],
            timeout=seconds + COMMAND_TIMEOUT_S,
        )
    if code:
        print(f"error: rate_pass.py exited with code {code}", file=sys.stderr)
        raise SystemExit(1)
    walls, cpus, op_times = [], [], []
    failed = 0
    for line in text.splitlines():
        done = json.loads(line)
        walls.append(done["wall"])
        cpus.append(done["cpu"])
        op_times += done["ops"]
        failed += rate_failures(points, done["values"])
    q = statistics.quantiles(op_times, n=100, method="inclusive")
    return {
        "metrics": {
            "wall_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (sample.rss_mb, "MB"),
        },
        "attempted": len(walls) * len(points),
        "failed": failed,
        "detail": {
            "pass_wall_s": walls,
            "pass_cpu_s": cpus,
            "points_per_pass": len(points),
            "op_p50_ms": q[49] * 1e3,
            "op_p99_ms": q[98] * 1e3,
            "op_samples": len(op_times),
        },
    }


def run_traced(workload: str, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes until the time is up."""
    import spans
    import sfcar.cli
    import sfcar.rates

    tracer = spans.Tracer()
    rng = random.Random(seed)
    untraced, traced = [], []
    verdicts = Verdicts()
    outputs = []  # checked after the pass that made them, outside its timing

    if workload == "rate-plane":
        points = workloads.rate_plane_points(seed)

        def one_pass(tr):
            order = list(range(len(points)))
            rng.shuffle(order)
            info_rates = sfcar.rates.info_rates  # looked up here so a tracer's wrapper applies
            outputs.append(rate_pass.run_pass(info_rates, points, order, tr)[0])

        def check(values):
            verdicts.attempted += len(points)
            verdicts.failed += rate_failures(points, values)

    else:
        commands = cli_commands(workload, seed)

        def one_pass(tr):
            order = commands[:]
            rng.shuffle(order)
            main = sfcar.cli.main if tr is None else tr.span("cli.main", sfcar.cli.main)
            for i, command in enumerate(order):
                if tr is not None:
                    tr.op = i
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    try:
                        code = main(list(command.argv))
                    except SystemExit as exc:  # argparse rejected the command
                        code = exc.code
                text = buf.getvalue()
                if tr is not None:
                    tr.bytes_out += len(text.encode())
                outputs.append((command, code, text))

        def check(output):
            verdicts.add(*output)

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        start = time.perf_counter()
        one_pass(None)
        untraced.append(time.perf_counter() - start)
        with tracer.installed():
            first = len(tracer.spans)
            tracer.span("bench.pass", one_pass)(tracer)
            root = tracer.spans[first]
            traced.append(root[2] - root[1])
        for output in outputs:
            check(output)
        outputs.clear()

    metrics = spans.layer_metrics(tracer, len(traced))
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0,
        "ratio",
    )
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans_{workload}_seed{seed}.csv.gz"
    tracer.write(span_file)
    return {
        "metrics": metrics,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "detail": {
            "untraced_pass_s": untraced,
            "traced_pass_s": traced,
            "spans": len(tracer.spans),
            "span_file": span_file.name,
        },
    }


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
    )
    return done.stdout.strip() or None


def blas_threads() -> int | None:
    """Thread count OpenBLAS will use, asked of the library NumPy loaded."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(sfcar) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "sfcar").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": sfcar.backend_name(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="sfcar benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sfcar = load_sfcar()
    started = time.perf_counter()
    if args.trace:
        result = run_traced(args.workload, args.seed, args.seconds)
    else:
        # Set-up time drifts with the machine's state, so half the samples
        # come before the workload and half after it.
        setup = measure_setup()
        if args.workload == "rate-plane":
            result = run_rate_plane_untraced(args.seed, args.seconds)
        else:
            result = run_cli_untraced(args.workload, args.seed, args.seconds)
        setup += measure_setup()
        result["metrics"]["setup_s"] = (statistics.median(setup), "s")
        result["detail"]["setup_samples_s"] = setup

    attempted, failed = result["attempted"], result["failed"]
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in sorted(result["metrics"].items())}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "elapsed_s": time.perf_counter() - started,
        "environment": environment(sfcar),
        "failed_frac": failed / attempted,
        "metrics": metrics,
        "detail": result["detail"],
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed={args.seed} trace={args.trace} elapsed={record['elapsed_s']:.1f}s")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    for name in ("op_p50_ms", "op_p99_ms"):
        if name in result["detail"]:
            print(f"  {name:44s} {result['detail'][name]:.6g} ms")
    print(f"  {'failed_frac':44s} {record['failed_frac']:.6g} ({failed} of {attempted})")
    print("env " + json.dumps(record["environment"], sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
