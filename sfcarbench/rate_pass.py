"""rate-plane passes in a process of their own.

    PYTHONPATH=src python3 sfcarbench/rate_pass.py <job.json>

run.py starts this so that the peak memory it reads is that of a process
holding sfcar and one pass's results, not the benchmark's harness and
reference values.  The job holds the (zeta, snr) points, the seed that
orders each pass and the seconds to measure.  Passes run until the time
is up, at least one.  Each prints one JSON line: its wall and CPU
seconds, the duration of every call, and in the job's point order every
(kli, mi), or null where the call raised.
"""

import json
import random
import sys
import time


def run_pass(info_rates, points, order, tracer=None):
    """Call info_rates on points in the given order: values and call times."""
    values = [None] * len(points)
    op_times = []
    for op, i in enumerate(order):
        if tracer is not None:
            tracer.op = op
        zeta, snr = points[i][:2]
        start = time.perf_counter()
        try:
            result = info_rates(zeta, snr)
            values[i] = (result.kli, result.mi)
        except Exception as exc:  # counted as a failed operation
            print(f"error: info_rates({zeta!r}, {snr!r}): {exc!r}", file=sys.stderr)
        op_times.append(time.perf_counter() - start)
    return values, op_times


def main(path: str) -> None:
    from sfcar import rates

    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    points = job["points"]
    rng = random.Random(job["seed"])
    deadline = time.perf_counter() + job["seconds"]
    while True:
        order = list(range(len(points)))
        rng.shuffle(order)
        cpu0 = time.process_time()
        start = time.perf_counter()
        values, op_times = run_pass(rates.info_rates, points, order)
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
        print(json.dumps({"wall": wall, "cpu": cpu, "ops": op_times, "values": values}))
        if time.perf_counter() >= deadline:
            return


if __name__ == "__main__":
    main(sys.argv[1])
