"""Spans and counters recorded around the calls between sfcar's layers.

The tracer replaces module attributes through which one layer calls
another (for example ``sfcar.density.info_rates``) with wrappers, and
restores them afterwards; nothing inside ``src/`` changes.  Each wrapped
call appends one span (name, start, end, parent, operation, tag) to an
in-memory list; counted calls only bump a number.  Self time is a span's
duration minus the durations of its direct children, so the self times
of one pass add up to the duration of its root span.
"""

import gzip
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import sfcar.cli
import sfcar.correlation
import sfcar.density
import sfcar.kernels
import sfcar.lattice
import sfcar.rates

NEAR_QUARTER = 1e-3
LOW_SNR = 1e-3


def _rate_band(zeta, snr, *_args, **_kwargs):
    return (0.25 - zeta < NEAR_QUARTER, snr < LOW_SNR)


def _grid_points(cos1, _w1, cos2, *_args):
    return len(cos1) * len(cos2)


def _torus_size(_zeta, _snr, spec):
    return spec.n_per_axis


# (module, attribute, span name, tag of the call's arguments)
SPANNED = [
    (sfcar.cli, "sweep", "density.sweep", None),
    (sfcar.cli, "optimize", "density.optimize", None),
    (sfcar.cli, "info_rates", "rates.info_rates", _rate_band),
    (sfcar.cli, "torus_rates", "lattice.torus_rates", _torus_size),
    (sfcar.density, "sweep", "density.sweep", None),
    (sfcar.density, "evaluate_density", "density.evaluate_density", None),
    (sfcar.density, "feasibility_boundary", "density.feasibility_boundary", None),
    (sfcar.density, "edge_correlation", "correlation.edge_correlation", None),
    (sfcar.density, "zeta_of_rho", "correlation.zeta_of_rho", None),
    (sfcar.density, "info_rates", "rates.info_rates", _rate_band),
    (sfcar.rates, "info_rates", "rates.info_rates", _rate_band),
    (sfcar.rates, "complete_elliptic_k", "special.complete_elliptic_k", None),
    (sfcar.kernels, "rate_sums", "kernels.rate_sums", _grid_points),
    (sfcar.correlation, "complete_elliptic_k", "special.complete_elliptic_k", None),
    (sfcar.correlation, "bessel_k1", "special.bessel_k1", None),
    (sfcar.lattice, "complete_elliptic_k", "special.complete_elliptic_k", None),
]
COUNTED = [
    (sfcar.correlation, "rho_of_zeta", "correlation.rho_of_zeta"),
    (sfcar.density, "sensing_energy_per_node", "network.sensing_energy_per_node"),
]
TORUS_SIZES = (512, 2048, 4096)


class Tracer:
    """In-memory span list for one traced run."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op, tag)
        self.counts = Counter()
        self.bytes_out = 0
        self.op = 0
        self._stack = [-1]

    def span(self, name, fn, tag=None):
        """Wrap fn so that each call records a span."""
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                label = tag(*args, **kwargs) if tag else None
                spans[index] = (name, start, end, stack[-1], self.op, label)

        return wrapper

    def count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the duration of the block."""
        saved = []
        try:
            for module, attr, name, tag in SPANNED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.span(name, saved[-1][2], tag))
            for module, attr, name in COUNTED:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self.count(name, saved[-1][2]))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> list[float]:
        """Per span: duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name,start,end,parent,op,tag\n")
            for name, start, end, parent, op, tag in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op},{tag if tag is not None else ''}\n")


def layer_metrics(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics, per traced pass.  Times in s unless named _us;
    total_s includes the time in child spans, self_s does not."""
    own = tracer.self_times()
    calls = Counter()
    self_s = defaultdict(float)
    durations = defaultdict(list)
    nested = Counter()  # (child, parent) name pairs
    total_s = defaultdict(float)  # inclusive of child spans
    grid_points = 0
    for (name, start, end, parent, _, tag), t in zip(tracer.spans, own):
        calls[name] += 1
        self_s[name] += t
        durations[name].append(end - start)
        if parent >= 0:
            nested[name, tracer.spans[parent][0]] += 1
        if name == "rates.info_rates":
            total_s[name] += end - start
            near, low = tag
            self_s["rates.info_rates.near_quarter"] += t if near else 0.0
            self_s["rates.info_rates.low_snr"] += t if low else 0.0
        elif name == "kernels.rate_sums":
            grid_points += tag
        elif name == "lattice.torus_rates":
            self_s[f"lattice.torus_rates.N{tag}"] += t
            total_s[f"lattice.torus_rates.N{tag}"] += end - start

    def per_pass(value):
        return value / passes

    def ratio(num, den):
        return num / den if den else 0.0

    def pct_us(name, q):
        values = durations[name]
        if len(values) < 2:
            return values[0] * 1e6 if values else 0.0
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e6

    out = {}
    for name in ("rates.info_rates", "density.evaluate_density"):
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        out[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        out[f"{name}.p50_us"] = (pct_us(name, 50), "us")
        out[f"{name}.p99_us"] = (pct_us(name, 99), "us")
    out["rates.info_rates.total_s"] = (per_pass(total_s["rates.info_rates"]), "s")
    for band in ("near_quarter", "low_snr"):
        out[f"rates.info_rates.{band}.self_s"] = (per_pass(self_s[f"rates.info_rates.{band}"]), "s")
    out["rates.passes_per_call"] = (
        ratio(nested["kernels.rate_sums", "rates.info_rates"], calls["rates.info_rates"]),
        "count",
    )
    out["kernels.rate_sums.calls"] = (per_pass(calls["kernels.rate_sums"]), "count")
    out["kernels.rate_sums.self_s"] = (per_pass(self_s["kernels.rate_sums"]), "s")
    out["kernels.rate_sums.grid_points"] = (per_pass(grid_points), "count")
    out["kernels.rate_sums.ns_per_point"] = (
        ratio(self_s["kernels.rate_sums"] * 1e9, grid_points),
        "ns",
    )
    out["correlation.zeta_of_rho.calls"] = (per_pass(calls["correlation.zeta_of_rho"]), "count")
    out["correlation.zeta_of_rho.self_s"] = (per_pass(self_s["correlation.zeta_of_rho"]), "s")
    out["correlation.zeta_of_rho.iters_per_call"] = (
        ratio(tracer.counts["correlation.rho_of_zeta"], calls["correlation.zeta_of_rho"]),
        "count",
    )
    out["correlation.edge_correlation.self_s"] = (
        per_pass(self_s["correlation.edge_correlation"]),
        "s",
    )
    for name in ("special.complete_elliptic_k", "special.bessel_k1"):
        out[f"{name}.calls"] = (per_pass(calls[name]), "count")
        out[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
    for size in TORUS_SIZES:
        name = f"lattice.torus_rates.N{size}"
        out[f"{name}.self_s"] = (per_pass(self_s[name]), "s")
        out[f"{name}.total_s"] = (per_pass(total_s[name]), "s")
    out["density.feasibility_boundary.self_s"] = (
        per_pass(self_s["density.feasibility_boundary"]),
        "s",
    )
    out["network.sensing_energy_per_node.calls"] = (
        per_pass(tracer.counts["network.sensing_energy_per_node"]),
        "count",
    )
    out["cli.main.self_s"] = (per_pass(self_s["cli.main"]), "s")
    out["cli.bytes_out"] = (per_pass(tracer.bytes_out), "bytes")
    return out
