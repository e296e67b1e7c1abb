"""The names the benchmark harness looks up in sfcar, with their call shapes.

`sfcarbench/spans.py` swaps wrappers in for these module attributes and
tags some calls by their arguments (`len()` of rate_sums' 1st and 3rd,
info_rates' zeta and snr, torus_rates' spec); `sfcarbench/run.py` calls
`sfcar.backend_name()`.  A rename or a reshaped signature here breaks the
benchmark, not any other test, so each is pinned: parameter names in
order, and which of them have defaults.
"""

import inspect

import pytest

import sfcar
from sfcar import cli, correlation, density, kernels, lattice, rates

RATES = ["zeta", "snr"]
CONFIG = ["config"]

PINNED = [
    (sfcar, "backend_name", [], 0),
    (kernels, "rate_sums", ["rows", "weights", "columns", "zeta", "snr"], 0),
    (rates, "complete_elliptic_k", ["k"], 0),
    (correlation, "complete_elliptic_k", ["k"], 0),
    (lattice, "complete_elliptic_k", ["k"], 0),
    (correlation, "bessel_k1", ["x"], 0),
    (correlation, "rho_of_zeta", ["zeta"], 0),
    (density, "sweep", CONFIG, 0),
    (density, "evaluate_density", CONFIG + ["n"], 0),
    (density, "feasibility_boundary", CONFIG, 0),
    (density, "edge_correlation", ["env", "spacing"], 0),
    (density, "zeta_of_rho", ["rho"], 0),
    (density, "info_rates", RATES, 0),
    (density, "sensing_energy_per_node", ["energy", "deployment"], 0),
    (cli, "sweep", CONFIG, 0),
    (cli, "optimize", CONFIG + ["objective"], 1),
    (cli, "info_rates", RATES, 0),
    (cli, "torus_rates", RATES + ["spec"], 0),
    (cli, "main", ["argv"], 1),
]


@pytest.mark.parametrize(
    "module, name, parameters, defaults",
    PINNED,
    ids=[f"{module.__name__}.{name}" for module, name, _, _ in PINNED],
)
def test_name_keeps_its_call_shape(module, name, parameters, defaults):
    signature = inspect.signature(getattr(module, name))
    params = list(signature.parameters.values())
    assert [p.name for p in params] == parameters
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
    assert sum(p.default is not p.empty for p in params) == defaults


def test_one_elliptic_k_behind_every_module():
    # the tracer counts special.complete_elliptic_k through each of these
    assert rates.complete_elliptic_k is sfcar.special.complete_elliptic_k
    assert correlation.complete_elliptic_k is sfcar.special.complete_elliptic_k
    assert lattice.complete_elliptic_k is sfcar.special.complete_elliptic_k
