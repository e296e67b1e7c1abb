"""The seven records: immutable tuples with named fields whose every
construction, _make and _replace included, runs the record's checks."""

import pickle

import numpy as np
import pytest

from sfcar.correlation import PhysicalEnvironment
from sfcar.density import ScenarioConfig, SweepRow
from sfcar.errors import DomainError
from sfcar.lattice import TorusSpec
from sfcar.network import Deployment, EnergyModel
from sfcar.rates import InfoRates

ENERGY = EnergyModel(total_energy=50.0, e0=0.1, nu=2.0, beta=1.0)
ENVIRONMENT = PhysicalEnvironment(alpha=100.0)
INFEASIBLE_ROW = SweepRow(2, 6.25, 0.5, 0.1, 0.09, None, None, None, None, None, None, False)

# A valid record of each kind, and one field value its checks reject
# (None for SweepRow, which has no checks).
RECORDS = [
    (InfoRates(0.1, 0.2), {"kli": 1.0}),
    (PhysicalEnvironment(100.0), {"alpha": float("inf")}),
    (Deployment(1.0, 3), {"n": 0}),
    (EnergyModel(50.0, 0.1, 2.0, 1.0), {"nu": 1.5}),
    (ScenarioConfig(1.0, ENERGY, ENVIRONMENT, n_max=10), {"n_min": 11}),
    (INFEASIBLE_ROW, None),
    (TorusSpec(8), {"n_per_axis": 1}),
]
IDS = [type(rec).__name__ for rec, _ in RECORDS]


@pytest.mark.parametrize("rec,invalid", RECORDS, ids=IDS)
class TestRecord:
    def test_fields_are_read_only(self, rec, invalid):
        for name in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, name, getattr(rec, name))
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_replace_runs_the_checks(self, rec, invalid):
        assert rec._replace() == rec
        assert type(rec._replace()) is type(rec)
        if invalid is None:
            return
        with pytest.raises(DomainError):
            rec._replace(**invalid)
        values = rec._asdict() | invalid
        with pytest.raises(DomainError):
            type(rec)._make(values.values())

    def test_repr(self, rec, invalid):
        fields = ", ".join(f"{name}={value!r}" for name, value in rec._asdict().items())
        assert repr(rec) == f"{type(rec).__name__}({fields})"

    def test_value_semantics(self, rec, invalid):
        copy = type(rec)(**rec._asdict())
        assert copy == rec and hash(copy) == hash(rec)
        assert pickle.loads(pickle.dumps(rec)) == rec
        # records are tuples: a plain tuple of the same values is equal
        assert rec == tuple(rec) and rec[0] == getattr(rec, rec._fields[0])


# Lattice indices and sizes are counts: what operator.index takes, a Python
# or NumPy integer, is kept as an int; anything else is a DomainError.
INDEXED = {
    "Deployment.n": (lambda n: Deployment(1.0, n), "n"),
    "ScenarioConfig.n_min": (lambda n: ScenarioConfig(1.0, ENERGY, ENVIRONMENT, n_min=n), "n_min"),
    "ScenarioConfig.n_max": (lambda n: ScenarioConfig(1.0, ENERGY, ENVIRONMENT, n_max=n), "n_max"),
    "TorusSpec.n_per_axis": (lambda n: TorusSpec(n), "n_per_axis"),
}


@pytest.mark.parametrize("field", INDEXED)
@pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), "3"])
def test_non_integer_index_rejected(field, value):
    make, _ = INDEXED[field]
    with pytest.raises(DomainError, match="must be an integer"):
        make(value)


@pytest.mark.parametrize("field", INDEXED)
@pytest.mark.parametrize("value", [3, np.int64(3), np.int32(3), np.uint8(3)])
def test_integer_index_kept_as_int(field, value):
    make, name = INDEXED[field]
    stored = getattr(make(value), name)
    assert stored == 3 and type(stored) is int


def test_repr_names_every_field():
    assert repr(Deployment(1.0, 3)) == "Deployment(half_width=1.0, n=3)"
    assert repr(InfoRates(0.0, 0.5)) == "InfoRates(kli=0.0, mi=0.5)"


def test_scenario_defaults_and_keywords():
    config = ScenarioConfig(half_width=1.0, energy=ENERGY, environment=ENVIRONMENT)
    assert (config.n_min, config.n_max) == (1, None)
    assert config == ScenarioConfig(1.0, ENERGY, ENVIRONMENT, 1, None)
    config = ScenarioConfig(
        n_max=5, environment=ENVIRONMENT, energy=ENERGY, half_width=2.0, n_min=2,
    )
    assert ScenarioConfig._fields == (
        "half_width", "energy", "environment", "n_min", "n_max",
    )
    assert config._asdict() == {
        "half_width": 2.0, "energy": ENERGY, "environment": ENVIRONMENT,
        "n_min": 2, "n_max": 5,
    }
