"""Immutable records: tuples with named fields, checked on construction."""

import operator
from collections import namedtuple

from sfcar.errors import DomainError


def record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record class that checks its fields in
    __new__.  namedtuple's _make, which _replace calls, would skip those
    checks by building the tuple directly; here it calls the class."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


def integer(value, name: str) -> int:
    """value as an int if operator.index takes it (a Python or NumPy
    integer), else a DomainError: a lattice index or size is a count."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
