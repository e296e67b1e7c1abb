"""Immutable records: tuples with named fields, checked on construction."""

from collections import namedtuple


def record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record class that checks its fields in
    __new__.  namedtuple's _make, which _replace calls, would skip those
    checks by building the tuple directly; here it calls the class."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
