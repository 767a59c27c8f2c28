"""Value records: `typing.NamedTuple` classes that compare by type too.

Every record in the package is a NamedTuple decorated with `record`.
Building a NamedTuple class generates and execs no methods, and needs
neither `dataclasses` nor `inspect`; that matters because each CLI
process defines every record before it reads its first edge.  Fields
are read-only properties, so assigning to one raises AttributeError, and
`_replace` returns a changed copy.

A plain tuple subclass compares by position alone: an OptimalPair would
equal a MeynielObstruction, or a bare tuple, holding the same values.
`record` makes a record equal only to a record of the very same class.
Equal records are equal tuples, so the inherited tuple hash stays
consistent with this equality.
"""


def _eq(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _ne(self, other) -> bool:
    return type(self) is not type(other) or tuple.__ne__(self, other)


def record(cls):
    """Class decorator: give a NamedTuple class type-strict equality."""
    cls.__eq__ = _eq
    cls.__ne__ = _ne
    return cls
