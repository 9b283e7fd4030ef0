"""Immutable value records, written out by hand.

A subclass names its fields in ``__slots__``.  ``Frozen.__init__`` takes
one value per field, in that order; a record that checks its fields or has
defaults writes its own ``__init__``, which either ends in
``Frozen.__init__`` or sets each field once through ``set_field``.  After
that, assigning or deleting an attribute raises ``AttributeError``.  Two
records are equal when they are of the same class with equal fields, and
equal records hash alike.
"""

from __future__ import annotations

# ``set_field(record, name, value)`` bypasses ``Frozen.__setattr__``.
set_field = object.__setattr__


class Frozen:
    """Base of the immutable records; see the module docstring."""

    __slots__ = ()

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError(f"{self.__class__.__name__} takes "
                            f"{len(self.__slots__)} fields, not {len(fields)}")
        for name, value in zip(self.__slots__, fields):
            set_field(self, name, value)

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # Copies and pickles go through ``__init__``, which takes the fields
        # in ``__slots__`` order.
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__name__}({fields})"
