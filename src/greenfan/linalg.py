"""Small exact linear-algebra helpers over int and Fraction.

Matrices are tuples of row tuples; vectors are plain tuples.  Everything here
is exact -- no floats.
"""

from __future__ import annotations

from itertools import chain
from math import gcd


def is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` parses to one.

    The exact-type test comes first because it settles every parsed entry.
    """
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def require_list(x, what: str):
    """``x`` itself when it is a list or tuple; TypeError otherwise.

    ``tuple()`` of a JSON object yields its keys, so every reader checks a
    field it iterates as a list with this first.
    """
    if not isinstance(x, (list, tuple)):
        raise TypeError("%s must be a list, got %s" % (what, type(x).__name__))
    return x


def int_vector(x, what: str):
    """``x`` as a tuple when it is a list or tuple of ints; TypeError otherwise."""
    if not isinstance(x, (list, tuple)) or not all(map(is_int, x)):
        raise TypeError("%s must be a list of integers, got %r" % (what, x))
    return tuple(x)


def as_int_matrix(rows):
    """Coerce a list of rows to a square tuple-of-tuples of int.

    One pass over the entry types accepts a matrix of exact ints; the
    per-entry test runs only to accept an int subclass or name a bad entry.
    A JSON object row reads as its keys, strings that the entry test refuses.
    """
    m = tuple(map(tuple, require_list(rows, "matrix")))
    if not {int}.issuperset(map(type, chain.from_iterable(m))):
        for x in chain.from_iterable(m):
            if not is_int(x):
                raise ValueError("matrix entries must be integers, got %r" % (x,))
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    return m


def identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def matvec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(k, a):
    return tuple(k * x for x in a)


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero forbidden)."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)
