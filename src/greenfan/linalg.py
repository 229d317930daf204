"""Small exact linear-algebra helpers over int and Fraction.

Matrices are tuples of row tuples; vectors are plain tuples.  Everything here
is exact -- no floats.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd


def is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` parses to one.

    The exact-type test comes first because it settles every parsed entry.
    """
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def as_int_matrix(rows):
    """Coerce nested sequences to a square tuple-of-tuples of int.

    One pass over the entry types accepts a matrix of exact ints; the
    per-entry test runs only to accept an int subclass or name a bad entry.
    """
    m = tuple(map(tuple, rows))
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


def solve_columns(columns, target):
    """Solve ``sum_i x_i * columns[i] = target`` exactly.

    The columns must be linearly independent.  Returns the coefficient list
    (Fractions) or None when the system is inconsistent.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(nrows)
    ]
    row = 0
    pivots = []
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, nrows):
        if aug[r][ncols]:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_neg(a):
    return tuple(-x for x in a)


def vec_scale(k, a):
    return tuple(k * x for x in a)


def gcd_vec(v):
    g = 0
    for x in v:
        g = gcd(g, abs(x))
    return g


def primitive(v):
    """Divide an integer vector by the gcd of its entries (zero forbidden)."""
    g = gcd_vec(v)
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    return tuple(x // g for x in v)
