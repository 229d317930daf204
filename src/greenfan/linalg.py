"""Small exact linear-algebra helpers over int and Fraction.

Matrices are tuples of row tuples; vectors are plain tuples.  Everything here
is exact -- no floats.  Positive vectors index the generators ``X_n`` of the
structure group and the normals of walls, graded by ``degree``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm


def is_int(x) -> bool:
    """An int that is not a bool: JSON ``true`` parses to one.

    The exact-type test comes first because it settles every parsed entry.
    """
    return type(x) is int or isinstance(x, int) and not isinstance(x, bool)


def require_int(x, what: str, least: int) -> None:
    """Raise ValueError unless ``x`` is an int >= ``least`` that is not a bool."""
    if not is_int(x) or x < least:
        raise ValueError("%s must be an integer >= %d, got %r" % (what, least, x))


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


def degree(n) -> int:
    return sum(n)


def is_positive_vector(n) -> bool:
    return len(n) > 0 and all(is_int(x) and x >= 0 for x in n) and any(n)


def letter_key(n):
    """Total order on generator indices: degree first, then e_1 < e_2 < ...

    Within a degree the tuple with the larger leading coordinates comes
    first, so e.g. 2e1 < e1+e2 < 2e2.
    """
    return (degree(n), tuple(-x for x in n))


def delta_exponent(n, delta) -> Fraction:
    """Smallest positive rational t with ``t * n_i`` divisible by ``delta_i``.

    Equals the rational lcm of the reduced fractions ``delta_i / n_i`` over
    the support of ``n``; in particular it takes the value ``delta_i`` on the
    i-th unit vector, and it can be a proper fraction on non-primitive input.
    """
    if not is_positive_vector(n) or len(n) != len(delta):
        raise ValueError("expected a positive vector of length %d, got %r" % (len(delta), n))
    num, den = 1, 0
    for ni, di in zip(n, delta):
        if ni == 0:
            continue
        f = Fraction(di, ni)
        num = lcm(num, f.numerator)
        den = gcd(den, f.denominator)
    return Fraction(num, den)
