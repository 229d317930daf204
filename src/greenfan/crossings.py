"""Crossing sequences and the minimal-degree obstruction of an all-green one.

A crossing of a wall with normal ``n`` and sign ``sign`` stands for the
factor ``Psi[n]^(sign * exponent)`` of a path-ordered product (see
``scattering``).  The obstruction reads its witness straight off the
crossings, so this module, and the ``obstruct`` command, load neither the
structure group nor the scattering layer.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .errors import BadInput, NotAllGreen
from .exchange import FixedData
from .linalg import degree, delta_exponent, is_positive_vector, letter_key

Vector = tuple[int, ...]


class Crossing(NamedTuple):
    normal: Vector
    sign: int
    exponent: Fraction


class CrossingSequence(NamedTuple):
    crossings: tuple[Crossing, ...]


def crossing_sequence_from_normals(fd: FixedData, pairs) -> CrossingSequence:
    """Build a sequence directly from (normal, sign) pairs (no walk)."""
    crossings = []
    for n, sign in pairs:
        try:
            n = linalg.int_vector(n, "crossing normal")
        except TypeError as exc:
            raise BadInput(str(exc)) from exc
        if not linalg.is_int(sign) or sign not in (1, -1):
            raise BadInput("crossing sign must be the integer 1 or -1, got %r" % (sign,))
        if len(n) != fd.rank:
            raise BadInput(
                "crossing normal must have %d entries (the rank), got %r" % (fd.rank, n)
            )
        if not is_positive_vector(n):
            raise BadInput("crossing normal must be positive, got %r" % (n,))
        crossings.append(
            Crossing(normal=n, sign=sign, exponent=delta_exponent(n, fd.delta))
        )
    return CrossingSequence(crossings=tuple(crossings))


class Obstruction(NamedTuple):
    min_degree: int
    witness: dict[Vector, Fraction]

    def pretty(self) -> str:
        bits = []
        for n in sorted(self.witness, key=letter_key):
            bits.append("%s*X(%s)" % (self.witness[n], ",".join(str(x) for x in n)))
        return " + ".join(bits)


def minimal_degree_obstruction(cs: CrossingSequence) -> Obstruction:
    """Witness that an all-green product cannot be the identity.

    Let l be the minimal degree of the normals.  Modulo degree > l a factor
    of higher degree is 1, a factor of degree l is 1 + exponent * X_n, and
    every product of two letters vanishes, having degree >= 2l.  So the
    product projects to 1 + sum_n c_n X_n = exp(sum_n c_n X_n), where c_n
    sums the positive exponents of the crossings with normal n: not the
    identity.  l and the c_n are returned with no group arithmetic; the tests
    hold this closed form against PBW products.
    """
    if not cs.crossings:
        raise ValueError("empty crossing sequence has no minimal degree")
    if any(c.sign != 1 for c in cs.crossings):
        raise NotAllGreen("obstruction requires an all-green sequence")
    level = min(degree(c.normal) for c in cs.crossings)
    witness: dict[Vector, Fraction] = {}
    for c in cs.crossings:
        if degree(c.normal) == level:
            witness[c.normal] = witness.get(c.normal, Fraction(0)) + c.exponent
    return Obstruction(min_degree=level, witness=witness)
