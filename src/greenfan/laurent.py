"""Symbolic seed mutation with principal coefficients.

This is the slow, definitional model the fast tropical recurrences are tested
against.  Cluster variables are sparse Laurent polynomials in the initial
variables x_1..x_r and coefficient variables y_1..y_r; exponent keys are
length-2r integer tuples (x block first).  The exchange relation

    x_k' = (prod_i y_i^[c_ik]_+ prod_i X_i^[b_ik]_+
            + prod_i y_i^[-c_ik]_+ prod_i X_i^[-b_ik]_+) / X_k

is evaluated with exact division, so a failure of Laurentness (impossible for
valid input) is detected rather than silently rounded.  Degree and coefficient
data are read off the polynomials:

* the g-vector of a variable is its multidegree for deg(x_i) = e_i,
  deg(y_j) = -(column j of the root exchange matrix);
* the c-matrix has the tracked coefficient-monomial exponents as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import Inhomogeneous, NonLaurent
from .exchange import FixedData

Vector = tuple[int, ...]


class LaurentPoly:
    """Sparse Laurent polynomial with arbitrary-precision int coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[tuple, int]):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def monomial(cls, nvars: int, exponents, coeff: int = 1) -> "LaurentPoly":
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    def __eq__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = out.get(e, 0) + c
            if nc:
                out[e] = nc
            elif e in out:
                del out[e]
        return LaurentPoly(self.nvars, out)

    def __sub__(self, other):
        negated = {e: -c for e, c in other.terms.items()}
        return self + LaurentPoly(self.nvars, negated)

    def __mul__(self, other):
        out: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                nc = out.get(e, 0) + c1 * c2
                if nc:
                    out[e] = nc
                elif e in out:
                    del out[e]
        return LaurentPoly(self.nvars, out)

    def __pow__(self, k: int):
        result = LaurentPoly.monomial(self.nvars, (0,) * self.nvars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            bits.append("%d*z^%r" % (c, list(e)))
        return " + ".join(bits)


def divide_exact(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Exact Laurent division; raises NonLaurent when the quotient fails.

    Classic leading-term elimination under lex order.  An exact division emits
    exactly one quotient term per step; a step cap guards the (buggy-input)
    non-exact case, where lex leading terms can decrease forever.
    """
    if not den.terms:
        raise ZeroDivisionError("division by the zero polynomial")
    if not num.terms:
        return LaurentPoly.zero(num.nvars)
    lead_d = max(den.terms)
    cd = den.terms[lead_d]
    rem = {e: Fraction(c) for e, c in num.terms.items()}
    quo: dict[tuple, Fraction] = {}
    cap = 10000 + 16 * len(num.terms) * max(1, len(den.terms))
    steps = 0
    while rem:
        steps += 1
        if steps > cap:
            raise NonLaurent("division did not terminate; quotient is not Laurent")
        lead_r = max(rem)
        t_exp = tuple(a - b for a, b in zip(lead_r, lead_d))
        t_coeff = rem[lead_r] / cd
        quo[t_exp] = t_coeff
        for e, c in den.terms.items():
            target = tuple(a + b for a, b in zip(t_exp, e))
            nc = rem.get(target, Fraction(0)) - t_coeff * c
            if nc:
                rem[target] = nc
            elif target in rem:
                del rem[target]
    out = {}
    for e, c in quo.items():
        if c.denominator != 1:
            raise NonLaurent("quotient has non-integer coefficient %s" % c)
        out[e] = int(c)
    return LaurentPoly(num.nvars, out)


@dataclass(frozen=True)
class SymbolicSeed:
    """Cluster variables, coefficient-monomial exponents, and current B."""

    variables: tuple[LaurentPoly, ...]
    coefficients: tuple[Vector, ...]  # column vectors of y-exponents
    b: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.variables)


def root_symbolic_seed(fd: FixedData) -> SymbolicSeed:
    r = fd.rank
    nv = 2 * r
    variables = tuple(
        LaurentPoly.monomial(nv, tuple(1 if i == j else 0 for i in range(nv)))
        for j in range(r)
    )
    coefficients = tuple(
        tuple(1 if i == j else 0 for i in range(r)) for j in range(r)
    )
    return SymbolicSeed(variables=variables, coefficients=coefficients, b=fd.b)


def _pos(x):
    return x if x > 0 else 0


def symbolic_mutate(seed: SymbolicSeed, k: int) -> SymbolicSeed:
    """One exchange in direction ``k`` (0-based); an involution."""
    r = seed.rank
    if not 0 <= k < r:
        raise IndexError("direction %d out of range for rank %d" % (k, r))
    nv = 2 * r
    b = seed.b
    ck = seed.coefficients[k]

    def y_monomial(exps):
        return LaurentPoly.monomial(nv, tuple([0] * r + list(exps)))

    term_in = y_monomial([_pos(ck[i]) for i in range(r)])
    term_out = y_monomial([_pos(-ck[i]) for i in range(r)])
    for i in range(r):
        if b[i][k] > 0:
            term_in = term_in * seed.variables[i] ** b[i][k]
        elif b[i][k] < 0:
            term_out = term_out * seed.variables[i] ** (-b[i][k])
    new_var = divide_exact(term_in + term_out, seed.variables[k])

    new_coeffs = []
    for j in range(r):
        if j == k:
            new_coeffs.append(tuple(-x for x in ck))
        else:
            col = seed.coefficients[j]
            new_coeffs.append(
                tuple(
                    col[i] + _pos(ck[i]) * _pos(b[k][j]) - _pos(-ck[i]) * _pos(-b[k][j])
                    for i in range(r)
                )
            )
    new_b = tuple(
        tuple(
            -b[i][j]
            if i == k or j == k
            else b[i][j] + _pos(b[i][k]) * _pos(b[k][j]) - _pos(-b[i][k]) * _pos(-b[k][j])
            for j in range(r)
        )
        for i in range(r)
    )
    variables = list(seed.variables)
    variables[k] = new_var
    return SymbolicSeed(
        variables=tuple(variables), coefficients=tuple(new_coeffs), b=new_b
    )


def extract_g_vector(poly: LaurentPoly, fd: FixedData) -> Vector:
    """Multidegree under deg(x_i) = e_i, deg(y_j) = -b_j (root columns).

    Raises Inhomogeneous when two monomials disagree, which for genuine
    cluster variables never happens.
    """
    r = fd.rank
    seen = None
    for exps in poly.terms:
        xs, ys = exps[:r], exps[r:]
        deg = tuple(
            xs[i] - sum(fd.b[i][j] * ys[j] for j in range(r)) for i in range(r)
        )
        if seen is None:
            seen = deg
        elif seen != deg:
            raise Inhomogeneous(
                "monomials grade to both %r and %r" % (seen, deg)
            )
    if seen is None:
        raise Inhomogeneous("the zero polynomial has no degree")
    return seen


def extract_c_matrix(seed: SymbolicSeed) -> tuple[tuple[int, ...], ...]:
    """Row-major matrix whose j-th column is the j-th coefficient exponent."""
    r = seed.rank
    return tuple(tuple(seed.coefficients[j][i] for j in range(r)) for i in range(r))


def cluster_fingerprint(seed: SymbolicSeed) -> frozenset:
    """The unordered cluster with coefficients set to 1 (y -> 1), hashable.

    Two labeled seeds lie in the same unlabeled class exactly when their
    fingerprints agree, which is what the canonical-key cross-check uses.
    """
    r = seed.rank
    polys = []
    for v in seed.variables:
        collapsed: dict[tuple, int] = {}
        for exps, c in v.terms.items():
            xs = exps[:r]
            nc = collapsed.get(xs, 0) + c
            if nc:
                collapsed[xs] = nc
            elif xs in collapsed:
                del collapsed[xs]
        polys.append(frozenset(collapsed.items()))
    return frozenset(polys)
