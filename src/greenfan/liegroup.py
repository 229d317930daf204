"""Degree-truncated enveloping algebra of the graded Lie algebra on N+.

Generators ``X_n`` are indexed by nonzero nonnegative integer vectors ``n``
(the positive part of the cocharacter lattice), graded by ``deg(n) = sum(n)``,
with bracket

    [X_n, X_m] = {n, m} X_{n+m},       {n, m} = n^T * omega * m

for a fixed skew-symmetric rational matrix ``omega``.  Everything is computed
inside the quotient by total degree > ``level``, with monomials held in PBW
normal form: weakly increasing words of generators under the (degree, lex)
order on index vectors.  An out-of-order adjacent pair rewrites as

    X_a X_b  ->  X_b X_a + {a, b} X_{a+b}        (a > b in the order),

which preserves total degree, so truncation commutes with multiplication.

Coefficients are exact ``fractions.Fraction`` values throughout.

``TorusAction`` carries a group element as its faithful action on one torus
monomial instead: much cheaper to compose, and the engine of the loop and
rank-2 checks, which PBW products are tested against.
"""

from __future__ import annotations

import re
from fractions import Fraction
from heapq import heappop, heappush
from math import factorial, gcd
from operator import add, mul

from .errors import (
    BadInput,
    LevelMismatch,
    NotGrouplike,
    NotLieElement,
)
from .linalg import (
    degree, is_int, is_positive_vector, letter_key, primitive, require_int, require_list,
    vec_add, vec_scale,
)

Vector = tuple[int, ...]
Monomial = tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def monomial_degree(m: Monomial) -> int:
    return sum(degree(n) for n in m)


def monomial_key(m: Monomial):
    return (monomial_degree(m), tuple(letter_key(n) for n in m))


def dilog_log_terms(n: Vector, c, level: int) -> dict[Vector, Fraction]:
    """Log of Psi[n]^c up to ``level``: c * sum_j (-1)^(j+1)/j^2 X_{jn}."""
    c = Fraction(c)
    if not c:
        return {}
    return {
        vec_scale(j, n): c * Fraction((-1) ** (j + 1), j * j)
        for j in range(1, level // degree(n) + 1)
    }


def _omega_row(omega, n: Vector) -> tuple:
    """omega(n, -) = sum_i n_i omega[i], the row ``pairing`` and ``TorusAction`` share."""
    return tuple(
        sum(ni * row[j] for ni, row in zip(n, omega) if ni) for j in range(len(omega))
    )


def _check_level(level) -> None:
    require_int(level, "level", 1)


def _skew_omega(omega, level: int) -> tuple:
    """``omega`` in Fractions; ValueError unless it is square and skew, and ``level`` an int >= 1."""
    omega = tuple(tuple(Fraction(x) for x in row) for row in omega)
    if any(len(row) != len(omega) for row in omega):
        raise ValueError("omega must be square")
    if any(omega[i][j] != -omega[j][i] for i in range(len(omega)) for j in range(len(omega))):
        raise ValueError("omega must be skew-symmetric")
    _check_level(level)
    return omega


def _check_index(n, rank: int, error=NotLieElement) -> None:
    """A generator index is a nonzero nonnegative vector of the rank."""
    if not is_positive_vector(n) or len(n) != rank:
        raise error("bad generator index %r" % (n,))


class PbwAlgebra:
    """Context object: rank, pairing matrix and truncation level.

    Elements keep a reference to their algebra; two algebras compare equal
    when they share omega and level, so elements produced by independently
    constructed contexts interoperate.
    """

    __slots__ = ("rank", "omega", "level", "_straighten_cache")

    def __init__(self, omega, level: int):
        self.omega = _skew_omega(omega, level)
        self.rank = len(self.omega)
        self.level = level
        self._straighten_cache: dict[Monomial, dict[Monomial, Fraction]] = {}

    def __eq__(self, other):
        if not isinstance(other, PbwAlgebra):
            return NotImplemented
        return self.omega == other.omega and self.level == other.level

    def __hash__(self):
        return hash((self.omega, self.level))

    def __repr__(self):
        return "PbwAlgebra(rank=%d, level=%d)" % (self.rank, self.level)

    # -- scalars and generators ---------------------------------------------

    def pairing(self, n: Vector, m: Vector) -> Fraction:
        return sum(map(mul, _omega_row(self.omega, n), m), _ZERO)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, {})

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, {(): _ONE})

    def lie_element(self, coefficients) -> "AlgebraElement":
        """Linear combination of generators from a {vector: coefficient} map."""
        terms = {}
        for n, c in coefficients.items():
            n = tuple(n)
            _check_index(n, self.rank)
            if degree(n) <= self.level:
                terms[(n,)] = Fraction(c)
        return AlgebraElement(self, terms)

    # -- straightening -------------------------------------------------------

    def _straighten(self, word: Monomial) -> dict[Monomial, Fraction]:
        """PBW normal form of a word of generators, as monomial -> coefficient.

        Rewrites the first out-of-order adjacent pair and recurses; results
        are memoized per word.  Total degree is invariant, so no truncation
        happens here -- callers filter by degree before asking.
        """
        cached = self._straighten_cache.get(word)
        if cached is not None:
            return cached
        spot = -1
        for i in range(len(word) - 1):
            if letter_key(word[i]) > letter_key(word[i + 1]):
                spot = i
                break
        if spot < 0:
            result = {word: _ONE}
        else:
            a, b = word[spot], word[spot + 1]
            swapped = word[:spot] + (b, a) + word[spot + 2:]
            result = dict(self._straighten(swapped))
            coef = self.pairing(a, b)
            if coef:
                merged = word[:spot] + (vec_add(a, b),) + word[spot + 2:]
                for mono, c in self._straighten(merged).items():
                    result[mono] = result.get(mono, _ZERO) + coef * c
                result = {mono: c for mono, c in result.items() if c}
        self._straighten_cache[word] = result
        return result

    # -- exponential group ----------------------------------------------------

    def identity(self) -> "GroupElement":
        return GroupElement(self.one(), {})

    def exp(self, a: "AlgebraElement") -> "GroupElement":
        """Exponential of a Lie element (combination of single generators).

        When every letter is a multiple of one primitive ``n``, the letters
        commute, and the element keeps the log alone: its carrier is written
        by ``_ray_words`` the first time ``carrier`` is read.  Every wall
        element is built this way, and the rank-2 sweeps and diagram
        documents read only its log.  Off one ray the power series
        sum_k a^k / k! is multiplied out.  Either way the log is kept.
        """
        self._check_member(a)
        log_terms = _require_lie(a)
        if _on_one_ray(log_terms):
            return GroupElement._of_ray_log(self, log_terms)
        carrier = _series(self.one(), a, lambda k: Fraction(1, factorial(k)))
        return GroupElement(carrier, log_terms)

    def dilog(self, n, exponent) -> "GroupElement":
        """The wall element Psi[n]^exponent = exp(c * sum_j (-1)^(j+1)/j^2 X_{jn}).

        Power additivity Psi[n]^a Psi[n]^b = Psi[n]^(a+b) holds exactly because
        all the X_{jn} commute with one another.
        """
        n = tuple(n)
        _check_index(n, self.rank)
        return self.exp(self.lie_element(dilog_log_terms(n, exponent, self.level)))

    # -- projection ------------------------------------------------------------

    def project(self, x, new_level: int):
        """Push an element (algebra or group) down to a coarser truncation."""
        _check_level(new_level)
        if new_level > self.level:
            raise LevelMismatch(
                "cannot project level %d up to %d" % (self.level, new_level)
            )
        self._check_member(x)
        if isinstance(x, GroupElement):
            log = x._log_terms and {n: c for n, c in x._log_terms.items() if degree(n) <= new_level}
            if x._carrier is None:  # a one-ray exp projects to the exp of its cut log
                return GroupElement._of_ray_log(PbwAlgebra(self.omega, new_level), log)
            return GroupElement(self.project(x.carrier, new_level), log)
        if new_level == self.level:
            return x
        target = PbwAlgebra(self.omega, new_level)
        terms = {
            m: c for m, c in x.terms.items() if monomial_degree(m) <= new_level
        }
        return AlgebraElement(target, terms)

    def _check_member(self, a: "AlgebraElement"):
        if a.algebra.omega != self.omega:
            raise ValueError("element belongs to a different algebra")
        if a.algebra.level != self.level:
            raise LevelMismatch(
                "element lives at level %d, not %d" % (a.algebra.level, self.level)
            )


def _series(start: "AlgebraElement", x: "AlgebraElement", coeff) -> "AlgebraElement":
    """start + sum_(k >= 1) coeff(k) x^k, up to the first power that truncates to 0.

    Every power of an x without constant term vanishes above the level, so
    the sum is finite.
    """
    result = start
    power = x.algebra.one()
    for k in range(1, x.algebra.level + 1):
        power = power * x
        if not power.terms:
            break
        result = result + power * coeff(k)
    return result


def _require_lie(a: "AlgebraElement") -> dict[Vector, Fraction]:
    terms = {}
    for m, c in a.terms.items():
        if len(m) != 1:
            raise NotLieElement("element has a non-generator monomial %r" % (m,))
        terms[m[0]] = c
    return terms


def _on_one_ray(log_terms) -> bool:
    return len({primitive(n) for n in log_terms}) <= 1


def _ray_words(log_terms, level: int):
    """Yield the words of exp(sum_v c_v X_v), every v on one ray, in
    ``sorted_terms`` order, each with its coefficient as a numerator and a
    positive denominator in lowest terms.

    The letters commute, so

        exp(sum_v c_v X_v) = sum prod_v c_v^(m_v) / m_v!  v_1^(m_1) v_2^(m_2) ...

    over the multiplicities (m_v) with sum_v m_v deg(v) <= level, the letters
    sorted by degree; each such word is already in PBW normal form, and is
    its parent (less its last letter v) times c_v / m, m the copies of v.
    Letters on one ray have distinct degrees, which ``letter_key`` compares
    first, so a heap keyed by (total degree, letter degrees) pops the words
    in ``monomial_key`` order: each pop yields a word, with one gcd, and
    pushes its children, whose keys exceed its own.
    """
    letters = sorted((degree(v), v, c.numerator, c.denominator) for v, c in log_terms.items())
    # (degree, letter degrees, word, numerator, denominator, last letter, its copies)
    heap = [(0, (), (), 1, 1, 0, 0)]
    while heap:
        used, degrees, word, num, den, last, copies = heappop(heap)
        g = gcd(num, den)
        num, den = num // g, den // g
        yield word, num, den
        for k in range(last, len(letters)):
            d, v, cn, cd = letters[k]
            if used + d > level:
                break
            m = copies + 1 if k == last else 1
            heappush(heap, (used + d, degrees + (d,), word + (v,), num * cn, den * cd * m, k, m))


class AlgebraElement:
    """Finite Fraction-combination of PBW monomials at a fixed level.

    Instances are immutable by convention; arithmetic returns new elements.
    Zero coefficients are dropped here, so arithmetic only adds.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: PbwAlgebra, terms: dict[Monomial, Fraction]):
        self.algebra = algebra
        self.terms = {m: c for m, c in terms.items() if c}

    # comparisons ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        return hash(
            (self.algebra, frozenset((m, c) for m, c in self.terms.items()))
        )

    # arithmetic ---------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self.algebra._check_member(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, _ZERO) + c
        return AlgebraElement(self.algebra, out)

    def __neg__(self):
        return AlgebraElement(self.algebra, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self._product(other)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def _scaled(self, scalar):
        c = Fraction(scalar)
        return AlgebraElement(self.algebra, {m: c * v for m, v in self.terms.items()})

    def _product(self, other: "AlgebraElement") -> "AlgebraElement":
        self.algebra._check_member(other)
        alg = self.algebra
        level = alg.level
        right = [(m, monomial_degree(m), c) for m, c in other.terms.items()]
        out: dict[Monomial, Fraction] = {}
        for u, cu in self.terms.items():
            du = monomial_degree(u)
            for v, dv, cv in right:
                if du + dv > level:
                    continue
                scale = cu * cv
                for w, cw in alg._straighten(u + v).items():
                    out[w] = out.get(w, _ZERO) + scale * cw
        return AlgebraElement(alg, out)

    # structure ------------------------------------------------------------------

    def constant(self) -> Fraction:
        return self.terms.get((), _ZERO)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: monomial_key(item[0]))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.sorted_terms():
            mono = "".join("X(%s)" % ",".join(str(x) for x in n) for n in m) or "1"
            bits.append("%s*%s" % (c, mono))
        return " + ".join(bits)


class GroupElement:
    """Grouplike element: exp of a Lie element, constant term 1.

    The logarithm is cached when known (exp keeps it) and recovered by the
    usual series otherwise.  Products of grouplike elements are grouplike
    because the bracket of two generators is again a multiple of a generator.
    An exp on one ray, or one read back, holds its log alone until ``carrier`` is read.
    """

    __slots__ = ("_algebra", "_carrier", "_log_terms")

    def __init__(self, carrier: AlgebraElement, log_terms=None):
        if carrier.constant() != 1:
            raise NotGrouplike("group elements must have constant term 1")
        self._algebra, self._carrier, self._log_terms = carrier.algebra, carrier, log_terms

    @classmethod
    def _of_ray_log(cls, algebra: PbwAlgebra, log_terms) -> "GroupElement":
        """exp of a log on one ray, its carrier left for ``carrier`` to build."""
        g = cls.__new__(cls)
        g._algebra, g._carrier, g._log_terms = algebra, None, log_terms
        return g

    @property
    def algebra(self) -> PbwAlgebra:
        return self._algebra

    @property
    def carrier(self) -> AlgebraElement:
        """The element in PBW normal form; read-only."""
        if self._carrier is None:
            words = _ray_words(self._log_terms, self._algebra.level)
            terms = {word: Fraction(num, den) for word, num, den in words}
            self._carrier = AlgebraElement(self._algebra, terms)
        return self._carrier

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.carrier == other.carrier

    def __hash__(self):
        return hash(self.carrier)

    def __mul__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return GroupElement(self.carrier * other.carrier)

    def log_terms(self) -> dict[Vector, Fraction]:
        """Coefficients of log(g) on the generators; NotGrouplike otherwise."""
        if self._log_terms is None:
            alg = self.algebra
            u = self.carrier - alg.one()
            series = _series(alg.zero(), u, lambda k: Fraction((-1) ** (k + 1), k))
            terms = {}
            for m, c in series.terms.items():
                if len(m) != 1:
                    raise NotGrouplike(
                        "log has a length-%d monomial %r" % (len(m), m)
                    )
                terms[m[0]] = c
            self._log_terms = terms
        return dict(self._log_terms)

    def is_identity(self) -> bool:
        return self.carrier == self.algebra.one()

    def project(self, new_level: int) -> "GroupElement":
        return self.algebra.project(self, new_level)

    def __repr__(self):
        return "exp-group<%r>" % (self.carrier,)


# ---------------------------------------------------------------------------
# torus action


def _exact(x):
    """An integral Fraction as an int, so that integral series stay int."""
    return x.numerator if x.denominator == 1 else x


def _quotient(s, k: int):
    if isinstance(s, int) and not s % k:
        return s // k
    return _exact(Fraction(s, k))


def _binomial_series(x, length: int) -> list:
    """binom(x, k) for k = 0..length; ints when x is an integer.

    A nonnegative integer x ends the list at k = x, as every later term is 0.
    """
    x = _exact(x)
    if isinstance(x, int) and 0 <= x < length:
        length = x
    out = [1]
    for k in range(1, length + 1):
        out.append(_quotient(out[-1] * (x - k + 1), k))
    return out


def ray_coefficients(n: Vector, log_terms) -> dict[int, object]:
    """``{j: j^2 * c_j}``, the ``apply_ray`` form of ``{jn: c_j}``, n primitive, j >= 1."""
    a, dn = {}, degree(n)
    for v, c in log_terms.items():
        j = degree(v) // dn
        if j < 1 or vec_scale(j, n) != tuple(v):
            raise ValueError("wall log is not supported on multiples of %r" % (n,))
        a[j] = _exact(c * (j * j))  # c is an int or a Fraction
    return a


def _exp_series(a: dict, psi, length: int, prefix=(1,)) -> list:
    """Coefficients e_0..e_length of exp(P(t)), where t P'(t) = psi * sum_j a_j t^j.

    Differentiating E = exp(P) gives k e_k = psi * sum_j a_j e_(k-j), so each
    coefficient needs only the ones before it: the list continues ``prefix``,
    the first coefficients of this same series.
    """
    e = list(prefix)
    for k in range(len(e), length + 1):
        s = sum((a_j * e[k - j] for j, a_j in a.items() if j <= k), 0)
        e.append(_quotient(psi * s, k))
    return e


class RaySeries:
    """The factor series of an apply along one ray, for every psi it meets.

    ``a`` holds the ``ray_coefficients`` of the log; calling with
    ``(psi, length)`` returns at least e_0..e_length of ``_exp_series(a,
    psi, length)``.  Each psi's series is kept and extended by prefix, so a
    wall crossed by many sweeps builds each coefficient once.
    """

    __slots__ = ("a", "by_psi")

    def __init__(self, a: dict):
        self.a = a
        self.by_psi: dict[object, list] = {}

    def __call__(self, psi, length: int) -> list:
        e = self.by_psi.get(psi)
        if e is None or len(e) <= length:
            e = self.by_psi[psi] = _exp_series(self.a, psi, length, e or (1,))
        return e


class TorusAction:
    """A truncated group element through its action on one torus monomial.

    ``X_n`` acts on ``z^(a,u)`` by ``(omega(n, a) + <n, u>) z^(a+n, u)``;
    these derivations satisfy ``[X_n, X_m] = omega(n, m) X_(n+m)`` for any
    skew ``omega``, so group elements act by ring automorphisms.  With
    ``u = (1, ..., 1)`` the instance tracks ``series``, the image of
    ``z^(0,u)`` divided by ``z^(0,u)``: a series in ``y^m = z^(m,0)`` over
    exponents ``m`` in N^r, truncated above ``level``, with exact int or
    Fraction coefficients.  It starts at the identity, and each ``apply_*``
    left-multiplies, as ``path_ordered_product`` does.

    The action is faithful: when the log of the element has lowest-degree
    part ``sum c_n X_n``, the series is ``1 + sum c_n deg(n) y^n`` plus terms
    of higher degree.  So the element is the identity exactly when the series
    is 1, and the lowest log terms read off as ``[y^n] series / deg(n)``.
    g and h act alike exactly when h^-1 g = 1, whose lowest log terms read off
    their series' difference the same way: h moves each y^n only by higher terms.

    ``steps[n]`` is ``(row, chains)``: ``row`` is omega(n, -), and ``chains[m]``
    holds what an apply along ``n`` needs of the exponent ``m``: psi = deg(n) +
    omega(n, m), deg(m), and the chain tail ``m + n, m + 2n, ...``, extended on
    demand and cut to each apply's level; F(0) = 1 leaves y^m itself in place.
    ``binomials[x, length]`` is the ``_binomial_series`` of a dilog apply with
    x = c * psi.  The tables are filled on first use and shared by copies and
    by ``identity_at``, so one check or completion builds them once for all its
    levels: one row per normal applied, at most one entry per normal and
    monomial up to the top level, and one series per distinct (x, length).
    """

    __slots__ = ("omega", "level", "series", "steps", "binomials")

    def __init__(self, omega, level: int):
        self.omega = tuple(tuple(map(_exact, row)) for row in _skew_omega(omega, level))
        self.level = level
        self.series: dict[Vector, object] = {(0,) * len(self.omega): 1}
        self.steps: dict[Vector, tuple[tuple, dict[Vector, tuple]]] = {}
        self.binomials: dict[tuple, list] = {}

    def copy(self) -> "TorusAction":
        """An independent action for the same element.

        The series dict is shared: ``apply_ray`` replaces it and never mutates
        it.  So are the tables, whose entries serve every level.
        """
        other = TorusAction.__new__(TorusAction)
        other.omega, other.level, other.series = self.omega, self.level, self.series
        other.steps, other.binomials = self.steps, self.binomials
        return other

    def identity_at(self, level: int) -> "TorusAction":
        """The identity at ``level``, sharing this action's tables."""
        _check_level(level)
        other = self.copy()
        other.level, other.series = level, {(0,) * len(self.omega): 1}
        return other

    def apply_dilog(self, n: Vector, c) -> None:
        """Left-multiply by Psi[n]^c: y^m -> y^m (1 + y^n)^(c * psi)."""
        if type(c) is not int:
            c = _exact(Fraction(c))
        self.apply_ray(tuple(n), lambda psi, length: self._binomial(c * psi, length))

    def _binomial(self, x, length: int) -> list:
        f = self.binomials.get((x, length))
        if f is None:
            f = self.binomials[x, length] = _binomial_series(x, length)
        return f

    def apply_wall(self, log_terms) -> None:
        """Left-multiply by exp(sum_j c_j X_(jn)), given as ``{jn: c_j}``.

        The terms must lie on multiples of one primitive ``n``, so that they
        commute; then y^m -> y^m exp(psi * h(y^n)) with h(t) = sum_j j c_j t^j.
        """
        for v in log_terms:
            _check_index(v, len(self.omega))
        if log_terms:
            n = primitive(next(iter(log_terms)))
            self.apply_ray(n, RaySeries(ray_coefficients(n, log_terms)))

    def apply_ray(self, n: Vector, series) -> None:
        """y^m -> y^m * F(y^n), F's coefficients from ``series(psi, length)``,
        a wall's ``RaySeries`` or a dilog's binomial series.

        The output starts as the series it maps, F(0) being 1 (else
        ValueError), and each m adds F(j) y^(m + jn), j >= 1, along its tail
        in ``steps``; psi is shared by many m, so each F is fetched and checked
        once per call.  F may stop short of the tail or run past it.  A bad
        ``n`` is NotLieElement, checked while it has no table.
        """
        dn = degree(n)
        level = self.level
        entry = self.steps.get(n)
        if entry is None:
            _check_index(n, len(self.omega))
            if dn > level:
                return
            entry = self.steps[n] = (_omega_row(self.omega, n), {})
        w, table = entry
        factors_by_psi = {}
        out = dict(self.series)
        for m, coeff in self.series.items():
            step = table.get(m)
            if step is None:
                step = table[m] = (dn + sum(map(mul, w, m)), degree(m), [])
            psi, dm, tail = step
            factors = factors_by_psi.get(psi)
            if factors is None:
                factors = series(psi, level // dn)
                if factors[0] != 1:
                    raise ValueError("F(0) is %r, not 1, at psi = %r" % (factors[0], psi))
                factors = factors_by_psi[psi] = factors[1:]
            count = (level - dm) // dn
            if count:
                if len(tail) != count:
                    while len(tail) < count:
                        tail.append(tuple(map(add, tail[-1] if tail else m, n)))
                    tail = tail[:count]
                for f, target in zip(factors, tail):
                    if f:
                        out[target] = out.get(target, 0) + coeff * f
        self.series = {m: c for m, c in out.items() if c}

    def is_identity(self) -> bool:
        # the constant term is always 1: every factor fixes it
        return len(self.series) == 1

    def lowest_log_terms(self, base=None) -> dict[Vector, Fraction]:
        """Lowest-degree part of the log of ``base^-1 * self``, or of self
        when ``base`` is None; empty when that element is the identity."""
        diff = dict(self.series)
        for m, c in (base.series if base else {}).items():
            diff[m] = diff.get(m, 0) - c
        terms = {m: c for m, c in diff.items() if c and any(m)}
        low = min(map(degree, terms), default=0)
        return {m: Fraction(c, low) for m, c in terms.items() if degree(m) == low}


# ---------------------------------------------------------------------------
# serialization


def element_to_json(a: AlgebraElement) -> dict:
    terms = ((m, c.numerator, c.denominator) for m, c in a.sorted_terms())
    return _terms_to_json(a.algebra.level, terms)


def _terms_to_json(level: int, terms) -> dict:
    """The element document of ``(monomial, numerator, denominator)`` triples
    in ``sorted_terms`` order, each coefficient in lowest terms as ``str`` of
    a Fraction writes it."""
    return {
        "level": level,
        "terms": [
            {
                "monomial": [list(n) for n in m],
                "coeff": str(num) if den == 1 else "%d/%d" % (num, den),
            }
            for m, num, den in terms
        ],
    }


_COEFF = re.compile(r"-?[0-9]+(/[0-9]+)?")  # str(Fraction); Fraction() reads far more


def element_from_json(doc, omega) -> AlgebraElement:
    try:
        if not is_int(doc["level"]):
            raise BadInput("element level must be an integer, got %r" % (doc["level"],))
        alg = PbwAlgebra(omega, doc["level"])
        terms: dict[Monomial, Fraction] = {}
        for rec in require_list(doc["terms"], "terms"):
            mono = tuple(tuple(n) for n in require_list(rec["monomial"], "monomial"))
            coeff = rec["coeff"]
            if not (is_int(coeff) or isinstance(coeff, str) and _COEFF.fullmatch(coeff)):
                raise BadInput("coefficient must be an integer, p or p/q, got %r" % (coeff,))
            coeff = Fraction(coeff)
            for n in mono:
                _check_index(n, alg.rank, BadInput)
            if list(mono) != sorted(mono, key=letter_key):
                raise BadInput("monomial %r is not in PBW order" % (mono,))
            if monomial_degree(mono) > alg.level:
                raise BadInput("monomial above the stated level")
            terms[mono] = terms.get(mono, _ZERO) + coeff
        return AlgebraElement(alg, terms)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise BadInput("malformed element document: %s" % exc) from exc


def group_from_json(doc, omega) -> GroupElement:
    """The exp of the document's one-letter terms, its log, on one ray (else
    BadInput), holding that log alone.  Each word ``_ray_words`` yields from
    it must be in the record with that coefficient, the walk stopping at the
    first that is not, and no other word may be: else NotGrouplike."""
    carrier = element_from_json(doc, omega)
    if carrier.constant() != 1:
        raise BadInput("group element must have constant term 1")
    terms, algebra = carrier.terms, carrier.algebra
    log = {m[0]: c for m, c in terms.items() if len(m) == 1}
    if not _on_one_ray(log):
        raise BadInput("group element's one-letter terms are not on one ray")
    for word, num, den in _ray_words(log, algebra.level):
        c = terms.pop(word, _ZERO)
        if c.numerator != num or c.denominator != den:
            raise NotGrouplike("exp of the one-letter terms has %r with coefficient %s"
                               % (word, Fraction(num, den)))
    if terms:
        raise NotGrouplike("term %r is not the exp of the one-letter terms" % (next(iter(terms)),))
    return GroupElement._of_ray_log(algebra, log)
