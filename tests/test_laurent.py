import random
from fractions import Fraction

import pytest

from greenfan import (
    Inhomogeneous,
    NonLaurent,
    mutate_seed,
    root_seed,
    validate_fixed_data,
)
from greenfan.laurent import (
    LaurentPoly,
    divide_exact,
    extract_c_matrix,
    extract_g_vector,
    root_symbolic_seed,
    symbolic_mutate,
)

from support import cluster_fingerprint


def mono(nvars, **powers):
    """z exponent vector from x1..x9/y1..y9 keyword names."""
    exps = [0] * nvars
    for name, e in powers.items():
        kind, idx = name[0], int(name[1:]) - 1
        exps[idx + (nvars // 2 if kind == "y" else 0)] = e
    return tuple(exps)


class TestPolynomialArithmetic:
    def test_zero_pruning(self):
        p = LaurentPoly(2, {(1, 0): Fraction(1)}) + LaurentPoly(
            2, {(1, 0): Fraction(-1)}
        )
        assert p == LaurentPoly.zero(2)

    def test_sum_and_product_keep_no_zero_term(self):
        x = LaurentPoly(2, {(1, 0): 2, (0, -1): -3})
        y = LaurentPoly(2, {(0, 1): 1, (1, 0): 5})
        assert (x - x).terms == {}
        product = (x + y) * (x - y)
        assert all(product.terms.values())
        assert product == x * x - y * y  # the cross terms cancel

    def test_product_collects_terms(self):
        x = LaurentPoly.monomial(1, (1,))
        one = LaurentPoly.monomial(1, (0,))
        assert (x + one) * (x + one) == LaurentPoly(
            1, {(2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)}
        )

    def test_negative_exponents(self):
        xinv = LaurentPoly.monomial(2, (-1, 0))
        x = LaurentPoly.monomial(2, (1, 0))
        assert xinv * x == LaurentPoly.monomial(2, (0, 0))

    def test_pow(self):
        x = LaurentPoly.monomial(1, (1,)) + LaurentPoly.monomial(1, (0,))
        assert x**3 == x * x * x


class TestExactDivision:
    def test_monomial_division(self):
        num = LaurentPoly.monomial(2, (3, 1))
        den = LaurentPoly.monomial(2, (1, 1))
        assert divide_exact(num, den) == LaurentPoly.monomial(2, (2, 0))

    def test_binomial_division(self):
        x = LaurentPoly.monomial(1, (1,))
        one = LaurentPoly.monomial(1, (0,))
        num = x * x - one
        assert divide_exact(num, x - one) == x + one

    def test_inexact_division_raises(self):
        x = LaurentPoly.monomial(1, (1,))
        one = LaurentPoly.monomial(1, (0,))
        with pytest.raises(NonLaurent):
            divide_exact(x * x + one, x + one)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divide_exact(LaurentPoly.monomial(1, (1,)), LaurentPoly.zero(1))


class TestSymbolicMutation:
    def test_first_exchange_relation(self, a2):
        seed = symbolic_mutate(root_symbolic_seed(a2), 0)
        expected = LaurentPoly(
            4,
            {mono(4, x1=-1, y1=1): Fraction(1), mono(4, x1=-1, x2=1): Fraction(1)},
        )
        assert seed.variables[0] == expected
        assert seed.variables[1] == LaurentPoly.monomial(4, mono(4, x2=1))

    def test_involution(self, finite_fixtures):
        for fd in finite_fixtures.values():
            seed = root_symbolic_seed(fd)
            for k in range(fd.rank):
                back = symbolic_mutate(symbolic_mutate(seed, k), k)
                assert back.variables == seed.variables
                assert back.coefficients == seed.coefficients
                assert back.b == seed.b

    def test_rank_one(self):
        fd = validate_fixed_data([[0]], [1])
        seed = symbolic_mutate(root_symbolic_seed(fd), 0)
        assert seed.variables[0] == LaurentPoly(
            2, {(-1, 1): Fraction(1), (-1, 0): Fraction(1)}
        )

    def test_laurent_phenomenon_along_random_walks(self, finite_fixtures, kronecker):
        rng = random.Random(2)
        cases = list(finite_fixtures.values()) + [kronecker]
        for fd in cases:
            seed = root_symbolic_seed(fd)
            for _ in range(6):
                seed = symbolic_mutate(seed, rng.randrange(fd.rank))
            # reaching here means every division along the walk was exact


class TestExtraction:
    def test_g_vector_of_first_mutation(self, a2):
        seed = symbolic_mutate(root_symbolic_seed(a2), 0)
        assert extract_g_vector(seed.variables[0], a2) == (-1, 1)
        assert extract_g_vector(seed.variables[1], a2) == (0, 1)

    def test_c_matrix_of_first_mutation(self, a2):
        seed = symbolic_mutate(root_symbolic_seed(a2), 0)
        assert extract_c_matrix(seed) == ((-1, 1), (0, 1))

    def test_matches_tropical_engine_on_walks(self, b2):
        rng = random.Random(8)
        symbolic = root_symbolic_seed(b2)
        tropical = root_seed(b2)
        for _ in range(8):
            k = rng.randrange(2)
            symbolic = symbolic_mutate(symbolic, k)
            tropical = mutate_seed(b2, tropical, k)
            assert extract_c_matrix(symbolic) == tropical.c
            for j in range(2):
                assert extract_g_vector(symbolic.variables[j], b2) == tropical.g_column(j)

    def test_inhomogeneous_rejected(self, a2):
        blended = LaurentPoly(
            4, {mono(4, x1=1): Fraction(1), mono(4, x2=2): Fraction(1)}
        )
        with pytest.raises(Inhomogeneous):
            extract_g_vector(blended, a2)

    def test_zero_has_no_degree(self, a2):
        with pytest.raises(Inhomogeneous):
            extract_g_vector(LaurentPoly.zero(4), a2)


class TestFingerprint:
    def test_root_fingerprint_is_cluster_of_units(self, a2):
        fp = cluster_fingerprint(root_symbolic_seed(a2))
        assert len(fp) == 2

    def test_pentagon_walk_returns_to_the_root_cluster(self, a2):
        seed = root_symbolic_seed(a2)
        fingerprints = [cluster_fingerprint(seed)]
        for k in (0, 1, 0, 1, 0):
            seed = symbolic_mutate(seed, k)
            fingerprints.append(cluster_fingerprint(seed))
        assert fingerprints[5] == fingerprints[0]
        assert len(set(fingerprints[:5])) == 5
