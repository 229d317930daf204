import random
from fractions import Fraction
from math import lcm

import pytest

from greenfan import (
    GroupElement,
    BadInput,
    LevelMismatch,
    NotGrouplike,
    NotLieElement,
    PbwAlgebra,
    delta_exponent,
    element_from_json,
    element_to_json,
    group_from_json,
    group_to_json,
    project,
)
from greenfan.liegroup import dilog_log_terms, monomial_degree

from support import (
    element_words,
    oracle_multiply,
    oracle_straighten,
    random_algebra_element,
    random_fixed_data,
    random_positive_vector,
)

A2_OMEGA = ((0, 1), (-1, 0))


def alg(level, omega=A2_OMEGA):
    return PbwAlgebra(omega, level)


class TestBracket:
    def test_basis_pairing(self):
        a = alg(2)
        coeff, vec = a.bracket((1, 0), (0, 1))
        assert (coeff, vec) == (1, (1, 1))

    def test_self_bracket_vanishes(self):
        a = alg(4)
        assert a.bracket((2, 1), (2, 1))[0] == 0

    def test_rescaled_pairing(self):
        # delta=(1,2) with B=[[0,1],[-2,0]] gives the same omega as A2
        coeff, vec = alg(6).bracket((2, 1), (0, 1))
        assert (coeff, vec) == (2, (2, 2))


class TestStraightening:
    def test_one_swap(self):
        a = alg(2)
        x1, x2 = a.generator((1, 0)), a.generator((0, 1))
        result = x2 * x1
        assert result.terms == {
            ((1, 0), (0, 1)): Fraction(1),
            ((1, 1),): Fraction(-1),
        }

    def test_already_ordered(self):
        a = alg(3)
        product = a.generator((1, 0)) * a.generator((1, 1))
        assert product.terms == {((1, 0), (1, 1)): Fraction(1)}
        # reversing picks up [X_{(1,1)}, X_{(1,0)}] = -X_{(2,1)}
        reversed_product = a.generator((1, 1)) * a.generator((1, 0))
        assert reversed_product.terms == {
            ((1, 0), (1, 1)): Fraction(1),
            ((2, 1),): Fraction(-1),
        }

    def test_truncation_drops_overflow(self):
        a = alg(1)
        assert (a.generator((1, 0)) * a.generator((0, 1))).terms == {}

    def test_engine_matches_word_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            fd = random_fixed_data(rng)
            level = rng.randint(2, 6)
            a = PbwAlgebra(fd.omega, level)
            x = random_algebra_element(a, rng)
            y = random_algebra_element(a, rng)
            engine = element_words(x * y)
            oracle = oracle_multiply(
                element_words(x), element_words(y), fd.omega, level
            )
            assert engine == oracle

    def test_associativity(self):
        rng = random.Random(7)
        for _ in range(100):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(2, 5))
            x, y, z = (random_algebra_element(a, rng) for _ in range(3))
            assert (x * y) * z == x * (y * z)

    def test_grading(self):
        rng = random.Random(13)
        fd = random_fixed_data(rng, rank=2)
        a = PbwAlgebra(fd.omega, 6)
        x, y = a.generator((2, 1)), a.generator((1, 1)) * a.generator((0, 1))
        for mono in (x * y).terms:
            assert monomial_degree(mono) == 6

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            alg(2).generator((1, 0)) * alg(3).generator((1, 0))

    @pytest.mark.parametrize("level", [3.9, 2.5, True, 0])
    def test_level_must_be_a_positive_int(self, level):
        with pytest.raises(ValueError):
            PbwAlgebra(A2_OMEGA, level)
        with pytest.raises(ValueError):
            project(alg(4).generator((1, 0)), level)

    def test_mixed_omega_rejected(self):
        other = PbwAlgebra(((0, 2), (-2, 0)), 2)
        with pytest.raises(ValueError):
            alg(2).generator((1, 0)) * other.generator((1, 0))


class TestExpLog:
    def test_exp_zero(self):
        a = alg(3)
        assert a.exp(a.zero()).is_identity()

    def test_exp_level_one(self):
        a = alg(1)
        g = a.exp(a.generator((1, 0)))
        assert g.carrier.terms == {(): Fraction(1), ((1, 0),): Fraction(1)}

    def test_exp_log_inverse_both_ways(self):
        rng = random.Random(31)
        for _ in range(40):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 8)
            a = PbwAlgebra(fd.omega, level)
            coeffs = {
                random_positive_vector(rng, fd.rank): Fraction(
                    rng.randint(-4, 4), rng.randint(1, 3)
                )
                for _ in range(rng.randint(1, 3))
            }
            x = a.lie_element(coeffs)
            assert a.log(a.exp(x)) == x
            g = a.exp(x)
            assert a.exp(a.log(g)) == g

    def test_bch_degree_two(self):
        a = alg(2)
        g = a.exp(a.generator((1, 0))) * a.exp(a.generator((0, 1)))
        assert a.log(g).terms == {
            ((1, 0),): Fraction(1),
            ((0, 1),): Fraction(1),
            ((1, 1),): Fraction(1, 2),
        }

    def test_exp_rejects_non_lie(self):
        a = alg(4)
        quadratic = a.generator((1, 0)) * a.generator((1, 1))
        with pytest.raises(NotLieElement):
            a.exp(quadratic)

    def test_log_rejects_non_grouplike(self):
        a = alg(2)
        fake = a.one() + a.generator((1, 0)) * a.generator((0, 1))
        with pytest.raises(NotGrouplike):
            GroupElement(fake).log_terms()

    def test_group_inverse(self):
        rng = random.Random(47)
        for _ in range(20):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(2, 6))
            g = a.exp(
                a.lie_element(
                    {random_positive_vector(rng, fd.rank): Fraction(rng.randint(1, 3))}
                )
            )
            assert (g * g.inverse()).is_identity()
            assert (g.inverse() * g).is_identity()


class TestDilog:
    def test_level_one(self):
        g = alg(1).dilog((1, 0), 1)
        assert g.carrier.terms == {(): Fraction(1), ((1, 0),): Fraction(1)}

    def test_level_two_expansion(self):
        g = alg(2).dilog((1, 0), 1)
        assert g.carrier.terms == {
            (): Fraction(1),
            ((1, 0),): Fraction(1),
            ((1, 0), (1, 0)): Fraction(1, 2),
            ((2, 0),): Fraction(-1, 4),
        }

    def test_power_additivity(self):
        rng = random.Random(3)
        for _ in range(25):
            fd = random_fixed_data(rng, rank=2)
            a = PbwAlgebra(fd.omega, rng.randint(1, 6))
            n = random_positive_vector(rng, 2)
            c1 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            c2 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert a.dilog(n, c1) * a.dilog(n, c2) == a.dilog(n, c1 + c2)

    def test_inverse_pairs(self):
        rng = random.Random(5)
        for _ in range(20):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(1, 6))
            n = random_positive_vector(rng, fd.rank)
            assert (a.dilog(n, 1) * a.dilog(n, -1)).is_identity()

    def test_parallel_elements_commute(self):
        a = alg(8)
        n = (1, 1)
        g1, g2 = a.dilog(n, Fraction(1, 2)), a.dilog((2, 2), 3)
        assert g1 * g2 == g2 * g1

    def test_log_terms_closed_form(self):
        rng = random.Random(37)
        for _ in range(25):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 6)
            a = PbwAlgebra(fd.omega, level)
            n = random_positive_vector(rng, fd.rank)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            g = a.dilog(n, c)
            want = dilog_log_terms(n, c, level)
            assert want == g.log_terms()
            # the log series on the carrier, bypassing the log cached by exp
            assert want == GroupElement(g.carrier).log_terms()


class TestDeltaExponent:
    def test_unit_lattice(self):
        assert delta_exponent((1, 1), (1, 1)) == 1

    def test_rescaled_examples(self):
        assert delta_exponent((1, 1), (2, 1)) == 2
        assert delta_exponent((2, 1), (2, 1)) == 1
        assert delta_exponent((1, 1), (1, 2)) == 2
        assert delta_exponent((1, 2), (1, 2)) == 1

    def test_basis_vectors(self):
        for delta in [(1, 3), (2, 1), (4, 6)]:
            for i in range(2):
                e = tuple(1 if j == i else 0 for j in range(2))
                assert delta_exponent(e, delta) == delta[i]

    def test_non_primitive_input(self):
        # 4*e1 with delta_1 = 2: already 2*(2 e1) in the finer lattice at t=1/2
        assert delta_exponent((4, 0), (2, 1)) == Fraction(1, 2)

    def test_matches_brute_force_search(self):
        rng = random.Random(11)
        for _ in range(60):
            rank = rng.choice((2, 3))
            delta = tuple(rng.choice((1, 2, 3)) for _ in range(rank))
            n = random_positive_vector(rng, rank)
            bound = lcm(*delta)
            candidates = sorted(
                {
                    Fraction(num, den)
                    for den in range(1, bound * 4 + 1)
                    for num in range(1, bound * den + 1)
                }
            )
            smallest = next(
                t
                for t in candidates
                if all((t * x) % d == 0 for x, d in zip(n, delta))
            )
            assert delta_exponent(n, delta) == smallest


class TestProjection:
    def test_identity_on_own_level(self):
        a = alg(4)
        g = a.dilog((1, 0), 2)
        assert project(g, 4) == g

    def test_dilog_to_level_one(self):
        g = alg(5).dilog((1, 0), 1)
        p = project(g, 1)
        assert p.carrier.terms == {(): Fraction(1), ((1, 0),): Fraction(1)}

    def test_group_homomorphism(self):
        rng = random.Random(17)
        for _ in range(100):
            fd = random_fixed_data(rng)
            level = rng.randint(2, 6)
            a = PbwAlgebra(fd.omega, level)
            lower = rng.randint(1, level)
            g = a.dilog(random_positive_vector(rng, fd.rank), rng.randint(1, 3))
            h = a.dilog(random_positive_vector(rng, fd.rank), rng.randint(-3, -1))
            assert project(g * h, lower) == project(g, lower) * project(h, lower)

    def test_refuses_up_projection(self):
        with pytest.raises(LevelMismatch):
            project(alg(2).dilog((1, 0), 1), 3)


class TestSerialization:
    def test_element_round_trip(self):
        rng = random.Random(23)
        for _ in range(20):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(1, 5))
            x = random_algebra_element(a, rng)
            doc = element_to_json(x)
            assert element_from_json(doc, fd.omega) == x

    def test_group_round_trip(self):
        rng = random.Random(29)
        for _ in range(20):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(1, 6))
            g = a.dilog(random_positive_vector(rng, fd.rank), rng.randint(1, 2))
            doc = group_to_json(g)
            assert group_from_json(doc, fd.omega) == g

    def test_rejects_unordered_monomial(self):
        doc = {
            "level": 2,
            "terms": [{"monomial": [[0, 1], [1, 0]], "coeff": "1"}],
        }
        with pytest.raises(BadInput):
            element_from_json(doc, A2_OMEGA)

    def test_rejects_overlevel_monomial(self):
        doc = {"level": 1, "terms": [{"monomial": [[1, 1]], "coeff": "1"}]}
        with pytest.raises(BadInput):
            element_from_json(doc, A2_OMEGA)

    def test_rejects_non_positive_vector(self):
        doc = {"level": 2, "terms": [{"monomial": [[-1, 1]], "coeff": "1"}]}
        with pytest.raises(BadInput):
            element_from_json(doc, A2_OMEGA)

    def test_rejects_fractional_monomial_entry(self):
        doc = {"level": 2, "terms": [{"monomial": [[1.7, 0]], "coeff": "1"}]}
        with pytest.raises(BadInput):
            element_from_json(doc, A2_OMEGA)

    @pytest.mark.parametrize("coeff", [0.1, 1.0, True])
    def test_rejects_non_exact_coefficient(self, coeff):
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": coeff}]}
        with pytest.raises(BadInput):
            element_from_json(doc, A2_OMEGA)

    def test_accepts_integer_coefficient(self):
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": 3}]}
        assert element_from_json(doc, A2_OMEGA) == alg(2).generator((1, 0)) * 3

    def test_rejects_non_grouplike_document(self):
        a = alg(2)
        fake = a.one() + a.generator((1, 0)) * a.generator((0, 1))
        with pytest.raises(NotGrouplike):
            group_from_json(element_to_json(fake), A2_OMEGA)
