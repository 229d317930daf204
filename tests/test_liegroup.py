import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial, lcm

import pytest

from greenfan import (
    AlgebraElement,
    GroupElement,
    BadInput,
    complete_rank2,
    LevelMismatch,
    NotGrouplike,
    NotLieElement,
    PbwAlgebra,
    delta_exponent,
    element_from_json,
    element_to_json,
    group_from_json,
    validate_fixed_data,
)
from greenfan import liegroup
from greenfan.liegroup import (
    RaySeries,
    TorusAction,
    _binomial_series,
    _exp_series,
    _omega_row,
    _ray_words,
    degree,
    dilog_log_terms,
    monomial_degree,
    ray_coefficients,
)
from greenfan.linalg import primitive

from support import (
    element_words,
    oracle_multiply,
    power_series_exp,
    random_algebra_element,
    random_fixed_data,
    random_positive_vector,
)

A2_OMEGA = ((0, 1), (-1, 0))


def alg(level, omega=A2_OMEGA):
    return PbwAlgebra(omega, level)


def commutator(a, n, m):
    x, y = a.lie_element({n: 1}), a.lie_element({m: 1})
    return x * y - y * x


class TestBracket:
    """[X_n, X_m] = {n, m} X_{n+m}, with {n, m} the algebra's ``pairing``."""

    def test_basis_pairing(self):
        a = alg(2)
        assert a.pairing((1, 0), (0, 1)) == 1
        assert commutator(a, (1, 0), (0, 1)) == a.lie_element({(1, 1): 1})

    def test_self_bracket_vanishes(self):
        a = alg(4)
        assert a.pairing((2, 1), (2, 1)) == 0

    def test_rescaled_pairing(self):
        # delta=(1,2) with B=[[0,1],[-2,0]] gives the same omega as A2
        a = alg(6)
        assert a.pairing((2, 1), (0, 1)) == 2
        assert commutator(a, (2, 1), (0, 1)) == a.lie_element({(2, 2): 2})


class TestOmegaRow:
    """``pairing`` reads omega(n, -) from ``_omega_row``, as ``TorusAction.steps`` does."""

    def test_pairing_is_the_explicit_sum(self, b2, g2):
        rng = random.Random("omega-row")
        for omega in [b2.omega, g2.omega] + [random_fixed_data(rng).omega for _ in range(30)]:
            r = range(len(omega))
            a = PbwAlgebra(omega, 4)
            for _ in range(10):
                n, m = (random_positive_vector(rng, len(omega)) for _ in range(2))
                explicit = sum(n[i] * omega[i][j] * m[j] for i in r for j in r)
                assert a.pairing(n, m) == explicit == -a.pairing(m, n)


class TestZeroTerms:
    """Elements drop zero coefficients when built, so arithmetic only adds."""

    def test_zero_coefficient_is_dropped_on_construction(self):
        a = alg(3)
        m, m2 = ((1, 0),), ((1, 0), (0, 1))
        with_zero = AlgebraElement(a, {m: Fraction(0), m2: Fraction(2)})
        plain = AlgebraElement(a, {m2: Fraction(2)})
        assert with_zero == plain and hash(with_zero) == hash(plain)
        assert with_zero.terms == {m2: 2}

    def test_arithmetic_keeps_no_zero_coefficient(self):
        rng = random.Random("zero-terms")
        for trial in range(100):
            fd = random_fixed_data(rng)
            level = rng.randint(2, 6)
            a = PbwAlgebra(fd.omega, level)
            x, y = random_algebra_element(a, rng), random_algebra_element(a, rng)
            product = x * y
            for result in (x - x, 0 * x, x + y, product, product - y * x):
                assert all(result.terms.values()), trial
            assert (x - x).terms == (0 * x).terms == {}
            oracle = oracle_multiply(element_words(x), element_words(y), fd.omega, level)
            assert element_words(product) == oracle, trial

    def test_cancelling_records_read_back_as_zero(self):
        doc = {
            "level": 2,
            "terms": [
                {"monomial": [[1, 0]], "coeff": "3/2"},
                {"monomial": [[1, 0]], "coeff": "-3/2"},
            ],
        }
        x = element_from_json(doc, A2_OMEGA)
        assert x == alg(2).zero() and x.terms == {}


class TestStraightening:
    def test_one_swap(self):
        a = alg(2)
        x1, x2 = a.lie_element({(1, 0): 1}), a.lie_element({(0, 1): 1})
        result = x2 * x1
        assert result.terms == {
            ((1, 0), (0, 1)): Fraction(1),
            ((1, 1),): Fraction(-1),
        }

    def test_already_ordered(self):
        a = alg(3)
        product = a.lie_element({(1, 0): 1}) * a.lie_element({(1, 1): 1})
        assert product.terms == {((1, 0), (1, 1)): Fraction(1)}
        # reversing picks up [X_{(1,1)}, X_{(1,0)}] = -X_{(2,1)}
        reversed_product = a.lie_element({(1, 1): 1}) * a.lie_element({(1, 0): 1})
        assert reversed_product.terms == {
            ((1, 0), (1, 1)): Fraction(1),
            ((2, 1),): Fraction(-1),
        }

    def test_truncation_drops_overflow(self):
        a = alg(1)
        assert (a.lie_element({(1, 0): 1}) * a.lie_element({(0, 1): 1})).terms == {}

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
        x = a.lie_element({(2, 1): 1})
        y = a.lie_element({(1, 1): 1}) * a.lie_element({(0, 1): 1})
        for mono in (x * y).terms:
            assert monomial_degree(mono) == 6

    def test_level_mismatch(self):
        with pytest.raises(LevelMismatch):
            alg(2).lie_element({(1, 0): 1}) * alg(3).lie_element({(1, 0): 1})

    @pytest.mark.parametrize("level", [3.9, 2.5, True, 0])
    def test_level_must_be_a_positive_int(self, level):
        with pytest.raises(ValueError):
            PbwAlgebra(A2_OMEGA, level)
        a = alg(4)
        with pytest.raises(ValueError):
            a.project(a.lie_element({(1, 0): 1}), level)

    def test_mixed_omega_rejected(self):
        other = PbwAlgebra(((0, 2), (-2, 0)), 2)
        with pytest.raises(ValueError):
            alg(2).lie_element({(1, 0): 1}) * other.lie_element({(1, 0): 1})


class TestExpLog:
    def test_exp_zero(self):
        a = alg(3)
        assert a.exp(a.zero()).is_identity()

    def test_exp_level_one(self):
        a = alg(1)
        g = a.exp(a.lie_element({(1, 0): 1}))
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
            g = a.exp(x)
            # neither a fresh element nor a product caches its log: both run the series
            assert a.lie_element(GroupElement(g.carrier).log_terms()) == x
            square = g * g
            assert a.exp(a.lie_element(square.log_terms())) == square

    def test_bch_degree_two(self):
        a = alg(2)
        g = a.exp(a.lie_element({(1, 0): 1})) * a.exp(a.lie_element({(0, 1): 1}))
        assert g.log_terms() == {
            (1, 0): Fraction(1),
            (0, 1): Fraction(1),
            (1, 1): Fraction(1, 2),
        }

    def test_exp_rejects_non_lie(self):
        a = alg(4)
        quadratic = a.lie_element({(1, 0): 1}) * a.lie_element({(1, 1): 1})
        with pytest.raises(NotLieElement):
            a.exp(quadratic)

    @pytest.mark.parametrize("omega", [((0, 1),), ((0, 1), (1, 0))], ids=["non-square", "non-skew"])
    def test_algebra_rejects_bad_omega(self, omega):
        with pytest.raises(ValueError, match="square|skew"):
            PbwAlgebra(omega, 2)

    @pytest.mark.parametrize(
        "omega, level, message",
        [
            (((0, 1), (-1, 0)), 0, "level must be an integer >= 1"),
            (((0, 1), (-1, 0)), -1, "level must be an integer >= 1"),
            (((0, 1), (-1, 0)), True, "level must be an integer >= 1"),
            (((0, 1), (-1, 0)), 2.5, "level must be an integer >= 1"),
            (((0, 1), (-1, 0)), "3", "level must be an integer >= 1"),
            (((0, 1), (1, 0)), 3, "omega must be skew-symmetric"),
            (((0, 1), (-1,)), 3, "omega must be square"),
        ],
        ids=["level-0", "level-neg", "level-bool", "level-float", "level-str", "non-skew", "ragged"],
    )
    @pytest.mark.parametrize("engine", [PbwAlgebra, TorusAction])
    def test_engines_refuse_the_same_inputs(self, engine, omega, level, message):
        """The torus action checks omega and the level as the algebra does:
        a bad level once gave an identity action or a bare TypeError on the
        first apply, and a bad omega computed."""
        with pytest.raises(ValueError, match=message):
            engine(omega, level)

    @pytest.mark.parametrize("n", [(0, 0), (-1, 1), (1,), (1, 0, 0)])
    def test_bad_generator_index(self, n):
        a = alg(3)
        with pytest.raises(NotLieElement):
            a.lie_element({n: 1})
        with pytest.raises(NotLieElement):
            a.dilog(n, 1)

    @pytest.mark.parametrize("constant", [0, 2])
    def test_group_element_needs_constant_term_one(self, constant):
        a = alg(2)
        with pytest.raises(NotGrouplike):
            GroupElement(a.one() * constant + a.lie_element({(1, 0): 1}))

    def test_zero_vector_has_no_primitive_part(self):
        with pytest.raises(ValueError, match="zero vector"):
            primitive((0, 0))

    def test_log_rejects_non_grouplike(self):
        a = alg(2)
        fake = a.one() + a.lie_element({(1, 0): 1}) * a.lie_element({(0, 1): 1})
        with pytest.raises(NotGrouplike):
            GroupElement(fake).log_terms()


class TestSeries:
    """Off one ray, ``exp`` and ``log`` sum truncated power series."""

    def test_off_ray_exp_matches_power_series(self):
        rng = random.Random("off-ray-exp")
        for trial in range(30):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(2, 6))
            x = a.zero()
            while len({primitive(m[0]) for m in x.terms}) < 2:
                n = random_positive_vector(rng, fd.rank, max_entry=2)
                coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                x = x + a.lie_element({n: coeff})
            g = a.exp(x)
            assert g.carrier == power_series_exp(a, x), trial
            assert GroupElement(g.carrier).log_terms() == {m[0]: c for m, c in x.terms.items()}


# rank-2 patterns whose completions emit walls of many shapes
WALL_PATTERNS = {
    "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
    "G2": ([[0, 1], [-3, 0]], [1, 3]),
    "K3": ([[0, 3], [-3, 0]], [1, 1]),
}


def random_ray_log(rng, rank, level):
    """A random log on the multiples of one primitive vector, keys shuffled."""
    n = random_positive_vector(rng, rank, max_entry=2, primitive=True)
    multiples = list(range(1, level // degree(n) + 1))
    chosen = rng.sample(multiples, rng.randint(1, len(multiples))) if multiples else []
    log = {}
    for j in chosen:
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        log[tuple(j * x for x in n)] = coeff
    return log


class TestOneRayExp:
    """``exp`` on one ray is the partition formula, held against the power series."""

    @pytest.mark.parametrize("name", sorted(WALL_PATTERNS))
    def test_emitted_walls_match_power_series(self, name):
        fd = validate_fixed_data(*WALL_PATTERNS[name])
        a = PbwAlgebra(fd.omega, 16)
        diagram = complete_rank2(fd, 16)
        for wall in diagram.walls:
            log = a.lie_element(wall.element.log_terms())
            assert wall.element.carrier == power_series_exp(a, log), wall.normal
            assert a.exp(log) == wall.element

    @pytest.mark.parametrize("reverse", [False, True], ids=["indices", "reversed-indices"])
    def test_random_logs_match_power_series(self, reverse):
        rng = random.Random("one-ray-exp")  # the same draws in both index orders
        for trial in range(40):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 9)
            log = random_ray_log(rng, fd.rank, level)
            omega = fd.omega
            if reverse:
                omega = tuple(row[::-1] for row in omega[::-1])
                log = {v[::-1]: c for v, c in log.items()}
            a = PbwAlgebra(omega, level)
            x = a.lie_element(log)
            g = a.exp(x)
            assert g.carrier == power_series_exp(a, x), trial
            assert g.log_terms() == log
            assert GroupElement(g.carrier).log_terms() == log

    @pytest.mark.parametrize(
        "letters", [None, (2, 5), (3,), (1, 4), (2, 3, 7)], ids=["random", "2-5", "3", "1-4", "2-3-7"]
    )
    def test_ray_words_come_in_sorted_terms_order(self, letters):
        """The ordered words and coefficients of ``_ray_words`` are the power
        series' ``sorted_terms``, for logs with gaps in letter degree too."""
        rng = random.Random("ray-words-order-%s" % (letters,))
        for trial in range(30):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 14)
            if letters is None:
                log = random_ray_log(rng, fd.rank, level)
            else:
                n = random_positive_vector(rng, fd.rank, max_entry=2, primitive=True)
                log = {
                    tuple(j * x for x in n): Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))
                    for j in letters
                    if j * degree(n) <= level
                }
            a = PbwAlgebra(fd.omega, level)
            words = [(w, Fraction(num, den)) for w, num, den in _ray_words(log, level)]
            assert words == power_series_exp(a, a.lie_element(log)).sorted_terms(), trial

    @pytest.mark.parametrize("name", sorted(WALL_PATTERNS))
    def test_completion_never_straightens(self, name, monkeypatch):
        def refuse(self, word):
            raise AssertionError("straightened %r" % (word,))

        monkeypatch.setattr(PbwAlgebra, "_straighten", refuse)
        fd = validate_fixed_data(*WALL_PATTERNS[name])
        diagram = complete_rank2(fd, 12)
        assert diagram.walls


def apply_sequence(action, rng, level):
    """Seeded dilogs and one-ray walls applied to ``action``."""
    rank = len(action.omega)
    for _ in range(8):
        if rng.random() < 0.5:
            n = random_positive_vector(rng, rank, max_entry=2)
            action.apply_dilog(n, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        else:
            action.apply_wall(random_ray_log(rng, rank, level))


def closed_form_binomial(x, k):
    """binom(x, k): ``math.comb`` for a nonnegative int x, else the falling factorial."""
    if isinstance(x, int) and x >= 0:
        return comb(x, k)
    falling = 1
    for i in range(k):
        falling *= x - i
    return Fraction(falling) / factorial(k)


class TestBinomialSeries:
    def test_matches_the_closed_form_padded_with_zeros(self):
        """A nonnegative int x may end the list early, at k = x; the terms it
        leaves out must all be 0."""
        rng = random.Random("binomial-series")
        xs = [0, 1, 2, 9, 10, 11] + [rng.randint(-12, 12) for _ in range(12)]
        while len(xs) < 30:
            x = Fraction(rng.randint(-30, 30), rng.randint(2, 6))
            if x.denominator != 1:
                xs.append(x)
        for x in xs:
            for length in range(11):
                series = _binomial_series(x, length)
                assert 1 <= len(series) <= length + 1, (x, length)
                if isinstance(x, int):
                    assert all(type(f) is int for f in series), (x, length)
                padded = series + [0] * (length + 1 - len(series))
                expected = [closed_form_binomial(x, k) for k in range(length + 1)]
                assert padded == expected, (x, length)


class TestRayCoefficients:
    def test_signed_record_acts_as_the_signed_log(self):
        """``apply_ray`` of the ``RaySeries`` of ``ray_coefficients(n, log)``
        times ``sign``, as a crossing record signs it, is ``apply_wall`` of
        the log times ``sign``, from any prior state."""
        rng = random.Random("ray-coefficients")
        for trial in range(60):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 7)
            log = random_ray_log(rng, fd.rank, level)
            if not log:
                continue
            n, sign = primitive(next(iter(log))), rng.choice((1, -1))
            seed = rng.random()
            record, signed = TorusAction(fd.omega, level), TorusAction(fd.omega, level)
            apply_sequence(record, random.Random(seed), level)
            apply_sequence(signed, random.Random(seed), level)
            table = ray_coefficients(n, log)
            record.apply_ray(n, RaySeries({j: sign * c for j, c in table.items()}))
            signed.apply_wall({v: sign * c for v, c in log.items()})
            assert record.series == signed.series, trial

    @pytest.mark.parametrize("log", [{(-1, -1): 1}, {(0, 0): 5}], ids=["negative", "zero"])
    def test_non_positive_multiple_is_off_the_ray(self, log):
        with pytest.raises(ValueError, match="not supported on multiples of"):
            ray_coefficients((1, 1), log)


class TestRaySeries:
    def test_extended_series_is_the_fresh_series(self):
        """A ``RaySeries`` asked for random lengths in random order, each psi
        extended by prefix, gives what a fresh ``_exp_series`` gives."""
        rng = random.Random("ray-series")

        def draw():
            if rng.random() < 0.5:
                return rng.randint(-4, 4)
            return Fraction(rng.randint(-7, 7), rng.randint(1, 5))

        for trial in range(60):
            a = {j: draw() for j in rng.sample(range(1, 9), rng.randint(1, 5))}
            psis = [draw() for _ in range(rng.randint(1, 4))]
            series = RaySeries(a)
            for _ in range(12):
                psi, length = rng.choice(psis), rng.randint(0, 14)
                got = series(psi, length)
                assert len(got) > length, trial
                assert got[:length + 1] == _exp_series(a, psi, length), (trial, psi, length)


class TestTorusSteps:
    def test_warm_shared_table_gives_the_fresh_series(self):
        rng = random.Random("torus-steps")
        for trial in range(20):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 6)
            seed = rng.random()
            fresh = TorusAction(fd.omega, level)
            apply_sequence(fresh, random.Random(seed), level)
            root = TorusAction(fd.omega, level)
            apply_sequence(root.copy(), random.Random(seed), level)  # warms root.steps
            warm = root.copy()
            assert warm.steps is root.steps and warm.steps
            apply_sequence(warm, random.Random(seed), level)
            assert warm.series == fresh.series, trial
            assert root.series == {(0,) * fd.rank: 1}

    def test_table_is_bounded_by_normals_and_monomials(self):
        rng = random.Random("torus-steps-bound")
        fd = random_fixed_data(rng, rank=3)
        action = TorusAction(fd.omega, 5)
        apply_sequence(action, rng, 5)
        for n, (row, table) in action.steps.items():
            assert row == _omega_row(fd.omega, n)
            for m, (psi, chain) in table.items():
                assert degree(m) <= 5
                assert chain[0] == m and all(degree(t) <= 5 for t in chain)
                assert degree(m) + len(chain) * degree(n) > 5  # the chain is complete
                omega_nm = sum(n[i] * fd.omega[i][j] * m[j] for i in range(3) for j in range(3))
                assert psi == degree(n) + omega_nm

    def test_shared_tables_hold_what_they_name(self):
        rng = random.Random("torus-tables")
        built = 0
        for trial in range(20):
            fd = random_fixed_data(rng)
            level = rng.randint(1, 6)
            action = TorusAction(fd.omega, level)
            apply_sequence(action, rng, level)
            before = dict(action.series)
            other = action.copy()
            assert other.binomials is action.binomials and other.steps is action.steps
            apply_sequence(other, rng, level)
            assert action.series == before, trial
            built += len(action.binomials)
            for (x, length), series in action.binomials.items():
                assert series == _binomial_series(x, length), trial
            for n, (row, _) in action.steps.items():
                r = range(fd.rank)
                assert list(row) == [sum(n[i] * fd.omega[i][j] for i in r) for j in r], trial
                assert row == _omega_row(fd.omega, n), trial
        assert built

    def test_copy_leaves_the_original_unchanged(self):
        rng = random.Random("torus-copy")
        for trial in range(20):
            fd = random_fixed_data(rng)
            level = rng.randint(2, 6)
            action = TorusAction(fd.omega, level)
            apply_sequence(action, rng, level)
            before = dict(action.series)
            other = action.copy()
            other.apply_dilog((1,) + (0,) * (fd.rank - 1), 1)
            assert action.series == before, trial
            assert other.series != before, trial


class TestTorusNormals:
    """An apply's normal, or a wall's log key, must be a generator index."""

    @pytest.mark.parametrize(
        "n", [(0, 0), (-1, 1), (1, -1), (-1, 5), (1,), (1, 0, 0)],
        ids=["zero", "mixed", "mixed-2", "mixed-above-level", "short", "long"],
    )
    @pytest.mark.parametrize("c", [1, 0, Fraction(1, 2)])
    def test_bad_dilog_normal_is_not_lie_element(self, n, c):
        action = TorusAction(A2_OMEGA, 3)
        with pytest.raises(NotLieElement):
            action.apply_dilog(n, c)
        assert action.series == {(0, 0): 1}

    @pytest.mark.parametrize(
        "log",
        [{(-1, 1): 1}, {(0, 0): 1}, {(1, 0): 1, (0, 0): 1}, {(1, 0): 1, (2, -1): 1}, {(1, 0, 0): 1}],
        ids=["mixed", "zero", "zero-beside", "mixed-beside", "long"],
    )
    def test_bad_wall_key_is_not_lie_element(self, log):
        action = TorusAction(A2_OMEGA, 3)
        with pytest.raises(NotLieElement):
            action.apply_wall(log)
        assert action.series == {(0, 0): 1}

    def test_normal_is_checked_once_per_table(self, monkeypatch):
        """Applies along a tabled normal, in this action or a copy, pay no check."""
        checked = []
        check = liegroup._check_index
        monkeypatch.setattr(liegroup, "_check_index", lambda n, rank: checked.append(n) or check(n, rank))
        action = TorusAction(A2_OMEGA, 3)
        for _ in range(3):
            for n in [(1, 0), (0, 1), (1, 1), (2, 1)]:
                action.copy().apply_dilog(n, 1)
        assert checked == [(1, 0), (0, 1), (1, 1), (2, 1)]


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

    @pytest.mark.parametrize("n", [(1,), (1, 0, 5)])
    def test_rejects_vector_of_wrong_length(self, n):
        with pytest.raises(ValueError, match="length 2"):
            delta_exponent(n, (1, 2))

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
        assert g.project(4) == g

    def test_dilog_to_level_one(self):
        g = alg(5).dilog((1, 0), 1)
        p = g.project(1)
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
            assert (g * h).project(lower) == g.project(lower) * h.project(lower)

    def test_refuses_up_projection(self):
        with pytest.raises(LevelMismatch):
            alg(2).dilog((1, 0), 1).project(3)


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
            doc = element_to_json(g.carrier)
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

    @pytest.mark.parametrize(
        "doc",
        [
            {"level": 2, "terms": {}},
            {"level": 2, "terms": [{"monomial": {}, "coeff": "1"}]},
        ],
        ids=["terms", "monomial"],
    )
    def test_rejects_object_for_a_list(self, doc):
        # tuple() of a JSON object yields its keys: {} must not read as 0 or as 1
        with pytest.raises(BadInput, match="must be a list, got dict"):
            element_from_json(doc, A2_OMEGA)

    def test_accepts_integer_coefficient(self):
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": 3}]}
        assert element_from_json(doc, A2_OMEGA) == alg(2).lie_element({(1, 0): 1}) * 3

    @pytest.mark.parametrize("coeff", ["0.5", "1_0", " 1", "+1", "1e3", "1/-2"])
    def test_rejects_coefficient_greenfan_never_writes(self, coeff):
        # Fraction() reads all of these; str(Fraction) writes none of them
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": coeff}]}
        with pytest.raises(BadInput, match="coefficient must be"):
            element_from_json(doc, A2_OMEGA)

    @pytest.mark.parametrize("coeff, value", [("-3/4", Fraction(-3, 4)), ("7", 7)])
    def test_reads_coefficient_greenfan_writes(self, coeff, value):
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": coeff}]}
        assert element_from_json(doc, A2_OMEGA) == alg(2).lie_element({(1, 0): value})

    def test_outsized_exponent_is_refused_at_once(self):
        """A coefficient of 1e100000000, read in a capped child within 1 s."""
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": "1e100000000"}]}
        code = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
            "from greenfan import BadInput, element_from_json\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    element_from_json(%r, %r)\n"
            "except BadInput:\n"
            "    sys.exit(0 if time.perf_counter() - start < 1 else 4)\n"
            "sys.exit(3)\n" % (doc, A2_OMEGA)
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("read", [element_from_json, group_from_json])
    def test_rejects_zero_denominator(self, read):
        doc = {"level": 2, "terms": [{"monomial": [[1, 0]], "coeff": "1/0"}]}
        with pytest.raises(BadInput, match="malformed element"):
            read(doc, A2_OMEGA)

    def test_grouplike_products_read_back(self):
        # a product on one ray, Psi[n]^a Psi[2n]^b, is the exp of its one-letter
        # terms and reads back; one on two rays has one-letter terms on both
        rng = random.Random(31)
        for trial in range(120):
            fd = random_fixed_data(rng)
            a = PbwAlgebra(fd.omega, rng.randint(1, 6))
            n = random_positive_vector(rng, fd.rank, max_entry=2, primitive=True)
            g = a.dilog(n, rng.choice((-2, -1, 1, 2))) * a.dilog(
                tuple(2 * x for x in n), rng.choice((-2, -1, 1, 2))
            )
            back = group_from_json(element_to_json(g.carrier), fd.omega)
            assert back == g and back.log_terms() == g.log_terms(), trial
            m = random_positive_vector(rng, fd.rank, max_entry=2, primitive=True)
            if m != n and degree(m) <= a.level and degree(n) <= a.level:
                g = a.dilog(m, rng.choice((-1, 1))) * g
                with pytest.raises(BadInput, match="not on one ray"):
                    group_from_json(element_to_json(g.carrier), fd.omega)

    @staticmethod
    def refused_at_once(doc, error):
        """Read ``doc`` in a child capped at 512 MB; it must raise ``error`` within 1 s."""
        code = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
            "from greenfan import %s, group_from_json\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    group_from_json(%r, %r)\n"
            "except %s:\n"
            "    sys.exit(0 if time.perf_counter() - start < 1 else 4)\n"
            "sys.exit(3)\n" % (error, doc, A2_OMEGA, error)
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_outsized_level_is_not_grouplike_at_once(self):
        """A dilog document relabelled to level 2**70."""
        doc = dict(element_to_json(alg(3).dilog((1, 0), 1).carrier), level=2**70)
        self.refused_at_once(doc, "NotGrouplike")

    def test_one_ray_record_missing_its_powers_is_refused_at_once(self):
        """1 + sum_(j <= 200) X_(j,j) at level 400: 201 terms, whose exp would
        hold every partition of up to 200 into parts."""
        terms = [{"monomial": [], "coeff": "1"}]
        terms += [{"monomial": [[j, j]], "coeff": "1"} for j in range(1, 201)]
        self.refused_at_once({"level": 400, "terms": terms}, "NotGrouplike")

    def test_sparse_letter_at_outsized_level_is_refused_at_once(self):
        """1 + X_(1000000, 0) at level 2**70: its square is the first word
        missing, whatever the degrees up to the level hold."""
        terms = [{"monomial": [], "coeff": "1"}, {"monomial": [[1000000, 0]], "coeff": "1"}]
        self.refused_at_once({"level": 2**70, "terms": terms}, "NotGrouplike")

    def test_identity_at_outsized_level_reads_at_once(self):
        """The constant term alone at level 2**70 is the identity."""
        code = (
            "import resource, sys, time\n"
            "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
            "from greenfan import group_from_json\n"
            "start = time.perf_counter()\n"
            "g = group_from_json(%r, %r)\n"
            "assert g.log_terms() == {} and g.is_identity()\n"
            "sys.exit(0 if time.perf_counter() - start < 1 else 4)\n"
            % ({"level": 2**70, "terms": [{"monomial": [], "coeff": "1"}]}, A2_OMEGA)
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, timeout=30)
        assert proc.returncode == 0, proc.stderr

    def test_added_words_are_named_in_record_order(self):
        """Every word of the exp is there, so the walk passes; the first
        record word it never yielded is named."""
        a = alg(4)
        doc = element_to_json(a.exp(a.lie_element({(1, 0): 1})).carrier)
        doc["terms"] += [
            {"monomial": [[2, 0], [2, 0]], "coeff": "1"},
            {"monomial": [[1, 0], [0, 1]], "coeff": "1"},
        ]
        with pytest.raises(NotGrouplike, match=r"term \(\(2, 0\), \(2, 0\)\) is not"):
            group_from_json(doc, A2_OMEGA)

    def test_wrong_coefficient_is_named(self):
        doc = element_to_json(alg(4).dilog((1, 0), 1).carrier)
        (term,) = [t for t in doc["terms"] if t["monomial"] == [[1, 0], [1, 0]]]
        term["coeff"] = "1"
        with pytest.raises(NotGrouplike, match=r"has \(\(1, 0\), \(1, 0\)\) with coefficient 1/2"):
            group_from_json(doc, A2_OMEGA)

    def test_rejects_non_grouplike_document(self):
        a = alg(2)
        fake = a.one() + a.lie_element({(1, 0): 1}) * a.lie_element({(0, 1): 1})
        with pytest.raises(NotGrouplike):
            group_from_json(element_to_json(fake), A2_OMEGA)
