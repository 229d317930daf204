"""The torus action against the PBW engine it stands in for.

``verify_loop_consistency`` and the rank-2 sweeps decide identity and read
defects through ``TorusAction``; PBW products stay the reference.  Seeded
random crossing sequences, identities among them, run through both engines.
"""

import random
from fractions import Fraction

import pytest

from greenfan import (
    PbwAlgebra,
    canonical_key,
    crossing_sequence,
    crossing_sequence_from_normals,
    enumerate_graph,
    mutate_seed,
    path_ordered_product,
    root_seed,
    validate_fixed_data,
    walk,
)
from greenfan.liegroup import TorusAction, degree, dilog_log_terms

from support import random_positive_vector

PATTERNS = {
    "A2": ([[0, 1], [-1, 0]], [1, 1]),
    "B2": ([[0, 1], [-2, 0]], [1, 2]),
    "G2": ([[0, 1], [-3, 0]], [1, 3]),
    "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
    "A3": ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1]),
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], [1, 1, 2]),
}
TRIALS = 24  # per pattern; levels 1..6 four times each
MAX_WALK = 16


def closed_walk(fd, rng, finite):
    """Directions of a random walk from the root back to the root's key.

    Finite types close a random walk in their exchange graph; the Kronecker
    walk returns along its own steps.
    """
    root = root_seed(fd)
    home = canonical_key(root)
    while True:
        seed, directions, last = root, [], None
        for _ in range(MAX_WALK):
            k = rng.choice([j for j in range(fd.rank) if j != last])
            directions.append(k)
            seed, last = mutate_seed(fd, seed, k), k
            if finite and canonical_key(seed) == home:
                return directions
        if not finite:
            cut = rng.randint(1, MAX_WALK // 2)
            return directions[:cut] + directions[:cut][::-1]


def random_sequence(fd, rng, identity, finite):
    if identity:
        directions = closed_walk(fd, rng, finite)
        return crossing_sequence(fd, walk(fd, root_seed(fd), directions))
    pairs = [
        (random_positive_vector(rng, fd.rank, max_entry=2, primitive=True), rng.choice((1, -1)))
        for _ in range(rng.randint(1, 6))
    ]
    return crossing_sequence_from_normals(fd, pairs)


def lowest_part(log):
    log = {n: c for n, c in log.items() if c}
    low = min(map(degree, log), default=0)
    return {n: c for n, c in log.items() if degree(n) == low}


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_engine_agrees_with_pbw_on_crossing_sequences(name):
    rng = random.Random("torus-oracle:" + name)
    fd = validate_fixed_data(*PATTERNS[name])
    finite = enumerate_graph(fd, max_depth=8).status == "complete"
    identities = 0
    for trial in range(TRIALS):
        level = 1 + trial % 6
        cs = random_sequence(fd, rng, trial % 2 == 0, finite)
        action = TorusAction(fd.omega, level)
        for c in cs.crossings:
            action.apply_dilog(c.normal, c.sign * c.exponent)
        product = path_ordered_product(fd, cs, level)
        assert action.is_identity() == product.is_identity(), (trial, cs)
        assert action.lowest_log_terms() == lowest_part(product.log_terms()), (trial, cs)
        identities += product.is_identity()
    # closed walks give identities; random crossings almost never do
    assert TRIALS // 2 <= identities < TRIALS


@pytest.mark.parametrize("name", sorted(PATTERNS))
def test_dilog_path_equals_general_wall_path(name):
    rng = random.Random("torus-dilog:" + name)
    fd = validate_fixed_data(*PATTERNS[name])
    for trial in range(TRIALS):
        level = 1 + trial % 6
        binomial, general = TorusAction(fd.omega, level), TorusAction(fd.omega, level)
        for _ in range(rng.randint(1, 4)):
            n = random_positive_vector(rng, fd.rank, max_entry=2)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            binomial.apply_dilog(n, c)
            general.apply_wall(dilog_log_terms(n, c, level))
        assert binomial.series == general.series, trial


def test_general_walls_agree_with_pbw():
    """Walls that are no dilog power, as rank-2 completion inserts them."""
    rng = random.Random("torus-walls")
    for trial in range(60):
        name = rng.choice(sorted(PATTERNS))
        fd = validate_fixed_data(*PATTERNS[name])
        level = rng.randint(1, 6)
        alg = PbwAlgebra(fd.omega, level)
        action = TorusAction(fd.omega, level)
        product = alg.identity()
        for _ in range(rng.randint(1, 5)):
            n = random_positive_vector(rng, fd.rank, max_entry=2, primitive=True)
            log = {
                tuple(j * x for x in n): Fraction(rng.randint(-3, 3), rng.randint(1, 4))
                for j in rng.sample(range(1, 4), rng.randint(1, 3))
            }
            action.apply_wall(log)
            product = alg.exp(alg.lie_element(log)) * product
        assert action.is_identity() == product.is_identity(), trial
        assert action.lowest_log_terms() == lowest_part(product.log_terms()), trial


def test_wall_off_one_ray_rejected():
    action = TorusAction([[0, 1], [-1, 0]], 4)
    with pytest.raises(ValueError):
        action.apply_wall({(1, 0): 1, (0, 1): 1})


def test_faithful_on_degenerate_form():
    """omega = 0 makes every bracket vanish; the <n, u> weight still sees X_n."""
    action = TorusAction([[0, 0], [0, 0]], 3)
    action.apply_dilog((1, 1), 2)
    assert not action.is_identity()
    assert action.lowest_log_terms() == {(1, 1): 2}
