"""Property tests, run with a fixed derandomized example set."""

from hypothesis import given, settings
from hypothesis import strategies as st

from greenfan import enumerate_graph, validate_fixed_data, verify_loop_consistency

from support import LOOP_PATTERNS, per_cycle_loop_consistency


@st.composite
def reoriented_patterns(draw):
    """A3, B3, A4 or D4 with edges reversed at random, then relabelled."""
    b, delta = LOOP_PATTERNS[draw(st.sampled_from(["A3", "B3", "A4", "D4"]))]
    r = len(b)
    b = [list(row) for row in b]
    for i in range(r):
        for j in range(i + 1, r):
            if b[i][j] and draw(st.booleans()):
                b[i][j], b[j][i] = -b[i][j], -b[j][i]
    perm = draw(st.permutations(range(r)))
    relabelled = [[b[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    return validate_fixed_data(relabelled, [delta[p] for p in perm])


@settings(derandomize=True, max_examples=12, deadline=None)
@given(fd=reoriented_patterns(), level=st.integers(1, 6))
def test_tree_loop_check_matches_per_cycle_oracle(fd, level):
    graph = enumerate_graph(fd)
    assert verify_loop_consistency(fd, graph, level) == per_cycle_loop_consistency(
        fd, graph, level
    )
