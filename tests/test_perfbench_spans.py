"""The benchmark's tracer patches names that must exist in greenfan.

``perfbench/spans.py`` wraps the attributes listed in ``TARGETS`` for one
traced pass.  A refactor that drops or renames one of them would break only
the traced benchmark run; this test makes it fail here instead.  The same
spans show that enumeration mutates and keys each new vertex once, and no
other seed.
"""

import sys
from collections import Counter
from pathlib import Path

from greenfan import exchange, validate_fixed_data
from support import FINITE_TYPES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import spans  # noqa: E402


def test_tracer_patches_and_restores_every_target():
    originals = {}
    for owner, attr, _, _ in spans.TARGETS:
        assert attr in owner.__dict__, "%s.%s is gone" % (owner.__name__, attr)
        originals[owner, attr] = owner.__dict__[attr]
    tracer = spans.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_enumeration_mutates_and_keys_each_new_vertex_once():
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name in ("D4", "E6"):
            b, delta, expected = FINITE_TYPES[name]
            del tracer.spans[:]
            graph = exchange.enumerate_graph(validate_fixed_data(b, delta), max_depth=64)
            calls = Counter(record[0] for record in tracer.spans)
            assert len(graph.vertices) == expected
            assert calls[spans.MUTATE] == len(graph.vertices) - 1
            assert calls["exchange.canonical_key"] == len(graph.vertices)
    finally:
        tracer.uninstall()
