"""The benchmark's tracer patches names that must exist in greenfan.

``perfbench/spans.py`` wraps the attributes listed in ``TARGETS`` for one
traced pass.  A refactor that drops or renames one of them would break only
the traced benchmark run; this test makes it fail here instead.  The same
spans show that enumeration calls neither ``mutate_seed`` nor
``canonical_key``: it shears B and C once per new vertex and nothing else.
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


def test_enumeration_shears_each_new_vertex_once(monkeypatch):
    sheared = []
    shear = exchange._shear

    def counted(*args):
        sheared.append(args)
        return shear(*args)

    monkeypatch.setattr(exchange, "_shear", counted)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for name, new_vertices in (("D4", 49), ("E6", 832)):
            b, delta, expected = FINITE_TYPES[name]
            del tracer.spans[:], sheared[:]
            graph = exchange.enumerate_graph(validate_fixed_data(b, delta), max_depth=64)
            calls = Counter(record[0] for record in tracer.spans)
            assert len(graph.vertices) == expected == new_vertices + 1
            assert calls[spans.MUTATE] == calls["exchange.canonical_key"] == 0
            assert calls[spans.ENUMERATE] == 1
            assert len(sheared) == new_vertices
    finally:
        tracer.uninstall()
