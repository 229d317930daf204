"""The benchmark's tracer patches names that must exist in greenfan.

``perfbench/spans.py`` wraps the attributes listed in ``TARGETS`` for one
traced pass.  A refactor that drops or renames one of them would break only
the traced benchmark run; this test makes it fail here instead.
"""

import sys
from pathlib import Path

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
