"""The CLI's JSON writer against ``json.dumps(doc, indent=2)``, byte for byte."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenfan import cli


def written(doc) -> str:
    batches = cli._json_batches(doc)
    assert batches and all(type(b) is str for b in batches)
    return "".join(batches)


KEYS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\x00", "\x1f", "\n\t", "é", "日本", "\U0001f600", "\ud800", ""]),
)
LONG_INTS = st.builds(
    lambda n, negative: -n if negative else n,
    st.integers(10**3999, 10**4200), st.booleans(),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), LONG_INTS, KEYS, st.floats(allow_nan=True),
)
DOCS = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        # lists of one scalar type take the one-join path
        st.lists(st.integers(), max_size=5),
        st.lists(KEYS, max_size=5),
    ),
    max_leaves=40,
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(DOCS)
def test_writer_is_json_dumps_indent_2(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("doc", [
    {}, [], (), {"a": {}}, [[], {}, [[]]], {"a": [{}, [], {"b": []}]},
    [1, True, None, "x", 2.5], [True, False], [None, None], {"k": (1, (2, 3), [])},
], ids=repr)
def test_empty_containers_and_mixed_lists(doc):
    assert written(doc) == json.dumps(doc, indent=2) + "\n"


def test_large_document_is_several_batches():
    doc = {"rows": [{"path": [i, -i], "name": str(i)} for i in range(3 * cli._BATCH)]}
    batches = cli._json_batches(doc)
    assert len(batches) > 1
    assert "".join(batches) == json.dumps(doc, indent=2) + "\n"


def test_overlong_int_raises_as_json_does():
    """``main`` maps this ValueError to ``bad_input``."""
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the int-string limit is off")
    doc = {"a": [1, {"b": [10**limit]}]}
    with pytest.raises(ValueError, match="integer string conversion") as want:
        json.dumps(doc, indent=2)
    with pytest.raises(ValueError, match="integer string conversion") as got:
        cli._json_batches(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, b"x", object()], ids=repr)
def test_unsupported_type_raises_type_error(value):
    for doc in (value, [value], [1, value], {"a": value}, {"a": [[value]]}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            cli._json_batches(doc)
