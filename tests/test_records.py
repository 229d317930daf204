"""The eleven record types are immutable ``NamedTuple`` classes.

Each keeps what its frozen dataclass had: keyword construction, its field
names, order and defaults, value equality and hashing within its type, the
``Name(field=value, ...)`` repr (pinned here as the dataclass printed it)
and ``AttributeError`` on assignment.  As tuples the records also have
``len``, iteration, indexing and ``_replace``, and each equals the plain
tuple of its values.
"""

import pytest

from greenfan import (
    complete_rank2,
    crossing_sequence_from_normals,
    enumerate_graph,
    minimal_degree_obstruction,
    root_seed,
    validate_fixed_data,
    verify_loop_consistency,
)
from greenfan.laurent import root_symbolic_seed


def a2():
    return validate_fixed_data([[0, 1], [-1, 0]], [1, 1])


def rank_one():
    return validate_fixed_data([[0]], [1])


def crossings():
    return crossing_sequence_from_normals(a2(), [((1, 0), 1), ((1, 1), 1)])


def a2_report():
    return verify_loop_consistency(a2(), enumerate_graph(a2()), 1)


A2_LOOP = (
    "LoopReport(vertices=("
    "SeedKey(g_columns=((-1, 0), (-1, 1)), b=((0, -1), (1, 0))), "
    "SeedKey(g_columns=((-1, 1), (0, 1)), b=((0, -1), (1, 0))), "
    "SeedKey(g_columns=((0, 1), (1, 0)), b=((0, -1), (1, 0))), "
    "SeedKey(g_columns=((0, -1), (1, 0)), b=((0, 1), (-1, 0))), "
    "SeedKey(g_columns=((-1, 0), (0, -1)), b=((0, 1), (-1, 0)))), "
    "directions=(1, 0, 1, 0, 1), max_degree_checked=1, identity=True)"
)
A2_WALLS = (
    "Wall(normal=(1, 0), rays=((0, -1), (0, 1)), element=exp-group<1*1 + 1*X(1,0)>)",
    "Wall(normal=(0, 1), rays=((1, 0), (-1, 0)), element=exp-group<1*1 + 1*X(0,1)>)",
)
CROSSINGS = (
    "Crossing(normal=(1, 0), sign=1, exponent=Fraction(1, 1))",
    "Crossing(normal=(1, 1), sign=1, exponent=Fraction(1, 1))",
)

# type name -> (a function building a fresh record, the repr its dataclass printed)
RECORDS = {
    "FixedData": (
        a2,
        "FixedData(rank=2, b=((0, 1), (-1, 0)), delta=(1, 1), omega=((Fraction(0, 1), "
        "Fraction(1, 1)), (Fraction(-1, 1), Fraction(0, 1))), d=(1, 1))",
    ),
    "TropicalSeed": (
        lambda: root_seed(a2()),
        "TropicalSeed(b=((0, 1), (-1, 0)), c=((1, 0), (0, 1)), g=((1, 0), (0, 1)), path=())",
    ),
    "OrientedExchangeGraph": (
        lambda: enumerate_graph(rank_one()),
        "OrientedExchangeGraph(vertices={"
        "SeedKey(g_columns=((1,),), b=((0,),)): "
        "TropicalSeed(b=((0,),), c=((1,),), g=((1,),), path=()), "
        "SeedKey(g_columns=((-1,),), b=((0,),)): "
        "TropicalSeed(b=((0,),), c=((-1,),), g=((-1,),), path=(0,))}, "
        "arcs=((0, 1, 0),), status='complete', depth_reached=1)",
    ),
    "Wall": (lambda: complete_rank2(a2(), 1).walls[0], A2_WALLS[0]),
    "ScatteringDiagram": (
        lambda: complete_rank2(a2(), 1),
        "ScatteringDiagram(level=1, walls=(%s, %s))" % A2_WALLS,
    ),
    "Crossing": (lambda: crossings().crossings[0], CROSSINGS[0]),
    "CrossingSequence": (
        crossings,
        "CrossingSequence(crossings=(%s, %s))" % CROSSINGS,
    ),
    "Obstruction": (
        lambda: minimal_degree_obstruction(crossings()),
        "Obstruction(min_degree=1, witness={(1, 0): Fraction(1, 1)})",
    ),
    "LoopReport": (lambda: a2_report().loops[0], A2_LOOP),
    "ConsistencyReport": (a2_report, "ConsistencyReport(level=1, loops=(%s,))" % A2_LOOP),
    "SymbolicSeed": (
        lambda: root_symbolic_seed(rank_one()),
        "SymbolicSeed(variables=(1*z^[1, 0],), coefficients=((1,),), b=((0,),))",
    ),
}
# a dict field makes the record unhashable, as it made the dataclass
UNHASHABLE = {"OrientedExchangeGraph", "Obstruction"}

names = pytest.mark.parametrize("name", sorted(RECORDS))


@names
def test_equal_fields_make_equal_records(name):
    build, _ = RECORDS[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)


@names
def test_repr_is_the_dataclass_text(name):
    build, text = RECORDS[name]
    assert repr(build()) == text


@names
def test_records_are_immutable(name):
    record = RECORDS[name][0]()
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.note = "added"
    assert record == RECORDS[name][0]()


@names
def test_records_are_tuples(name):
    record = RECORDS[name][0]()
    values = tuple(getattr(record, field) for field in record._fields)
    assert len(record) == len(values)
    assert tuple(record) == values and record == values
    assert record[0] is values[0]
    assert record._replace() == record


def test_only_tropical_seed_has_a_default():
    defaults = {name: type(build())._field_defaults for name, (build, _) in RECORDS.items()}
    assert {name: d for name, d in defaults.items() if d} == {"TropicalSeed": {"path": ()}}
    seed = root_seed(a2())
    assert type(seed)(b=seed.b, c=seed.c, g=seed.g) == seed
