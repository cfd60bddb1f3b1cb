import pytest
from hypothesis import given, strategies as st

from hives.bijections import GluedPair, assoc_forward
from hives.hive import Hive
from hives.jsonio import (SchemaError, dumps, glued_pair_from_obj,
                          glued_pair_to_obj, hive_from_obj, hive_to_obj,
                          loads, tetra_to_obj, wall_pair_from_obj,
                          wall_pair_to_obj)
from hives.octahedron import TetraFunction, propagate


@st.composite
def hives_strategy(draw):
    n = draw(st.integers(0, 4))
    return Hive.build(n, lambda i, j: draw(st.integers(-9, 9)))


@given(hives_strategy())
def test_hive_roundtrip(h):
    assert hive_from_obj(loads(dumps(hive_to_obj(h)))) == h


def test_canonical_is_byte_stable():
    h = Hive(((0, 2, 2), (1, 2), (1,)))
    a = dumps(hive_to_obj(h))
    b = dumps(hive_from_obj(loads(a)) and hive_to_obj(h))
    assert a == b
    assert a == '{"n":2,"values":[[0,2,2],[1,2],[1]]}\n'


def test_tetra_roundtrip():
    t = propagate(Hive(((0, 2, 2), (1, 2), (1,))),
                  Hive(((0, 1, 1), (1, 1), (1,))))
    assert TetraFunction(loads(dumps(tetra_to_obj(t)))["values"]) == t


def test_pair_roundtrips():
    f1 = Hive(((0, 2, 2), (1, 2), (1,)))
    f2 = Hive(((0, 1, 1), (1, 1), (1,)))
    g = GluedPair(f1, f2)
    assert glued_pair_from_obj(loads(dumps(glued_pair_to_obj(g)))) == g
    w = assoc_forward(g)
    assert wall_pair_from_obj(loads(dumps(wall_pair_to_obj(w)))) == w


@pytest.mark.parametrize("obj", [
    42,
    {"n": 2},
    {"n": "2", "values": [[0]]},
    {"n": 1, "values": [[0, 0]]},
    {"n": 1, "values": [[0, 0], [0], [0]]},
    {"n": 1, "values": [[0, "x"], [0]]},
    {"n": 1, "values": [[0, True], [0]]},
    {"n": -1, "values": []},
])
def test_hive_schema_errors(obj):
    with pytest.raises(SchemaError):
        hive_from_obj(obj)


def test_loads_rejects_garbage():
    with pytest.raises(SchemaError):
        loads("{not json")


def test_pair_schema_errors():
    with pytest.raises(SchemaError):
        glued_pair_from_obj({"f1": {"n": 0, "values": [[0]]}})
    with pytest.raises(SchemaError):
        wall_pair_from_obj({"w1": {"n": 0, "values": [[0]]}, "w3": {}})
