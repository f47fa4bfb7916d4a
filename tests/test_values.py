"""The package's immutable values: pickling, copying, immutability, equality
and reprs of Graph, PauliOp and LocalClifford and of the three records."""

import copy
import pickle

import pytest

from graphstates import bounds, classify, measure_pauli
from graphstates.graphs import Graph, path_graph, petersen_graph
from graphstates.stabilizer import LocalClifford, PauliOp


def _values():
    return [
        petersen_graph(),
        PauliOp(3, 0b101, 0b110, 3),
        LocalClifford((0, 3, 5)),
        bounds(petersen_graph()),
        measure_pauli(path_graph(3), 1, "x"),
        classify(4)[-1],
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_pickle_and_copies_give_equal_values(value):
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert hash(twin) == hash(value)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_set_or_deleted(value):
    fields = value._fields if isinstance(value, tuple) else value.__slots__
    with pytest.raises(AttributeError):
        setattr(value, fields[0], 3)
    with pytest.raises(AttributeError):
        delattr(value, fields[-1])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_graph_equality_and_hash():
    g = Graph(2, (2, 1))
    assert g != (2, (2, 1))
    assert g.__eq__((2, (2, 1))) is NotImplemented
    assert g == path_graph(2) and hash(g) == hash(path_graph(2))
    assert hash(g) == hash((2, (2, 1)))
    assert g != Graph(2, (0, 0))
    assert LocalClifford(()) != Graph(0, ())


def test_value_reprs():
    assert repr(Graph(2, (2, 1))) == "Graph(n=2, rows=(2, 1))"
    assert repr(PauliOp(2, 1, 2, 7)) == "PauliOp(n=2, x=1, z=2, phase=3)"
    assert repr(PauliOp(1, 1, 0)) == "PauliOp(n=1, x=1, z=0, phase=0)"
    assert repr(LocalClifford((0, 3, 5))) == "LocalClifford(indices=(0, 3, 5))"
    assert repr(bounds(Graph(2, (2, 1)))) == (
        "BoundsReport(lower=1, upper=1, cover_size=1, tight=True)")
    assert repr(measure_pauli(path_graph(3), 1, "x")) == (
        "MeasurementOutcome(graph_after=Graph(n=2, rows=(2, 1)), "
        "byproduct_plus=LocalClifford(indices=(9, 5)), "
        "byproduct_minus=LocalClifford(indices=(7, 0)), "
        "prob_plus=Fraction(1, 2), chosen_b0=0)")
    assert repr(classify(3)[0]) == (
        "ClassRecord(class_id=1, representative='A_', member_count=1, n_vertices=2, "
        "n_edges=1, lower=1, upper=1, ri_3=None, ri_2=None, "
        "has_two_colorable_member=True, edge_histogram=(0, 1))")


def test_stabilizer_values_validate_and_reduce_the_phase():
    with pytest.raises(ValueError, match="qubit range"):
        PauliOp(2, 4, 0)
    with pytest.raises(ValueError, match="Clifford index"):
        LocalClifford((24,))
    assert PauliOp(n=2, x=1, z=2, phase=-1).phase == 3
