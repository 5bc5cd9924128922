"""Value semantics of the complex and of the package's records: equality
and hash by value, a fixed repr, no assignment, and pickle and copy
round trips.  The memo cache of a complex takes no part in any of them."""

import copy
import pickle

import pytest

from trimanifold.analysis import LemmaReport, ParameterTriple, TightnessReport, VertexBijection
from trimanifold.complexes import FVector, SimplicialComplex, _ridge_incidence, f_vector
from trimanifold.dualgraph import DualGraph, dual_graph
from trimanifold.errors import InadmissibleHandleError
from trimanifold.homology import BettiVector, Z2ChainComplex, Z2Matrix
from trimanifold.walkup import ClassReport, HandleMap, class_membership, kuehnel_torus

# (record class, field values, another value for each field that can change
# alone, repr)
RECORDS = [
    (FVector, {"counts": (3, 3), "euler": 0}, {"counts": (3, 2), "euler": 1},
     "FVector(counts=(3, 3), euler=0)"),
    (DualGraph, {"facets": ((0, 1), (1, 2)), "adjacency": ((1,), (0,))},
     {"facets": ((0, 1), (1, 3)), "adjacency": ((), ())},
     "DualGraph(facets=((0, 1), (1, 2)), adjacency=((1,), (0,)))"),
    (Z2Matrix, {"num_rows": 3, "cols": (1, 2, 4)}, {"num_rows": 4, "cols": (1, 2)},
     "Z2Matrix(num_rows=3, cols=(1, 2, 4))"),
    (Z2ChainComplex, {"faces": (((0,), (1,)),), "boundaries": (Z2Matrix(0, (0, 0)),)},
     {"faces": (((0,),),), "boundaries": (Z2Matrix(0, (0,)),)},
     "Z2ChainComplex(faces=(((0,), (1,)),),"
     " boundaries=(Z2Matrix(num_rows=0, cols=(0, 0)),))"),
    (BettiVector, {"betti": (1, 0, 1)}, {"betti": (1, 1, 1)}, "BettiVector(betti=(1, 0, 1))"),
    (ClassReport, {"k_fail": None, "kbar_fail": 0}, {"k_fail": 0, "kbar_fail": None},
     "ClassReport(k_fail=None, kbar_fail=0)"),
    # sigma1 and sigma2 cannot change without the pairs
    (HandleMap, {"sigma1": (0, 1), "sigma2": (2, 3), "pairs": ((0, 3), (1, 2))},
     {"pairs": ((0, 2), (1, 3))},
     "HandleMap(sigma1=(0, 1), sigma2=(2, 3), pairs=((0, 3), (1, 2)))"),
    (ParameterTriple, {"beta1": 2, "d": 13, "f0": 35}, {"beta1": 1, "d": 12, "f0": 36},
     "ParameterTriple(beta1=2, d=13, f0=35)"),
    (LemmaReport, {"lemma_id": "2.2", "holds": True, "witness": None},
     {"lemma_id": "2.3", "holds": False, "witness": {"vertex": 0}},
     "LemmaReport(lemma_id='2.2', holds=True, witness=None)"),
    (TightnessReport,
     {"satisfies_inequality": True, "is_equality": True, "lhs": 10, "rhs": 10, "beta1": 1},
     {"satisfies_inequality": False, "is_equality": False, "lhs": 9, "rhs": 11, "beta1": 0},
     "TightnessReport(satisfies_inequality=True, is_equality=True, lhs=10, rhs=10, beta1=1)"),
    (VertexBijection, {"pairs": ((0, 5), (1, 3))}, {"pairs": ((0, 5), (1, 4))},
     "VertexBijection(pairs=((0, 5), (1, 3)))"),
]
IDS = [entry[0].__name__ for entry in RECORDS]


@pytest.mark.parametrize("cls, fields, others, text", RECORDS, ids=IDS)
def test_records_are_values(cls, fields, others, text):
    rec = cls(**fields)
    twin = cls(**fields)
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin) == hash(tuple(fields.values()))
    assert repr(rec) == text
    for name, value in others.items():
        assert rec != cls(**{**fields, name: value}), name
    for name, value in {**fields, **others}.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        assert getattr(rec, name) == fields[name]
    for back in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is cls and back == rec and hash(back) == hash(rec)


def test_a_lemma_report_with_a_witness_compares_by_value():
    rep = LemmaReport("2.4", False, {"vertex": 3})
    assert rep == LemmaReport("2.4", False, {"vertex": 3})
    assert rep != LemmaReport("2.4", False, {"vertex": 4})
    assert LemmaReport("2.4", True) == LemmaReport("2.4", True, None)
    assert pickle.loads(pickle.dumps(rep)) == rep


def test_a_bijection_that_has_read_its_mapping_equals_a_fresh_one():
    bij = VertexBijection(((0, 5), (1, 3)))
    assert bij.mapping == {0: 5, 1: 3}
    assert bij == VertexBijection(((0, 5), (1, 3)))
    assert pickle.loads(pickle.dumps(bij)).mapping == {0: 5, 1: 3}


def test_the_complex_is_a_value():
    x = SimplicialComplex(((0, 1), (1, 2)))
    twin = SimplicialComplex(((0, 1), (1, 2)))
    assert x == twin and not x != twin
    assert hash(x) == hash(twin) == hash((x.facets,))
    assert x != SimplicialComplex(((0, 1), (1, 3)))
    assert repr(x) == "SimplicialComplex([(0, 1), (1, 2)])"
    # a complex equals no other type, not even its own facet tuple
    assert x != x.facets and x.__eq__(x.facets) is NotImplemented
    for name in ("facets", "_face_cache", "dim", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, ())
    for name in ("facets", "_face_cache"):
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert x.facets == ((0, 1), (1, 2)) and x.dim == 1
    for back in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(back) is SimplicialComplex and back == x and hash(back) == hash(x)


def test_the_memo_cache_takes_no_part_in_equality_hash_or_pickle():
    x = kuehnel_torus(4)  # with a stored class report
    f_vector(x), _ridge_incidence(x), dual_graph(x), class_membership(x)
    assert len(x._face_cache) >= 4
    fresh = SimplicialComplex(x.facets)
    assert fresh._face_cache == {}
    assert x == fresh and hash(x) == hash(fresh)
    assert repr(x) == repr(fresh)
    back = pickle.loads(pickle.dumps(x))
    assert back == fresh and hash(back) == hash(fresh)
    assert f_vector(back) == f_vector(x)
    assert class_membership(back) == class_membership(x)


@pytest.mark.parametrize("sigma1, sigma2, pairs, error, text", [
    ((1, 0), (2, 3), ((0, 3), (1, 2)), InadmissibleHandleError, "sigma1 is not a strict"),
    ((0, 1), (3, 3), ((0, 3), (1, 3)), InadmissibleHandleError, "sigma2 is not a strict"),
    ((0, 1), (1, 2), ((0, 1), (1, 2)), InadmissibleHandleError, "share vertices"),
    ((0, 1), (2, 3), ((0, 3), (1, 3)), InadmissibleHandleError, "bijectively"),
    ((0, 1), (2, 3), ((1, 3), (0, 2)), InadmissibleHandleError, "sorted by source"),
    ((0, 1), (2, 3), ((0, 3),), InadmissibleHandleError, "bijectively"),
    ((-1, 0), (2, 3), ((-1, 3), (0, 2)), ValueError, "non-negative"),
])
def test_a_handle_map_built_directly_is_validated(sigma1, sigma2, pairs, error, text):
    with pytest.raises(error, match=text):
        HandleMap(sigma1, sigma2, pairs)
    with pytest.raises(error, match=text):
        HandleMap(sigma1=sigma1, sigma2=sigma2, pairs=pairs)
