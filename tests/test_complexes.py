from itertools import combinations
from math import comb
from time import perf_counter

import pytest
from hypothesis import example, given, strategies as st

import helpers
from helpers import VertexClashError
from trimanifold.analysis import tight_neighborly_check
from trimanifold.complexes import (
    EMPTY,
    SimplicialComplex,
    _facet_graph_counts,
    _ridge_incidence,
    _vertex_facets,
    boundary_complex,
    f_vector,
    faces_of_dim,
    from_facets,
    is_neighborly,
    is_pseudomanifold,
    is_pure,
    is_weak_pseudomanifold,
    link,
    relabel_vertices,
)
from trimanifold.dualgraph import dual_graph
from trimanifold.errors import (
    DimensionRangeError,
    EmptyComplexError,
    NotAFaceError,
    PreconditionError,
)
from trimanifold.homology import beta1_dual_formula, betti_z2, chain_complex
from trimanifold.walkup import (
    class_membership,
    is_stacked_ball,
    is_stacked_sphere,
    kuehnel_solid,
    kuehnel_torus,
)


def test_from_facets_canonicalizes():
    x = from_facets([(2, 0, 1), (1, 2, 0), (0, 1)])
    assert x.facets == ((0, 1, 2),)


def test_from_facets_keeps_incomparable_faces():
    x = from_facets([(0, 1, 2), (2, 3), (4,)])
    assert x.facets == ((0, 1, 2), (2, 3), (4,))


def test_from_facets_rejects_bad_labels():
    with pytest.raises(ValueError):
        from_facets([(0, -1)])
    with pytest.raises(ValueError):
        from_facets([(True, 2)])


def test_from_facets_checks_every_face_for_bad_labels():
    # True equals 1, so a check over the distinct vertices would take the
    # bool for the int of the first face
    with pytest.raises(ValueError, match="True"):
        from_facets([(1, 3), (True, 2)])
    with pytest.raises(ValueError, match="-4"):
        from_facets(iter([(0, 1, 2), (1, 2, 3), (3, -4)]))
    # the error names the first bad label in input order
    with pytest.raises(ValueError, match="'a'"):
        from_facets([(0, 1), ("a", "b"), ("c", 2)])
    with pytest.raises(ValueError, match="'b'"):
        from_facets([(0, 1), (2, "b", -1, "a")])


@pytest.mark.parametrize(
    "faces, named",
    [
        ([(0, None)], "None"),
        ([("c", 2)], "'c'"),
        ([(3, 1), (2, None, "c")], "None"),
        ([(0, 1), (1, [2])], r"\[2\]"),
    ],
)
def test_from_facets_names_a_label_that_does_not_compare_with_an_int(faces, named):
    # the labels are checked before they are sorted, so a label that an
    # int cannot be compared with is named, not a TypeError from sorting
    with pytest.raises(ValueError, match=named):
        from_facets(faces)


def test_empty_input_is_rejected():
    # the EMPTY constant is the only spelling of the void complex
    with pytest.raises(EmptyComplexError):
        from_facets([])
    assert EMPTY.dim == -1
    assert EMPTY.vertices == ()


faces_strategy = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=4),
    min_size=1,
    max_size=8,
)


@given(faces_strategy, st.randoms(use_true_random=False))
def test_from_facets_input_order_irrelevant(faces, rng):
    """Canonical form ignores input order, duplication and vertex order."""
    x = from_facets(faces)
    doubled = [list(f) for f in faces] + [list(f) for f in faces]
    for f in doubled:
        rng.shuffle(f)
    rng.shuffle(doubled)
    assert from_facets(doubled) == x


@given(faces_strategy)
def test_facets_are_mutually_incomparable(faces):
    x = from_facets(faces)
    sets = [set(f) for f in x.facets]
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            assert i == j or not a <= b


@st.composite
def layered_faces(draw):
    """Faces of sizes 1-6 on vertices 0-7, then sub-faces of faces already
    drawn, so absorption runs several levels deep and the kept faces need
    not be pure."""
    faces = draw(st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=6, unique=True),
        min_size=1,
        max_size=8,
    ))
    for _ in range(draw(st.integers(0, 16))):
        face = draw(st.sampled_from(faces))
        faces.append(draw(st.lists(
            st.sampled_from(face), min_size=1, max_size=len(face), unique=True
        )))
    return faces


@given(layered_faces())
@example([[0, 1, 2, 3], [1, 2, 3, 4], [0, 1, 2], [2, 3, 4], [1, 2, 3]])
@example([[0, 1, 2, 3], [0, 1, 4], [0, 1, 2]])  # a dangling triangle: impure
@example([[0, 1], [1, 2], [2, 3], [1], [4], [5]])  # 1-tuple ridges, stray vertices
@example([[0, 1], [1, 2], [2], [0]])  # every vertex absorbed
@example([[0, 1, 2, 3], [0, 1], [4, 5], [2, 3]])  # sizes 4 and 2: a gap
def test_from_facets_against_pairwise_scan(faces):
    x = from_facets(faces)
    assert x.facets == helpers.maximal_faces_by_pairs(faces)
    # input of sizes k and k - 1 is absorbed through the ridge index of the
    # size-k faces, which a pure result keeps; no other input builds one
    sizes = {len(f) for f in faces}
    stored = _ridge_incidence.peek(x)
    if len(sizes) == 2 and max(sizes) - min(sizes) == 1 and is_pure(x):
        assert stored == _ridge_incidence(SimplicialComplex(x.facets))
    else:
        assert stored is None


def test_from_facets_absorbs_below_a_smaller_face():
    # (4, 5) and (6,) are absorbed by a triangle, not by the tetrahedron;
    # (0, 1) and (2,) sit two and three levels below it
    faces = [(4, 5, 6), (0, 1, 2, 3), (4, 5), (6,), (0, 1), (2,), (7, 8)]
    want = ((0, 1, 2, 3), (4, 5, 6), (7, 8))
    assert helpers.maximal_faces_by_pairs(faces) == want
    assert from_facets(faces).facets == want


def test_faces_of_dim_against_enumeration():
    for x in (kuehnel_solid(2), helpers.path_ball(3, 6), kuehnel_torus(3)):
        for k in range(x.dim + 1):
            assert faces_of_dim(x, k) == frozenset(
                helpers.faces_by_enumeration(x, k + 1)
            )


@given(st.lists(
    st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True),
    min_size=1,
    max_size=8,
))
@example([[0], [3], [5]])
@example([[0, 1, 2], [1, 2, 3], [0, 4, 5]])
def test_f_vector_against_enumeration(faces):
    # drawn faces of mixed sizes give non-pure complexes; faces of size one
    # only give dimension 0, where f_0 is also the facet count
    x = from_facets(faces)
    assert f_vector(x).counts == tuple(
        len(helpers.faces_by_enumeration(x, k + 1)) for k in range(x.dim + 1)
    )


def test_faces_of_dim_bounds():
    x = helpers.simplex(2)
    assert faces_of_dim(x, -1) == frozenset({()})
    assert faces_of_dim(EMPTY, -1) == frozenset({()})
    with pytest.raises(DimensionRangeError):
        faces_of_dim(x, 3)
    with pytest.raises(DimensionRangeError):
        faces_of_dim(x, -2)


def test_f_vector_frozen_values():
    # enumerated independently in helpers.faces_by_enumeration
    assert f_vector(kuehnel_torus(2)).counts == (7, 21, 14)
    assert f_vector(kuehnel_torus(2)).euler == 0
    assert f_vector(kuehnel_torus(3)).counts == (9, 36, 54, 27)
    assert f_vector(kuehnel_solid(2)).counts == (7, 21, 21, 7)
    assert f_vector(boundary_complex(helpers.simplex(3))).euler == 2
    # the boundary stores its counts; a fresh copy enumerates them
    assert f_vector(SimplicialComplex(boundary_complex(helpers.simplex(3)).facets)).euler == 2


def test_f_vector_of_kuehnel_torus_13_within_budget():
    # links all stacked spheres: the counts come from f0 and f1
    x = kuehnel_torus(13)
    t0 = perf_counter()
    fv = f_vector(x)
    dt = perf_counter() - t0
    assert fv.counts[:3] == (29, 406, 2639) and fv.counts[-1] == 377
    assert fv.euler == 0
    assert dt < 0.6, f"f_vector(kuehnel_torus(13)) took {dt:.2f} s"


def test_peek_reads_a_memoised_value_without_building_it():
    x = kuehnel_torus(3)
    assert _vertex_facets.peek(x) is None
    index = _vertex_facets(x)
    assert _vertex_facets.peek(x) is index


def test_link_of_vertex_in_octahedron_boundary():
    sphere = boundary_complex(helpers.simplex(3))
    lk = link(sphere, (0,))
    assert lk.facets == ((1, 2), (1, 3), (2, 3))


def test_link_of_edge_in_torus():
    lk = link(kuehnel_torus(2), (0, 1))
    # a ridge of a closed surface links to exactly two vertices
    assert lk.dim == 0
    assert len(lk.facets) == 2


def test_link_empty_face_is_identity():
    x = kuehnel_solid(2)
    assert link(x, ()) == x


def test_link_requires_a_face():
    with pytest.raises(NotAFaceError):
        link(helpers.simplex(2), (0, 5))


def test_link_of_facet_is_empty():
    assert link(helpers.simplex(2), (0, 1, 2)) == EMPTY


def test_link_matches_the_definition():
    for name, x in helpers.corpus():
        faces = helpers.faces_by_enumeration(x, 1) | helpers.faces_by_enumeration(x, 2)
        for alpha in sorted(faces):
            assert link(x, alpha) == helpers.link_by_definition(x, alpha), (name, alpha)
        absent = max(x.vertices) + 1
        non_face = next(
            (e for e in combinations(x.vertices, 2) if e not in faces),
            x.vertices[:1] + (absent,),
        )
        for missing in (non_face, (absent,)):
            with pytest.raises(NotAFaceError):
                link(x, missing)


def test_join_simplices():
    # join of a segment and a point is a triangle
    seg = from_facets([(0, 1)])
    pt = from_facets([(5,)])
    assert helpers.join(seg, pt).facets == ((0, 1, 5),)


def test_join_rejects_shared_vertices():
    with pytest.raises(VertexClashError):
        helpers.join(helpers.simplex(2), helpers.simplex(1))


@given(faces_strategy, faces_strategy)
def test_join_f_vector_is_convolution(fa, fb):
    a = from_facets(fa)
    b = from_facets([[v + 100 for v in f] for f in fb])
    j = helpers.join(a, b)
    ca, cb, cj = (
        f_vector(a).counts,
        f_vector(b).counts,
        f_vector(j).counts,
    )
    for k in range(len(cj)):
        total = 0
        for i in range(-1, k + 1):
            left = 1 if i == -1 else (ca[i] if i < len(ca) else 0)
            jdx = k - i - 1
            right = 1 if jdx == -1 else (cb[jdx] if jdx < len(cb) else 0)
            total += left * right
        assert cj[k] == total


def test_face_sets_are_not_memoised():
    x = kuehnel_torus(4)
    fv = f_vector(x)
    faces = faces_of_dim(x, 2)
    assert not any(isinstance(v, frozenset) for v in x._face_cache.values())
    assert faces_of_dim(x, 2) == faces and len(faces) == fv.counts[2]


def test_purity():
    assert is_pure(kuehnel_solid(3))
    assert not is_pure(from_facets([(0, 1, 2), (2, 3)]))


def test_weak_pseudomanifold():
    assert is_weak_pseudomanifold(kuehnel_torus(2))
    three_around_an_edge = from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert not is_weak_pseudomanifold(three_around_an_edge)


def test_pseudomanifold_needs_connected_dual():
    two_spheres = from_facets(
        list(boundary_complex(helpers.simplex(3)).facets)
        + list(helpers.shifted(boundary_complex(helpers.simplex(3)), 10).facets)
    )
    assert is_weak_pseudomanifold(two_spheres)
    assert not is_pseudomanifold(two_spheres)
    assert is_pseudomanifold(kuehnel_torus(3))


def test_boundary_of_simplex():
    bd = boundary_complex(helpers.simplex(3))
    assert f_vector(bd).counts == (4, 6, 4)
    assert f_vector(SimplicialComplex(bd.facets)).counts == (4, 6, 4)


def test_boundary_of_closed_complex_is_empty():
    assert boundary_complex(kuehnel_torus(2)) == EMPTY


def test_boundary_requires_weak_pseudomanifold():
    with pytest.raises(PreconditionError):
        boundary_complex(from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)]))
    with pytest.raises(PreconditionError):
        boundary_complex(EMPTY)


def _answer(reader, x):
    """What ``reader`` returns on ``x``, or the class and message it raises."""
    try:
        return reader(x)
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("reader", [
    f_vector, betti_z2, chain_complex, tight_neighborly_check,
    is_weak_pseudomanifold, is_pseudomanifold, dual_graph, _facet_graph_counts,
    beta1_dual_formula, class_membership, boundary_complex, is_stacked_ball,
    is_stacked_sphere,
], ids=lambda reader: reader.__name__)
def test_the_empty_face_alone_is_answered_as_the_empty_complex(reader):
    # the boundary of a point: no vertex, and dimension -1 as for EMPTY
    empty_face = boundary_complex(from_facets([(0,)]))
    assert empty_face == SimplicialComplex(((),)) and empty_face.dim == -1
    assert _answer(reader, empty_face) == _answer(reader, EMPTY)


def test_boundary_of_stacked_ball_is_sphere_sized():
    ball = helpers.path_ball(3, 6)
    bd = boundary_complex(ball)
    assert bd.dim == 2
    assert f_vector(bd).euler == 2
    assert f_vector(SimplicialComplex(bd.facets)).euler == 2


def test_relabel_vertices():
    x = helpers.simplex(2)
    y = relabel_vertices(x, {0: 5, 1: 3, 2: 8})
    assert y.facets == ((3, 5, 8),)
    with pytest.raises(ValueError):
        relabel_vertices(x, {0: 1, 1: 1, 2: 2})
    with pytest.raises(ValueError, match="'a'"):
        relabel_vertices(x, {0: "a", 1: 2, 2: 3})
    # a vertex without an image is named, the first in ascending order
    with pytest.raises(ValueError, match="^mapping has no image for vertex 2$"):
        relabel_vertices(x, {0: 5, 1: 6})
    with pytest.raises(ValueError, match="^mapping has no image for vertex 0$"):
        relabel_vertices(x, {2: 5})


def _neighborly_by_enumeration(x):
    return len(helpers.faces_by_enumeration(x, 2)) == comb(x.num_vertices, 2)


def test_neighborliness():
    assert is_neighborly(kuehnel_torus(4))
    assert is_neighborly(boundary_complex(helpers.simplex(4)))
    # hexagon misses chords
    assert not is_neighborly(from_facets([(i, (i + 1) % 6) for i in range(6)]))
    for name, x in helpers.corpus():
        assert is_neighborly(x) == _neighborly_by_enumeration(x), name


@given(helpers.small_complexes())
@example(from_facets([(0,)]))
@example(from_facets([(0,), (1,)]))
@example(from_facets([(i, (i + 1) % 6) for i in range(6)]))
@example(from_facets([(0, 1, 2), (3,)]))
@example(boundary_complex(helpers.simplex(4)))
def test_neighborliness_against_enumeration(x):
    assert is_neighborly(x) == _neighborly_by_enumeration(x)
