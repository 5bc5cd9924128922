import itertools
import random
from collections import Counter
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

import helpers
from helpers import small_complexes
from trimanifold import analysis, homology, walkup
from trimanifold.analysis import (
    _check_path_lemma,
    _check_two_connected,
    _refine,
    VertexBijection,
    are_isomorphic,
    bound_chain_audit,
    is_cover,
    is_critical,
    normalize_lemma_id,
    theorem_argument_audit,
    tight_neighborly_check,
    uniqueness_reconstruction,
    verify_lemma,
)
from trimanifold.complexes import (
    SimplicialComplex,
    _vertex_facets,
    boundary_complex,
    from_facets,
    relabel_vertices,
)
from trimanifold.dualgraph import dual_graph, high_degree_set
from trimanifold.errors import (
    LemmaHypothesisError,
    PreconditionError,
    ReconstructionFailure,
    UnknownLemmaError,
)
from trimanifold.tightness import LEMMA_IDS, corollary_bound_check, parameter_solutions
from trimanifold.walkup import kuehnel_solid, kuehnel_torus, random_stacked_ball


def test_tight_neighborly_equality_family():
    for d in (3, 4, 5):
        report = tight_neighborly_check(kuehnel_torus(d))
        assert report.satisfies_inequality
        assert report.is_equality
        assert report.lhs == report.rhs
        assert report.beta1 == 1
    assert tight_neighborly_check(kuehnel_torus(4)).lhs == 15


def test_tight_neighborly_fails_in_dimension_two():
    # the surface case sits below the bound: 6 < 12
    report = tight_neighborly_check(kuehnel_torus(2))
    assert not report.satisfies_inequality
    assert (report.lhs, report.rhs, report.beta1) == (6, 12, 2)


def test_tight_neighborly_spheres_hit_zero_both_sides():
    report = tight_neighborly_check(boundary_complex(helpers.simplex(4)))
    assert report.satisfies_inequality
    assert report.beta1 == 0
    assert report.rhs == 0


def test_tight_neighborly_rejects_disconnected():
    two_spheres = from_facets(
        list(boundary_complex(helpers.simplex(3)).facets)
        + list(helpers.shifted(boundary_complex(helpers.simplex(3)), 10).facets)
    )
    two_points = from_facets([(0,), (1,)])
    for x in (two_spheres, two_points):
        with pytest.raises(PreconditionError, match="input must be connected"):
            tight_neighborly_check(x)


def test_tight_neighborly_reads_beta1_through_the_one_class_gate():
    # a copy, as the generator stores the class report it proves; at d = 9
    # the gate of _stacked_link_counts runs the class test, once, and beta1
    # comes from g2 with no level swept
    x = SimplicialComplex(kuehnel_torus(9).facets)
    with mock.patch.object(walkup, "class_membership", wraps=walkup.class_membership) as cm, \
            mock.patch.object(homology, "_sweep", wraps=homology._sweep) as sweep:
        report = tight_neighborly_check(x)
    assert cm.call_count == 1 and not sweep.called
    assert walkup.class_membership.peek(x) == walkup.ClassReport(None, 0)
    assert report.beta1 == 1 and report.is_equality
    # one facet short it is in neither class, so the two-level sweep answers
    y = SimplicialComplex(x.facets[1:])
    with mock.patch.object(homology, "_sweep", wraps=homology._sweep) as sweep:
        near = tight_neighborly_check(y)
    assert [c.args for c in sweep.call_args_list] == [(y, 2)]
    assert near.beta1 == helpers.betti_by_matrices(y)[1] == 1


def test_parameter_solutions_frozen_lists():
    assert [(t.d, t.f0) for t in parameter_solutions(2, 500)] == [
        (13, 35),
        (83, 204),
        (491, 1189),
    ]
    assert [(t.d, t.f0) for t in parameter_solutions(3, 4)] == [(4, 15)]
    ones = parameter_solutions(1, 100)
    assert [(t.d, t.f0) for t in ones] == [(d, 2 * d + 3) for d in range(3, 101)]


def test_parameter_solutions_cited_dimension_four_cases():
    for beta1, f0 in ((8, 21), (14, 26), (42, 41)):
        sols = parameter_solutions(beta1, 4)
        assert (4, f0) in [(t.d, t.f0) for t in sols]


@given(st.integers(1, 60), st.integers(3, 60))
def test_parameter_solutions_resubstitute(beta1, d_max):
    for t in parameter_solutions(beta1, d_max):
        m = t.f0 - t.d - 2
        assert m * (m + 1) == t.beta1 * (t.d + 1) * (t.d + 2)
        assert 3 <= t.d <= d_max


def test_parameter_solutions_rejects_bad_ranges():
    with pytest.raises(ValueError):
        parameter_solutions(0, 10)
    with pytest.raises(ValueError):
        parameter_solutions(1, 2)


def test_corollary_bound_threshold():
    # d = 4 needs C(n-5, 2) >= 31, first satisfied at n = 14
    assert not corollary_bound_check(13, 4)
    assert corollary_bound_check(14, 4)
    with pytest.raises(ValueError):
        corollary_bound_check(20, 3)


def test_critical_and_cover_on_the_seven_vertex_solid():
    solid = kuehnel_solid(2)
    # facet ids 0 and 3 hold all seven vertices and split the cycle small
    assert is_cover(solid, {0, 3})
    assert is_critical(solid, {0, 3})
    assert not is_cover(solid, {0, 1})
    assert not is_critical(solid, {0, 1})


def test_lemma_id_normalization():
    assert normalize_lemma_id("2.4") == "2.4"
    assert normalize_lemma_id("lemma-2.4") == "2.4"
    with pytest.raises(UnknownLemmaError):
        normalize_lemma_id("7.7")


def test_registry_lemmas_hold_on_cyclic_solids():
    for d in (2, 3, 4, 5):
        solid = kuehnel_solid(d)
        for lemma_id in ("2.2", "2.3", "2.4", "2.5"):
            report = verify_lemma(solid, lemma_id)
            assert report.holds, (d, lemma_id)
    assert verify_lemma(kuehnel_solid(3), "lemma-2.4").lemma_id == "2.4"


def test_registry_rejects_instances_outside_the_class():
    with pytest.raises(LemmaHypothesisError):
        verify_lemma(kuehnel_torus(3), "2.2")
    with pytest.raises(LemmaHypothesisError):
        verify_lemma(helpers.path_ball(3, 6), "2.2")


def test_path_and_cover_lemmas_gate_at_minimal_vertex_count():
    # the cyclic solids sit exactly at f0 = 2 dim + 1, below the hypothesis
    with pytest.raises(LemmaHypothesisError):
        verify_lemma(kuehnel_solid(4), "2.8")
    with pytest.raises(LemmaHypothesisError):
        verify_lemma(kuehnel_solid(4), "2.9")
    # the cover corollary also needs dimension at least four
    with pytest.raises(LemmaHypothesisError):
        verify_lemma(kuehnel_solid(2), "2.9")


def test_two_connected_lemma_names_the_smallest_cut_node():
    # two triangles joined at node 2, and a pendant node 5 on node 4
    g = helpers.graph_from_edges(
        [(i,) for i in range(6)],
        [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)],
    )
    holds, witness = _check_two_connected(None, g, 2, 6)
    assert not holds
    assert witness == {"articulation_node": 2, "nu": 6}
    # the check returns no id; verify_lemma names the report by its key
    for lid in ("2.2", "2.3", "2.4", "2.5"):
        assert verify_lemma(kuehnel_solid(3), lid).lemma_id == lid


def test_path_lemma_against_prefix_oracle():
    cases = []
    for dim in (1, 2, 3, 4):
        for m in (1, 2, 5, 12):
            for seed in range(3):
                ball = random_stacked_ball(dim, m, seed=seed)
                cases += [ball, boundary_complex(ball)]
    for dim in (2, 3, 4, 5):
        cases += [kuehnel_solid(dim), kuehnel_torus(dim)]
    verdicts = Counter()
    for x in cases:
        g = dual_graph(x)
        for d in range(x.dim + 3):
            holds, witness = _check_path_lemma(x, g, d, 10**6)
            assert (holds, witness) == helpers.path_lemma_by_prefixes(g, d), (x, d)
            verdicts[witness["clause"] if witness else None] += 1
    assert verdicts[None] and verdicts["dropped vertex outside first facet"]
    assert verdicts["path too long"]
    # no complex above drops a vertex twice along a chain; a hand-built
    # path of facets does: 0 leaves, comes back, and leaves again
    g = helpers.graph_from_edges(
        [(0, 1), (1, 2), (0, 2), (2, 3)], [(0, 1), (1, 2), (2, 3)]
    )
    holds, witness = _check_path_lemma(None, g, 3, 10**6)
    assert (holds, witness) == helpers.path_lemma_by_prefixes(g, 3)
    assert witness == {
        "path": [0, 1, 2, 3], "dropped": [0, 1, 0], "clause": "repeated dropped vertex"
    }


def test_lemma_ids_are_published():
    assert LEMMA_IDS == ("2.2", "2.3", "2.4", "2.5", "2.8", "2.9")


def test_vertex_bijection_mechanics():
    b = VertexBijection(((0, 5), (1, 3), (2, 8)))
    assert b.mapping == {0: 5, 1: 3, 2: 8}
    x = helpers.simplex(2)
    y = relabel_vertices(x, b.mapping)
    assert b.maps_complex(x, y)
    assert not VertexBijection(((0, 5), (1, 3), (2, 9))).maps_complex(x, y)


def test_maps_complex_refuses_a_map_that_is_not_injective():
    # the facets of x, collapsed by 1, 2 -> 5, fall onto the one facet of y
    x, y = from_facets([(0, 1), (0, 2)]), from_facets([(4, 5)])
    assert not VertexBijection(((0, 4), (1, 5), (2, 5))).maps_complex(x, y)


def test_isomorphic_relabelings_are_found():
    solid = kuehnel_solid(3)
    perm = {v: (4 * v + 1) % 9 for v in range(9)}
    other = relabel_vertices(solid, perm)
    bij = are_isomorphic(solid, other)
    assert bij is not None
    assert bij.maps_complex(solid, other)


def test_isomorphism_distinguishes_equal_f_vectors():
    # both are stacked two-spheres on seven vertices, built from
    # different gluing trees
    a = boundary_complex(helpers.path_ball(3, 4))
    b = boundary_complex(helpers.star_ball(3, 4))
    from trimanifold.complexes import f_vector

    assert f_vector(a).counts == f_vector(b).counts == (7, 15, 10)
    assert are_isomorphic(a, b) is None


def test_isomorphism_shortcircuits_on_f_vector():
    assert are_isomorphic(helpers.simplex(2), helpers.simplex(3)) is None


@given(st.randoms(use_true_random=False))
def test_isomorphism_under_random_permutation(rng):
    torus = kuehnel_torus(2)
    labels = list(range(20, 40))
    rng.shuffle(labels)
    perm = {v: labels[v] for v in torus.vertices}
    other = relabel_vertices(torus, perm)
    bij = are_isomorphic(torus, other)
    assert bij is not None and bij.maps_complex(torus, other)


# six triangles on which individualising 0 against 1 refines to a discrete
# colouring that is no isomorphism; the full rounds split it further
_DISCRETE_NON_ISOMORPHISM = from_facets(
    [(0, 2, 4), (0, 2, 5), (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4)]
)


@given(small_complexes(), small_complexes(), st.permutations(range(7)))
# a triangle and a square: refinement cannot tell their vertices apart, and
# the first candidate of y lies on the wrong cycle, so the search backtracks
@example(
    from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),
    from_facets([(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (4, 6)]),
    [6, 5, 4, 3, 2, 1, 0],
)
@example(_DISCRETE_NON_ISOMORPHISM, _DISCRETE_NON_ISOMORPHISM, list(range(7)))
@example(
    from_facets([(0, 1, 2), (0, 1, 3), (0, 2, 4)]),
    from_facets([(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3)]),
    list(range(7)),
)
@example(
    from_facets([(0, 1), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (3, 5)]),
    from_facets([(0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
    list(range(7)),
)
@example(
    from_facets([(0,)]),
    from_facets([(0, 2, 4), (0, 3, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5), (1, 2, 6),
                 (2, 3, 5), (2, 5, 6)]),
    list(range(7)),
)
def test_isomorphism_against_every_bijection(x, y, labels):
    copy = relabel_vertices(x, {v: 3 * labels[v] + 1 for v in x.vertices})
    for a, b in ((x, y), (y, x), (x, copy)):
        bij = are_isomorphic(a, b)
        assert (bij is not None) == helpers.isomorphic_by_permutations(a, b)
        assert bij is None or bij.maps_complex(a, b)
    assert are_isomorphic(x, copy) is not None


def _refine_against_full_rounds(x, y, cx, cy):
    """``_refine`` next to the full-round oracle; returns ``_refine``'s pair.

    When the two sides of ``_refine``'s pair use different colours, it is
    the first full round whose two colour sets differ, dict for dict.
    Otherwise it is the stable pair, except where ``_refine`` stops at a
    discrete colouring whose colour-matching bijection is no isomorphism:
    full rounds then split a matched pair apart, so the class sizes of the
    two sides differ.  The search drops every such pair, so its answers
    are the same.
    """
    got = _refine(x, y, cx, cy)
    rounds = list(helpers.refine_rounds(x, y, cx, cy))
    gx, gy = got
    if set(gx.values()) != set(gy.values()):
        assert got == next(
            (a, b) for a, b in rounds if set(a.values()) != set(b.values())
        )
    elif got != rounds[-1]:
        assert len(set(gx.values())) == len(gx)
        image = {c: w for w, c in gy.items()}
        bij = VertexBijection(tuple((v, image[gx[v]]) for v in x.vertices))
        assert not bij.maps_complex(x, y)
        wx, wy = rounds[-1]
        assert Counter(wx.values()) != Counter(wy.values())
    return got


@given(small_complexes(), small_complexes(), st.integers(0, 6), st.integers(0, 6))
@example(_DISCRETE_NON_ISOMORPHISM, _DISCRETE_NON_ISOMORPHISM, 0, 1)
# both sides turn discrete on different colours, and a colour they share
# still splits
@example(
    from_facets([(0, 1, 2), (0, 1, 3), (0, 2, 4)]),
    from_facets([(0, 1, 2), (0, 1, 4), (0, 3, 4), (1, 2, 3)]),
    1,
    2,
)
# the sides share their colours after round 1 and part at round 2; round 3
# renumbers again, so stopping a round early or late shows
@example(
    from_facets([(0, 1), (0, 4), (1, 3), (1, 4), (1, 5), (2, 3), (3, 5)]),
    from_facets([(0, 3), (1, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5)]),
    0,
    0,
)
# a point is discrete at once, but the other side still splits for rounds
@example(
    from_facets([(0,)]),
    from_facets([(0, 2, 4), (0, 3, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5), (1, 2, 6),
                 (2, 3, 5), (2, 5, 6)]),
    0,
    0,
)
# the vertex facet sizes (2,), (2, 2), (2, 3) and (3,): one a prefix of the
# next, which the single-class round must number shorter first
@example(
    from_facets([(0, 1, 2), (2, 3), (3, 4)]),
    from_facets([(0, 1), (1, 2), (2, 3, 4)]),
    0,
    0,
)
def test_refine_against_full_rounds(x, y, i, j):
    uniform = dict.fromkeys(x.vertices, 0), dict.fromkeys(y.vertices, 0)
    stable = _refine_against_full_rounds(x, y, *uniform)
    v, w = x.vertices[i % x.num_vertices], y.vertices[j % y.num_vertices]
    # individualise on the uniform colouring and, as the search does, on
    # the stable one
    for cx, cy in (uniform, stable):
        _refine_against_full_rounds(x, y, {**cx, v: -1}, {**cy, w: -1})


def test_refine_stops_at_a_discrete_colouring():
    x = _DISCRETE_NON_ISOMORPHISM
    uniform = dict.fromkeys(x.vertices, 0)
    cx, cy = {**uniform, 0: -1}, {**uniform, 1: -1}
    gx, gy = _refine(x, x, cx, cy)
    assert sorted(gx.values()) == sorted(gy.values()) == list(range(6))
    wx, wy = helpers.refine_by_full_rounds(x, x, cx, cy)
    assert set(wx.values()) != set(wy.values())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_refine_against_full_rounds_on_relabelled_tori(d):
    torus = kuehnel_torus(d)
    labels = list(torus.vertices)
    random.Random(d).shuffle(labels)
    copy = relabel_vertices(torus, {v: 3 * w + 1 for v, w in zip(torus.vertices, labels)})
    px, py = _refine_against_full_rounds(
        torus, copy, dict.fromkeys(torus.vertices, 0), dict.fromkeys(copy.vertices, 0)
    )
    for w in copy.vertices:
        _refine_against_full_rounds(torus, copy, {**px, 0: -1}, {**py, w: -1})


def _refine_work(monkeypatch, x, y):
    """``are_isomorphic(x, y)`` with its work counted: the answer, the calls
    of ``_refine`` and the rounds they ran (a round reads the vertex index
    of each side once)."""
    calls = reads = 0
    inside = False
    refine, index = analysis._refine, analysis._vertex_facets

    def counted_refine(*args):
        nonlocal calls, inside
        calls += 1
        inside = True
        try:
            return refine(*args)
        finally:
            inside = False

    def counted_index(z):
        nonlocal reads
        reads += inside
        return index(z)

    with monkeypatch.context() as patch:
        patch.setattr(analysis, "_refine", counted_refine)
        patch.setattr(analysis, "_vertex_facets", counted_index)
        answer = are_isomorphic(x, y)
    return answer, calls, reads // 2


def _uniform(x, y):
    return dict.fromkeys(x.vertices, 0), dict.fromkeys(y.vertices, 0)


def test_spheres_with_different_degree_sets_part_at_the_root_round(monkeypatch):
    a = boundary_complex(random_stacked_ball(3, 60, seed=1))
    b = boundary_complex(random_stacked_ball(3, 60, seed=2))
    degrees = [{len(ids) for ids in _vertex_facets(z).values()} for z in (a, b)]
    assert degrees[0] != degrees[1]
    cx, cy = next(helpers.refine_rounds(a, b, *_uniform(a, b)))
    assert set(cx.values()) != set(cy.values())
    assert _refine_work(monkeypatch, a, b) == (None, 1, 1)


@pytest.mark.parametrize("d, m, seed", [(3, 60, 3), (4, 80, 4), (5, 50, 5)])
def test_a_relabelled_sphere_runs_one_round_fewer(monkeypatch, d, m, seed):
    sphere = boundary_complex(random_stacked_ball(d, m, seed=seed))
    labels = list(sphere.vertices)
    random.Random(seed).shuffle(labels)
    copy = relabel_vertices(sphere, dict(zip(sphere.vertices, labels)))
    bij, calls, rounds = _refine_work(monkeypatch, sphere, copy)
    assert bij is not None and bij.maps_complex(sphere, copy)
    # the root refinement turns the pair discrete, one round before the
    # full rounds confirm that no class splits
    full = list(helpers.refine_rounds(sphere, copy, *_uniform(sphere, copy)))
    assert (calls, rounds) == (1, len(full) - 1) == (1, {3: 3, 4: 2, 5: 2}[d])


@pytest.mark.parametrize(
    "a, b",
    [
        (
            [(i, (i + 1) % 6) for i in range(6)],
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        ),
        (
            [(i, j) for i in range(3) for j in range(3, 6)],
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)],
        ),
    ],
    ids=["hexagon-vs-two-triangles", "k33-vs-prism"],
)
def test_isomorphism_beyond_colour_refinement(a, b):
    # both sides are regular graphs of one degree, so refinement from the
    # uniform colouring never splits a class; only the search tells them apart
    a, b = from_facets(a), from_facets(b)
    cx, cy = _refine(a, b, dict.fromkeys(a.vertices, 0), dict.fromkeys(b.vertices, 0))
    assert set(cx.values()) == set(cy.values()) == {0}
    assert not helpers.isomorphic_by_permutations(a, b)
    assert are_isomorphic(a, b) is None
    assert are_isomorphic(b, a) is None


def test_isomorphism_of_a_relabelled_polygon_within_budget():
    # every vertex of a polygon looks alike, so a search ordered by vertex
    # invariants alone went exponential on this 42-gon
    polygon = boundary_complex(random_stacked_ball(2, 40, seed=0))
    assert polygon.num_vertices == len(polygon.facets) == 42
    labels = list(polygon.vertices)
    random.Random(1).shuffle(labels)
    copy = relabel_vertices(polygon, dict(zip(polygon.vertices, labels)))
    t0 = perf_counter()
    bij = are_isomorphic(polygon, copy)
    dt = perf_counter() - t0
    assert bij is not None and bij.maps_complex(polygon, copy)
    assert dt < 2.0, f"took {dt:.2f} s, budget 2 s"


def test_reconstruction_on_shuffled_solids():
    for d, mult, shift in ((3, 2, 3), (4, 3, 7), (5, 5, 1)):
        solid = kuehnel_solid(d)
        n = solid.num_vertices
        perm = {v: (mult * v + shift) % n for v in range(n)}
        shuffled = relabel_vertices(solid, perm)
        bij = uniqueness_reconstruction(shuffled)
        assert bij.maps_complex(shuffled, solid)


def test_reconstruction_rejects_tree_duals():
    with pytest.raises(ReconstructionFailure) as info:
        uniqueness_reconstruction(helpers.path_ball(4, 9))
    assert info.value.step == "cycle-check"


def test_reconstruction_rejects_wrong_cycle_length():
    # a six-triangle annulus has a cyclic facet graph of the wrong size
    annulus = from_facets(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (0, 4, 5), (0, 1, 5)]
    )
    with pytest.raises(ReconstructionFailure) as info:
        uniqueness_reconstruction(annulus)
    assert info.value.step == "size-check"


@pytest.mark.parametrize("facets, message", [
    # facet cycles on 2D + 1 vertices found by a seeded random search
    ([(3, 4, 5, 6), (0, 3, 5, 6), (0, 1, 3, 6), (0, 1, 2, 3), (0, 1, 2, 5),
      (1, 2, 4, 5), (2, 4, 5, 6)], "vertex 4 lies in 3 facets, expected 4"),
    ([(1, 2, 3, 4, 5), (0, 2, 3, 4, 5), (0, 2, 4, 5, 7), (0, 4, 5, 6, 7),
      (4, 5, 6, 7, 8), (1, 4, 6, 7, 8), (0, 1, 4, 6, 8), (0, 1, 2, 4, 8),
      (1, 2, 3, 4, 8)], "facets of vertex 0 are not one consecutive arc"),
])
def test_reconstruction_rejects_a_vertex_off_one_arc(facets, message):
    with pytest.raises(ReconstructionFailure) as info:
        uniqueness_reconstruction(from_facets(facets))
    assert info.value.step == "arc-check"
    assert message in str(info.value)


@pytest.mark.parametrize("facets, big_d", [
    # a triangle's three edges and the five-vertex Moebius strip are facet
    # cycles of the right size below the dimension of any cyclic solid
    ([(0, 1), (1, 2), (0, 2)], 1),
    ([(i, (i + 1) % 5, (i + 2) % 5) for i in range(5)], 2),
])
def test_reconstruction_rejects_dimension_below_three(facets, big_d):
    with pytest.raises(ReconstructionFailure) as info:
        uniqueness_reconstruction(from_facets(facets))
    assert info.value.step == "size-check"
    assert f"need dimension at least 3, got {big_d}" in str(info.value)


def _closed_facet_cycles(big_d, walks, seed):
    """Seeded walks of 2D + 1 facets on {0, ..., 2D} whose facet graph is
    one cycle: each step moves to a facet sharing a ridge with the last one
    and with no earlier one, and the last step also closes on the first.
    A walk that runs out of such facets is dropped."""
    rng = random.Random(seed)
    n = 2 * big_d + 1
    every = [frozenset(c) for c in itertools.combinations(range(n), big_d + 1)]
    near = {f: [g for g in every if len(f & g) == big_d] for f in every}
    for _ in range(walks):
        walk = [rng.choice(every)]
        while len(walk) < n:
            closing = len(walk) == n - 1
            options = [
                f for f in near[walk[-1]]
                if all(len(f & g) < big_d for g in walk[closing:-1])
                and (not closing or len(f & walk[0]) == big_d)
            ]
            if not options:
                break
            walk.append(rng.choice(options))
        else:
            yield from_facets(walk)


def test_reconstruction_past_arc_check_always_maps_onto_the_solid():
    # passing arc-check implies distinct arc ends and facets that map onto
    # the solid (the proof in uniqueness_reconstruction); random facet sets
    # almost never close into a cycle, so the walk builds closed cycles
    t0 = perf_counter()
    outcomes = Counter()
    for big_d in (3, 4):
        solid = kuehnel_solid(big_d - 1)
        for x in _closed_facet_cycles(big_d, 1500, seed=big_d):
            try:
                bij = uniqueness_reconstruction(x)
            except ReconstructionFailure as exc:
                message = str(exc)
                if exc.step == "size-check":
                    # the cycle is closed but leaves a vertex out
                    assert x.num_vertices < 2 * big_d + 1, message
                    continue
                assert exc.step == "arc-check", message
                outcomes["one arc" if "consecutive" in message else "arc size"] += 1
                continue
            assert bij.maps_complex(x, solid)
            outcomes["mapped"] += 1
    assert min(outcomes["mapped"], outcomes["one arc"], outcomes["arc size"]) > 0, outcomes
    assert perf_counter() - t0 < 2.0


def test_reconstruction_rejects_impure_input():
    with pytest.raises(ReconstructionFailure) as info:
        uniqueness_reconstruction(from_facets([(0, 1, 2), (2, 3)]))
    assert info.value.step == "purity"


def test_bound_chain_audit_degenerate_cycle_case():
    report = theorem_argument_audit(kuehnel_solid(4), 1)
    assert report.lemma_id == "tightness-chain"
    assert report.holds
    assert report.witness == {
        "nu": 11,
        "eps": 11,
        "t_size": 0,
        "beta1_from_graph": 1,
        "degenerate_cycle": True,
        "equation": True,
    }


def test_bound_chain_audit_contradiction_branch():
    # a four-cycle with one chord has cycle rank two; the chain then
    # pushes the minimal vertex count past the cover bound
    g = helpers.graph_from_edges(
        ((0,), (1,), (2,), (3,)),
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],
    )
    report = bound_chain_audit(g, 35, 13, 2)
    assert report.holds
    assert report.witness["n_min_from_equation"] == 35
    assert report.witness["n_bound_from_chain"] == 30
    assert report.witness["contradiction"]


def test_bound_chain_audit_least_f0_matches_search():
    g = helpers.graph_from_edges(((0,), (1,)), [(0, 1)])
    for d in range(200):
        for beta1 in range(-2, 60):
            if beta1 != 1:
                report = bound_chain_audit(g, 9, d, beta1)
                assert report.witness["n_min_from_equation"] == (
                    helpers.least_f0_by_search(d, beta1)
                ), (d, beta1)


def test_bound_chain_audit_has_no_size_cliff():
    # counting up takes about 1.3 s at d = 10^7 and 100 times that at 10^9,
    # so a count fails the smaller case first
    g = helpers.graph_from_edges(((0,), (1,)), [(0, 1)])
    for d in (10**7, 10**9):
        start = perf_counter()
        report = bound_chain_audit(g, 9, d, 2)
        assert perf_counter() - start < 0.1, d
        m = report.witness["n_min_from_equation"]
        target = 2 * (d + 1) * (d + 2)
        assert (m - d - 1) * (m - d - 2) >= target > (m - d - 2) * (m - d - 3)


def test_bound_chain_audit_detects_mismatched_beta():
    g = helpers.graph_from_edges(((0,), (1,)), [(0, 1)])
    report = bound_chain_audit(g, 9, 3, 1)
    assert not report.holds



@pytest.mark.parametrize(
    "args, witness, t",
    [
        ((4, 2, 50), {"nu": 50, "eps": 51, "t_size": 4, "beta1_from_graph": 2,
                      "n_bound_from_chain": 12, "n_min_from_equation": 14,
                      "contradiction": True}, [2, 16, 33, 48]),
        ((5, 2, 60), None, None),
    ],
)
def test_theorem_audit_on_the_bar_solid_of_a_two_handle_body(args, witness, t):
    # the chain's arithmetic gives the contradiction whatever the body;
    # these bodies are not neighborly, so the premises fail: the degree->=3
    # facets miss a vertex, and two facets of degree 1 push |T| past
    # 2(eps - nu) = 2
    mbar = walkup.bar_construction(helpers.handle_body(*args))
    report = theorem_argument_audit(mbar, 2)
    assert report.witness["contradiction"] and not report.holds
    g = dual_graph(mbar)
    cover = analysis._check_degree_three_cover(mbar, g, mbar.dim, mbar.num_vertices)
    assert cover[0] is False
    assert report.witness["t_size"] > 2 * (g.num_edges - g.num_nodes) == 2
    assert sorted(map(len, g.adjacency))[:3] == [1, 1, 2]
    if witness is not None:
        assert report.witness == witness
        assert cover[1] == {"t": t}


def test_bound_chain_contradiction_in_closed_form():
    g = helpers.graph_from_edges(((0,), (1,)), [(0, 1)])
    mismatches = [
        (d, beta1)
        for d in range(2001)
        for beta1 in range(-2, 8)
        if beta1 != 1
        and bound_chain_audit(g, 9, d, beta1).witness["contradiction"]
        != (beta1 <= 0 or (beta1 == 2 and d >= 2))
    ]
    assert mismatches == []


@pytest.mark.parametrize(
    "beta1, d_max, want",
    [
        (2, 100, [(13, 35), (83, 204)]),
        (3, 100, [(4, 15), (19, 56), (75, 209)]),
        (5, 100, [(5, 21), (43, 144)]),
        (6, 100, [(13, 50), (33, 119)]),
        (4, 400, []),
    ],
)
def test_parameter_solutions_frontier(beta1, d_max, want):
    assert [(t.d, t.f0) for t in parameter_solutions(beta1, d_max)] == want


def test_audit_cover_is_none_below_solid_dimension_four():
    # a pure 3-complex on 9 > 2 * 3 + 1 vertices whose facet graph has cycle
    # rank 2 and two degree-3 facets, (1, 3, 4, 6) and (2, 6, 7, 8), which
    # miss vertices 0 and 5; every other premise holds, and lemma 2.9
    # refuses dimension 3, so the cover premise is None and the chain holds
    mbar = from_facets([
        (0, 2, 3, 5), (0, 3, 5, 6), (0, 3, 5, 7), (0, 6, 7, 8), (1, 2, 3, 4),
        (1, 3, 4, 6), (1, 3, 4, 8), (1, 3, 6, 7), (2, 3, 6, 7), (2, 6, 7, 8),
        (5, 6, 7, 8),
    ])
    g = dual_graph(mbar)
    assert not is_cover(mbar, high_degree_set(g))
    with pytest.raises(LemmaHypothesisError):
        analysis._check_degree_three_cover(mbar, g, mbar.dim, mbar.num_vertices)
    report = theorem_argument_audit(mbar, 2)
    assert report == bound_chain_audit(g, 9, 2, 2)
    assert report.holds


def test_bound_chain_degenerate_cycle_is_false_below_the_cycle_size():
    # a single edge is no cycle, and f0 = 5 < 2 * 4 + 1: lemma 2.5 fails
    g = helpers.graph_from_edges(((0,), (1,)), [(0, 1)])
    report = bound_chain_audit(g, 5, 3, 1)
    assert report.witness["degenerate_cycle"] is False
    assert not report.holds
