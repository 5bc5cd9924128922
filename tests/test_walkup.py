import hashlib
import random
import tracemalloc
from itertools import combinations, product
from math import comb
from time import perf_counter
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from trimanifold import complexes, dualgraph, fct, homology, walkup
from trimanifold.complexes import (
    EMPTY,
    SimplicialComplex,
    boundary_complex,
    f_vector,
    faces_of_dim,
    from_facets,
    is_pseudomanifold,
    is_weak_pseudomanifold,
    link,
    relabel_vertices,
)
from trimanifold.errors import InadmissibleHandleError, PreconditionError
from trimanifold.homology import betti_z2
from trimanifold.walkup import (
    ClassReport,
    HandleMap,
    _splitmix64,
    bar_construction,
    class_membership,
    handle_addition,
    is_stacked_ball,
    is_stacked_sphere,
    kuehnel_solid,
    kuehnel_torus,
    random_stacked_ball,
)


# reference stream for the split-and-mix generator, seed 0
SPLITMIX_SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_splitmix_reference_stream():
    state, outs = 0, []
    for _ in range(3):
        word, state = _splitmix64(state)
        outs.append(word)
    assert tuple(outs) == SPLITMIX_SEED0


# sha256 of the FCT text of random_stacked_ball(d, m, seed=7); the stream
# test above pins the words, these pin which ridge each word picks
STACKED_BALL_SEED7 = {
    (3, 1200): "e0584c6e3d0661a99101f422666b52c777462127a354454d18d2a2b15834c692",
    (4, 800): "2dae1ddbe7066969ff9bcce6383446e6ae1479491b0c22b3e0afc1d5f02c45eb",
    (5, 500): "86ff7642ba6bb63b1adf9b9fe9ad216235bb403f66031bc826291fbfd1bd307a",
}


@pytest.mark.parametrize("d, m", sorted(STACKED_BALL_SEED7))
def test_random_stacked_ball_reference_output(d, m):
    text = fct.dumps(random_stacked_ball(d, m, seed=7))
    assert hashlib.sha256(text.encode()).hexdigest() == STACKED_BALL_SEED7[d, m]


def test_kuehnel_solid_window_facets():
    assert kuehnel_solid(2).facets == (
        (0, 1, 2, 3),
        (0, 1, 2, 6),
        (0, 1, 5, 6),
        (0, 4, 5, 6),
        (1, 2, 3, 4),
        (2, 3, 4, 5),
        (3, 4, 5, 6),
    )
    with pytest.raises(ValueError):
        kuehnel_solid(1)


def test_kuehnel_torus_is_the_boundary():
    for d in (2, 3, 4):
        assert kuehnel_torus(d) == boundary_complex(kuehnel_solid(d))
    assert f_vector(kuehnel_torus(2)).counts == (7, 21, 14)


def test_stacked_ball_recognition():
    assert is_stacked_ball(helpers.simplex(4))
    assert is_stacked_ball(helpers.path_ball(3, 7))
    assert is_stacked_ball(helpers.star_ball(3, 5))
    # a cycle in the facet graph rules the solid out
    assert not is_stacked_ball(kuehnel_solid(3))
    # closed spheres fail the vertex count
    assert not is_stacked_ball(boundary_complex(helpers.simplex(3)))


def test_stacked_ball_agrees_with_peeling():
    cases = [
        helpers.simplex(3),
        helpers.path_ball(2, 6),
        helpers.star_ball(4, 6),
        kuehnel_solid(2),
        boundary_complex(helpers.simplex(4)),
    ]
    for seed in range(8):
        cases.append(random_stacked_ball(2 + seed % 3, 5 + seed, seed=seed))
    for x in cases:
        assert is_stacked_ball(x) == helpers.peel_stacked_ball(x)


def test_stacked_sphere_recognition():
    assert is_stacked_sphere(boundary_complex(helpers.simplex(4)))
    assert is_stacked_sphere(boundary_complex(helpers.path_ball(3, 6)))
    assert not is_stacked_sphere(kuehnel_torus(3))


OCTAHEDRON = from_facets(
    (a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)
)

# the boundary of the 4-dimensional cross-polytope on 10..17 with the facet
# (10, 12, 14, 16) stacked by a new vertex 0: lk 0 is the boundary of that
# tetrahedron, a stacked sphere, and lk 10 is an octahedron with one facet
# stacked, which is none
CROSS_STACKED = from_facets(
    [f for f in product((10, 11), (12, 13), (14, 15), (16, 17)) if f != (10, 12, 14, 16)]
    + [(0,) + t for t in combinations((10, 12, 14, 16), 3)]
)


def _pinched_and_split(d):
    """Closed d-complexes of two parts, with the name of each: two simplex
    boundaries sharing vertex 0, a stacked sphere and a simplex boundary
    sharing vertex 0, and two disjoint simplex boundaries.  Each meets a
    seal that is already a facet in the peel of the whole complex; the
    two pinched ones also in the cone peel of the shared vertex, whose
    link is split in two (every link of the disjoint pair is a simplex
    boundary, which stops the cone peel before any try)."""
    def simplex_boundary(labels):
        return list(combinations(labels, d + 1))

    sphere = boundary_complex(random_stacked_ball(d + 1, 4, seed=d))  # on 0..d+4
    return [
        (f"pinched-{d}", from_facets(
            simplex_boundary(range(d + 2)) + simplex_boundary((0, *range(d + 2, 2 * d + 3))))),
        (f"sphere-pinched-{d}", from_facets(
            [*sphere.facets, *simplex_boundary((0, *range(d + 5, 2 * d + 6)))])),
        (f"split-{d}", from_facets(
            simplex_boundary(range(d + 2)) + simplex_boundary(range(d + 2, 2 * d + 4)))),
    ]


def test_stacked_sphere_agrees_with_search():
    # stacking vertex 6 onto one facet of the octahedron: one peel undoes
    # it and leaves the octahedron, where no vertex can be peeled
    stacked_once = from_facets(
        [f for f in OCTAHEDRON.facets if f != (0, 2, 4)]
        + [(0, 2, 6), (0, 4, 6), (2, 4, 6)]
    )
    # disconnected and closed: peeling stops with more than d + 2 facets
    tetra = boundary_complex(helpers.simplex(3))
    two_tetra = from_facets(tetra.facets + helpers.shifted(tetra, 10).facets)
    sphere_and_tetra = from_facets(
        boundary_complex(random_stacked_ball(3, 6, seed=1)).facets
        + helpers.shifted(tetra, 100).facets
    )
    two_parts = [x for d in range(3, 9) for _, x in _pinched_and_split(d)]
    cases = [OCTAHEDRON, stacked_once, two_tetra, sphere_and_tetra, *two_parts]
    for d in range(1, 5):
        for m in (1, 2, 3, 5, 8):
            for seed in (0, 1):
                cases.append(boundary_complex(random_stacked_ball(d, m, seed=seed)))
    for d in (2, 3, 4):
        torus = kuehnel_torus(d)
        cases.extend(link(torus, (v,)) for v in torus.vertices)
    cases.extend(
        x for _, x in helpers.corpus()
        if is_weak_pseudomanifold(x) and not boundary_complex(x).facets
    )
    # stacked with a hub: the apex of the cone over a stacked ball lies in
    # every facet but those of the ball
    for d in (1, 2, 3):
        for m in (1, 2, 3, 5, 8):
            for seed in (0, 1):
                ball = random_stacked_ball(d, m, seed=seed)
                apex = max(ball.vertices) + 1
                cases.append(boundary_complex(from_facets(f + (apex,) for f in ball.facets)))
    # 3-spheres in class K, stacked only with no bistellar move (g2 = 0)
    bistellar = {
        helpers.bistellar_sphere(m, seed, moves): moves
        for m in (6, 9, 12) for seed in (0, 1) for moves in range(m // 4 + 1)
    }
    cases.extend(bistellar)
    for s in cases:
        assert is_stacked_sphere(s) == helpers.stacked_sphere_by_search(s), s
    for s, moves in bistellar.items():
        assert is_stacked_sphere(s) == (moves == 0), s
        assert class_membership(s) == helpers.class_membership_by_links(s), s
        assert class_membership(s).k_fail is None, s
    for s in (OCTAHEDRON, stacked_once, two_tetra, sphere_and_tetra, *two_parts):
        assert not is_stacked_sphere(s)


def test_the_peel_leaves_the_complex_and_its_indices_as_built():
    # the peel works on copies: after both of its callers ran, the facets
    # and every memoised index equal those of a fresh complex
    cases = [SimplicialComplex(kuehnel_torus(5).facets), helpers.handle_body(3, 2, 40)]
    cases += [x for d in (3, 6) for _, x in _pinched_and_split(d)]
    indices = (complexes._vertex_facets, complexes._ridge_incidence, complexes._neighbours)
    for x in cases:
        fresh = SimplicialComplex(x.facets)
        for index in indices:
            index(x)
        class_membership(x)
        is_stacked_sphere(x)
        assert x.facets == fresh.facets
        assert [index(x) for index in indices] == [index(fresh) for index in indices]


def test_stacked_sphere_recognition_has_no_size_cliff():
    # 10002 facets and 4999 peels: a pass over all facets per peel misses
    # the budget (about 20 s on Python 3.11)
    sphere = boundary_complex(random_stacked_ball(3, 5000, seed=7))
    t0 = perf_counter()
    ok = is_stacked_sphere(sphere)
    dt = perf_counter() - t0
    assert ok
    assert dt < 5.0, f"is_stacked_sphere took {dt:.2f} s, budget 5 s"


def test_stacked_sphere_recognition_of_a_hub_has_no_size_cliff():
    # the boundary of the cone over a stacked 2-ball: 40002 facets, 20002
    # of them through the apex, whose star list every peel next to it
    # grows; a peel that filtered that list on every pop of the apex would
    # miss the budget (about 0.4 s for both on Python 3.11).  Beside a
    # tetrahedron's boundary the apex is tried again and again once its
    # star is down to d + 1 facets
    ball = random_stacked_ball(2, 20000, seed=3)
    apex = max(ball.vertices) + 1
    hub = boundary_complex(from_facets(f + (apex,) for f in ball.facets))
    tetra = helpers.shifted(boundary_complex(helpers.simplex(3)), apex + 1)
    beside = from_facets(hub.facets + tetra.facets)
    assert len(hub.facets) == 40002
    assert sum(apex in f for f in hub.facets) == 20002
    t0 = perf_counter()
    answers = [is_stacked_sphere(hub), is_stacked_sphere(beside)]
    dt = perf_counter() - t0
    assert answers == [True, False]
    assert dt < 2.0, f"is_stacked_sphere took {dt:.2f} s, budget 2 s"


def test_stacked_sphere_builds_no_vertex_index():
    # the peel builds its own star map from the facets, so a fresh complex
    # caches no vertex -> facets index, whatever the answer
    stacked = boundary_complex(random_stacked_ball(3, 40, seed=2))
    for x, answer in ((stacked, True), (OCTAHEDRON, False)):
        fresh = SimplicialComplex(x.facets)
        assert is_stacked_sphere(fresh) == answer
        assert "_vertex_facets" not in fresh._face_cache


def test_stacked_sphere_needs_a_closed_input():
    with pytest.raises(PreconditionError, match="^input has a non-empty boundary$"):
        is_stacked_sphere(helpers.path_ball(3, 6))
    # in dimension 0 the one ridge is the empty face: one point has a
    # boundary, two points are the stacked 0-sphere
    with pytest.raises(PreconditionError, match="^input has a non-empty boundary$"):
        is_stacked_sphere(from_facets([(0,)]))
    assert is_stacked_sphere(from_facets([(0,), (1,)]))


@pytest.mark.parametrize("x", [
    EMPTY,
    from_facets([(0, 1, 2), (2, 3)]),
    from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
], ids=["empty", "impure", "three-facets-on-a-ridge"])
def test_stacked_sphere_needs_a_weak_pseudomanifold(x):
    with pytest.raises(PreconditionError, match="^input must be a pure weak pseudomanifold$"):
        is_stacked_sphere(x)


def test_class_membership_of_cyclic_complexes():
    for d in (2, 3, 4):
        solid = class_membership(kuehnel_solid(d))
        assert solid.kbar_fail is None and solid.k_fail is not None
        torus = class_membership(kuehnel_torus(d))
        assert torus.k_fail is None and torus.kbar_fail is not None
    # every link of a polygon is two points, a stacked 0-sphere and 0-ball
    hexagon = from_facets([(i, (i + 1) % 6) for i in range(6)])
    assert class_membership(hexagon) == walkup.ClassReport(None, None)


def test_class_membership_reports_first_failure():
    # every link of the solid is a ball, so the sphere test fails at vertex 0
    report = class_membership(kuehnel_solid(3))
    assert report == ClassReport(0, None)


def test_class_membership_reports_a_failure_after_a_passing_vertex():
    # the K scan peels the cone over lk 0 to the end and goes on to 10;
    # lk 0 is closed, so 0 fails K-bar
    assert class_membership(CROSS_STACKED) == ClassReport(10, 0)


class _TriedLog(dict):
    """A live star-size map that records every vertex the peel tries."""

    def __init__(self, *args):
        super().__init__(*args)
        self.tried = []

    def get(self, v, default=None):
        self.tried.append(v)
        return super().get(v, default)


def _logged_peels():
    # each peel builds its live star-size map with dict(...), which the log
    # shadows in walkup with a _TriedLog while that peel runs; the peel calls
    # dict nowhere else
    logs = []
    real = walkup._peels_to_simplex_boundary

    def logged(facets, apex=None):
        def log(*args):
            logs.append((apex, _TriedLog(*args)))
            return logs[-1][1]

        with mock.patch.object(walkup, "dict", log, create=True):
            return real(facets, apex)

    return logs, mock.patch.object(walkup, "_peels_to_simplex_boundary", logged)


def test_the_peel_log_records_the_tries_of_a_peel_that_runs():
    # the two tests below see no try; this one shows that the log would
    logs, patch = _logged_peels()
    with patch:
        assert is_stacked_sphere(boundary_complex(helpers.path_ball(3, 6)))
    [(apex, log)] = logs
    assert apex is None and log.tried


@pytest.mark.parametrize("d", range(6))
def test_the_peel_stops_at_once_on_the_boundary_of_a_simplex(d):
    logs, patch = _logged_peels()
    with patch:
        assert is_stacked_sphere(boundary_complex(helpers.simplex(d + 1)))
    assert [(apex, log.tried) for apex, log in logs] == [(None, [])]


@pytest.mark.parametrize("n", (3, 4, 7))
def test_polygon_links_stop_before_any_vertex_is_tried(n):
    # lk v is two points, a 0-sphere: the cone over it, two edges through
    # v, already has d + 2 facets
    polygon = from_facets([(i, (i + 1) % n) for i in range(n)])
    logs, patch = _logged_peels()
    with patch:
        assert class_membership(polygon) == ClassReport(None, None)
    assert [(apex, log.tried) for apex, log in logs] == [(v, []) for v in range(n)]


def test_class_membership_has_no_size_cliff():
    # 4792 facets of dimension 12, and the 13-torus on other labels: about
    # 0.4 s together on Python 3.11
    body = SimplicialComplex(helpers.handle_body(12, 5, 400).facets)
    torus = kuehnel_torus(13)
    labels = random.Random(13).sample(range(100, 1000), torus.num_vertices)
    relabelled = relabel_vertices(torus, dict(zip(torus.vertices, labels)))
    assert len(body.facets) == 4792 and class_membership.peek(relabelled) is None
    t0 = perf_counter()
    reports = [class_membership(body), class_membership(relabelled)]
    dt = perf_counter() - t0
    assert [r.k_fail for r in reports] == [None, None]
    assert dt < 2.0, f"class_membership took {dt:.2f} s, budget 2 s"


def test_class_membership_is_memoised_but_errors_are_not():
    x = kuehnel_torus(3)
    report = class_membership(x)
    assert class_membership(x) is report
    assert class_membership(from_facets(x.facets)) == report
    mixed = from_facets([(0, 1, 2), (2, 3)])
    for _ in range(2):
        with pytest.raises(PreconditionError):
            class_membership(mixed)
    assert mixed._face_cache == {}


def _same_class_report(x, by_links=helpers.link_by_definition):
    try:
        want = helpers.class_membership_by_links(x, by_links)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            class_membership(x)
        return
    assert class_membership(x) == want, x


@settings(max_examples=1000, deadline=None)
@given(helpers.small_complexes())
def test_class_membership_against_every_link_on_its_own(x):
    _same_class_report(x)


def _class_report_instances():
    """Complexes to classify, and the link the oracle builds them with: by
    definition while a complex is small, the package's own otherwise (it
    is checked against the definition in test_complexes)."""
    items = [(name, lambda x=x: x) for name, x in helpers.corpus()]
    # fresh copies: the generators store the report their construction
    # proves, and the class test is what is compared here
    for d in range(2, 10):
        items += [(f"torus-{d}", lambda d=d: SimplicialComplex(kuehnel_torus(d).facets)),
                  (f"solid-{d}", lambda d=d: SimplicialComplex(kuehnel_solid(d).facets))]
    for d in range(1, 6):
        for seed in (0, 1):
            items += [
                (f"ball-{d}-{seed}",
                 lambda d=d, seed=seed: SimplicialComplex(random_stacked_ball(d, 30, seed).facets)),
                (f"sphere-{d}-{seed}",
                 lambda d=d, seed=seed: boundary_complex(random_stacked_ball(d, 30, seed))),
            ]
    for d, k, m in ((3, 1, 40), (3, 2, 40), (4, 2, 40), (6, 2, 60), (8, 3, 120)):
        items.append((f"handles-{d}-{k}", lambda d=d, k=k, m=m: helpers.handle_body(d, k, m)))
    # a solid in class K-bar whose facet graph has cycles
    items.append(("bar-of-handles-4-2",
                  lambda: bar_construction(helpers.handle_body(4, 2, 50))))
    for n in (3, 4, 6, 9):
        items.append((f"polygon-{n}",
                      lambda n=n: from_facets([(i, (i + 1) % n) for i in range(n)])))
    # the boundary of the 4-dimensional cross-polytope is closed, and its
    # links are octahedra, which are not stacked
    cross = from_facets(product((0, 1), (2, 3), (4, 5), (6, 7)))
    items += [
        ("octahedron", lambda: OCTAHEDRON),
        ("cross-polytope-3", lambda: cross),
        ("cross-polytope-3-stacked", lambda: CROSS_STACKED),
        ("one-point", lambda: from_facets([(0,)])),
        ("two-points", lambda: from_facets([(0,), (1,)])),
        ("three-points", lambda: from_facets([(0,), (1,), (2,)])),
        ("three-facets-on-a-ridge", lambda: from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])),
    ]
    # pinched and split links
    items += [(name, lambda x=x: x) for d in range(3, 9) for name, x in _pinched_and_split(d)]
    return [pytest.param(make, id=name) for name, make in items]


@pytest.mark.parametrize("make", _class_report_instances())
def test_class_membership_against_every_link_on_its_own_on_families(make):
    x = make()
    _same_class_report(x, helpers.link_by_definition if x.num_vertices <= 13 else link)


@pytest.mark.parametrize("make, closed", [
    # copies, as the generators store the class report they prove
    pytest.param(lambda: SimplicialComplex(kuehnel_torus(5).facets), True, id="torus-5"),
    pytest.param(lambda: helpers.handle_body(3, 2, 40), True, id="handles-3-2"),
    pytest.param(lambda: SimplicialComplex(kuehnel_solid(5).facets), False, id="solid-5"),
    pytest.param(lambda: SimplicialComplex(random_stacked_ball(4, 200).facets), False,
                 id="ball-4-200"),
])
def test_class_membership_reads_closed_links_from_the_ambient_ridge_index(make, closed):
    x = make()
    built = mock.Mock(wraps=complexes.link)
    with mock.patch.object(complexes, "link", built), \
            mock.patch.object(walkup, "link", built, create=True), \
            mock.patch.object(walkup, "_peels_to_simplex_boundary",
                              wraps=walkup._peels_to_simplex_boundary) as peels, \
            mock.patch.object(walkup, "_ridge_incidence",
                              wraps=walkup._ridge_incidence) as ridges, \
            mock.patch.object(dualgraph, "dual_graph", wraps=dualgraph.dual_graph) as graphs:
        report = class_membership(x)
    assert (report.k_fail is None, report.kbar_fail is None) == (closed, not closed)
    # no link is built: a closed complex peels the cone over every link,
    # apex first vertex first; an open one fails K at a vertex on its
    # boundary before any peel
    assert not built.called
    assert [call.args[1] for call in peels.call_args_list] == (
        list(x.vertices) if closed else [])
    # one index, the ambient one, read once and kept
    assert ridges.call_count == 1 and ridges.call_args.args[0] is x
    assert "_ridge_incidence" in x._face_cache
    # the links' facet graphs are stars of the ambient one, memoised on x;
    # a closed complex fails K-bar on its first vertex count
    assert all(call.args[0] is x for call in graphs.call_args_list)
    assert ("dual_graph" in x._face_cache) == (not closed)


def _generated_instances():
    items = []
    for d in range(2, 15):
        items += [pytest.param(kuehnel_solid, (d,), id=f"solid-{d}"),
                  pytest.param(kuehnel_torus, (d,), id=f"torus-{d}")]
    for d, m, seed in product(range(2, 7), (1, 2, 3, 30, 200), (0, 1, 7)):
        items.append(pytest.param(random_stacked_ball, (d, m, seed),
                                  id=f"ball-{d}-{m}-{seed}"))
    return items


@pytest.mark.parametrize("make, args", _generated_instances())
def test_generators_store_the_class_report_of_their_links(make, args):
    x = make(*args)
    stored = class_membership.peek(x)
    copy = SimplicialComplex(x.facets)  # no stored report: the class test runs
    by_links = helpers.link_by_definition if x.num_vertices <= 13 else link
    assert stored == helpers.class_membership_by_links(copy, by_links) == class_membership(copy)
    assert f_vector(x).counts == tuple(len(faces_of_dim(x, k)) for k in range(x.dim + 1))


def test_one_dimensional_stacked_balls_store_no_report():
    # the path 3-0-1-2: the inner vertices 0 and 1 have two-point links,
    # stacked 0-spheres, so vertex 2 is the first to fail class K
    x = random_stacked_ball(1, 3)
    assert class_membership.peek(x) is None
    assert class_membership(x) == ClassReport(2, None)


def _closed(d, k):
    """Mod-2 Betti vector of a closed d-manifold in class K with k handles."""
    return (1, k) + (0,) * (d - 3) + (k, 1)


def _beside(x, y):
    """``x`` and a copy of ``y`` shifted past the largest label of ``x``."""
    return from_facets(x.facets + helpers.shifted(y, 1 + max(x.vertices)).facets)


def _stacked_link_instances():
    """Complexes in class K or K-bar, some in two components, with their
    mod-2 Betti vectors."""
    items = []
    for d in range(3, 13):
        items += [
            pytest.param(lambda d=d: kuehnel_torus(d), _closed(d, 1), id=f"torus-{d}"),
            pytest.param(lambda d=d: kuehnel_solid(d), (1, 1) + (0,) * d, id=f"solid-{d}"),
            pytest.param(lambda d=d: random_stacked_ball(d, 8, seed=d), (1,) + (0,) * d,
                         id=f"ball-{d}"),
            pytest.param(lambda d=d: boundary_complex(random_stacked_ball(d + 1, 8, seed=d)),
                         _closed(d, 0), id=f"sphere-{d}"),
        ]
    for d, k, m in ((3, 1, 40), (3, 2, 40), (3, 3, 60), (4, 2, 50), (5, 2, 60)):
        items.append(pytest.param(lambda d=d, k=k, m=m: helpers.handle_body(d, k, m),
                                  _closed(d, k), id=f"handles-{d}-{k}"))
    for d in (3, 9):
        items.append(pytest.param(lambda d=d: _beside(kuehnel_torus(d), kuehnel_torus(d)),
                                  (2, 2) + (0,) * (d - 3) + (2, 2), id=f"two-tori-{d}"))
    for d in (3, 8):
        items.append(pytest.param(
            lambda d=d: _beside(random_stacked_ball(d, 8, 1), random_stacked_ball(d, 8, 2)),
            (2,) + (0,) * d, id=f"two-balls-{d}"))
    for d in (4, 8):
        items.append(pytest.param(
            lambda d=d: _beside(kuehnel_solid(d - 1), random_stacked_ball(d, 8, 1)),
            (2, 1) + (0,) * (d - 1), id=f"solid-beside-ball-{d}"))
    items.append(pytest.param(lambda: _beside(helpers.handle_body(4, 2, 50), kuehnel_torus(4)),
                              (2, 3, 0, 3, 2), id="handles-beside-torus-4"))
    for d, m in ((4, 50), (5, 60)):
        items.append(pytest.param(lambda d=d, m=m: bar_construction(helpers.handle_body(d, 2, m)),
                                  (1, 2) + (0,) * d, id=f"bar-handles-{d}-2"))
    return items


@pytest.mark.parametrize("make, want", _stacked_link_instances())
def test_stacked_link_counts_against_enumeration_and_full_matrices(make, want):
    x = make()
    report = class_membership(x)  # memoised, so the route answers at any d >= 3
    in_k, counts = walkup._stacked_link_counts(x)
    assert in_k == (report.k_fail is None) != (report.kbar_fail is None)
    enumerated = tuple(len(faces_of_dim(x, k)) for k in range(x.dim + 1))
    assert counts == enumerated == f_vector(x).counts
    full = helpers.betti_by_matrices(x)
    assert betti_z2(x).betti == full == want
    # K(3) holds spheres that are not stacked, so class K answers from d = 4
    assert homology._class_betti(x) == (None if in_k and x.dim == 3 else full)


def test_stacked_link_counts_below_the_gate_need_a_memoised_report():
    x = SimplicialComplex(kuehnel_torus(6).facets)  # no stored report
    assert walkup._stacked_link_counts(x) is None
    assert class_membership.peek(x) is None
    class_membership(x)
    assert walkup._stacked_link_counts(x) is not None
    # at the gate, dimension 7, the counts run the class test themselves
    y = SimplicialComplex(kuehnel_torus(7).facets)
    assert walkup._stacked_link_counts(y) is not None
    assert class_membership.peek(y) == ClassReport(None, 0)


def test_the_route_survives_a_class_test_rebound_to_a_plain_wrapper():
    original = walkup.class_membership

    def traced(m):
        return original(m)

    x = SimplicialComplex(kuehnel_torus(9).facets)  # no stored report
    with mock.patch.object(walkup, "class_membership", traced):
        assert f_vector(x).counts == tuple(len(faces_of_dim(x, k)) for k in range(10))
        assert betti_z2(x).betti == _closed(9, 1)
    assert class_membership.peek(x).k_fail is None


def test_the_boundary_store_survives_f_vector_rebound_to_a_plain_wrapper():
    original = complexes.f_vector

    def traced(x):
        return original(x)

    with mock.patch.object(complexes, "f_vector", traced):
        bd = boundary_complex(random_stacked_ball(4, 50, 1))
        assert traced(bd) == f_vector(SimplicialComplex(bd.facets))
    assert f_vector.peek(bd) is not None


@pytest.mark.parametrize("d", range(1, 8))
def test_the_stored_boundary_counts_against_enumeration(d):
    balls = [random_stacked_ball(d, m, seed) for m in (1, 2, 3, 30, 200) for seed in (0, 1, 7)]
    for ball in balls + [helpers.path_ball(d, m) for m in (1, 2, 30)]:
        bd = boundary_complex(ball)
        stored = f_vector.peek(bd)
        # a stacked 1-ball is a path, whose inner vertices are off its boundary
        assert (stored is None) == (d == 1)
        fresh = SimplicialComplex(bd.facets)
        assert f_vector.peek(fresh) is None
        assert f_vector(bd) == f_vector(fresh)
        assert f_vector(fresh).counts == tuple(len(faces_of_dim(bd, k)) for k in range(d))


@pytest.mark.parametrize("d", range(1, 7))
def test_the_stored_ball_counts_against_enumeration(d):
    for m in (1, 2, 3, 30, 200):
        for seed in (0, 1, 7):
            ball = random_stacked_ball(d, m, seed)
            stored = f_vector.peek(ball)
            assert stored is not None
            assert stored == f_vector(ball)  # read, and no index built for it
            assert "_neighbours" not in ball._face_cache
            fresh = SimplicialComplex(ball.facets)
            assert f_vector.peek(fresh) is None
            assert f_vector(fresh) == stored
            assert stored.counts == tuple(len(faces_of_dim(ball, k)) for k in range(d + 1))


@pytest.mark.parametrize("d", [3, 4, 6])
def test_a_ball_beside_a_solid_stores_no_boundary_counts(d):
    # f_0 = f_d + d and f_d - 1 interior ridges, but the facet graph is a
    # tree beside a cycle, not a tree
    ball = random_stacked_ball(d, 30, 1)
    solid = helpers.shifted(kuehnel_solid(d - 1), ball.num_vertices)
    x = from_facets(ball.facets + solid.facets)
    assert is_weak_pseudomanifold(x)
    assert x.num_vertices == len(x.facets) + d
    interior = sum(len(ids) == 2 for ids in complexes._ridge_incidence(x).values())
    assert interior == len(x.facets) - 1
    assert not is_stacked_ball(x)
    for y in (x, kuehnel_solid(d - 1), kuehnel_solid(d)):
        bd = boundary_complex(y)
        assert f_vector.peek(bd) is None
        assert f_vector(bd).counts == tuple(len(faces_of_dim(bd, k)) for k in range(bd.dim + 1))


def test_a_surface_with_a_memoised_class_k_report_takes_the_sweep():
    # the theorem needs d >= 3: the 7-vertex torus has g2 = C(4, 2) and beta1 = 2
    x = kuehnel_torus(2)
    assert class_membership(x).k_fail is None
    assert walkup._stacked_link_counts(x) is None
    assert betti_z2(x).betti == (1, 2, 1)


def test_disjoint_tori_take_no_sweep():
    torus = kuehnel_torus(9)
    x = from_facets(torus.facets + helpers.shifted(torus, 100).facets)
    with mock.patch.object(homology, "_sweep", wraps=homology._sweep) as sweep:
        assert betti_z2(x).betti == (2, 2) + (0,) * 6 + (2, 2)
    assert not sweep.called
    # the f-vector needs no connectivity
    assert f_vector(x).counts == tuple(len(faces_of_dim(x, k)) for k in range(10))


def test_non_pure_input_above_the_gate_is_counted_as_before():
    x = from_facets([tuple(range(10)), (20, 21), (21, 22)])
    counts = (13, 45 + 2) + tuple(comb(10, k + 1) for k in range(2, 10))
    assert f_vector(x).counts == counts
    assert betti_z2(x).betti == (2,) + (0,) * 9
    assert class_membership.peek(x) is None
    with pytest.raises(PreconditionError):
        class_membership(x)


def test_betti_of_a_solid_above_the_gate_takes_no_sweep():
    x = kuehnel_solid(9)
    with mock.patch.object(homology, "_sweep", wraps=homology._sweep) as sweep:
        assert betti_z2(x).betti == (1, 1) + (0,) * 9
    assert not sweep.called
    assert class_membership.peek(x).kbar_fail is None


def test_betti_of_a_read_in_solid_has_no_size_cliff():
    # read from FCT, with no stored report: the class test runs, and its
    # K-bar verdict answers in place of a sweep over 14 face levels
    x = fct.loads(fct.dumps(kuehnel_solid(13)))
    assert class_membership.peek(x) is None
    with mock.patch.object(homology, "_sweep", wraps=homology._sweep) as sweep:
        assert betti_z2(x).betti == (1, 1) + (0,) * 13
    assert not sweep.called
    assert class_membership.peek(x).kbar_fail is None


def test_random_stacked_ball_shape_and_determinism():
    a = random_stacked_ball(4, 12, seed=7)
    b = random_stacked_ball(4, 12, seed=7)
    c = random_stacked_ball(4, 12, seed=8)
    assert a == b
    assert a != c
    assert is_stacked_ball(a)
    fv = f_vector(a)
    assert fv.counts[-1] == 12
    assert fv.counts[0] == 4 + 12
    with pytest.raises(ValueError):
        random_stacked_ball(0, 3)
    with pytest.raises(ValueError):
        random_stacked_ball(3, 0)


def test_random_stacked_ball_boundaries_are_spheres():
    for seed in (0, 1, 2):
        ball = random_stacked_ball(3, 10, seed=seed)
        assert is_stacked_sphere(boundary_complex(ball))


def test_bar_construction_refills_stacked_balls():
    for d, m in ((4, 10), (5, 8)):
        ball = helpers.path_ball(d, m)
        assert bar_construction(boundary_complex(ball)) == ball
    # the boundary of a stacked d-ball is a stacked (d-1)-sphere; for d >= 4
    # its closure is the ball, for d = 3 the sphere itself
    for d in (3, 4, 5, 6):
        for seed in range(4):
            ball = random_stacked_ball(d, 30, seed=seed)
            sphere = boundary_complex(ball)
            closure = bar_construction(sphere)
            assert closure == helpers.bar_by_global_masks(sphere), (d, seed)
            assert closure == (ball if d >= 4 else sphere), (d, seed)


def test_bar_construction_refills_cyclic_solids():
    for d in range(2, 11):
        closure = bar_construction(kuehnel_torus(d))
        assert closure == helpers.bar_by_global_masks(kuehnel_torus(d)), d
        assert closure == (kuehnel_solid(d) if d >= 3 else kuehnel_torus(d)), d


@given(helpers.small_complexes())
# the search at vertex 1 prunes both of its candidates by the pivot 0; at
# vertex 0 a pivot that kept every candidate it allows would lose (0, 2, 3)
@example(from_facets([(0, 1, 2), (0, 1, 3), (0, 2, 3)]))
def test_bar_construction_matches_global_masks(x):
    with mock.patch.object(walkup, "from_facets", wraps=from_facets) as build:
        closure = bar_construction(x)
    assert closure == helpers.bar_by_global_masks(x)
    # the search lists each maximal set once and nothing else
    (listed,), _ = build.call_args
    assert sorted(tuple(sorted(f)) for f in listed) == list(closure.facets)


def test_bar_construction_of_large_inputs_within_budget():
    t0 = perf_counter()
    closure = bar_construction(kuehnel_torus(16))
    dt = perf_counter() - t0
    assert closure == kuehnel_solid(16)
    assert dt < 1.0, f"bar_construction(kuehnel_torus(16)) took {dt:.2f} s"
    # a 3-sphere on 20004 vertices: n-by-n triangle masks would take gigabytes
    ball = random_stacked_ball(4, 20000, seed=3)
    sphere = boundary_complex(ball)
    t0 = perf_counter()
    closure = bar_construction(sphere)
    dt = perf_counter() - t0
    assert closure == ball
    assert dt < 5.0, f"bar_construction of the 20004-vertex sphere took {dt:.2f} s"


def test_bar_construction_peak_memory_within_budget():
    sphere = boundary_complex(random_stacked_ball(3, 5000, seed=1))
    # a cone whose apex, labelled 0, neighbours every other vertex
    cone = from_facets((0,) + tuple(v + 1 for v in f) for f in sphere.facets)
    for name, x in (("sphere", sphere), ("cone", cone)):
        tracemalloc.start()
        try:
            closure = bar_construction(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert closure == x, name
        assert peak < 20 * 2**20, f"{name}: peak {peak / 2**20:.1f} MiB"


def test_handle_map_validation():
    with pytest.raises(InadmissibleHandleError):
        HandleMap.create((0, 1, 2), (2, 3, 4), {0: 2, 1: 3, 2: 4})
    with pytest.raises(InadmissibleHandleError):
        HandleMap.create((0, 1, 2), (3, 4, 5), {0: 3, 1: 4})
    with pytest.raises(InadmissibleHandleError):
        HandleMap.create((0, 1, 2), (3, 4, 5), {0: 3, 1: 3, 2: 5})
    hmap = HandleMap.create((0, 1, 2), (5, 4, 3), {0: 5, 1: 4, 2: 3})
    assert hmap.pairs == ((0, 5), (1, 4), (2, 3))
    assert hmap.mapping == {0: 5, 1: 4, 2: 3}


def test_handle_map_refuses_labels_that_are_not_ints():
    # (True, 2) and (1.0, 2.0) compare equal to the facet (1, 2)
    for sigma2 in ((True, 2), (1.0, 2.0), (-2, 1)):
        with pytest.raises(ValueError):
            HandleMap.create((4, 5), sigma2, dict(zip((4, 5), sigma2)))


def _is_canonical(x) -> bool:
    """Whether ``x`` holds int labels and the very facet tuples that
    ``from_facets`` makes of them."""
    ints = all(type(v) is int for f in x.facets for v in f)
    return ints and from_facets(x.facets).facets == x.facets


@given(st.integers(1, 5), st.integers(1, 60), st.integers(0, 2**64 - 1))
def test_random_stacked_ball_is_canonical(d, m, seed):
    assert _is_canonical(random_stacked_ball(d, m, seed))


@given(st.integers(1, 4), st.integers(0, 8), st.data())
def test_handle_addition_is_canonical(d, extra, data):
    # on the boundary of a path-shaped (d+1)-ball, vertices further apart
    # than 2(d+1) share no neighbour, so any matching of the end ridges
    # is admissible
    m = 3 * d + 3 + extra
    sphere = boundary_complex(helpers.path_ball(d + 1, m))
    sigma1, sigma2 = tuple(range(d + 1)), tuple(range(m, m + d + 1))
    images = data.draw(st.permutations(sigma2))
    out = handle_addition(sphere, HandleMap.create(sigma1, sigma2, dict(zip(sigma1, images))))
    assert _is_canonical(out)


@pytest.mark.parametrize("d", range(2, 9))
def test_kuehnel_complexes_are_canonical(d):
    assert _is_canonical(kuehnel_solid(d))
    assert _is_canonical(kuehnel_torus(d))


def _sphere16():
    return boundary_complex(helpers.path_ball(5, 11))


def test_handle_addition_torus_fixture():
    sphere = _sphere16()
    hmap = HandleMap.create(
        (0, 1, 2, 3, 4),
        (11, 12, 13, 14, 15),
        {j: j + 11 for j in range(5)},
    )
    out = handle_addition(sphere, hmap)
    assert out.num_vertices == sphere.num_vertices - 5
    assert is_pseudomanifold(out)
    assert betti_z2(out).betti[1] == betti_z2(sphere).betti[1] + 1


def test_handle_addition_requires_facets():
    sphere = _sphere16()
    hmap = HandleMap.create((0, 1, 2, 3, 5), (11, 12, 13, 14, 15),
                            {0: 11, 1: 12, 2: 13, 3: 14, 5: 15})
    with pytest.raises(InadmissibleHandleError):
        handle_addition(sphere, hmap)


def test_handle_addition_rejects_matched_neighbors():
    sphere = _sphere16()
    # vertices 4 and 5 span an edge, so matching them is inadmissible
    hmap = HandleMap.create((0, 1, 2, 3, 4), (5, 6, 7, 8, 10),
                            {0: 6, 1: 7, 2: 8, 3: 10, 4: 5})
    with pytest.raises(InadmissibleHandleError):
        handle_addition(sphere, hmap)


def test_handle_addition_common_neighbor_witness():
    sphere = _sphere16()
    hmap = HandleMap.create((0, 1, 2, 3, 4), (6, 7, 8, 9, 11),
                            {0: 6, 1: 7, 2: 8, 3: 9, 4: 11})
    with pytest.raises(InadmissibleHandleError) as info:
        handle_addition(sphere, hmap)
    witness = info.value.witness
    assert witness is not None
    src, dst, common = witness
    edge_set = faces_of_dim(sphere, 1)
    assert tuple(sorted((src, common))) in edge_set
    assert tuple(sorted((dst, common))) in edge_set
