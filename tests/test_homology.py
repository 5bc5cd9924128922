from time import perf_counter
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import helpers
from trimanifold import homology
from trimanifold.complexes import EMPTY, boundary_complex, f_vector, from_facets, relabel_vertices
from trimanifold.errors import PreconditionError
from trimanifold.homology import (
    Z2Matrix,
    _betti01,
    beta1_dual_formula,
    beta1_z2,
    betti_z2,
    chain_complex,
    is_orientable,
)
from trimanifold.walkup import class_membership, kuehnel_solid, kuehnel_torus, random_stacked_ball


def _pack_columns(rows):
    """Column bitmasks for a dense 0/1 row list."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    cols = []
    for c in range(ncols):
        mask = 0
        for r in range(nrows):
            if rows[r][c]:
                mask |= 1 << r
        cols.append(mask)
    return Z2Matrix(nrows, tuple(cols))


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            min_size=1,
            max_size=6,
        )
    )
)
def test_rank_matches_dense_elimination(rows):
    assert _pack_columns(rows).rank() == helpers.rank_gf2_dense(rows)


def test_rank_of_identity_and_zero():
    ident = Z2Matrix(3, (1, 2, 4))
    assert ident.rank() == 3
    zero = Z2Matrix(3, (0, 0, 0))
    assert zero.rank() == 0
    assert zero.is_zero()


def test_boundary_of_boundary_vanishes():
    for name, x in helpers.corpus():
        cc = chain_complex(x)
        for k in range(2, cc.dim + 1):
            square = cc.boundaries[k - 1].compose(cc.boundaries[k])
            assert square.is_zero(), name


def test_chain_complex_rejects_empty():
    with pytest.raises(PreconditionError):
        chain_complex(EMPTY)


def test_betti_frozen_values():
    assert betti_z2(boundary_complex(helpers.simplex(3))).betti == (1, 0, 1)
    assert betti_z2(boundary_complex(helpers.simplex(5))).betti == (1, 0, 0, 0, 1)
    assert betti_z2(kuehnel_torus(2)).betti == (1, 2, 1)
    assert betti_z2(kuehnel_torus(3)).betti == (1, 1, 1, 1)
    assert betti_z2(kuehnel_torus(4)).betti == (1, 1, 0, 1, 1)
    assert betti_z2(kuehnel_solid(3)).betti == (1, 1, 0, 0, 0)
    assert betti_z2(helpers.simplex(4)).betti == (1, 0, 0, 0, 0)


def test_betti_of_disconnected_complex():
    two_circles = from_facets(
        [(i, (i + 1) % 3) for i in range(3)]
        + [(10 + i, 10 + (i + 1) % 3) for i in range(3)]
    )
    assert betti_z2(two_circles).betti == (2, 2)


def test_euler_poincare_alternation():
    for name, x in helpers.corpus():
        bv = betti_z2(x)
        assert bv.alternating_sum() == f_vector(x).euler, name


def test_beta1_shortcut_agrees_with_full_vector():
    samples = [
        kuehnel_torus(2),
        kuehnel_torus(4),
        kuehnel_solid(3),
        helpers.path_ball(3, 6),
        boundary_complex(helpers.simplex(4)),
        random_stacked_ball(4, 10, seed=5),
    ]
    for x in samples:
        assert beta1_z2(x) == betti_z2(x).betti[1]
    assert beta1_z2(from_facets([(0,), (1,)])) == 0


def test_beta1_dual_formula_on_cyclic_solids():
    for d in (2, 3, 4):
        solid = kuehnel_solid(d)
        assert beta1_dual_formula(solid) == 1
        assert beta1_dual_formula(helpers.path_ball(d, 5)) == 0


def test_beta1_dual_formula_needs_connected_dual():
    two_spheres = from_facets(
        list(boundary_complex(helpers.simplex(3)).facets)
        + list(helpers.shifted(boundary_complex(helpers.simplex(3)), 10).facets)
    )
    with pytest.raises(PreconditionError):
        beta1_dual_formula(two_spheres)


def test_orientability_of_spheres_and_balls():
    assert is_orientable(boundary_complex(helpers.simplex(3)))
    assert is_orientable(boundary_complex(helpers.simplex(4)))
    assert is_orientable(boundary_complex(helpers.path_ball(4, 7)))


def test_orientability_alternates_with_torus_dimension():
    # even dimension carries the orientable bundle, odd the twisted one
    assert is_orientable(kuehnel_torus(2))
    assert not is_orientable(kuehnel_torus(3))
    assert is_orientable(kuehnel_torus(4))
    assert not is_orientable(kuehnel_torus(5))


def test_orientability_preconditions():
    with pytest.raises(PreconditionError, match="^orientability check requires a closed complex$"):
        is_orientable(helpers.path_ball(2, 4))
    impure = from_facets([(0, 1, 2), (2, 3)])
    branched = from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    for x in (EMPTY, impure, branched):
        with pytest.raises(PreconditionError, match="^orientability needs a pure weak pseudomanifold$"):
            is_orientable(x)


def test_orientability_of_two_points_and_of_two_disjoint_spheres():
    # two points, the only closed connected complex of dimension 0, take
    # the sign walk like any other input
    assert is_orientable(from_facets([(0,), (1,)]))
    sphere = boundary_complex(helpers.simplex(3))
    two = from_facets(sphere.facets + helpers.shifted(sphere, 10).facets)
    with pytest.raises(PreconditionError, match="^facet graph must be connected$"):
        is_orientable(two)


@st.composite
def complexes_in_parts(draw):
    """Small complexes, often non-pure, in one to three disjoint parts; a
    part is a few random faces or the boundary of a simplex."""
    faces = []
    for p in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 7))
        if draw(st.booleans()):
            part = [[v for v in range(n) if v != u] or [0] for u in range(n)]
        else:
            part = draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=5, unique=True),
                min_size=1,
                max_size=8,
            ))
        faces.extend([10 * p + v for v in f] for f in part)
    return from_facets(faces)


@given(complexes_in_parts())
def test_betti_sweep_matches_full_matrices(x):
    want = helpers.betti_by_matrices(x)
    b1 = want[1] if len(want) > 1 else 0
    assert betti_z2(x).betti == want
    assert beta1_z2(x) == b1
    assert _betti01(x) == (want[0], b1)


def _assert_levels_read_once(x):
    # faces_of_dim is the one face-level builder: the sweep reads each
    # level k = top .. 1 from it once, and no level from anywhere else
    for top in (x.dim, min(2, x.dim)):
        with mock.patch.object(homology, "faces_of_dim", wraps=homology.faces_of_dim) as levels:
            homology._sweep(x, top)
        assert [c.args for c in levels.call_args_list] == [(x, k) for k in range(top, 0, -1)]


@pytest.mark.parametrize(
    "x",
    [kuehnel_torus(5), kuehnel_solid(4), from_facets([(0, 1, 2, 3), (3, 4, 5), (5, 6), (7,)])],
    ids=["torus-5", "solid-4", "impure"],
)
def test_the_sweep_reads_each_level_from_faces_of_dim_once(x):
    _assert_levels_read_once(x)


@given(complexes_in_parts())
def test_the_sweep_reads_each_level_from_faces_of_dim_once_on_complexes_in_parts(x):
    _assert_levels_read_once(x)


_LABELLED = [kuehnel_torus(d) for d in range(2, 7)] + [kuehnel_solid(d) for d in range(2, 6)]


@given(st.one_of(complexes_in_parts(), st.sampled_from(_LABELLED)), st.data())
def test_betti_sweep_matches_full_matrices_after_relabelling(x, data):
    # the sweep reduces the columns of each level in set order, and new
    # labels change that order, so the pivot collisions come in a new order
    n = len(x.vertices)
    labels = data.draw(st.lists(st.integers(0, 4 * n + 40), min_size=n, max_size=n, unique=True))
    y = relabel_vertices(x, dict(zip(x.vertices, labels)))
    want = helpers.betti_by_matrices(y)
    b1 = want[1] if len(want) > 1 else 0
    assert want == helpers.betti_by_matrices(x)
    assert betti_z2(y).betti == want
    assert _betti01(y) == (want[0], b1)


def test_betti_of_kuehnel_family_and_stacked_spheres_against_full_matrices():
    cases = []
    for d in range(2, 11):
        torus = (1, 2, 1) if d == 2 else (1, 1) + (0,) * (d - 3) + (1, 1)
        cases.append((kuehnel_torus(d), torus))
        cases.append((kuehnel_solid(d), (1, 1) + (0,) * d))
    for d in range(1, 6):
        ball = random_stacked_ball(d, 40, seed=d)
        cases.append((ball, (1,) + (0,) * d))
        sphere = (2,) if d == 1 else (1,) + (0,) * (d - 2) + (1,)
        cases.append((boundary_complex(ball), sphere))
    for x, want in cases:
        assert betti_z2(x).betti == helpers.betti_by_matrices(x) == want, x.facets[0]


def test_betti_of_kuehnel_torus_12_within_budget():
    x = kuehnel_torus(12)
    t0 = perf_counter()
    bv = betti_z2(x)
    dt = perf_counter() - t0
    assert bv.betti == (1, 1) + (0,) * 9 + (1, 1)
    assert dt < 2.5, f"betti_z2(kuehnel_torus(12)) took {dt:.2f} s"


def test_betti_of_kuehnel_torus_13_within_budget():
    # links all stacked spheres: the Betti vector comes from g2
    x = kuehnel_torus(13)
    t0 = perf_counter()
    bv = betti_z2(x)
    dt = perf_counter() - t0
    assert bv.betti == (1, 1) + (0,) * 10 + (1, 1)
    assert dt < 0.6, f"betti_z2(kuehnel_torus(13)) took {dt:.2f} s"


def test_betti_of_a_long_strip_within_budget():
    # without clearing, the column of the edge {i, i+1} reduces to zero only
    # after about i additions, so the sweep turns quadratic
    x = helpers.path_ball(2, 8000)
    t0 = perf_counter()
    bv = betti_z2(x)
    dt = perf_counter() - t0
    assert bv.betti == (1, 0, 0)
    assert dt < 1.0, f"betti_z2 of the 8000-triangle strip took {dt:.2f} s"


@pytest.mark.parametrize(
    "d, m, want",
    [(6, 2000, (1, 0, 0, 0, 0, 1)), (4, 6000, (1, 0, 0, 1))],
)
def test_betti_of_stacked_sphere_boundaries_within_budget(d, m, want):
    # many columns of the top map of a stacked sphere share a pivot, and
    # every collision builds and adds columns
    x = boundary_complex(random_stacked_ball(d, m, seed=1))
    t0 = perf_counter()
    bv = betti_z2(x)
    dt = perf_counter() - t0
    assert bv.betti == want
    assert dt < 1.0, f"betti_z2 of the boundary of random_stacked_ball({d}, {m}) took {dt:.2f} s"


def test_betti_of_large_kbar_solids_within_budget():
    # both carry a stored K-bar report, so betti_z2 takes no closed form
    # and sweeps every level, at dimensions 14 and 9
    solid, ball = kuehnel_solid(13), random_stacked_ball(9, 300, 1)
    assert class_membership.peek(solid).kbar_fail is None
    assert class_membership.peek(ball).kbar_fail is None
    t0 = perf_counter()
    bv_solid, bv_ball = betti_z2(solid), betti_z2(ball)
    dt = perf_counter() - t0
    assert bv_solid.betti == (1, 1) + (0,) * 13
    assert bv_ball.betti == (1,) + (0,) * 9
    assert dt < 3.0, f"betti_z2 of kuehnel_solid(13) and random_stacked_ball(9, 300, 1) took {dt:.2f} s"
