"""Acceptance suite.

Each test covers one numbered criterion, prints a single pass/fail line
(run with ``pytest -s`` to see them all) and enforces its wall-clock
budget.  Everything is exact arithmetic; there are no tolerances.
"""

import random
from time import perf_counter

import helpers
from trimanifold.analysis import (
    VertexBijection,
    are_isomorphic,
    is_cover,
    is_critical,
    uniqueness_reconstruction,
    verify_lemma,
)
from trimanifold.complexes import (
    boundary_complex,
    f_vector,
    is_neighborly,
    link,
    relabel_vertices,
)
from trimanifold.dualgraph import dual_graph, is_cycle, vertex_facet_subgraph
from trimanifold.errors import InadmissibleHandleError
from trimanifold.homology import (
    beta1_dual_formula,
    beta1_z2,
    betti_z2,
    chain_complex,
    is_orientable,
)
from trimanifold.tightness import parameter_solutions
from trimanifold.walkup import (
    HandleMap,
    bar_construction,
    handle_addition,
    is_stacked_ball,
    is_stacked_sphere,
    kuehnel_solid,
    kuehnel_torus,
    random_stacked_ball,
)


def _report(num, name, problems, dt, budget):
    ok = not problems and dt < budget
    verdict = "PASS" if ok else "FAIL"
    print(
        f"criterion {num:2d} ({name}): {verdict}"
        f" ({dt:.2f} s, budget {budget:.0f} s)"
    )
    assert not problems, f"criterion {num}: " + "; ".join(problems)
    assert dt < budget, f"criterion {num} took {dt:.2f} s, budget {budget} s"


def test_criterion_01_generator_suite():
    t0 = perf_counter()
    problems = []
    for d in range(3, 9):
        torus = kuehnel_torus(d)
        if torus.num_vertices != 2 * d + 3:
            problems.append(f"d={d}: vertex count {torus.num_vertices}")
        if not is_neighborly(torus):
            problems.append(f"d={d}: not neighborly")
        for v in torus.vertices:
            if not is_stacked_sphere(link(torus, (v,))):
                problems.append(f"d={d}: link at {v} not a stacked sphere")
                break
        if beta1_z2(torus) != 1:
            problems.append(f"d={d}: beta1 != 1")
        if f_vector(torus).euler != 0:
            problems.append(f"d={d}: euler != 0")
        if is_orientable(torus) != (d % 2 == 0):
            problems.append(f"d={d}: orientability parity wrong")
    _report(1, "generator suite", problems, perf_counter() - t0, 5.0)


def test_criterion_02_bar_boundary_roundtrip():
    t0 = perf_counter()
    problems = []
    for d in range(4, 9):
        torus = kuehnel_torus(d)
        filled = bar_construction(torus)
        if boundary_complex(filled) != torus:
            problems.append(f"d={d}: boundary of the filling differs")
        if are_isomorphic(filled, kuehnel_solid(d)) is None:
            problems.append(f"d={d}: filling not isomorphic to the solid")
    _report(2, "bar roundtrip", problems, perf_counter() - t0, 5.0)


def test_criterion_03_counting_lemmas():
    t0 = perf_counter()
    problems = []
    for d in range(4, 9):
        solid = kuehnel_solid(d)
        g = dual_graph(solid)
        n, big_d = 2 * d + 3, d + 1
        if g.num_nodes * (big_d + 1) != n * (n - big_d):
            problems.append(f"d={d}: node count off")
        if g.num_edges * big_d != n * (n - big_d - 1):
            problems.append(f"d={d}: edge count off")
        if g.num_nodes != 2 * d + 3 or g.num_edges != 2 * d + 3:
            problems.append(f"d={d}: facet graph is not the {2 * d + 3}-cycle")
        if not (verify_lemma(solid, "2.5").holds and is_cycle(g)):
            problems.append(f"d={d}: cycle equality case not confirmed")
        if not verify_lemma(solid, "2.3").holds:
            problems.append(f"d={d}: per-vertex trees rejected")
        for v in solid.vertices:
            sub = vertex_facet_subgraph(solid, v)
            if sub.num_nodes != n - big_d:
                problems.append(f"d={d}: vertex {v} path has {sub.num_nodes} nodes")
                break
            if any(sub.degree(i) > 2 for i in range(sub.num_nodes)):
                problems.append(f"d={d}: vertex {v} subgraph is not a path")
                break
    _report(3, "counting lemmas", problems, perf_counter() - t0, 2.0)


def test_criterion_04_beta1_cross_oracle():
    t0 = perf_counter()
    problems = []
    for d in (4, 5, 6):
        from_graph = beta1_dual_formula(kuehnel_solid(d))
        from_rank = betti_z2(kuehnel_torus(d)).betti[1]
        if not (from_graph == from_rank == 1):
            problems.append(f"d={d}: {from_graph} vs {from_rank}")
    _report(4, "beta1 cross oracle", problems, perf_counter() - t0, 30.0)


def test_criterion_05_parameter_arithmetic():
    t0 = perf_counter()
    problems = []
    got = [(t.d, t.f0) for t in parameter_solutions(2, 500)]
    if got != [(13, 35), (83, 204), (491, 1189)]:
        problems.append(f"beta1=2 solutions {got}")
    ones = [(t.d, t.f0) for t in parameter_solutions(1, 100)]
    if ones != [(d, 2 * d + 3) for d in range(3, 101)]:
        problems.append("beta1=1 family is not f0 = 2d+3 throughout")
    if [(t.d, t.f0) for t in parameter_solutions(3, 4)] != [(4, 15)]:
        problems.append("beta1=3 d=4 solution missing")
    for beta1, n in ((8, 21), (14, 26), (42, 41)):
        if (4, n) not in [(t.d, t.f0) for t in parameter_solutions(beta1, 4)]:
            problems.append(f"beta1={beta1} misses n={n}")
    _report(5, "parameter arithmetic", problems, perf_counter() - t0, 1.0)


def test_criterion_06_handle_fixture():
    t0 = perf_counter()
    problems = []
    sphere = boundary_complex(helpers.path_ball(5, 11))
    hmap = HandleMap.create(
        tuple(range(5)),
        tuple(range(11, 16)),
        {j: j + 11 for j in range(5)},
    )
    if beta1_z2(sphere) != 0:
        problems.append("fixture sphere has nonzero beta1")
    result = handle_addition(sphere, hmap)
    if beta1_z2(result) != 1:
        problems.append("beta1 did not rise to one")
    if result.num_vertices != sphere.num_vertices - 5:
        problems.append("vertex count did not fall by d+1")
    if are_isomorphic(result, kuehnel_torus(4)) is None:
        problems.append("result is not the cyclic torus")
    # matching vertices that share a neighbor must be rejected
    bad = HandleMap.create(
        tuple(range(5)),
        (6, 7, 8, 9, 11),
        {0: 6, 1: 7, 2: 8, 3: 9, 4: 11},
    )
    try:
        handle_addition(sphere, bad)
        problems.append("inadmissible map was accepted")
    except InadmissibleHandleError:
        pass
    _report(6, "handle fixture", problems, perf_counter() - t0, 10.0)


def test_criterion_07_stacked_recognition():
    t0 = perf_counter()
    problems = []
    for seed in range(200):
        d = 2 + seed % 5
        m = 2 + (seed * 7) % 29
        ball = random_stacked_ball(d, m, seed=seed)
        if not is_stacked_ball(ball):
            problems.append(f"seed {seed}: counting criterion rejects")
            break
        if not helpers.peel_stacked_ball(ball):
            problems.append(f"seed {seed}: peeling rejects")
            break
        sphere = boundary_complex(ball)
        if not is_stacked_sphere(sphere):
            problems.append(f"seed {seed}: boundary not a stacked sphere")
            break
        pattern = (1,) + (0,) * (d - 2) + (1,)
        if betti_z2(sphere).betti != pattern:
            problems.append(f"seed {seed}: boundary pattern not spherical")
            break
    _report(7, "stacked recognition", problems, perf_counter() - t0, 20.0)


def test_criterion_08_uniqueness_reconstruction():
    t0 = perf_counter()
    problems = []
    rng = random.Random(31415)
    for d in (4, 5, 6):
        solid = kuehnel_solid(d)
        n = solid.num_vertices
        for _ in range(20):
            labels = list(range(n))
            rng.shuffle(labels)
            perm = {v: labels[v] for v in range(n)}
            shuffled = relabel_vertices(solid, perm)
            try:
                bij = uniqueness_reconstruction(shuffled)
            except Exception as exc:  # noqa: BLE001
                problems.append(f"d={d}: reconstruction raised {exc!r}")
                break
            if not bij.maps_complex(shuffled, solid):
                problems.append(f"d={d}: returned map is not an isomorphism")
                break
            composed = VertexBijection(
                tuple(sorted((v, bij.mapping[perm[v]]) for v in range(n)))
            )
            if not composed.maps_complex(solid, solid):
                problems.append(f"d={d}: composition is not an automorphism")
                break
    _report(8, "uniqueness reconstruction", problems, perf_counter() - t0, 10.0)


def test_criterion_09_chain_complex_axioms():
    t0 = perf_counter()
    problems = []
    for name, x in helpers.corpus():
        cc = chain_complex(x)
        for k in range(2, cc.dim + 1):
            if not cc.boundaries[k - 1].compose(cc.boundaries[k]).is_zero():
                problems.append(f"{name}: boundary squared nonzero at {k}")
        if betti_z2(x).alternating_sum() != f_vector(x).euler:
            problems.append(f"{name}: alternating betti sum misses euler")
    _report(9, "chain complex axioms", problems, perf_counter() - t0, 10.0)


def test_criterion_10_critical_implies_cover():
    t0 = perf_counter()
    problems = []
    rng = random.Random(2718)
    for d in (3, 4, 5, 6):
        solid = kuehnel_solid(d)
        nu = len(solid.facets)
        flagged = 0
        attempts = 0
        while flagged < 50 and attempts < 4000:
            attempts += 1
            size = rng.randint(2, max(2, nu // 2))
            ids = frozenset(rng.sample(range(nu), size))
            if not is_critical(solid, ids):
                continue
            flagged += 1
            if not is_cover(solid, ids):
                problems.append(f"d={d}: critical set {sorted(ids)} fails to cover")
                break
        if flagged < 50:
            problems.append(f"d={d}: only {flagged} critical samples found")
    _report(10, "critical implies cover", problems, perf_counter() - t0, 5.0)
