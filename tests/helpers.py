"""Slow-but-simple reference implementations shared across the tests.

Everything here recomputes answers by definition chasing: global subset
enumeration for faces and links, dense row reduction for binary ranks,
Betti numbers from full boundary matrices ranked one at a time,
delete-a-node sweeps for two-connectivity and cut nodes, chain paths
stored prefix by prefix for the path lemma, reverse peeling for stacked
balls, a backtracking peel search for stacked spheres, an all-pairs
scan for maximal faces, a pivotless search over global pair and triple
masks for the bar construction, colour refinement on nested tuples a
round at a time until no round splits a class, a try-every-bijection
isomorphism check, and a count up to the least vertex count that the
tightness equation allows.  The point is independence from the fast
paths in the package, so agreement is evidence rather than circularity.

The test-only join raises :class:`VertexClashError`, defined here.

Two oracles keep an earlier form of an entry point instead: the FCT
reader that converts one token at a time, and the Walkup class report
that builds every vertex link and runs both recognisers on it.
"""

import io
from functools import lru_cache
from itertools import combinations, permutations

from hypothesis import strategies as st

from trimanifold.complexes import (
    EMPTY,
    SimplicialComplex,
    boundary_complex,
    faces_of_dim,
    from_facets,
    is_pure,
    relabel_vertices,
)
from trimanifold.dualgraph import DualGraph, components_minus, is_connected
from trimanifold.errors import (
    EmptyComplexError,
    FctFormatError,
    PreconditionError,
    TriManifoldError,
)
from trimanifold.homology import chain_complex
from trimanifold.walkup import (
    ClassReport,
    HandleMap,
    handle_addition,
    is_stacked_ball,
    is_stacked_sphere,
    kuehnel_solid,
    kuehnel_torus,
    random_stacked_ball,
)


class VertexClashError(TriManifoldError):
    """Join operands share a vertex label."""


def simplex(d: int) -> SimplicialComplex:
    return from_facets([range(d + 1)])


def join(x: SimplicialComplex, y: SimplicialComplex) -> SimplicialComplex:
    """Simplicial join; operand vertex sets must be disjoint."""
    clash = set(x.vertices) & set(y.vertices)
    if clash:
        raise VertexClashError(f"operands share vertices {sorted(clash)}")
    return SimplicialComplex(
        tuple(sorted(tuple(sorted(f + g)) for f in x.facets for g in y.facets))
    )


def maximal_faces_by_pairs(faces) -> tuple:
    """Sorted inclusion-maximal faces, each face tested against every
    larger face kept before it."""
    canon = {tuple(sorted(set(f))) for f in faces} - {()}
    maximal, larger = [], []
    for length in sorted({len(f) for f in canon}, reverse=True):
        kept = [
            f for f in canon
            if len(f) == length and not any(set(f) <= g for g in larger)
        ]
        maximal.extend(kept)
        larger.extend(set(f) for f in kept)
    return tuple(sorted(maximal))


def isomorphic_by_permutations(x: SimplicialComplex, y: SimplicialComplex) -> bool:
    """Whether some vertex bijection carries the facets of ``x`` onto those
    of ``y``, trying every bijection; at most 8 vertices."""
    if x.num_vertices != y.num_vertices:
        return False
    if x.num_vertices > 8:
        raise ValueError("the permutation check takes at most 8 vertices")
    target = set(y.facets)
    for images in permutations(y.vertices):
        image = dict(zip(x.vertices, images))
        if {tuple(sorted(image[v] for v in f)) for f in x.facets} == target:
            return True
    return False


def refine_rounds(x: SimplicialComplex, y: SimplicialComplex, cx: dict, cy: dict):
    """Joint colour refinement of ``x`` and ``y`` on nested tuples: yield
    the colouring pair of each round, up to the first round that adds no
    colour class.

    A facet's colour is the sorted tuple of its vertex colours, a vertex's
    signature its old colour with the sorted tuple of its facet colours,
    and the signatures of both sides are numbered together in sorted order.
    """
    classes = len(set(cx.values()) | set(cy.values()))
    while True:
        sigs = []
        for z, c in ((x, cx), (y, cy)):
            sigs.append({
                v: (c[v], tuple(sorted(
                    tuple(sorted(c[u] for u in f)) for f in z.facets if v in f
                )))
                for v in z.vertices
            })
        joint = sorted(set(sigs[0].values()) | set(sigs[1].values()))
        number = {s: k for k, s in enumerate(joint)}
        cx = {v: number[s] for v, s in sigs[0].items()}
        cy = {v: number[s] for v, s in sigs[1].items()}
        yield cx, cy
        if len(number) == classes:
            return
        classes = len(number)


def refine_by_full_rounds(x: SimplicialComplex, y: SimplicialComplex, cx: dict, cy: dict):
    """The stable pair of :func:`refine_rounds`: its last round."""
    *_, last = refine_rounds(x, y, cx, cy)
    return last


def loads_by_lines(text: str) -> SimplicialComplex:
    """FCT text read one line and one token at a time, each token through
    ``int``; the first bad or negative label raises naming its line.  Lines
    end where a text file or standard input ends them (universal
    newlines)."""
    facets = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        labels = []
        for token in body.split():
            try:
                v = int(token, 10)
            except ValueError:
                raise FctFormatError(lineno, f"bad vertex label {token!r}") from None
            if v < 0:
                raise FctFormatError(lineno, f"negative vertex label {v}")
            labels.append(v)
        facets.append(labels)
    if not facets:
        raise FctFormatError(0, "no facets in input")
    try:
        return from_facets(facets)
    except EmptyComplexError:
        raise FctFormatError(0, "no facets in input") from None


def dumps_by_lines(x: SimplicialComplex) -> str:
    """FCT text written one facet and one label at a time through ``str``."""
    return "".join(" ".join(map(str, f)) + "\n" for f in x.facets)


def bar_by_global_masks(m: SimplicialComplex) -> SimplicialComplex:
    """The maximal vertex sets all of whose pairs are edges and all of whose
    triples are triangles of ``m``, by a Bron-Kerbosch search without a
    pivot over an n-bit edge mask per vertex and an n-by-n table of
    triangle masks; it visits every face of the result."""
    verts = m.vertices
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    edge_mask = [0] * n
    if m.dim >= 1:
        for a, b in faces_of_dim(m, 1):
            ia, ib = pos[a], pos[b]
            edge_mask[ia] |= 1 << ib
            edge_mask[ib] |= 1 << ia
    tri_mask = [[0] * n for _ in range(n)]
    if m.dim >= 2:
        for a, b, c in faces_of_dim(m, 2):
            ia, ib, ic = pos[a], pos[b], pos[c]
            tri_mask[ia][ib] |= 1 << ic
            tri_mask[ib][ia] |= 1 << ic
            tri_mask[ia][ic] |= 1 << ib
            tri_mask[ic][ia] |= 1 << ib
            tri_mask[ib][ic] |= 1 << ia
            tri_mask[ic][ib] |= 1 << ia
    results: list[tuple[int, ...]] = []

    def expand(chosen: list[int], p: int, x: int) -> None:
        if p == 0 and x == 0:
            results.append(tuple(verts[i] for i in chosen))
            return
        while p:
            v = (p & -p).bit_length() - 1
            bit = 1 << v
            allowed = edge_mask[v]
            for r in chosen:
                allowed &= tri_mask[r][v]
            chosen.append(v)
            expand(chosen, (p & ~bit) & allowed, x & allowed)
            chosen.pop()
            p &= ~bit
            x |= bit

    expand([], (1 << n) - 1, 0)
    return from_facets(results)


def faces_by_enumeration(x: SimplicialComplex, size: int) -> set:
    """Every size-element vertex subset lying inside some facet."""
    found = set()
    for subset in combinations(x.vertices, size):
        wanted = set(subset)
        if any(wanted <= set(f) for f in x.facets):
            found.add(subset)
    return found


@lru_cache(maxsize=None)
def _faces_by_size(x: SimplicialComplex) -> tuple:
    return tuple(frozenset(faces_by_enumeration(x, k)) for k in range(x.dim + 2))


def link_by_definition(x: SimplicialComplex, alpha) -> SimplicialComplex:
    """Faces disjoint from ``alpha`` whose union with it is a face of ``x``."""
    a = set(alpha)
    gens = [
        tuple(v for v in face if v not in a)
        for faces in _faces_by_size(x)[len(a) + 1:]
        for face in faces
        if a <= set(face)
    ]
    return from_facets(gens) if gens else EMPTY


def class_membership_by_links(m: SimplicialComplex, link=link_by_definition) -> ClassReport:
    """The Walkup class report from every vertex link on its own: each
    link is built by ``link`` and goes through both recognisers."""
    if not m.facets or not is_pure(m):
        raise PreconditionError("class membership requires a non-empty pure complex")
    k_fail = kbar_fail = None
    for v in m.vertices:
        lk = link(m, (v,))
        try:
            sphere_ok = is_stacked_sphere(lk)
        except PreconditionError:
            sphere_ok = False
        ball_ok = is_stacked_ball(lk)
        if not sphere_ok and k_fail is None:
            k_fail = v
        if not ball_ok and kbar_fail is None:
            kbar_fail = v
    return ClassReport(k_fail, kbar_fail)


def rank_gf2_dense(rows) -> int:
    """Row reduction over the two-element field on plain 0/1 lists."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][c]:
                mat[r] = [(a ^ b) for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def betti_by_matrices(x: SimplicialComplex) -> tuple:
    """Mod-2 Betti vector from every boundary matrix built in full and
    ranked on its own."""
    cc = chain_complex(x)
    ranks = [m.rank() for m in cc.boundaries] + [0]
    return tuple(
        len(cc.faces[k]) - ranks[k] - ranks[k + 1] for k in range(cc.dim + 1)
    )


def least_f0_by_search(d: int, beta1: int) -> int:
    """The least m > d + 2 with (m-d-1)(m-d-2) >= beta1 (d+1)(d+2), found
    by counting up from d + 3."""
    m = d + 3
    while (m - d - 1) * (m - d - 2) < beta1 * (d + 1) * (d + 2):
        m += 1
    return m


def graph_from_edges(facets, edges) -> DualGraph:
    """Graph with one node per facet and the given (i, j) edge pairs."""
    nbrs = [set() for _ in facets]
    for i, j in edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    return DualGraph(tuple(facets), tuple(tuple(sorted(n)) for n in nbrs))


def two_connected_by_deletion(g) -> bool:
    """Definitional check: no single node separates the graph."""
    if g.num_nodes < 3 or not is_connected(g):
        return False
    return all(
        len(components_minus(g, {v})) == 1 for v in range(g.num_nodes)
    )


def first_cut_by_deletion(g):
    """The first node whose deletion leaves more than one component, or
    ``None``."""
    return next(
        (v for v in range(g.num_nodes) if len(components_minus(g, {v})) > 1),
        None,
    )


def path_lemma_by_prefixes(g, d: int) -> tuple:
    """Lemma 2.8 on every prefix of every chain path, each prefix checked
    from scratch, in start-edge order and then by length; returns
    ``(holds, witness)`` as the registered check does."""
    deg = [len(a) for a in g.adjacency]
    paths = []
    for u0 in range(g.num_nodes):
        for u1 in g.adjacency[u0]:
            path = [u0, u1]
            paths.append(tuple(path))
            while deg[path[-1]] <= 2:
                options = [w for w in g.adjacency[path[-1]] if w != path[-2]]
                if not options or options[0] in path:
                    break
                path.append(options[0])
                paths.append(tuple(path))
    for path in paths:
        dropped = []
        for prev, cur in zip(path, path[1:]):
            diff = set(g.facets[prev]) - set(g.facets[cur])
            assert len(diff) == 1
            dropped.append(diff.pop())
        witness = {"path": list(path), "dropped": dropped}
        if len(set(dropped)) != len(dropped):
            witness["clause"] = "repeated dropped vertex"
            return False, witness
        if not all(x in g.facets[path[0]] for x in dropped):
            witness["clause"] = "dropped vertex outside first facet"
            return False, witness
        if len(path) - 1 > d + 1:
            witness["clause"] = "path too long"
            return False, witness
    return True, None


def peel_stacked_ball(x: SimplicialComplex) -> bool:
    """Recognize a stacked ball by undoing gluings one facet at a time.

    A reversible step is a facet with a private vertex whose opposite ridge
    sits inside another facet.  Undoing any such step keeps the property,
    so a greedy loop either reaches a single simplex or gets stuck.
    """
    facets = [set(f) for f in x.facets]
    if not facets:
        return False
    width = len(facets[0])
    if any(len(f) != width for f in facets):
        return False
    while len(facets) > 1:
        step = None
        for i, f in enumerate(facets):
            others = [g for j, g in enumerate(facets) if j != i]
            private = [v for v in f if not any(v in g for g in others)]
            if len(private) != 1:
                continue
            ridge = f - {private[0]}
            if any(ridge <= g for g in others):
                step = i
                break
        if step is None:
            return False
        facets.pop(step)
    return True


def stacked_sphere_by_search(s: SimplicialComplex) -> bool:
    """Recognize a stacked sphere by trying every order of vertex peels.

    A peel removes a vertex whose star is the cone over the boundary of a
    simplex H, with H not yet a facet, and puts H in its place.  Every
    peel choice is explored depth first, with dead states remembered, so
    the answer does not rest on any claim that the order is irrelevant.
    Meant for small inputs: the recursion is one level per peel.
    """
    width = len(s.facets[0])
    dead = set()

    def peels(facets):
        for v in sorted({v for f in facets for v in f}):
            star_v = {f for f in facets if v in f}
            hull = set().union(*star_v) - {v}
            seal = tuple(sorted(hull))
            cone = {tuple(sorted((hull - {w}) | {v})) for w in hull}
            if len(hull) == width and star_v == cone and seal not in facets:
                yield (facets - star_v) | {seal}

    def search(facets):
        if len(facets) == width + 1 and len(set().union(*facets)) == width + 1:
            return True
        if facets in dead:
            return False
        if any(search(peeled) for peeled in peels(facets)):
            return True
        dead.add(facets)
        return False

    return search(frozenset(s.facets))


def path_ball(d: int, m: int) -> SimplicialComplex:
    """Stacked d-ball whose facet graph is a path: facets {i, ..., i+d}."""
    return from_facets(tuple(range(i, i + d + 1)) for i in range(m))


def handle_body(d: int, k: int, m: int) -> SimplicialComplex:
    """A closed d-manifold with stacked links and k handles: the boundary of
    ``path_ball(d + 1, m)`` with k handles added by ``handle_addition``.

    The 2k matched facets sit at evenly spaced positions of the path, so
    with m large enough each sigma1 and its sigma2 lie in far-apart label
    ranges, and each sigma1 is glued to its sigma2 in sorted order,
    sigma1[i] to sigma2[i].
    """
    x = boundary_complex(path_ball(d + 1, m))
    # the boundary facet of path facet {p, ..., p + d + 1} that misses p + 1
    sigmas = [
        (p,) + tuple(range(p + 2, p + d + 2))
        for p in (1 + t * (m - 3) // (2 * k - 1) for t in range(2 * k))
    ]
    for sigma1, sigma2 in zip(sigmas[0::2], sigmas[1::2]):
        x = handle_addition(x, HandleMap.create(sigma1, sigma2, dict(zip(sigma1, sigma2))))
    return x


def star_ball(d: int, m: int) -> SimplicialComplex:
    """Stacked d-ball glued onto m - 1 distinct ridges of one base simplex."""
    if m - 1 > d + 1:
        raise ValueError("base simplex has only d + 1 ridges")
    base = tuple(range(d + 1))
    facets = [base]
    for k in range(m - 1):
        ridge = base[:k] + base[k + 1 :]
        facets.append(ridge + (d + 1 + k,))
    return from_facets(facets)


def shifted(x: SimplicialComplex, offset: int) -> SimplicialComplex:
    return relabel_vertices(x, {v: v + offset for v in x.vertices})


@st.composite
def small_complexes(draw):
    """Complexes on at most 7 vertices: pure (one face size) or not."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(1, min(n, 4)))
    smallest = k if draw(st.booleans()) else 1
    faces = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=smallest, max_size=k, unique=True),
        min_size=1,
        max_size=8,
    ))
    return from_facets(faces)


def corpus() -> list:
    """Named complexes used for axis checks like Euler alternation."""
    items = [
        ("point", from_facets([(0,)])),
        ("segment", simplex(1)),
        ("triangle-solid", simplex(2)),
        ("circle-hexagon", from_facets([(i, (i + 1) % 6) for i in range(6)])),
        ("two-triangles-wedge", from_facets([(0, 1, 2), (0, 3, 4)])),
        ("sphere-2", boundary_complex(simplex(3))),
        ("sphere-4", boundary_complex(simplex(5))),
        ("ball-path-3", path_ball(3, 6)),
        ("ball-star-2", star_ball(2, 4)),
        ("sphere-from-ball-3", boundary_complex(path_ball(3, 6))),
        ("join-circle-circle", join(
            boundary_complex(simplex(2)), shifted(boundary_complex(simplex(2)), 10)
        )),
    ]
    for d in (2, 3, 4):
        items.append((f"kuehnel-solid-{d}", kuehnel_solid(d)))
        items.append((f"kuehnel-torus-{d}", kuehnel_torus(d)))
    items.append(("random-ball-4", random_stacked_ball(4, 12, seed=99)))
    return items
