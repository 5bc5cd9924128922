"""Stacked balls and spheres, their link classes, and the constructions
that move between them.

Recognition of stacked spheres works by reverse subdivision: a vertex
whose link is the boundary of a simplex on a vertex set H, with H not
already a facet, is removed and its star replaced by the sealing facet H.
Peeling is greedy and never undone, because no peel leads a stacked
sphere into a dead end.  Let the d-sphere S be the boundary of a stacked
(d+1)-ball B, and let v have link the boundary of H in S.  For d >= 1
every vertex of B lies on S, so the link of v in B is a d-ball on the
d + 1 vertices of H, that is, the simplex H.  So v lies in exactly one
facet of B, the union of v and H.  H is not in S, so it is an interior
ridge of B, and that facet is a leaf of the facet tree of B.  Deleting
the leaf leaves a stacked ball whose boundary is the peeled sphere.
Conversely every peel undoes a stacking step, so S is stacked exactly
when peeling in any order ends at the boundary of a simplex.  (Kalai,
"Rigidity and the lower bound theorem I", Invent. Math. 88, 1987; for
d = 0 the only closed input is two points, which is already the
boundary of a simplex.)

The seeded generator uses SplitMix64, a portable 64-bit stream, so a
fixture built from a seed is reproducible on any platform or language.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from itertools import repeat
from math import comb, isqrt
from typing import NamedTuple

from .complexes import (
    Face,
    FVector,
    SimplicialComplex,
    _as_face,
    _facet_graph_counts,
    _from_canonical,
    _memoised,
    _neighbours,
    _ridge_incidence,
    _store_f_vector,
    _vertex_facets,
    boundary_complex,
    faces_of_dim,
    from_facets,
    is_pure,
    is_weak_pseudomanifold,
)
from .dualgraph import is_tree, vertex_facet_subgraph
from .errors import InadmissibleHandleError, PreconditionError

__all__ = [
    "ClassReport",
    "HandleMap",
    "is_stacked_ball",
    "is_stacked_sphere",
    "class_membership",
    "bar_construction",
    "handle_addition",
    "kuehnel_solid",
    "kuehnel_torus",
    "random_stacked_ball",
]

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One SplitMix64 step; returns (output word, next state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31), state


class ClassReport(NamedTuple):
    """Outcome of the vertex-link classification of a pure d-complex: the
    first vertex whose link is no stacked sphere (``k_fail``) and the
    first whose link is no stacked ball (``kbar_fail``).  None means that
    every link is one, so the complex is in class K or K-bar."""

    k_fail: int | None
    kbar_fail: int | None


# the fields of HandleMap, which validates them in __new__; a NamedTuple
# class body may not define __new__ itself
class _HandleFields(NamedTuple):
    sigma1: Face
    sigma2: Face
    pairs: tuple


class HandleMap(_HandleFields):
    """Gluing data: two disjoint facets and a vertex bijection between them.

    ``pairs`` lists ``(x, psi(x))`` sorted by ``x``.  Shape rules (strict
    tuples, disjointness, bijectivity) are enforced here, on every
    construction, and a label that is not a non-negative ``int`` raises
    ``ValueError``; rules that depend on the ambient complex are enforced
    by :func:`handle_addition`.
    """

    __slots__ = ()

    def __new__(cls, sigma1: Face, sigma2: Face, pairs: tuple) -> "HandleMap":
        for name, sigma in (("sigma1", sigma1), ("sigma2", sigma2)):
            if tuple(sigma) != _as_face(sigma):
                raise InadmissibleHandleError(f"{name} is not a strict vertex tuple")
        if set(sigma1) & set(sigma2):
            raise InadmissibleHandleError("sigma1 and sigma2 share vertices")
        domain = [p[0] for p in pairs]
        image = [p[1] for p in pairs]
        if domain != list(sigma1) or sorted(image) != list(sigma2):
            raise InadmissibleHandleError(
                "pairs must map sigma1 onto sigma2 bijectively, sorted by source"
            )
        return super().__new__(cls, sigma1, sigma2, pairs)

    @classmethod
    def create(cls, sigma1, sigma2, psi: dict) -> "HandleMap":
        s1 = tuple(sorted(sigma1))
        s2 = tuple(sorted(sigma2))
        pairs = tuple(sorted((x, psi[x]) for x in psi))
        return cls(s1, s2, pairs)

    @property
    def mapping(self) -> dict:
        return dict(self.pairs)


def is_stacked_ball(x: SimplicialComplex) -> bool:
    """Tree-shaped facet graph, one component with f_d - 1 edges, and the
    minimal vertex count f_0 = f_d + d."""
    if x.dim < 0 or not is_pure(x):
        return False
    if x.num_vertices != len(x.facets) + x.dim:
        return False
    return _facet_graph_counts(x) == (len(x.facets) - 1, 1)


def is_stacked_sphere(s: SimplicialComplex) -> bool:
    """Recognise boundaries of stacked balls.

    The input must be a pure closed weak pseudomanifold; anything else
    raises :class:`PreconditionError`.  The answer is then that of
    :func:`_peels_to_simplex_boundary`, the one peel in the package, which
    :func:`class_membership` also runs on the cones over the vertex links
    that it knows to be closed.
    """
    if s.dim < 0 or not is_weak_pseudomanifold(s):
        raise PreconditionError("input must be a pure weak pseudomanifold")
    if 1 in map(len, _ridge_incidence(s).values()):
        raise PreconditionError("input has a non-empty boundary")
    return _peels_to_simplex_boundary(s.facets)


def _peels_to_simplex_boundary(facets, apex: int | None = None) -> bool:
    """Peel a pure closed weak pseudomanifold, or the cone over one, and
    report whether it ends at the boundary of a simplex.

    ``facets`` is a sequence of vertex tuples: the facets of the complex S
    or, with ``apex``, of the cone over S, whose apex is never peeled.  It
    is only read: the peel copies it into its own list, which gives each
    facet an id (its index there) and each seal a new id at its end.  The
    stars are kept by id, not by tuple, because CPython caches no tuple
    hash, so every set operation on a tuple would hash its d + 1 labels
    again.  They are kept lazily:
    - ``live[w]`` is the size of the current star of w;
    - ``stars[w]`` holds every id of that star, and may hold dead ones: it
      gets every id that ever contained w, and a try of w rewrites it to
      the star;
    - ``dead`` holds the ids of peeled facets.
    A vertex is tried, and its list filtered, only when ``live`` says its
    star has d + 1 facets.  The cost is linear: each id is appended once
    per vertex it holds, and a filter drops each dead id it meets for
    good.  Whether a seal is already a facet is read from the set of the
    tuples of every facet held so far, which no peel shrinks: a peeled
    facet holds the peeled vertex, which no later facet and so no later
    seal holds.  The facet count is kept apart, as an int.

    A worklist holds the vertices to try, first all of them.  A vertex v
    of S is peeled when its star has d + 1 facets, their other vertices
    form a hull H of d + 1 vertices, and H is not already a facet.  The
    star is then the cone over the boundary of H (d + 1 distinct d-faces
    through v on the d + 2 vertices of v and H are all of them), and it
    is replaced by the seal H.  Any order of peels is as good as any other
    (see the module docstring).  After a peel only the vertices of H go
    back on the worklist: a vertex becomes removable only when a peel
    changes its star or deletes its seal, and either way it shares a facet
    with v, so it lies in H.  Each w in H lies in every facet of the star
    but the one that misses w, so its star loses d facets and gains the
    seal: ``live[w]`` falls by d - 1 and the seal's id joins ``stars[w]``.

    The cone peels alike.  Taking the apex a out of each facet maps the
    facets of the cone onto those of S and the star of v in the cone onto
    its star in S, so v has d + 1 facets in one exactly when in the other,
    its hull in the cone is H + a, and the seal H + a is a facet of the
    cone exactly when H is one of S.  So a peel of the cone is a peel of S
    and the other way round.  A facet and a hull have d + 1 vertices in S
    and d + 2 in its cone, and a peeled star has d + 1 facets in both.

    Every peel keeps S a closed weak pseudomanifold.  With d + 2 facets
    each one meets the other d + 1 in a ridge apiece, and as no ridge lies
    in three facets they cannot share one ridge (a sunflower), so all lie
    on d + 2 vertices: S is the boundary of a simplex.  There a star of
    d + 1 facets is all facets but one, whose vertex set is its hull, so
    every seal is already a facet and no peel is left.  The answer is
    True as soon as d + 2 facets are left, and False when the worklist
    runs out before.
    """
    ids = list(facets)  # facet id -> vertex tuple
    stars = defaultdict(list)
    for i, f in enumerate(ids):
        for w in f:
            stars[w].append(i)
    stars.pop(apex, None)
    live = dict(zip(stars, map(len, stars.values())))
    dead = set()
    held = set(ids)
    count = len(ids)
    size = len(ids[0])  # vertices of a facet, and of a hull
    star_size = size - (apex is not None)  # d + 1
    todo = list(stars)
    while todo and count > star_size + 1:
        v = todo.pop()
        if live.get(v) != star_size:
            continue
        stars[v] = star_v = [i for i in stars[v] if i not in dead]
        hull = set().union(*map(ids.__getitem__, star_v)) - {v}
        seal = tuple(sorted(hull))
        if len(hull) != size or seal in held:
            continue
        held.add(seal)
        count -= star_size - 1
        dead.update(star_v)
        new = len(ids)
        ids.append(seal)
        hull.discard(apex)
        for w in hull:
            live[w] -= star_size - 2
            stars[w].append(new)
        del live[v], stars[v]
        todo.extend(hull)
    return count == star_size + 1


@_memoised
def class_membership(m: SimplicialComplex) -> ClassReport:
    """Classify a pure complex by the shape of its vertex links.

    Class K needs every vertex link to be a stacked sphere, class K-bar
    every link to be a stacked ball.  Each class is decided by its own
    scan over the vertices in order, which stops at its first failure, and
    both read the indices of ``m``; no link is built.

    A ridge of lk v is a ridge of ``m`` through v with v removed, and it
    lies in the facets of that ridge, less v.  So lk v is a pure closed
    weak pseudomanifold exactly when every ridge of ``m`` through v lies
    in two facets, which one pass over the memoised ridge index of ``m``
    decides for every vertex at once.  Every other link is no stacked
    sphere.  A closed link is peeled as the cone over it with apex v, the
    facets of ``m`` through v, which peels exactly when lk v does (see
    :func:`_peels_to_simplex_boundary`).  For d = 0
    every link is empty and fails class K.

    Two facets sigma - v and tau - v of lk v share a ridge exactly when
    sigma and tau share one: both hold v, so sigma - v and tau - v meet in
    d - 1 vertices exactly when sigma and tau meet in d.  So the facet
    graph of lk v is the star of v in the facet graph of ``m``, and lk v,
    pure of dimension d - 1 with deg v vertices and |star v| facets, is a
    stacked ball exactly when d >= 1, deg v = |star v| + d - 1 and that
    star is a tree.

    The report is memoised on the complex, so the checks and lemmas that
    all ask for it classify the links once; a precondition error is
    raised again on every call.
    """
    if not is_pure(m) or m.dim < 0:
        raise PreconditionError("class membership requires a non-empty pure complex")
    open_at = {
        v for ridge, ids in _ridge_incidence(m).items() if len(ids) != 2
        for v in ridge
    }
    d, nbr, vf, facets = m.dim, _neighbours(m), _vertex_facets(m), m.facets
    k_fail = next((
        v for v, ids in vf.items() if d < 1 or v in open_at
        or not _peels_to_simplex_boundary([facets[i] for i in ids], v)
    ), None)
    kbar_fail = next((
        v for v, ids in vf.items()
        if d < 1 or len(nbr[v]) != len(ids) + d - 1
        or not is_tree(vertex_facet_subgraph(m, v))
    ), None)
    return ClassReport(k_fail, kbar_fail)


# bound once, so that code which rebinds class_membership with a plain
# wrapper (a tracer, a mock) neither hides the memoised report nor breaks
# the generators, which store the report their construction proves
_memoised_report = class_membership.peek
_store_report = class_membership.store

# from this dimension up the class test and the counts cost less than the
# middle face levels.  Measured (Python 3.11, 2-vCPU host, pinned to one
# CPU, fastest of 25 fresh complexes, median of seven runs): at dimension 7
# on kuehnel_torus(7) 1.59 against 2.00 ms and on kuehnel_solid(6) 0.30
# against 0.32 ms; at 8 on kuehnel_torus(8) 2.32 against 5.37 ms and on
# kuehnel_solid(7) 0.38 against 0.69 ms; at 6 the levels win, 0.76
# against 1.06 ms on kuehnel_torus(6) and 0.13 against 0.23 ms on
# kuehnel_solid(5).  betti_z2 of a fresh kuehnel_torus(7) skips a 3.7 ms
# sweep
_ROUTE_MIN_DIM = 7


def _stacked_counts(dd: int, sphere: bool) -> list:
    """``[(a_0, b_0), ..., (a_D, b_D)]`` for D = ``dd``: a stacked D-sphere
    (``sphere`` True) or a stacked D-ball on n vertices has f_i = a_i n + b_i.

    A stacked D-sphere (boundary of a simplex, then one cone over a facet
    boundary per vertex) has f_i = C(D+1, i) n - C(D+2, i+1) i for i < D
    and f_D = D n - (D+2)(D-1); a stacked D-ball (a facet tree with
    n = f_D + D, so each facet after the first cones a fresh vertex over a
    ridge) has f_i = C(D+1, i+1) + (n-D-1) C(D, i).
    """
    if not sphere:
        return [(comb(dd, i), comb(dd + 1, i + 1) - (dd + 1) * comb(dd, i))
                for i in range(dd + 1)]
    return [(comb(dd + 1, i), -comb(dd + 2, i + 1) * i) for i in range(dd)] + [
        (dd, -(dd + 2) * (dd - 1))]


def _stacked_link_counts(m: SimplicialComplex):
    """``(sphere, (f_0, ..., f_d))`` from f_0 and f_1 when ``m`` has
    dimension d >= 3 and its class report finds no failing vertex for K
    (then ``sphere`` is True) or for K-bar; else None.

    A memoised report is read with ``class_membership.peek``; without
    one, the class test runs only if d >= _ROUTE_MIN_DIM and ``m`` is
    pure.  Each j-face lies in the link of each of its j + 1 vertices, so
    (j+1) f_j = sum over v of f_{j-1}(lk v), where lk v has
    dimension D = d - 1 and deg v vertices, and its counts are affine in
    its vertex count (:func:`_stacked_counts`).  With sum over v of
    deg v = 2 f_1 the division is exact, or AssertionError is raised.
    """
    d = m.dim
    if d < 3:
        return None
    report = _memoised_report(m)
    if report is None:
        if d < _ROUTE_MIN_DIM or not is_pure(m):
            return None
        report = class_membership(m)
    sphere = report.k_fail is None
    if not (sphere or report.kbar_fail is None):
        return None
    nbr = _neighbours(m)
    f0 = len(nbr)
    degrees = sum(map(len, nbr.values()))  # 2 f_1
    counts = [f0]
    # f_{i+1} of m from f_i of the links
    for i, (a, b) in enumerate(_stacked_counts(d - 1, sphere)):
        f, rest = divmod(a * degrees + b * f0, i + 2)
        if rest:
            raise AssertionError(f"f_{i + 1} from the vertex links is not an integer")
        counts.append(f)
    return sphere, tuple(counts)


def bar_construction(m: SimplicialComplex) -> SimplicialComplex:
    """Closure of a complex under the rule that 2- and 3-element subsets decide.

    Call a vertex set *compatible* when all of its pairs are edges of ``m``
    and all of its triples are triangles of ``m``.  The result has one face
    for every compatible set, and its facets are the maximal ones.

    Method.  One map sends each edge ab to its apexes, the c with abc a
    triangle.  The vertices are put in one order: by label, except that the
    hubs, the vertices with more than sqrt(2 f1) neighbours (fewer than
    sqrt(2 f1) of them), come after all others.  Each maximal set S is
    listed once, by a search at its first vertex v in that order that runs
    inside N(v), the neighbours of v, with vertex sets as bit masks over
    positions in N(v) (Eppstein, Loeffler and Strash, "Listing all maximal
    cliques in sparse graphs in near-optimal time", 2010, for the outer
    loop; putting hubs last stands in for their degeneracy order).  A node
    of the search holds the chosen set R, which contains v, and splits the
    vertices z of N(v) - R with R + z compatible into the candidates P and
    the excluded X, as in Bron and Kerbosch (CACM 1973).  At the root,
    R = {v}, P holds the neighbours after v in the order and X those before it;
    a vertex with neighbours but none after it is first in no maximal set.
    For w in P or X, ``allowed(w)`` is the set of z in N(v) with vwz and
    every rwz (r in R) a triangle, so that for z in P or X, R + w + z is
    compatible exactly when z lies in allowed(w).  At the root it is
    base[w], the apexes of vw; adding w to R intersects each allowed(z) with
    T(w, z), the apexes of wz within N(v), which are built on first use and
    kept for the rest of the search at v.  Branching on w gives the child
    R + w, P & allowed(w), X & allowed(w); afterwards w moves from P to X, so
    later branches never list a set through w again.  A node with P and X
    empty lists R: every vertex compatible with R is a neighbour of v, and
    none is left.  So a child with X empty and at most one candidate is
    listed at once, with that candidate, and one with P empty and X not is
    dropped.

    Pivot.  The search takes u in P or X with the most candidates in
    allowed(u), sets A = allowed(u) & P and branches only on P - keep,
    where keep holds the w in A with allowed(w) & A inside T(u, w).  No
    maximal set below the node is lost.  Suppose S is one, with every
    vertex of S - R in keep.  Then u is not in S (u is not in allowed(u),
    and S - R lies in keep), and S + u is compatible: u with R holds as u
    is in P or X; u and w with R holds for each w in S - R as w is in
    allowed(u); and for w, w' in S - R, w' is in allowed(w) (S is
    compatible) and in A, so it is in T(u, w), which makes uww' a
    triangle.  That contradicts maximality, so S meets P - keep, and the
    first vertex of P - keep that S contains is a branch that lists it.
    The textbook pivot, which keeps all of A, is wrong here: two vertices
    of A may each extend R + u while uww' is not a triangle.

    Cost.  Memory is linear in the number of triangles of ``m`` (the
    apex map) plus, during the search at v, one mask per pair of
    neighbours of v that the search reads, each of deg(v) bits.  As hubs
    come last, a vertex that is no hub searches among at most sqrt(2 f1)
    neighbours, and the candidates of a hub are later hubs only; in label
    order the apex of a cone over a 20003-vertex 2-sphere, labelled 0,
    would list every facet itself, over masks of 20003 bits.  A node does
    O(|P| + |X|) mask operations, and a missing T(a, b) costs one pass
    over the apexes of ab.  The pivot keeps the search near the size of
    the output: 210 nodes for the 25 facets of the closure of
    ``kuehnel_torus(11)``, where a search without pivot or local masks
    makes 102401 calls, and 1203 nodes for the 400 facets of the closure
    of the boundary of a 400-facet path-shaped 4-ball.
    """
    apexes: dict[tuple[int, int], list[int]] = {}
    for a, b, c in faces_of_dim(m, 2) if m.dim >= 2 else ():
        apexes.setdefault((a, b), []).append(c)
        apexes.setdefault((a, c), []).append(b)
        apexes.setdefault((b, c), []).append(a)
    nbr = _neighbours(m)
    hub = isqrt(sum(map(len, nbr.values())))  # isqrt(2 f1)
    rank = {
        v: i for i, v in enumerate(sorted(nbr, key=lambda v: (len(nbr[v]) > hub, v)))
    }
    found: list[tuple[int, ...]] = []
    for v, around in nbr.items():
        rv = rank[v]
        later = [w for w in around if rank[w] > rv]
        if later:
            earlier = [w for w in around if rank[w] < rv]
            _maximal_sets_at(v, earlier, later, apexes, found)
        elif not around:
            # with a neighbour, {v} is not maximal and v is first in no set
            found.append((v,))
    return from_facets(found)


def _maximal_sets_at(v: int, earlier: list, later: list, apexes: dict,
                     found: list) -> None:
    """Append to ``found`` the maximal compatible sets whose first vertex in
    the search order is ``v``, given the neighbours of ``v`` before and
    after it.  See :func:`bar_construction` for the search and its proof."""
    around = earlier + later
    size = len(around)
    k = len(earlier)
    bit = {w: 1 << i for i, w in enumerate(around)}
    # the apexes of vw are neighbours of v; those of another pair need not be
    base = {
        i: sum(map(bit.__getitem__, apexes.get((v, w) if v < w else (w, v), ())))
        for i, w in enumerate(around)
    }
    zeros = repeat(0)
    tri: dict[int, int] = {}  # i * size + j -> T(around[i], around[j])

    def fill(i: int, j: int) -> int:
        a, b = around[i], around[j]
        pair = apexes.get((a, b) if a < b else (b, a), ())
        tri[i * size + j] = tri[j * size + i] = mask = sum(map(bit.get, pair, zeros))
        return mask

    stack = [((v,), ((1 << size) - 1) ^ ((1 << k) - 1), (1 << k) - 1, base)]
    while stack:
        chosen, p, x, allowed = stack.pop()
        most = -1
        for w, mask in allowed.items():
            n = (mask & p).bit_count()
            if n > most:
                most, u = n, w
        au = allowed[u] & p
        keep = 0
        rest = au
        row = u * size
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            both = allowed[w] & au
            if both:
                t = tri.get(row + w)
                both &= ~(fill(u, w) if t is None else t)
            if not both:
                keep |= low
        branch = p & ~keep
        while branch:
            low = branch & -branch
            branch ^= low
            w = low.bit_length() - 1
            aw = allowed[w]
            cp, cx = p & aw, x & aw
            p ^= low
            x |= low
            if not cx and not cp & (cp - 1):
                # nothing excluded and at most one candidate: maximal now
                found.append(chosen + (around[w],) + (
                    (around[cp.bit_length() - 1],) if cp else ()))
                continue
            if not cp:
                continue
            sub = {}
            rest = cp | cx
            row = w * size
            while rest:
                low = rest & -rest
                rest ^= low
                z = low.bit_length() - 1
                t = tri.get(row + z)
                if t is None:
                    t = fill(w, z)
                sub[z] = allowed[z] & t
            stack.append((chosen + (around[w],), cp, cx, sub))


def handle_addition(x: SimplicialComplex, h: HandleMap) -> SimplicialComplex:
    """Remove the two matched facets and identify their vertices pairwise.

    Admissibility is validated here: both tuples must be facets of ``x``,
    and no matched pair may be adjacent or share a neighbour in the
    1-skeleton.  Violations raise :class:`InadmissibleHandleError`, the
    neighbour rule with witness ``(x, psi(x), common_neighbour)``.
    """
    if x.dim < 1:
        raise InadmissibleHandleError(
            f"a handle needs dimension >= 1, the input has dimension {x.dim}"
        )
    facetset = set(x.facets)
    if h.sigma1 not in facetset:
        raise InadmissibleHandleError(f"sigma1 {h.sigma1} is not a facet")
    if h.sigma2 not in facetset:
        raise InadmissibleHandleError(f"sigma2 {h.sigma2} is not a facet")
    nbr = _neighbours(x)
    psi = h.mapping
    for src in h.sigma1:
        dst = psi[src]
        if dst in nbr[src]:
            raise InadmissibleHandleError(
                f"matched vertices {src} and {dst} are adjacent"
            )
        common = nbr[src] & nbr[dst]
        if common:
            z = min(common)
            raise InadmissibleHandleError(
                f"vertices {src} and {dst} share neighbour {z}",
                witness=(src, dst, z),
            )
    new_facets = set()
    for f in facetset - {h.sigma1, h.sigma2}:
        g = tuple(sorted(psi.get(v, v) for v in f))
        if len(set(g)) != len(g):
            raise AssertionError("identification collapsed a facet")
        new_facets.add(g)
    if len(new_facets) != len(facetset) - 2:
        raise AssertionError("identification merged two facets")
    return _from_canonical(new_facets)


def kuehnel_solid(d: int) -> SimplicialComplex:
    """Cyclic (d+1)-dimensional solid on 2d+3 vertices.

    Facets are the 2d+3 windows of d+2 consecutive labels modulo 2d+3;
    the facet graph is one cycle.  The class report is stored, not tested.
    A vertex lies in d+2 windows in a row, so its link is a path of facets,
    each coning a fresh vertex over a ridge of the last: a stacked d-ball.
    It has a boundary, so it is no sphere, and vertex 0 fails class K first.
    """
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    n = 2 * d + 3
    x = _from_canonical(
        {tuple(sorted((i + k) % n for k in range(d + 2))) for i in range(n)}
    )
    _store_report(x, ClassReport(0, None))
    return x


def kuehnel_torus(d: int) -> SimplicialComplex:
    """Boundary of :func:`kuehnel_solid`: a closed d-manifold on 2d+3 vertices.

    The class report is stored, not tested.  Every vertex lies on the
    boundary of the solid, so its link here is the boundary of its link
    there, a stacked sphere; a closed link of dimension d-1 >= 1 is no
    ball, so vertex 0 fails class K-bar first.
    """
    x = boundary_complex(kuehnel_solid(d))
    _store_report(x, ClassReport(None, 0))
    return x


def random_stacked_ball(d: int, m: int, seed: int = 0) -> SimplicialComplex:
    """Stacked d-ball grown by m-1 seeded ridge expansions.

    Starts from the simplex on 0..d and repeatedly glues a fresh vertex
    onto a boundary ridge chosen by a SplitMix64 stream, so the result is
    a pure function of (d, m, seed).  Ridge choice indexes the sorted
    boundary-ridge list with the next stream word reduced modulo the list
    length.

    The f-vector is stored, not counted: each of the m - 1 gluings brings
    one fresh vertex, so the ball has n = m + d vertices, and
    :func:`_stacked_counts` gives the counts of a stacked d-ball on n
    vertices.  For d >= 2 the class report is stored, not tested.  Gluing a
    fresh vertex on a boundary ridge tau cones it over the boundary ridge
    tau - u of each link lk u, u in tau, and gives it a simplex as link, so
    every link stays a stacked ball.  A link of dimension d-1 >= 1 with a
    boundary is no sphere, so vertex 0, which always exists, fails class K
    first.  At d = 1 the two-point links of inner vertices are spheres.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    state = seed & _MASK64
    first = tuple(range(d + 1))
    facets = [first]
    # boundary ridges, kept sorted; fresh is the largest label so far, so
    # each new ridge and facet is sorted as built
    ridges: list[Face] = sorted(
        tuple(u for u in first if u != drop) for drop in first
    )
    fresh = d + 1
    for _ in range(m - 1):
        word, state = _splitmix64(state)
        tau = ridges.pop(word % len(ridges))
        facets.append(tau + (fresh,))
        for j in range(d):
            bisect.insort(ridges, tau[:j] + tau[j + 1:] + (fresh,))
        fresh += 1
    x = _from_canonical(set(facets))
    n = m + d
    counts = (a * n + b for a, b in _stacked_counts(d, sphere=False))
    _store_f_vector(x, FVector.from_counts(counts))
    if d >= 2:
        _store_report(x, ClassReport(0, None))
    return x
