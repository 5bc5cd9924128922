"""Tightness and lemma checks on a complex, isomorphism and order recovery.

The counting results verified here tie the facet graph of a neighborly
complex with stacked-ball vertex links to its face numbers, and the
tightness inequality of :mod:`.tightness` to the first mod-2 Betti
number.  Lemma checks are registered under the ids of
:data:`.tightness.LEMMA_IDS`; each one either evaluates its claim exactly
or raises when the input misses the claim's hypothesis, never passing
vacuously.
"""

from __future__ import annotations

from collections import Counter
from itertools import count, repeat
from math import comb
from typing import NamedTuple

from .complexes import (
    SimplicialComplex,
    _vertex_facets,
    is_neighborly,
    is_pure,
)
from .dualgraph import (
    DualGraph,
    components_minus,
    cut_node,
    dual_graph,
    high_degree_set,
    is_cycle,
    is_two_connected,
)
from .errors import (
    LemmaHypothesisError,
    PreconditionError,
    ReconstructionFailure,
    UnknownLemmaError,
)
from .homology import _betti
from .tightness import LEMMA_IDS, _least_f0
from .walkup import class_membership

__all__ = [
    "LemmaReport",
    "TightnessReport",
    "VertexBijection",
    "tight_neighborly_check",
    "is_critical",
    "is_cover",
    "verify_lemma",
    "are_isomorphic",
    "uniqueness_reconstruction",
    "theorem_argument_audit",
    "bound_chain_audit",
]


class LemmaReport(NamedTuple):
    """Outcome of one registered structural check."""

    lemma_id: str
    holds: bool
    witness: dict | None = None


class TightnessReport(NamedTuple):
    """Both sides of the tightness inequality for one manifold."""

    satisfies_inequality: bool
    is_equality: bool
    lhs: int
    rhs: int
    beta1: int


class VertexBijection(NamedTuple):
    """Injective vertex map given as (source, image) pairs sorted by source."""

    pairs: tuple

    @property
    def mapping(self) -> dict:
        """The map as a dict, built anew on every read."""
        return dict(self.pairs)

    def maps_complex(self, x: SimplicialComplex, y: SimplicialComplex) -> bool:
        """True when the map is injective on the vertices of ``x`` and
        carries the facet set of ``x`` onto that of ``y``.  The map is
        built once per call, not once per face."""
        domain = self.mapping
        if any(v not in domain for v in x.vertices):
            return False
        if len({domain[v] for v in x.vertices}) != x.num_vertices:
            return False
        return set(_sorted_rows(x.facets, domain)) == set(y.facets)


def tight_neighborly_check(m: SimplicialComplex) -> TightnessReport:
    """Evaluate the tightness inequality on a connected complex.

    The left side is C(f0-d-1, 2), the right side C(d+2, 2) * beta1 with
    beta1 taken mod 2.  Equality is what the literature calls tight
    neighborly.  beta0 and beta1 come from :func:`.homology._betti`,
    through the one class gate that :func:`.homology.betti_z2` also takes,
    and otherwise from the two small boundary ranks.
    """
    if m.dim < 0:
        raise PreconditionError("empty input")
    beta0, beta1 = _betti(m, 2)
    if beta0 != 1:
        raise PreconditionError("input must be connected")
    d = m.dim
    f0 = m.num_vertices
    lhs = comb(max(f0 - d - 1, 0), 2)
    rhs = comb(d + 2, 2) * beta1
    return TightnessReport(lhs >= rhs, lhs == rhs, lhs, rhs, beta1)


def is_critical(m: SimplicialComplex, facet_ids) -> bool:
    """Every component left after deleting the facet set is small.

    Small means fewer than f0 - d nodes, the facet count of a single
    vertex star in the neighborly stacked-link setting.
    """
    g = dual_graph(m)
    bound = m.num_vertices - m.dim
    return all(len(c) < bound for c in components_minus(g, facet_ids))


def is_cover(m: SimplicialComplex, facet_ids) -> bool:
    """True when the chosen facets jointly contain every vertex."""
    g = dual_graph(m)
    chosen: set[int] = set()
    for i in facet_ids:
        g._check_node(i)
        chosen.update(g.facets[i])
    return chosen == set(m.vertices)


# --- lemma registry ---------------------------------------------------------


def normalize_lemma_id(lemma_id: str) -> str:
    lid = lemma_id.strip().removeprefix("lemma-")
    if lid not in LEMMA_IDS:
        raise UnknownLemmaError(f"unknown lemma id {lemma_id!r}")
    return lid


def _require_neighborly_kbar(m: SimplicialComplex):
    if m.dim < 0 or not is_pure(m):
        raise LemmaHypothesisError("input must be a non-empty pure complex")
    if not is_neighborly(m):
        raise LemmaHypothesisError("input must be 2-neighborly")
    fail = class_membership(m).kbar_fail
    if fail is not None:
        raise LemmaHypothesisError(f"vertex link at {fail} is not a stacked ball")
    g = dual_graph(m)
    if g.num_nodes < 2:
        raise LemmaHypothesisError("single-facet ball is out of scope")
    return g


def _check_two_connected(m, g, d, n) -> tuple:
    if is_two_connected(g):
        return True, None
    # Under the hypothesis the facet graph is connected: each vertex star is
    # the facet graph of its link (see class_membership), a stacked ball and
    # so a tree, and 2-neighborliness puts any two stars on a common facet.
    # On a connected graph the first node whose deletion leaves more than one
    # component is the smallest articulation node, which is cut_node(g).
    return False, {"articulation_node": cut_node(g), "nu": g.num_nodes}


def _check_vertex_trees(m, g, d, n) -> tuple:
    # The tree half is the K-bar verdict that the hypothesis has just
    # required: that scan found every star a tree (see class_membership).
    # The count half is forced too, as 2-neighborliness gives deg v = n - 1
    # and the scan deg v = |star v| + d - 1, but it is recounted from the
    # vertex index, so the check states the lemma's own number.
    tree = class_membership(m).kbar_fail is None
    for v, ids in _vertex_facets(m).items():
        if len(ids) != n - d or not tree:
            return False, {"vertex": v, "num_facets": len(ids),
                           "expected": n - d, "is_tree": tree}
    return True, None


def _check_counts(m, g, d, n) -> tuple:
    nu_ok = g.num_nodes * (d + 1) == n * (n - d)
    eps_ok = g.num_edges * d == n * (n - d - 1)
    if nu_ok and eps_ok:
        return True, None
    return False, {"nu": g.num_nodes, "eps": g.num_edges, "n": n, "d": d}


def _check_cycle_bound(m, g, d, n) -> tuple:
    cycle = is_cycle(g)
    if n >= 2 * d + 1 and (n == 2 * d + 1) == cycle:
        return True, None
    return False, {"n": n, "d": d, "cycle": cycle}


def _check_path_lemma(m, g, d, n) -> tuple:
    if n <= 2 * d + 1:
        raise LemmaHypothesisError(
            f"path lemma needs f0 > {2 * d + 1}, instance has f0 = {n}"
        )
    # One walk per start edge u0 -> u1, dropping one vertex of the last
    # facet per step, on while the last node has degree two and its next
    # node is new.  Every shorter prefix passed, so a clause can only fail
    # on the vertex just dropped; the length clause ends each walk within
    # d + 2 steps.  Through verify_lemma, d is the dimension, so the first
    # facet has d + 1 vertices: once d + 1 distinct vertices of it have
    # been dropped, the next one is repeated or outside it, and "path too
    # long" cannot fire there.  It stays for direct calls with d < dim,
    # which the prefix-oracle test makes.
    for u0 in range(g.num_nodes):
        first = set(g.facets[u0])
        for nxt in g.adjacency[u0]:
            path, dropped = [u0], []
            while nxt is not None:
                diff = set(g.facets[path[-1]]) - set(g.facets[nxt])
                if len(diff) != 1:
                    # dual_graph: adjacent facets of a pure complex share all but one vertex
                    raise AssertionError("adjacent facets differ in one vertex")
                v = diff.pop()
                clause = (
                    "repeated dropped vertex" if v in dropped
                    else "dropped vertex outside first facet" if v not in first
                    else "path too long" if len(path) > d + 1
                    else None
                )
                path.append(nxt)
                dropped.append(v)
                if clause:
                    return False, {"path": path, "dropped": dropped, "clause": clause}
                options = [w for w in g.adjacency[nxt] if w != path[-2]]
                ahead = len(options) == 1 and options[0] not in path
                nxt = options[0] if ahead else None
    return True, None


def _check_degree_three_cover(m, g, d, n) -> tuple:
    if d < 4:
        raise LemmaHypothesisError(f"cover corollary needs dimension >= 4, got {d}")
    if n <= 2 * d + 1:
        raise LemmaHypothesisError(
            f"cover corollary needs f0 > {2 * d + 1}, instance has f0 = {n}"
        )
    t = high_degree_set(g)
    if is_cover(m, t):
        return True, None
    return False, {"t": sorted(t)}


# lemma id -> check(m, g, d, n), which returns (holds, witness), in the
# order of LEMMA_IDS; verify_lemma puts the id on the report
_LEMMA_CHECKS = dict(zip(LEMMA_IDS, (
    _check_two_connected,  # the facet graph is 2-connected
    _check_vertex_trees,  # each star a tree (the K-bar verdict) of f0 - d
    # facets, a count the hypothesis forces but the check states on its own
    _check_counts,  # the node and edge count formulas
    _check_cycle_bound,  # f0 >= 2d + 1, with equality exactly for a cycle
    _check_path_lemma,  # bounded chain paths of facets
    _check_degree_three_cover,  # the degree->=3 facets cover the vertices
), strict=True))


def verify_lemma(m: SimplicialComplex, lemma_id: str) -> LemmaReport:
    """Run the check registered under ``lemma_id`` on a neighborly complex
    with stacked-ball vertex links.

    Inputs outside a check's hypothesis raise
    :class:`LemmaHypothesisError`.
    """
    lid = normalize_lemma_id(lemma_id)
    g = _require_neighborly_kbar(m)
    return LemmaReport(lid, *_LEMMA_CHECKS[lid](m, g, m.dim, m.num_vertices))


# --- isomorphism ------------------------------------------------------------


def _sorted_rows(rows, colour):
    """Each row of ``rows`` mapped through the dict or list ``colour`` and
    sorted, as a tuple.  The chain of maps runs in C: no Python frame per row."""
    return map(tuple, map(sorted, map(map, repeat(colour.__getitem__), rows)))


def _refine(x: SimplicialComplex, y: SimplicialComplex, cx: dict, cy: dict):
    """Refine the vertex colourings ``cx`` of ``x`` and ``cy`` of ``y``
    together on the vertex-facet incidence; return the stable pair.

    A facet's colour is the sorted tuple of its vertex colours, a vertex's
    next colour its old colour with the sorted colours of its facets.  The
    signatures of both sides are numbered together in sorted order, so a
    colour means the same thing in ``x`` and ``y``.  A round that adds no
    colour class ends the refinement.

    Each round works on integers.  The distinct facet colours of both sides
    are numbered together in sorted order, and a vertex signature is the
    pair ``(c[v], star)`` with ``star`` the sorted tuple of the facet
    numbers of its star.  The numbering keeps the order of facet colours,
    so the star parts compare as the sorted colour tuples would, and the
    joint numbering of the signatures is the one the full colours would
    give, colour for colour.

    A round after which the two sides do not use the same set of colours
    ends the refinement at once.  A colour found on one side only stays so
    in every later round, because each signature starts with the old
    colour, so the stable pair would have unequal class sizes too and
    :func:`are_isomorphic` drops either pair at its class-size test: the
    same branches die in the same order, and the answer is unchanged.

    A round that leaves each side with one colour per vertex and both sides
    with the same colours also ends the refinement.  A further round would
    sort on ``c[v]`` first, so it gives every vertex back its colour when
    the bijection matching equal colours maps the facets of ``x`` onto
    those of ``y``.  When it does not, further rounds would split some
    matched pair apart; either way the search finds no isomorphism below
    that colouring, and stopping here saves those rounds.

    A round from a single class, where every vertex of both sides has
    colour ``c``, builds no facet colour: a facet's size stands for its
    number.  Its colour is ``(c,) * k`` for its size ``k``, and one such
    tuple is a proper prefix of another exactly when it is shorter, so the
    sizes are in the order of the colours.  When every facet of both sides
    has the same size ``k``, each star part is ``(k, ..., k)``, one ``k``
    per facet of the star, and these parts are in the order of their
    lengths: that round numbers the vertices of both sides by degree, which
    is the order of ``(c, degree)`` with ``c`` the same everywhere.  The
    gate is one facet size across both sides, not each side pure: an edge
    and a point are both pure, and their vertices, all of degree 1, differ
    in the sizes 2 and 1.

    Cost: a round is one pass over the facets and one over the vertex
    index of each side, each a chain of C-level maps, plus two sorts: the
    distinct facet colours, then the distinct vertex signatures.  No Python
    frame runs per facet or per vertex.  The single-class round reads only
    the facet sizes, or, when they agree, only the degrees.
    """
    classes = len(set(cx.values()) | set(cy.values()))
    while True:
        stars = _vertex_facets(x), _vertex_facets(y)
        if classes == 1:
            ranks = [list(map(len, x.facets)), list(map(len, y.facets))]
        else:
            colours = [list(_sorted_rows(z.facets, c)) for z, c in ((x, cx), (y, cy))]
            rank = dict(zip(sorted(set(colours[0]).union(colours[1])), count()))
            ranks = [list(map(rank.__getitem__, fc)) for fc in colours]
        if classes == 1 and len(set(ranks[0]).union(ranks[1])) == 1:
            sigs = [list(map(len, star.values())) for star in stars]
        else:
            sigs = [
                list(zip(map(c.__getitem__, star), _sorted_rows(star.values(), r)))
                for c, star, r in zip((cx, cy), stars, ranks)
            ]
        seen = set(sigs[0]), set(sigs[1])
        number = dict(zip(sorted(seen[0] | seen[1]), count()))
        cx, cy = (dict(zip(s, map(number.__getitem__, g))) for s, g in zip(stars, sigs))
        if seen[0] != seen[1]:
            return cx, cy
        discrete = len(cx) == len(cy) == len(seen[0])
        if len(number) == classes or discrete:
            return cx, cy
        classes = len(number)


def are_isomorphic(x: SimplicialComplex, y: SimplicialComplex):
    """Search for a facet-preserving vertex bijection.

    Returns a :class:`VertexBijection` or ``None``; deterministic for fixed
    inputs.  The method is colour refinement with individualisation (McKay
    and Piperno, "Practical graph isomorphism, II", 2014): :func:`_refine`
    colours the vertices of both complexes together until stable, a pair
    whose class sizes differ is a dead branch, and otherwise the smallest
    vertex ``v`` of the first class with several members is given a fresh
    colour along with each vertex ``w`` of ``y`` in that class in turn.  A
    discrete colouring gives one bijection, accepted when it maps the
    facets of ``x`` onto those of ``y``.  Branches wait on an explicit
    stack, one frame (a colouring pair and the ``w`` left) per level.

    The search is complete: refinement applies one rule and one numbering
    to both sides, so an isomorphism ``phi`` that preserves the colours
    before a round preserves them after it.  Every ``w`` of the split class
    is tried, ``phi(v)`` among them, and at the discrete leaf of that branch
    ``phi`` is the only colour-preserving bijection left.

    Cost: the search starts from the all-zero colourings, so its first
    round reads only the degrees when both complexes are pure (they have
    one dimension by then) and only the facet sizes otherwise.  Two
    complexes whose vertices do not show the same set of degrees (of
    facet-size signatures, when impure) part after that first round; two
    non-isomorphic stacked spheres of equal size usually do.  A relabelled
    stacked sphere needs two to four rounds in all (four for the d = 3
    boundaries of ``random_stacked_ball`` from m = 12500 up).  Every round
    is a fixed number of C-level passes over the facets and the vertex
    index, with two sorts, as :func:`_refine` says.  A branch whose
    refinement reaches a discrete colouring stops there rather than after
    one more round to confirm it, and a branch whose two sides stop sharing
    their colours dies after that round rather than after the rounds that
    would make it stable.  The number of rounds of a branch that stays
    alive still grows with the diameter, and every round recolours every
    facet, so long symmetric inputs (large polygons, boundaries of long
    path balls) spend their time there.
    """
    if (x.dim, len(x.facets), x.num_vertices) != (
        y.dim, len(y.facets), y.num_vertices
    ):
        return None
    cx, cy = _refine(
        x, y, dict.fromkeys(x.vertices, 0), dict.fromkeys(y.vertices, 0)
    )
    frames = []
    while True:
        sizes = Counter(cx.values())
        if sizes == Counter(cy.values()):
            split = min((c for c, k in sizes.items() if k > 1), default=None)
            if split is None:
                image = {c: w for w, c in cy.items()}
                bij = VertexBijection(tuple((v, image[cx[v]]) for v in x.vertices))
                if bij.maps_complex(x, y):
                    return bij
            else:
                v = next(u for u in x.vertices if cx[u] == split)
                todo = [w for w in reversed(y.vertices) if cy[w] == split]
                frames.append((cx, cy, v, todo))
        while frames and not frames[-1][3]:
            frames.pop()
        if not frames:
            return None
        # refined colours count from 0, so -1 is fresh at every level
        px, py, v, todo = frames[-1]
        cx, cy = _refine(x, y, {**px, v: -1}, {**py, todo.pop(): -1})


# --- vertex-order reconstruction -------------------------------------------


def uniqueness_reconstruction(mbar: SimplicialComplex) -> VertexBijection:
    """Recover the cyclic vertex order of a relabelled cyclic solid.

    The facet graph must be one cycle of 2D + 1 facets on 2D + 1
    vertices, D >= 3, and each vertex must lie in one arc of D + 1
    consecutive facets.  The bijection, each vertex to the end of its
    arc, carries ``mbar`` onto :func:`~trimanifold.walkup.kuehnel_solid`
    of the matching dimension.  Any failed stage raises
    :class:`ReconstructionFailure` naming it.
    """
    if mbar.dim < 0 or not is_pure(mbar):
        raise ReconstructionFailure("purity", "input is not a non-empty pure complex")
    big_d = mbar.dim
    n = mbar.num_vertices
    g = dual_graph(mbar)
    if not is_cycle(g):
        raise ReconstructionFailure("cycle-check", "facet graph is not a cycle")
    if g.num_nodes != n or n != 2 * big_d + 1:
        raise ReconstructionFailure(
            "size-check",
            f"need nu = f0 = {2 * big_d + 1}, got nu = {g.num_nodes}, f0 = {n}",
        )
    if big_d < 3:
        raise ReconstructionFailure("size-check", f"need dimension at least 3, got {big_d}")
    # walk the cycle from node 0 toward its smaller neighbour
    ring = [0, min(g.adjacency[0])]
    while len(ring) < n:
        nxt = [w for w in g.adjacency[ring[-1]] if w != ring[-2]]
        ring.append(nxt[0])
    position = {node: p for p, node in enumerate(ring)}
    arc_len = big_d + 1
    end_of: dict[int, int] = {}
    for v, ids in _vertex_facets(mbar).items():
        positions = {position[i] for i in ids}
        if len(positions) != arc_len:
            raise ReconstructionFailure(
                "arc-check",
                f"vertex {v} lies in {len(positions)} facets, expected {arc_len}",
            )
        # a proper subset of the cycle made of k runs has k ends
        ends = [p for p in positions if (p + 1) % n not in positions]
        if len(ends) != 1:
            raise ReconstructionFailure(
                "arc-check", f"facets of vertex {v} are not one consecutive arc"
            )
        end_of[v] = ends[0]
    # The facet at position p holds the vertices whose arcs end in
    # {p, ..., p + D}.  With e(q) the number of arcs ending at q, each
    # facet having D + 1 vertices gives sum_{q=p}^{p+D} e(q) = D + 1 for
    # every p, so e(p + D + 1) = e(p).  As e also has period 2D + 1 and
    # gcd(D + 1, 2D + 1) = 1, e is constant, hence 1: the ends are
    # distinct, and the facet at p maps onto the window {p, ..., p + D}.
    # These 2D + 1 windows are the facets of kuehnel_solid(D - 1).
    return VertexBijection(tuple(sorted(end_of.items())))


# --- proof-chain audit ------------------------------------------------------
#
# bound_chain_audit and theorem_argument_audit, like
# tightness.corollary_bound_check, check the paper's counting argument rather
# than answer a question about an input file, so no CLI command calls them:
# they stay library-only, exercised by tests/test_analysis.py.


def bound_chain_audit(
    g: DualGraph, n: int, d: int, beta1: int, cover_ok: bool | None = None
) -> LemmaReport:
    """Evaluate the counting chain behind the tightness lower bound.

    ``d`` is the manifold dimension, ``n`` its vertex count and ``g`` the
    facet graph of the associated solid.  The chain: the degree sum gives
    sum(deg - 2) = 2(eps - nu), bounding the set T of degree->=3 nodes;
    when T covers, n <= |T| (d+2); the tightness equation then forces n
    upward, and for beta1 >= 2 past the bound, which is the intended
    contradiction.  The degree-sum identity holds in every graph (eps is
    half the degree sum), so it is used but not checked.  ``holds`` means
    the instance behaved exactly as the argument predicts for its beta1.
    For beta1 = 1, ``degenerate_cycle`` is lemma 2.5's check on the solid
    of dimension d + 1.

    ``contradiction`` is arithmetic alone: for d >= -1 and beta1 != 1 it
    equals ``beta1 <= 0 or (beta1 == 2 and d >= 2)``.  Write
    f0 = m + d + 2 for the least f0 of :func:`.tightness._least_f0`, so m >= 1 is
    least with m(m+1) >= beta1 (d+1)(d+2), and the bound is
    B = 2(beta1 - 1)(d + 2).

    - beta1 <= 0: B <= -2(d + 2) < d + 2 < f0.
    - beta1 = 2: f0 > B = 2(d + 2) exactly when m >= d + 3, that is when
      (d+2)(d+3) < 2(d+1)(d+2), that is when d >= 2.
    - beta1 >= 3: m0 = (2 beta1 - 3)(d + 2) >= 1 has
      m0(m0+1) > (2 beta1 - 3)^2 (d+2)^2 >= beta1 (d+1)(d+2), since
      (2 beta1 - 3)^2 - beta1 = (beta1 - 1)(4 beta1 - 9) > 0.  So
      m <= m0, and f0 <= m0 + d + 2 = B.

    So an instance decides only the premises: the T bound (which needs
    minimum degree 2, given by lemma 2.2's 2-connectivity), beta1 read
    from the graph, and the cover.
    """
    nu = g.num_nodes
    eps = g.num_edges
    t_size = len(high_degree_set(g))
    t_bound_ok = t_size <= 2 * (eps - nu)
    beta_graph = eps - nu + 1
    graph_matches = beta_graph == beta1
    witness = {
        "nu": nu,
        "eps": eps,
        "t_size": t_size,
        "beta1_from_graph": beta_graph,
    }
    if beta1 == 1:
        degenerate_ok = _check_cycle_bound(None, g, d + 1, n)[0]
        equation_ok = (n - d - 1) * (n - d - 2) == beta1 * (d + 1) * (d + 2)
        witness["degenerate_cycle"] = degenerate_ok
        witness["equation"] = equation_ok
        holds = t_bound_ok and graph_matches and degenerate_ok and equation_ok
    else:
        bound_n = 2 * (beta1 - 1) * (d + 2)
        n_min = _least_f0(beta1, d)
        witness["n_bound_from_chain"] = bound_n
        witness["n_min_from_equation"] = n_min
        witness["contradiction"] = n_min > bound_n
        holds = t_bound_ok and graph_matches and n_min > bound_n
    if cover_ok is not None:
        holds = holds and cover_ok
    return LemmaReport("tightness-chain", holds, witness)


def theorem_argument_audit(mbar: SimplicialComplex, beta1: int) -> LemmaReport:
    """Run :func:`bound_chain_audit` on a concrete solid.

    The cover premise is lemma 2.9's check on ``mbar``, and ``None`` where
    that check's hypothesis fails: solid dimension below 4, or f0 at most
    2(d+1)+1.
    """
    if mbar.dim < 0 or not is_pure(mbar):
        raise PreconditionError("audit requires a non-empty pure complex")
    g = dual_graph(mbar)
    n = mbar.num_vertices
    try:
        cover_ok = _check_degree_three_cover(mbar, g, mbar.dim, n)[0]
    except LemmaHypothesisError:
        cover_ok = None
    return bound_chain_audit(g, n, mbar.dim - 1, beta1, cover_ok)
