"""Facet adjacency graphs of pure complexes.

Nodes are dense ids 0..nu-1 in canonical facet order; an edge joins two
facets exactly when they share a codimension-one face.  The graph is one
adjacency table, a sorted tuple of neighbour ids per node, built for code
that reads adjacency: articulation nodes, induced subgraphs, sign walks,
DOT text.  Connectivity and tree questions about a whole complex are
answered from its edge and component counts,
:func:`.complexes._facet_graph_counts`, with no graph built;
:func:`is_connected` and :func:`is_tree` answer them for a graph in hand,
such as a vertex star.  The facet table rides along so callers can
translate ids back to vertex sets.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .complexes import (
    Face,
    SimplicialComplex,
    _memoised,
    _ridge_incidence,
    is_pure,
)
from .errors import PreconditionError, UnknownNodeError

__all__ = [
    "DualGraph",
    "dual_graph",
    "is_connected",
    "is_tree",
    "is_cycle",
    "cut_node",
    "is_two_connected",
    "components_minus",
    "high_degree_set",
    "to_dot",
]


class DualGraph(NamedTuple):
    """Undirected simple graph over facet ids, with the facet lookup table.

    ``adjacency[i]`` is the ascending tuple of the neighbours of node ``i``;
    each edge appears once from each end.
    """

    facets: tuple[Face, ...]
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def num_nodes(self) -> int:
        return len(self.facets)

    @property
    def num_edges(self) -> int:
        return sum(map(len, self.adjacency)) // 2

    def degree(self, i: int) -> int:
        self._check_node(i)
        return len(self.adjacency[i])

    def induced(self, ids) -> "DualGraph":
        """Subgraph induced on the given node ids, renumbered densely in id
        order; costs the degree sum of the kept nodes."""
        ids = sorted(set(ids))
        for i in ids:
            self._check_node(i)
        pos = {i: p for p, i in enumerate(ids)}
        return DualGraph(
            tuple(self.facets[i] for i in ids),
            tuple(tuple(pos[j] for j in self.adjacency[i] if j in pos) for i in ids),
        )

    def _check_node(self, i: int) -> None:
        if not isinstance(i, int) or i < 0 or i >= self.num_nodes:
            raise UnknownNodeError(f"node {i!r} outside 0..{self.num_nodes - 1}")


@_memoised
def dual_graph(x: SimplicialComplex) -> DualGraph:
    """Facet adjacency graph of a pure complex, memoised on the complex.

    Each ridge links every pair of its facets.  Two distinct facets of one
    size share at most one ridge, their intersection, so no neighbour is
    listed twice and the per-node lists need no deduplication.
    """
    if not is_pure(x):
        raise PreconditionError("dual graph requires a pure complex")
    if x.dim < 0:  # no facets, or the empty face alone: no node
        return DualGraph((), ())
    nbrs: list[list[int]] = [[] for _ in x.facets]
    for ids in _ridge_incidence(x).values():
        for a, b in combinations(ids, 2):
            nbrs[a].append(b)
            nbrs[b].append(a)
    return DualGraph(x.facets, tuple(tuple(sorted(n)) for n in nbrs))


def is_connected(g: DualGraph) -> bool:
    """True when the graph is non-empty and has a single component."""
    return len(components_minus(g, ())) == 1


def is_tree(g: DualGraph) -> bool:
    return is_connected(g) and g.num_edges == g.num_nodes - 1


def is_cycle(g: DualGraph) -> bool:
    """Connected and 2-regular; the smallest cycle is a triangle."""
    return (
        g.num_nodes >= 3
        and is_connected(g)
        and all(len(n) == 2 for n in g.adjacency)
    )


def cut_node(g: DualGraph):
    """Smallest articulation node of a connected graph, or ``None``.

    One iterative depth-first search from node 0 computes discovery and
    low times (Tarjan, "Depth-first search and linear graph algorithms",
    1972): the root separates the graph when it has two or more tree
    children, any other node ``p`` when some tree child ``v`` of it has
    ``low[v] >= disc[p]``.
    """
    if g.num_nodes == 0:
        return None
    disc = [-1] * g.num_nodes
    low = [0] * g.num_nodes
    parent = [-1] * g.num_nodes
    child_of_root = 0
    timer = 0
    stack: list[tuple[int, int]] = [(0, 0)]
    order: list[int] = []
    while stack:
        v, idx = stack.pop()
        if idx == 0:
            disc[v] = low[v] = timer
            timer += 1
            order.append(v)
        if idx < len(g.adjacency[v]):
            stack.append((v, idx + 1))
            w = g.adjacency[v][idx]
            if disc[w] == -1:
                parent[w] = v
                if v == 0:
                    child_of_root += 1
                stack.append((w, 0))
            elif w != parent[v]:
                low[v] = min(low[v], disc[w])
    cuts = {0} if child_of_root > 1 else set()
    for v in reversed(order):
        p = parent[v]
        if p != -1:
            low[p] = min(low[p], low[v])
            if p != 0 and low[v] >= disc[p]:
                cuts.add(p)
    return min(cuts, default=None)


def is_two_connected(g: DualGraph) -> bool:
    """At least three nodes, connected, and no articulation node."""
    return g.num_nodes >= 3 and is_connected(g) and cut_node(g) is None


def components_minus(g: DualGraph, removed) -> list:
    """Connected components after deleting a node set.

    Each component is sorted.  Each walk starts at the smallest node not
    yet seen, so the component list is ordered by smallest member.
    """
    removed = set(removed)
    for i in removed:
        g._check_node(i)
    seen: set[int] = set(removed)
    comps: list[list[int]] = []
    for start in range(g.num_nodes):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            for w in g.adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def high_degree_set(g: DualGraph) -> frozenset:
    """Nodes of degree three or more."""
    return frozenset(i for i in range(g.num_nodes) if len(g.adjacency[i]) >= 3)


def to_dot(g: DualGraph) -> str:
    """Graphviz text for eyeballing; not load-bearing anywhere."""
    lines = ["graph dual {"]
    for i, facet in enumerate(g.facets):
        label = " ".join(str(v) for v in facet)
        lines.append(f'  {i} [label="{label}"];')
    for i, nbrs in enumerate(g.adjacency):
        lines.extend(f"  {i} -- {j};" for j in nbrs if j > i)
    lines.append("}")
    return "\n".join(lines) + "\n"
