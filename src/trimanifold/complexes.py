"""Finite abstract simplicial complexes stored by their facets.

A complex is kept as the canonically sorted tuple of its inclusion-maximal
faces.  Derived structure is never materialised up front.  What callers
read more than once is built on first use and memoised on the complex by
:func:`_memoised`, the only code that reads or writes the cache.  That is
sound as the complex is immutable: :class:`SimplicialComplex` is a slotted
class that refuses assignment after ``__init__``, and its equality, hash
and pickle read the facets alone.  The records are ``NamedTuple`` classes,
immutable as tuples are; neither needs :mod:`dataclasses`, whose import
every command-line run would pay for.  The builders are:

- ``dim`` and ``vertices``, the dimension and the vertex set;
- :func:`_vertex_facets`, vertex -> ascending ids of its facets, from
  which the class test also reads the cone over each vertex link;
- :func:`_neighbours`, vertex -> its neighbours in the 1-skeleton, read
  by :func:`is_neighborly`, the class test, the class-K counts, the bar
  construction and handle addition;
- :func:`_ridge_incidence`, codimension-one face -> ids of its facets,
  from which :func:`.walkup.class_membership` also reads which vertex
  links are closed; the class test builds no link at all.
  :func:`_from_canonical` absorbs faces of two sizes through it and keeps
  it on a pure result;
- :func:`_facet_graph_counts`, the edge and component counts of the
  facet graph, from the ridge index with no graph built, read by
  :func:`is_pseudomanifold`, :func:`.walkup.is_stacked_ball`, the
  class Betti route, :func:`.homology.is_orientable` and
  :func:`.homology.beta1_dual_formula`;
- :func:`.dualgraph.dual_graph`, the facet graph, from the ridge index,
  for code that reads adjacency; its star at a vertex is the facet graph
  of the link (see :func:`.walkup.class_membership`);
- :func:`.walkup.class_membership`, the Walkup class report, whose
  ``peek(x)`` returns the stored report, or None, without building it,
  and whose ``store(x, report)`` records the report that a generator's
  construction proves, so that no class test runs for it;
- :func:`f_vector`, the face counts, whose ``store`` records counts
  known without counting.

Face sets (:func:`faces_of_dim`, the only code that enumerates a face
level) are built afresh on every call, so that counting faces does not
keep every level alive; :func:`f_vector` says when it counts them.

This module is the only one that indexes the facets at a vertex or across
a ridge, or the neighbours of a vertex; every other module reads the three
indices, save the peel of :mod:`.walkup`, which numbers the facets it is
handed in a list of its own and keeps lazy star lists of their ids,
which hold peeled ids until a try filters them, beside the live star sizes.
Vertex labels are arbitrary non-negative integers and survive every
operation unchanged; algorithms that want dense indices build a local
relabelling.

All arithmetic is exact.  Python integers are unbounded, so the counting
identities checked elsewhere in the package cannot silently overflow.
"""

from __future__ import annotations

import functools
from itertools import chain, combinations, repeat
from typing import Iterable, NamedTuple

from .errors import (
    DimensionRangeError,
    EmptyComplexError,
    NotAFaceError,
    PreconditionError,
)

__all__ = [
    "Face",
    "FVector",
    "SimplicialComplex",
    "from_facets",
    "faces_of_dim",
    "f_vector",
    "link",
    "is_pure",
    "is_weak_pseudomanifold",
    "is_pseudomanifold",
    "boundary_complex",
    "relabel_vertices",
    "is_neighborly",
]

Face = tuple  # sorted tuple of distinct non-negative ints; () is the empty face


def _memoised(build):
    """Memoise ``build(x)`` on the complex ``x`` under ``build.__name__``,
    the only code that reads or writes ``_face_cache``.  Nothing is stored
    when ``build`` raises, so a precondition error is raised on every call.
    ``memo.peek(x)`` returns the stored value, or None, without building;
    ``memo.store(x, value)`` stores a value known without building, as the
    generators of :mod:`.walkup` do for their class report, and keeps a
    value already stored."""
    key = build.__name__

    @functools.wraps(build)
    def memo(x):
        cache = x._face_cache
        if key not in cache:
            cache[key] = build(x)
        return cache[key]

    memo.peek = lambda x: x._face_cache.get(key)
    memo.store = lambda x, value: x._face_cache.setdefault(key, value)
    return memo


def _as_face(vertices: Iterable[int]) -> Face:
    """Canonicalise one vertex collection into a sorted duplicate-free tuple.

    Each label is checked in input order before any two are compared, so
    the error names the first bad label, even one that does not compare
    with an int."""
    labels = set()
    for v in vertices:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex labels must be non-negative ints, got {v!r}")
        labels.add(v)
    return tuple(sorted(labels))


class FVector(NamedTuple):
    """Face counts by dimension together with the Euler characteristic."""

    counts: tuple[int, ...]
    euler: int

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "FVector":
        counts = tuple(counts)
        euler = sum(c if i % 2 == 0 else -c for i, c in enumerate(counts))
        return cls(counts, euler)


class SimplicialComplex:
    """Simplicial complex represented by its facet set.

    ``facets`` must already be canonical: each facet a strictly increasing
    tuple, no facet contained in another, whole tuple sorted.  Use
    :func:`from_facets` to build one from raw data; the raw constructor is
    for internal call sites that guarantee canonical input.  Two complexes
    with equal facet sets compare equal bit for bit.

    The empty complex (no facets) is the boundary of a closed complex and
    the link of a facet, and the empty face alone is the boundary of a
    point; readers answer both alike, as they test for dimension -1.
    :func:`from_facets` builds neither.

    Both slots are set once, in ``__init__``; assigning or deleting an
    attribute afterwards raises AttributeError.  Equality, hash, repr,
    pickle and copy read ``facets`` alone, never the memo cache.
    """

    __slots__ = ("facets", "_face_cache")

    def __init__(self, facets: tuple[Face, ...]) -> None:
        object.__setattr__(self, "facets", facets)
        # written by _memoised only.  Value writes are idempotent so
        # concurrent readers at worst recompute
        object.__setattr__(self, "_face_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.facets == other.facets

    def __hash__(self):
        return hash((self.facets,))

    def __reduce__(self):  # a copy starts with an empty cache
        return SimplicialComplex, (self.facets,)

    @property
    @_memoised
    def dim(self) -> int:
        """Top face dimension; -1 for the empty complex."""
        return max(map(len, self.facets), default=0) - 1

    @property
    @_memoised
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set().union(*self.facets)))

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    def __repr__(self) -> str:  # cache never shown
        return f"SimplicialComplex({list(self.facets)!r})"


EMPTY = SimplicialComplex(())


def from_facets(faces: Iterable[Iterable[int]]) -> SimplicialComplex:
    """Build a complex from generating faces.

    Faces may arrive in any order with duplicates; faces contained in a
    larger face are absorbed, as :func:`_from_canonical` describes.  At
    least one non-empty face is required.  Every label must be an ``int``
    (a ``bool`` is not) and not negative; faces and their labels are
    checked in input order, so the error names the first bad label of the
    first bad face.  Code that builds sorted faces of valid labels itself
    hands them to :func:`_from_canonical` directly.
    """
    canon = {_as_face(f) for f in faces}
    canon.discard(())
    return _from_canonical(canon)


def _from_canonical(canon: set | dict) -> SimplicialComplex:
    """The complex generated by ``canon``, a collection of distinct faces
    (a set, or the dict of :func:`.fct.loads`, whose keys keep line order)
    that are already sorted tuples of distinct non-negative int labels,
    without ``()``.

    Faces of one size cannot contain one another, so such input is
    returned sorted at once, taken in the order ``canon`` holds it: the
    faces of canonical FCT arrive in lexicographic order, and the sort
    finds one run in linear time.

    Input of exactly two sizes k and k - 1, the shape of noisy FCT, is
    absorbed through the ridge index: a face one vertex short of size k
    lies in a face of size k exactly when it is one of that face's
    ridges, a key of :func:`_ridge_incidence` of the complex of the size-k
    faces.  When every smaller face is absorbed, that complex is returned
    with its index memoised, for the readers that need it next.  Faces
    that survive join it as facets, and the index, now of a different and
    impure complex, is dropped: such input pays for an index it does not
    keep, k ridge tuples per size-k face and a list per distinct ridge,
    more than the vertex index below would cost, above all while the
    cyclic garbage collector runs.

    Other input is absorbed through a vertex index.  Faces are taken in
    groups of equal size, largest first; the largest group is kept whole.
    A smaller face is absorbed when one of the kept larger faces through
    its rarest vertex contains it, the test of :func:`link` on the complex
    being built.  Testing a face of size k costs k index lookups and at
    most k steps per kept face through its rarest vertex, so the build is
    near linear in the input when vertex degrees are bounded; a scan of
    every larger face would be quadratic.
    """
    if not canon:
        raise EmptyComplexError("at least one non-empty face is required")
    if len(set(map(len, canon))) == 1:
        return SimplicialComplex(tuple(sorted(canon)))
    groups: dict[int, list[Face]] = {}
    for f in canon:
        groups.setdefault(len(f), []).append(f)
    sizes = sorted(groups, reverse=True)
    if len(sizes) == 2 and sizes[1] == sizes[0] - 1:
        top = SimplicialComplex(tuple(sorted(groups[sizes[0]])))
        ridges = _ridge_incidence(top)
        stray = tuple(f for f in groups[sizes[1]] if f not in ridges)
        return SimplicialComplex(tuple(sorted(top.facets + stray))) if stray else top
    kept = groups[sizes[0]]
    maximal = list(kept)
    through: dict[int, list[set]] = {}  # vertex -> kept larger faces on it
    for length in sizes[1:]:
        # faces of equal size never contain one another, so a group joins
        # the index only once it has been tested
        for f in kept:
            face = set(f)
            for v in f:
                through.setdefault(v, []).append(face)
        kept = [
            f
            for f in groups[length]
            if not any(
                g.issuperset(f)
                for g in min((through.get(v, ()) for v in f), key=len)
            )
        ]
        maximal.extend(kept)
    return SimplicialComplex(tuple(sorted(maximal)))


def faces_of_dim(x: SimplicialComplex, k: int) -> frozenset:
    """All k-dimensional faces of ``x`` as a new frozenset of sorted tuples,
    the only code that enumerates a face level from the facets.

    ``k == -1`` yields the singleton set holding the empty face.  The set
    is not memoised: each call builds it again.
    """
    if k < -1 or k > x.dim:
        raise DimensionRangeError(f"k={k} outside [-1, {x.dim}]")
    if k == -1:
        return frozenset({()})
    return frozenset(chain.from_iterable(map(combinations, x.facets, repeat(k + 1))))


@_memoised
def f_vector(x: SimplicialComplex) -> FVector:
    """Face counts (f_0, ..., f_d) and their alternating sum, memoised.

    :func:`boundary_complex` stores the counts of the boundary of a
    stacked ball, and :func:`.walkup.random_stacked_ball` those of the
    ball, both read from f_0.  Otherwise counts come from
    :func:`.walkup._stacked_link_counts` when it answers, which it does
    without a class test for the Kuehnel solids and tori of dimension
    >= 3, as their generators store the class report they prove.
    Otherwise f_0 is the vertex count and f_d the number of facets of size
    d + 1, as every face of top dimension is a facet; only the levels in
    between are enumerated.
    """
    from .walkup import _stacked_link_counts

    if x.dim < 0:
        return FVector.from_counts(())
    route = _stacked_link_counts(x)
    if route is not None:
        return FVector.from_counts(route[1])
    d = x.dim
    middle = (len(faces_of_dim(x, k)) for k in range(1, d))
    top = sum(len(f) == d + 1 for f in x.facets)
    return FVector.from_counts((x.num_vertices, *middle, top) if d else (top,))


# bound once, so that code which rebinds f_vector with a plain wrapper (a
# tracer, a mock) does not break boundary_complex, which stores the counts
_store_f_vector = f_vector.store


def link(x: SimplicialComplex, alpha: Iterable[int]) -> SimplicialComplex:
    """Link of the face ``alpha``: faces disjoint from it whose union with it lies in ``x``.

    The link of the empty face is ``x`` itself.  Linking a facet gives the
    empty complex.
    """
    a = _as_face(alpha)
    if not a:
        return x
    index = _vertex_facets(x)
    rarest = min((index.get(v, ()) for v in a), key=len)
    # distinct facets through a stay incomparable once a is removed, so the
    # generators are already the link's facets
    gens = sorted(tuple(v for v in x.facets[i] if v not in a)
                  for i in rarest if set(a).issubset(x.facets[i]))
    if not gens:
        raise NotAFaceError(f"{a} is not a face")
    if not gens[0]:
        return EMPTY
    return SimplicialComplex(tuple(gens))


def is_pure(x: SimplicialComplex) -> bool:
    """True when every facet has the top dimension."""
    return len(set(map(len, x.facets))) < 2


@_memoised
def _vertex_facets(x: SimplicialComplex) -> dict:
    """Memoised map from each vertex, in ascending order, to the ascending
    ids of its facets."""
    index = {v: [] for v in x.vertices}
    for i, facet in enumerate(x.facets):
        for v in facet:
            index[v].append(i)
    return index


@_memoised
def _neighbours(x: SimplicialComplex) -> dict:
    """Memoised map from each vertex to its neighbours in the 1-skeleton,
    as cached sets that callers only read."""
    nbr: dict[int, set] = {v: set() for v in x.vertices}
    for f in x.facets:
        for v in f:
            nbr[v].update(f)
    for v, s in nbr.items():
        s.discard(v)
    return nbr


@_memoised
def _ridge_incidence(x: SimplicialComplex) -> dict:
    """Memoised map from each codimension-one face of a pure complex to its
    facet ids."""
    ridges: dict = {}
    for i, facet in enumerate(x.facets):
        for ridge in combinations(facet, len(facet) - 1):
            ridges.setdefault(ridge, []).append(i)
    return ridges


@_memoised
def _facet_graph_counts(x: SimplicialComplex) -> tuple[int, int]:
    """Memoised ``(edges, components)`` of the facet graph of a pure
    complex, from one pass over the ridge index, with no graph built.

    Two distinct facets of one size share at most one ridge, so a ridge
    in k facets brings C(k, 2) edges of its own.  Components are counted
    by union-find with path halving, each ridge's facets united with its
    first, so the cost is linear in the index however many facets share
    a ridge.  Impure input raises as :func:`.dualgraph.dual_graph` does.
    """
    if not is_pure(x):
        raise PreconditionError("dual graph requires a pure complex")
    if x.dim < 0:  # no facets, or the empty face alone: no node
        return 0, 0
    parent = list(range(len(x.facets)))
    edges = merges = 0
    for ids in _ridge_incidence(x).values():
        k = len(ids)
        if k < 2:
            continue
        edges += k * (k - 1) // 2
        root = ids[0]
        while parent[root] != root:
            parent[root] = root = parent[parent[root]]
        for other in ids[1:]:
            while parent[other] != other:
                parent[other] = other = parent[parent[other]]
            if other != root:
                parent[other] = root
                merges += 1
    return edges, len(parent) - merges


def is_weak_pseudomanifold(x: SimplicialComplex) -> bool:
    """Pure, and no codimension-one face lies in more than two facets."""
    if x.dim < 0:
        return True
    if not is_pure(x):
        return False
    return max(map(len, _ridge_incidence(x).values()), default=0) <= 2


def is_pseudomanifold(x: SimplicialComplex) -> bool:
    """Weak pseudomanifold whose facet adjacency graph is connected."""
    return is_weak_pseudomanifold(x) and _facet_graph_counts(x)[1] == 1


def boundary_complex(x: SimplicialComplex) -> SimplicialComplex:
    """Subcomplex generated by codimension-one faces lying in exactly one facet.

    Requires a pure weak pseudomanifold.  A closed input yields the empty
    complex.

    When ``x`` is a stacked d-ball with d >= 2, as
    :func:`.walkup.is_stacked_ball` certifies, the f-vector of the
    boundary is stored from n = f_0(x) alone, with no face level built:
    - A tree facet graph with f_0 = f_d + d is a stacking order.  Take the
      facets in an order along the tree, each after its neighbour on the
      way to the first.  Each facet after the first meets an earlier one
      in a ridge, so it brings at most one new vertex, and with
      f_0 = f_d + d each brings exactly one.  It cones that fresh vertex
      over a ridge of an earlier facet, and the ridge is free among the
      earlier facets, as in a weak pseudomanifold it lies in no third
      facet.  So ``x`` is a stacked ball.
    - For d >= 2 every vertex of ``x`` lies on the boundary.  The simplex
      has all its vertices there.  A stacking step on the free ridge tau
      puts the fresh vertex w and every u in tau on the free ridge
      tau - u' + w, for some u' in tau other than u, which exists as tau
      has d >= 2 vertices.  The other free ridges stay free.
    - So the boundary is a stacked (d-1)-sphere on those n vertices, whose
      counts :func:`.walkup._stacked_counts` gives.
    Other inputs leave the counts to :func:`f_vector`.
    """
    from .walkup import _stacked_counts, is_stacked_ball

    if x.dim < 0:
        raise PreconditionError("boundary of the empty complex is undefined")
    if not is_weak_pseudomanifold(x):
        raise PreconditionError("input must be a pure weak pseudomanifold")
    free = sorted(
        ridge for ridge, ids in _ridge_incidence(x).items() if len(ids) == 1
    )
    if not free:
        return EMPTY
    bd = SimplicialComplex(tuple(free))
    if x.dim >= 2 and is_stacked_ball(x):
        n = x.num_vertices
        counts = (a * n + b for a, b in _stacked_counts(x.dim - 1, sphere=True))
        _store_f_vector(bd, FVector.from_counts(counts))
    return bd


def relabel_vertices(x: SimplicialComplex, mapping: dict) -> SimplicialComplex:
    """Apply an injective relabelling to every facet, or raise ValueError."""
    try:
        targets = {mapping[v] for v in x.vertices}
    except KeyError as missing:
        raise ValueError(f"mapping has no image for vertex {missing}") from None
    if len(targets) != len(x.vertices):
        raise ValueError("mapping is not injective on the vertex set")
    return from_facets(tuple(mapping[v] for v in f) for f in x.facets)


def is_neighborly(x: SimplicialComplex) -> bool:
    """True when every two vertices span an edge."""
    f0 = x.num_vertices
    return all(len(s) == f0 - 1 for s in _neighbours(x).values())
