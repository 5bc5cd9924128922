"""Mod-2 chain complexes, Betti numbers, and orientability.

b_k = f_k - rank d_k - rank d_{k+1} over GF(2); everything is exact.

:func:`chain_complex` indexes the faces of each dimension in
lexicographic order and builds every boundary matrix in full, column-wise
as Python integers used as bit rows (column j of the k-th matrix is the
set of (k-1)-faces of the j-th k-face), and :meth:`Z2Matrix.rank` reduces
one matrix by bitset Gaussian elimination.  That is the reference.

:func:`betti_z2` and :func:`beta1_z2` get their ranks from one sweep that
reduces the maps from the top dimension down (clearing, or "twist": Chen
and Kerber, "Persistent homology computation with a twist", EuroCG 2011;
Bauer, Kerber and Reininghaus, "Clear and compress", 2014).  A row is a
face tuple, and rows are compared lexicographically, as tuples of equal
length compare.  A column is reduced by adding columns of the same map
until its largest row (its pivot) is owned by no other reduced column or
the column vanishes; the rank is the number of pivots.

Neither the rank nor the clearing depends on the order in which the
columns are taken, so each level stays an unsorted set:

- Rank.  A column is reduced by adding reduced columns to it, so the
  non-zero reduced columns span the column space, and they have distinct
  pivots, so they are independent.  A sum of vectors with distinct pivots
  has the largest of them as its pivot, so in any order their pivots are
  the set P of pivots of the non-zero vectors of the image, which
  depends on the column space alone.
- Clearing.  If the k-face i is in P for d_{k+1}, some boundary, so some
  k-cycle z, is i plus lexicographically smaller k-faces, and d_k z = 0
  makes column i of d_k the sum of smaller columns.  By induction over P
  in lexicographic order, every column of P lies in the span of the
  smaller columns outside P.  So d_k has the rank of its columns outside
  P, and the columns of P are skipped without being built; where there is
  little homology they are most of the columns that would otherwise need
  additions.

The pivot of an unreduced column is found without building it.  Of the
codimension-one faces of a sorted face, dropping the smallest vertex
gives the lexicographically largest one: two faces that drop positions
i < j agree before position i, where one holds v_{i+1} and the other v_i.
So ``face[1:]`` is the pivot, and one dict built from the faces to reduce
owns every pivot that no two of them share.  A pivot that several faces
share goes to the smallest of them, as in reduction in lexicographic
order: the order does not change the answer, but an arbitrary owner makes
longer columns and several times the additions (about 25000 against 6400
for d_2 of ``kuehnel_torus(11)``).  Only the other faces of such a group
become columns, each the set of its codimension-one faces, and the owner
becomes one when it is first added.

Each level (the k-faces) is read from :func:`.complexes.faces_of_dim` at
the start of its round, and f_0 is the vertex count.

Theorem (Walkup 1970 for d = 3; Kalai, "Rigidity and the lower bound
theorem I", 1987, for d >= 4): a connected complex of dimension d >= 3
whose vertex links are all stacked spheres (class K) is a stacked sphere
with k handles added.  So its mod-2 Betti vector is (1, k, 0, ..., 0, k,
1), and g2 = f_1 - (d+1) f_0 + C(d+2, 2) = C(d+2, 2) k, as each handle
merges d + 1 vertex pairs and C(d+1, 2) edge pairs.

A complex X of dimension d >= 2 whose vertex links are all stacked balls
(class K-bar) has the mod-2 Betti vector (1, eps - nu + 1, 0, ..., 0) when
connected, where nu and eps count the nodes and edges of its facet graph.
A stacked ball has no interior face of codimension >= 2, so X is a
manifold with boundary whose faces of dimension <= d - 2 all lie on its
boundary: a face through v is interior exactly when its trace in lk v
is.  Lefschetz duality mod 2 gives H_i(X) = H^(d-i)(X, boundary), whose
cochains live on the interior faces alone, the facets and the ridges in
two facets: the nodes and edges of the facet graph, with the incidence
as coboundary.  So H_0 has the rank of the graph's cokernel and H_1 that
of its cycle space, and the rest vanish.

Homology adds over components, so c components give (c, k, 0, ..., 0,
k, c) in class K, where k = (f_1 - (d+1) f_0 + c C(d+2, 2)) / C(d+2, 2)
counts the handles of all of them, and (c, eps - nu + c, 0, ..., 0) in
class K-bar.  :func:`betti_z2` reads the vector from the class report
through :func:`_class_betti`, and sweeps when that does not answer.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from operator import itemgetter
from typing import NamedTuple

from .complexes import (
    SimplicialComplex,
    _facet_graph_counts,
    _ridge_incidence,
    faces_of_dim,
    is_weak_pseudomanifold,
)
from .dualgraph import DualGraph, dual_graph
from .errors import PreconditionError
from .walkup import _memoised_report, _stacked_link_counts

__all__ = [
    "Z2Matrix",
    "Z2ChainComplex",
    "BettiVector",
    "chain_complex",
    "betti_z2",
    "beta1_z2",
    "beta1_dual_formula",
    "is_orientable",
]


class Z2Matrix(NamedTuple):
    """Matrix over GF(2), stored as one int bitmask per column."""

    num_rows: int
    cols: tuple

    @property
    def num_cols(self) -> int:
        return len(self.cols)

    def rank(self) -> int:
        """Gaussian elimination on packed bit rows."""
        pivots: dict[int, int] = {}
        rank = 0
        for col in self.cols:
            while col:
                top = col.bit_length() - 1
                other = pivots.get(top)
                if other is None:
                    pivots[top] = col
                    rank += 1
                    break
                col ^= other
        return rank

    def compose(self, inner: "Z2Matrix") -> "Z2Matrix":
        """Matrix product self @ inner over GF(2)."""
        if self.num_cols != inner.num_rows:
            raise ValueError("shape mismatch")
        out = []
        for col in inner.cols:
            acc = 0
            j = 0
            while col:
                if col & 1:
                    acc ^= self.cols[j]
                col >>= 1
                j += 1
            out.append(acc)
        return Z2Matrix(self.num_rows, tuple(out))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.cols)


class Z2ChainComplex(NamedTuple):
    """Ordered face lists per dimension plus the boundary matrices.

    ``boundaries[k]`` maps k-chains to (k-1)-chains for 1 <= k <= dim;
    index 0 holds the zero map out of the vertex space.
    """

    faces: tuple
    boundaries: tuple

    @property
    def dim(self) -> int:
        return len(self.faces) - 1


class BettiVector(NamedTuple):
    """Mod-2 Betti numbers b_0..b_d."""

    betti: tuple

    def alternating_sum(self) -> int:
        return sum(b if i % 2 == 0 else -b for i, b in enumerate(self.betti))


def chain_complex(x: SimplicialComplex) -> Z2ChainComplex:
    """Face lists and boundary matrices of ``x`` in every dimension."""
    if x.dim < 0:
        raise PreconditionError("chain complex of the empty complex is undefined")
    faces: list[tuple] = []
    index: list[dict] = []
    for k in range(x.dim + 1):
        ordered = tuple(sorted(faces_of_dim(x, k)))
        faces.append(ordered)
        index.append({f: i for i, f in enumerate(ordered)})
    boundaries = [Z2Matrix(0, tuple(0 for _ in faces[0]))]
    for k in range(1, x.dim + 1):
        lower = index[k - 1]
        cols = []
        for face in faces[k]:
            mask = 0
            for sub in combinations(face, k):
                mask |= 1 << lower[sub]
            cols.append(mask)
        boundaries.append(Z2Matrix(len(faces[k - 1]), tuple(cols)))
    return Z2ChainComplex(tuple(faces), tuple(boundaries))


def _sweep(x: SimplicialComplex, top: int) -> tuple[list[int], list[int]]:
    """Face counts f_0..f_top and ranks r_0..r_{top+1} of the boundary maps,
    with r_0 = r_{top+1} = 0, from one clearing sweep over the levels of
    :func:`faces_of_dim` (see the module docstring); d_top itself is
    reduced in full."""
    if x.dim < 0:
        raise PreconditionError("chain complex of the empty complex is undefined")
    counts = [x.num_vertices] + [0] * top
    ranks = [0] * (top + 2)
    cleared: dict = {}  # pivot rows of the reduced map above
    for k in range(top, 0, -1):
        faces = faces_of_dim(x, k)
        todo = faces.difference(cleared)
        counts[k] = len(faces)
        # pivot row -> face tuple, or its column once reduced against
        pivots = dict(zip(map(itemgetter(slice(1, None)), todo), todo))
        if len(pivots) < len(todo):
            losers = list(todo.difference(pivots.values()))
            # a shared pivot goes to the smallest of its faces
            for i, face in enumerate(losers):
                owner = pivots[face[1:]]
                if face < owner:
                    pivots[face[1:]], losers[i] = face, owner
            for face in losers:
                col = set(combinations(face, k))
                low = face[1:]
                other = pivots[low]
                while other is not None:
                    if type(other) is tuple:
                        other = pivots[low] = set(combinations(other, k))
                    col ^= other
                    if not col:
                        break
                    low = max(col)
                    other = pivots.get(low)
                else:
                    pivots[low] = col
        ranks[k] = len(pivots)
        cleared = pivots
    return counts, ranks


def _class_betti(x: SimplicialComplex) -> tuple | None:
    """Mod-2 Betti vector by the theorems of the module docstring, from the
    counts of :func:`.walkup._stacked_link_counts` (d >= 3 and class K or
    K-bar) and the facet graph counts; None when those counts do not
    answer.  A remainder in g2 raises AssertionError."""
    route = _stacked_link_counts(x)
    if route is None:
        return None
    sphere, f = route
    edges, c = _facet_graph_counts(x)
    if not sphere:
        return (c, edges - f[-1] + c) + (0,) * (len(f) - 2)
    step = comb(len(f) + 1, 2)  # C(d+2, 2)
    k, rest = divmod(f[1] - len(f) * f[0] + c * step, step)
    if rest:
        raise AssertionError("g2 is not a multiple of C(d+2, 2)")
    return (c, k) + (0,) * (len(f) - 4) + (k, c)


def betti_z2(x: SimplicialComplex) -> BettiVector:
    """Full mod-2 Betti vector b_0..b_d, from the class report for input
    in class K or K-bar (see the module docstring) and from the sweep
    otherwise."""
    betti = _class_betti(x)
    if betti is not None:
        return BettiVector(betti)
    counts, ranks = _sweep(x, x.dim)
    return BettiVector(
        tuple(counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts)))
    )


def _betti01(x: SimplicialComplex) -> tuple[int, int]:
    """Mod-2 (b_0, b_1) of a non-empty complex: from the class report only
    when one is memoised, as the class test costs more than the two small
    boundary ranks, and from those ranks otherwise."""
    if _memoised_report(x) is not None and (betti := _class_betti(x)) is not None:
        return betti[:2]
    counts, ranks = _sweep(x, min(2, x.dim))
    b1 = counts[1] - ranks[1] - ranks[2] if len(counts) > 1 else 0
    return counts[0] - ranks[1], b1


def beta1_z2(x: SimplicialComplex) -> int:
    """First mod-2 Betti number alone, as :func:`_betti01` reads it."""
    if x.dim < 1:
        return 0
    return _betti01(x)[1]


def beta1_dual_formula(x: SimplicialComplex) -> int:
    """Cycle rank of the facet graph: edges - nodes + 1.

    Agrees with the first Betti number of the boundary for the solids
    this package studies; the caller picks instances where that reading
    is meaningful.
    """
    edges, components = _facet_graph_counts(x)
    if components != 1:
        raise PreconditionError("dual graph must be connected")
    return edges - len(x.facets) + 1


def is_orientable(m: SimplicialComplex) -> bool:
    """Propagate facet signs along a spanning tree of the facet graph.

    Works on closed pseudomanifolds: pure, every ridge in exactly two
    facets, facet graph connected.  Returns True when a global
    orientation assignment is consistent across every shared ridge.
    """
    if m.dim < 0 or not is_weak_pseudomanifold(m):
        raise PreconditionError("orientability needs a pure weak pseudomanifold")
    if 1 in map(len, _ridge_incidence(m).values()):
        raise PreconditionError("orientability check requires a closed complex")
    if _facet_graph_counts(m)[1] != 1:
        raise PreconditionError("facet graph must be connected")
    g: DualGraph = dual_graph(m)
    # relative parity demanded by one shared ridge: facets must induce
    # opposite orientations on it, and dropping position p carries sign (-1)^p
    def relation(i: int, j: int) -> int:
        fi, fj = g.facets[i], g.facets[j]
        shared = set(fi) & set(fj)
        a = next(p for p, v in enumerate(fi) if v not in shared)
        b = next(p for p, v in enumerate(fj) if v not in shared)
        return 1 if (a + b) % 2 else -1
    signs: dict[int, int] = {0: 1}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in g.adjacency[i]:
            want = signs[i] * relation(i, j)
            if j not in signs:
                signs[j] = want
                stack.append(j)
            elif signs[j] != want:
                return False
    return True
