"""Seeded inputs and answer oracles, written without the package under test.

Every expected answer the benchmark checks comes from the code in this
file: stacked balls glued one vertex at a time, boundaries found by
counting ridges, Kühnel windows, relabellings, FCT noise and the
facet-degree certificate of non-isomorphism.  Nothing here imports
``trimanifold``, so a defect in the package cannot hide in its own
oracle.
"""

from __future__ import annotations

import hashlib
import random
from itertools import combinations
from typing import Callable


def stacked_ball(d: int, m: int, rng: random.Random) -> list:
    """Facets of a stacked d-ball with m facets on m + d vertices.

    Starts from the simplex on 0..d and glues vertex ``d + k`` onto a
    boundary ridge drawn uniformly from ``rng``.  Facets come out sorted
    because each fresh vertex is larger than every earlier one.
    """
    first = tuple(range(d + 1))
    facets = [first]
    ridges = list(combinations(first, d))
    for fresh in range(d + 1, d + m):
        i = rng.randrange(len(ridges))
        tau = ridges[i]
        ridges[i] = ridges[-1]
        ridges.pop()
        facets.append(tau + (fresh,))
        ridges.extend(r + (fresh,) for r in combinations(tau, d - 1))
    return facets


def ridge_counts(facets) -> dict:
    counts: dict = {}
    for f in facets:
        for r in combinations(f, len(f) - 1):
            counts[r] = counts.get(r, 0) + 1
    return counts


def boundary(facets) -> list:
    """Ridges lying in exactly one facet, sorted."""
    return sorted(r for r, c in ridge_counts(facets).items() if c == 1)


def is_stacked_ball_shape(facets, d: int, m: int) -> bool:
    """m facets of size d+1 on m+d vertices, glued along m-1 ridges into a tree."""
    if len(facets) != m or any(len(f) != d + 1 for f in facets):
        return False
    verts = {v for f in facets for v in f}
    if len(verts) != m + d:
        return False
    owners: dict = {}
    parent = list(range(m))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    glued = 0
    for i, f in enumerate(facets):
        for r in combinations(f, d):
            j = owners.setdefault(r, i)
            if j == i:
                continue
            if find(i) == find(j):
                return False
            parent[find(i)] = find(j)
            glued += 1
    return glued == m - 1


def kuehnel_solid(d: int) -> list:
    """The 2d+3 windows of d+2 cyclically consecutive labels mod 2d+3."""
    n = 2 * d + 3
    return sorted(tuple(sorted((i + k) % n for k in range(d + 2))) for i in range(n))


def kuehnel_torus(d: int) -> list:
    return boundary(kuehnel_solid(d))


def vertices(facets) -> list:
    return sorted({v for f in facets for v in f})


def relabel(facets, mapping: dict) -> list:
    return sorted(tuple(sorted(mapping[v] for v in f)) for f in facets)


def random_relabelling(facets, rng: random.Random, spread: int = 0) -> dict:
    """Seeded bijection from the vertex set onto the same number of labels.

    With ``spread`` the image labels are drawn from ``range(spread)``
    instead of being a permutation of the original labels.
    """
    vs = vertices(facets)
    targets = rng.sample(range(spread), len(vs)) if spread else rng.sample(vs, len(vs))
    return dict(zip(vs, targets))


def degree_multiset(facets) -> list:
    """Sorted facet degrees of the vertices; differing multisets prove non-isomorphism."""
    deg: dict = {}
    for f in facets:
        for v in f:
            deg[v] = deg.get(v, 0) + 1
    return sorted(deg.values())


def dumps(facets) -> str:
    """Canonical FCT text: sorted facets, one per line, single spaces."""
    return "".join(" ".join(map(str, f)) + "\n" for f in sorted(facets))


def loads(text: str) -> list:
    """Facets of an FCT text as sorted tuples, in file order."""
    out = []
    for raw in text.splitlines():
        body = raw.split("#", 1)[0].split()
        if body:
            out.append(tuple(sorted(int(t) for t in body)))
    return out


def reference_task() -> Callable[[], object]:
    """A fixed stretch of dict, tuple and sorting work, timed to gauge machine speed."""
    ball = stacked_ball(4, 300, random.Random(0))
    return lambda: boundary(ball)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def shuffled_text(facets, rng: random.Random) -> str:
    """Canonical facet lines in a seeded line order."""
    lines = [" ".join(map(str, f)) for f in facets]
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def noisy_text(facets, rng: random.Random, absorbed: float) -> str:
    """The same complex with redundant lines mixed in.

    Adds ``absorbed * len(facets)`` ridge lines (each inside a facet, so a
    reader must absorb it), duplicate facet lines with their vertices out
    of order, full-line and trailing comments, and blank lines.  Any
    correct reader returns the facets unchanged.
    """
    lines = [" ".join(map(str, f)) for f in facets]
    for _ in range(int(absorbed * len(facets))):
        f = rng.choice(facets)
        drop = rng.randrange(len(f))
        lines.append(" ".join(str(v) for i, v in enumerate(f) if i != drop))
    for _ in range(len(facets) // 10):
        f = list(rng.choice(facets))
        rng.shuffle(f)
        lines.append("  ".join(map(str, f)) + "  # duplicate")
    for k in range(len(facets) // 20):
        lines.append(f"# comment {k}")
        lines.append("")
    rng.shuffle(lines)
    return "# noisy facet list\n" + "".join(line + "\n" for line in lines)
