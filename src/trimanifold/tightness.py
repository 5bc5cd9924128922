"""The paper's arithmetic, apart from any complex.

A connected d-manifold on f0 vertices is tight neighborly when the
equation

    (f0 - d - 1)(f0 - d - 2) = beta1 * (d + 1)(d + 2)

holds for its first mod-2 Betti number beta1.  This module solves that
equation, gives the least f0 meeting it as an inequality, and holds the
corollary bound and the ids of the lemmas that ``analysis`` checks on a
complex.  It imports no layer of the package, so the CLI's ``params``
command and the parser's help need nothing else.
"""

from math import comb, isqrt
from typing import NamedTuple

__all__ = [
    "ParameterTriple",
    "parameter_solutions",
    "corollary_bound_check",
    "LEMMA_IDS",
]

# The paper's lemmas that analysis.verify_lemma checks on a neighborly
# complex with stacked-ball vertex links, by number.  The ids are written
# here only: analysis registers one check under each, and the CLI lists them.
LEMMA_IDS = ("2.2", "2.3", "2.4", "2.5", "2.8", "2.9")


class ParameterTriple(NamedTuple):
    """One solution of the tight-neighborliness equation."""

    beta1: int
    d: int
    f0: int


def parameter_solutions(beta1: int, d_max: int) -> list:
    """All (beta1, d, f0) with 3 <= d <= d_max solving the tightness equation.

    For each d the equation has a solution exactly when the least f0 that
    :func:`_least_f0` gives meets it with equality, so at most one f0
    exists per d.
    """
    if beta1 < 1:
        raise ValueError(f"beta1 must be positive, got {beta1}")
    if d_max < 3:
        raise ValueError(f"d_max must be at least 3, got {d_max}")
    out = []
    for d in range(3, d_max + 1):
        f0 = _least_f0(beta1, d)
        if (f0 - d - 1) * (f0 - d - 2) == beta1 * (d + 1) * (d + 2):
            out.append(ParameterTriple(beta1, d, f0))
    return out


def _least_f0(beta1: int, d: int) -> int:
    """The least f0 > d + 2 with (f0-d-1)(f0-d-2) >= beta1 (d+1)(d+2).

    With m = f0 - d - 2 the condition reads m(m+1) >= t for
    t = beta1 (d+1)(d+2).  The integer square root gives the least k >= 0
    with k(k+1) >= t exactly, and m is that k, or 1 when k is 0.
    """
    t = beta1 * (d + 1) * (d + 2)
    k = (isqrt(max(4 * t + 1, 1)) - 1) // 2
    return max(k + (k * (k + 1) < t), 1) + d + 2


def corollary_bound_check(n: int, d: int) -> bool:
    """Whether C(n-d-1, 2) >= d^2 + 3d + 3; meaningful for d >= 4."""
    if d < 4:
        raise ValueError(f"d must be at least 4, got {d}")
    return comb(max(n - d - 1, 0), 2) >= d * d + 3 * d + 3
