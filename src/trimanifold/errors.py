"""Exception types shared across the package.

Every error raised on a documented contract violation derives from
:class:`TriManifoldError`, so callers can catch one base class.  Plain
``ValueError`` is reserved for out-of-range scalar arguments (bad ``d``,
bad ``m``, bad seed and the like).
"""

from __future__ import annotations


class TriManifoldError(Exception):
    """Base class for contract violations raised by this package."""


class EmptyComplexError(TriManifoldError):
    """A construction that requires at least one non-empty face got none."""


class DimensionRangeError(TriManifoldError, ValueError):
    """A face-dimension argument fell outside the legal range."""


class NotAFaceError(TriManifoldError):
    """The given vertex set is not a face of the complex."""


class PreconditionError(TriManifoldError):
    """Structural precondition of an operation does not hold for the input."""


class UnknownNodeError(TriManifoldError):
    """A dual-graph node id outside 0..nu-1 was supplied."""


class InadmissibleHandleError(TriManifoldError):
    """Handle data violates the gluing rules.

    When the no-common-neighbor rule is the problem, ``witness`` holds the
    offending triple ``(x, psi_x, common_neighbor)``.
    """

    def __init__(self, message: str, witness: tuple[int, int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class ReconstructionFailure(TriManifoldError):
    """Vertex-order reconstruction failed; ``step`` names the failed stage."""

    def __init__(self, step: str, message: str):
        super().__init__(f"{step}: {message}")
        self.step = step


class UnknownLemmaError(TriManifoldError, ValueError):
    """No verification routine is registered under the given lemma id."""


class LemmaHypothesisError(TriManifoldError):
    """The input does not satisfy the hypothesis of the requested lemma.

    Raised instead of returning a vacuous pass, so a harness run on an
    out-of-scope instance fails loudly.
    """


class FctFormatError(TriManifoldError):
    """Malformed facet-list text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
