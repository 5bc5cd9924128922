"""Plain-text facet lists (FCT).

One facet per line as space-separated vertex labels, ``#`` starts a
comment, blank lines are skipped.  Lines end at ``\\n``, ``\\r\\n`` or
``\\r``, the universal newlines that :func:`read_fct` and standard input
apply, so a string and a file holding it read alike; other characters
that :meth:`str.splitlines` breaks at, such as ``\\f`` or U+2028, are
whitespace inside a line.  A label is decimal: ASCII digits
``0``-``9``, optionally after a ``-`` (``-0`` reads as 0; any other
``-`` label is reported as negative).  Signs ``+``, digit separators
``_`` and non-ASCII digits are not labels.  Comments may hold any text.

:func:`loads` reads the text by width class when the comment-stripped
lines are ASCII and hold no ``_``, ``+`` or ``-`` (the comment pass is
skipped when the text holds no ``#``).  Lines are taken ``_BLOCK`` at a
time, which bounds the tokens held at once; the lines of a block are
grouped by their number of tokens, and each class of width w goes through
``int`` in one flat pass and is cut into faces of w labels, with no
per-token Python loop.  On such text ``int`` accepts exactly the tokens
made of ASCII digits, so every label it returns is valid.  Whether a line
is sorted and repeats no label is decided exactly with no per-line
``set``: faces of one width strictly increase exactly when each of their
columns lies below the next, position by position.  A class that fails
the test is sorted face by face and tested again, and only a class that
still fails, where some line repeats a label (``7 007``), is rebuilt
through ``set``.  When the pass does not run or ``int`` refuses a token,
the lines are read again one token at a time.  That replay raises
:class:`~trimanifold.errors.FctFormatError` for the first token that is
not a label or is negative, naming its 1-based line; when every token is
a label (``-0``, or text split by non-ASCII whitespace), it too yields
sorted faces.

Both readers keep line order.  The faces are the keys of a dict, each
placed at its first occurrence: in line order throughout for the replay,
in line order within each width class of a block for the one pass, whose
block goes class by class, narrowest first.  That dict goes straight to
the absorption step, :func:`~trimanifold.complexes._from_canonical`,
which neither checks labels nor sorts a face again.  Canonical text holds
one facet size in lexicographic order, so it arrives presorted, and the
one sort of its facets finds a single run and takes linear time; faces
read into a set would come back in hash order and pay a full tuple sort.
Noisy text, facets with stray ridges and duplicates, holds faces of two
sizes; its ridges are absorbed through the ridge index of the facets,
which the complex keeps for the readers that need it next.  The lines
are dropped before that index is built.

Writers emit facets in lexicographic order with no trailing whitespace,
so equal complexes serialise to identical bytes.
"""

from __future__ import annotations

import io
import os
from itertools import chain, groupby, repeat
from operator import lt
from typing import TextIO

from .complexes import SimplicialComplex, _from_canonical
from .errors import EmptyComplexError, FctFormatError

__all__ = ["loads", "dumps", "read_fct", "write_fct"]

_BLOCK = 1024  # lines read together, bounding the transient tokens


def loads(text: str) -> SimplicialComplex:
    """Parse facet-list text into a canonical complex."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    bodies = [raw.split("#", 1)[0] for raw in lines] if "#" in text else lines
    canon = None
    if _unsigned_ascii(bodies):
        try:
            canon = _faces_by_width(bodies)
        except ValueError:  # a token that is not a number
            pass
    if canon is None:
        canon = _faces_by_line(bodies)
    canon.pop((), None)
    del lines, bodies  # not held alongside the ridge index of absorption
    try:
        return _from_canonical(canon)
    except EmptyComplexError:
        raise FctFormatError(0, "no facets in input") from None


def _unsigned_ascii(bodies: list) -> bool:
    """Whether the comment-stripped lines ``bodies`` are ASCII and hold no
    ``_``, ``+`` or ``-``, so that ``int`` reads every token it accepts
    as an unsigned decimal label.  The joined copy is dropped on return,
    before the faces are built."""
    text = "".join(bodies)
    return text.isascii() and not ("_" in text or "+" in text or "-" in text)


def _faces_by_width(bodies: list) -> dict:
    """The faces on the comment-stripped lines ``bodies`` as sorted tuples,
    the keys of a dict in first-occurrence order, read ``_BLOCK`` lines at
    a time, one ``int`` pass per width class of a block, narrowest first;
    ``ValueError`` when ``int`` refuses a token."""
    faces = {}
    for start in range(0, len(bodies), _BLOCK):
        rows = sorted(map(str.split, bodies[start:start + _BLOCK]), key=len)
        for width, group in groupby(rows, len):
            labels = map(int, chain.from_iterable(group))
            cut = list(zip(*[labels] * width))
            if not _increasing(cut):  # some line is not sorted
                cut = list(map(tuple, map(sorted, cut)))
                if not _increasing(cut):  # some line repeats a label
                    cut = [tuple(sorted(set(f))) for f in cut]
            faces.update(zip(cut, repeat(None)))
    return faces


def _increasing(cut: list) -> bool:
    """Whether every tuple of ``cut``, tuples of one width, strictly
    increases: each column below the next, position by position."""
    cols = list(zip(*cut))
    return all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))


def _faces_by_line(bodies: list) -> dict:
    """The faces on the comment-stripped lines ``bodies`` as sorted tuples,
    the keys of a dict in first-occurrence order, read one line and one
    token at a time: the first token that is not a label, or is negative,
    raises :class:`FctFormatError` naming its line."""
    faces = {}
    for lineno, body in enumerate(bodies, start=1):
        labels = set()
        for token in body.split():
            v = _label(token)
            if v is None:
                raise FctFormatError(lineno, f"bad vertex label {token!r}")
            if v < 0:
                raise FctFormatError(lineno, f"negative vertex label {v}")
            labels.add(v)
        faces.setdefault(tuple(sorted(labels)))
    return faces


def _label(token: str) -> int | None:
    """The value of a decimal label token, or ``None`` when it is not one."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(token)
    except ValueError:  # more digits than int() converts
        return None


def dumps(x: SimplicialComplex) -> str:
    """Canonical text form, one facet per line.

    One ``"%d ... %d\\n"`` line template per facet size, joined in facet
    order, is formatted once with every label: ``%d`` writes an int as
    ``str`` does, and refuses a label past the int-digit limit with the
    same ``ValueError``."""
    line = {n: " ".join(["%d"] * n) + "\n" for n in set(map(len, x.facets))}
    return "".join(map(line.__getitem__, map(len, x.facets))) % tuple(
        chain.from_iterable(x.facets))


def read_fct(source: str | os.PathLike | TextIO) -> SimplicialComplex:
    """Read from a file path or an open text stream."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with io.open(source, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    return loads(source.read())


def write_fct(x: SimplicialComplex, dest: str | os.PathLike | TextIO) -> None:
    """Write to a file path or an open text stream."""
    if isinstance(dest, (str, bytes, os.PathLike)):
        with io.open(dest, "w", encoding="utf-8") as fh:
            fh.write(dumps(x))
    else:
        dest.write(dumps(x))
