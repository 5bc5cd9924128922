import io
import random
import tracemalloc
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import example, given, strategies as st

import helpers
from trimanifold import fct
from trimanifold.complexes import (
    EMPTY,
    SimplicialComplex,
    _ridge_incidence,
    boundary_complex,
    from_facets,
)
from trimanifold.errors import FctFormatError
from trimanifold.walkup import kuehnel_solid, random_stacked_ball


def test_loads_basic():
    x = fct.loads("0 1 2\n2 3\n")
    assert x.facets == ((0, 1, 2), (2, 3))


def test_loads_ignores_comments_and_blanks():
    text = "# a comment\n\n  0 1 2\n   # indented comment\n3 4 5\n"
    x = fct.loads(text)
    assert x.facets == ((0, 1, 2), (3, 4, 5))


def test_loads_reports_line_numbers():
    with pytest.raises(FctFormatError) as info:
        fct.loads("0 1\nx y\n")
    assert info.value.line == 2
    with pytest.raises(FctFormatError) as info:
        fct.loads("0 1\n2 -3\n")
    assert info.value.line == 2


@pytest.mark.parametrize(
    "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_only_newlines_end_lines(char):
    # str.splitlines breaks at these too; FCT reads them as whitespace
    assert fct.loads(f"0 1{char}2 3\n").facets == ((0, 1, 2, 3),)
    with pytest.raises(FctFormatError) as info:
        fct.loads(f"0 1{char}2 3\n4 x\n")
    assert info.value.line == 2


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "-\u0663", "\uff11", "\u00b2"])
def test_labels_are_ascii_decimal(token):
    # int() reads the first five as 10, 1, 3, -3 and 1 (a fullwidth one);
    # a superscript two it refuses as well
    with pytest.raises(FctFormatError) as info:
        fct.loads(f"0 1 2\n0 {token}\n")
    assert (info.value.line, str(info.value)) == (
        2, f"line 2: bad vertex label {token!r}"
    )


def test_comments_and_minus_zero_stay_readable():
    x = fct.loads("# \u00fcber 1_0 +1 \u0663\n-0 1 2  # \u2603 +3\n")
    assert x.facets == ((0, 1, 2),)
    # non-ASCII whitespace splits tokens as str.split does
    assert fct.loads("0\u00a01\u20032\n").facets == ((0, 1, 2),)


def test_negative_label_is_named_with_its_line():
    with pytest.raises(FctFormatError) as info:
        fct.loads("0 1\n# -5\n2 -3 -4\n")
    assert (info.value.line, str(info.value)) == (3, "line 3: negative vertex label -3")


def test_plain_text_is_read_without_the_replay(monkeypatch):
    def replay(bodies):
        raise AssertionError("line-by-line replay on plain text")

    monkeypatch.setattr(fct, "_faces_by_line", replay)
    text = "# \u00fcber -1 1_0 +2\r\n0 1 2\n\n2  1\t0 # dup\n1 3\n3\n"
    assert fct.loads(text).facets == ((0, 1, 2), (1, 3))
    with pytest.raises(AssertionError):
        fct.loads("-0 1 2\n")


_NOT_LABELS = ["x", "1.5", "-", "--1", "0x1", "1e3", "1-2", "\u00e9", "9" * 5000]


@st.composite
def noisy_fct(draw):
    """FCT text of a small complex with noise: shuffled duplicates, absorbed
    sub-faces, lines that repeat a label (some spelled with leading zeros,
    ``7 007``), so that a width class holds lines with and without a
    repeat, comments (non-ASCII, ``_`` and ``+`` among them), blank
    lines, runs of spaces, tabs, form feeds and U+2028, LF, CRLF or CR
    ends, and on a few random lines a token that is not a label or is
    negative."""
    x = draw(helpers.small_complexes())
    rng = draw(st.randoms(use_true_random=False))
    faces = list(x.facets)
    faces += [rng.sample(f, len(f)) for f in x.facets if rng.random() < 0.5]
    faces += [
        rng.sample(f, rng.randrange(1, len(f)))
        for f in x.facets if len(f) > 1 and rng.random() < 0.5
    ]
    rows = [list(map(str, f)) for f in faces]
    for row in rows:
        if rng.random() < 0.3:
            repeat = rng.choice(["", "0", "00"]) + rng.choice(row)
            row.insert(rng.randrange(len(row) + 1), repeat)
    lines = [
        rng.choice([" ", "  ", "\t", "\x0c", "\u2028"]).join(row)
        + rng.choice(["", "  # dup \u00e9 1_0 +2", "#x"])
        for row in rows
    ]
    lines += rng.choices(["# comment", "", "   ", "\t", "#\u0663 -1"], k=rng.randrange(4))
    rng.shuffle(lines)
    for _ in range(draw(st.integers(0, 2))):
        token = draw(st.sampled_from([*_NOT_LABELS, "-3", "-12", "-0"]))
        i = rng.randrange(len(lines))
        lines[i] = f"{token} {lines[i]}"
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return eol.join(lines) + eol


def _outcome(load, text):
    """The complex ``load`` reads from ``text``, or its error's line and
    message."""
    try:
        return load(text)
    except FctFormatError as exc:
        return exc.line, str(exc)


@given(noisy_fct())
@example("")
@example("# only a comment\r\n\r\n")
@example("0 1\r\n2 -3\r\n4 x\n")
@example("0 1 x\n-0 -0\n")
@example("0 1\r2 x\r")
@example("7 007 3\n0 1 2\n3 7 0\n1 2 0\n2 2\n")
def test_one_pass_reads_like_the_line_parser(text):
    assert _outcome(fct.loads, text) == _outcome(helpers.loads_by_lines, text)


@given(noisy_fct(), st.integers(1, 3))
@example("0 1 2\n2 1 0\n1 01 3\n0 3\n", 2)
def test_short_blocks_read_like_the_line_parser(text, block):
    # blocks of one to three lines put block edges between width classes
    # and give each class its own sort and repeated-label fallbacks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fct, "_BLOCK", block)
        assert _outcome(fct.loads, text) == _outcome(helpers.loads_by_lines, text)


@given(helpers.small_complexes(), st.randoms(use_true_random=False))
def test_replay_reads_like_the_line_parser(x, rng):
    # U+3000 and -0 are labels the one pass does not read, so the
    # replay's faces go to the absorption step
    lines = [
        rng.choice([" ", "\u3000"]).join("-0" if v == 0 and rng.random() < 0.5 else str(v)
                                         for v in f)
        for f in x.facets
    ]
    text = "\n".join(lines) + "\n1\u3000-0\n"
    assert fct.loads(text) == helpers.loads_by_lines(text)


def test_loads_rejects_empty_input():
    with pytest.raises(FctFormatError) as info:
        fct.loads("# nothing here\n")
    assert info.value.line == 0


def test_dumps_layout():
    text = fct.dumps(fct.loads("4 5 6\n0 1 2\n"))
    assert text == "0 1 2\n4 5 6\n"
    assert not any(line != line.rstrip() for line in text.splitlines())


@pytest.mark.parametrize("x", [
    EMPTY,
    from_facets([(0, 1, 2), (2, 3), (4,), (5, 10 ** 30)]),
    kuehnel_solid(5),
    boundary_complex(random_stacked_ball(4, 300, 7)),
])
def test_dumps_writes_labels_as_str_does(x):
    assert fct.dumps(x) == helpers.dumps_by_lines(x)


def test_dumps_refuses_a_label_past_the_digit_limit_as_str_does():
    huge = SimplicialComplex(((1, 10 ** 5000),))
    outcomes = []
    for write in (fct.dumps, helpers.dumps_by_lines):
        try:
            outcomes.append(write(huge))
        except ValueError as exc:  # past sys.get_int_max_str_digits()
            outcomes.append(repr(exc))
    assert outcomes[0] == outcomes[1]


def test_roundtrip_is_identity_on_canonical_text():
    x = kuehnel_solid(3)
    assert fct.loads(fct.dumps(x)) == x
    assert fct.dumps(fct.loads(fct.dumps(x))) == fct.dumps(x)


@given(
    st.lists(
        st.lists(st.integers(0, 30), min_size=1, max_size=5),
        min_size=1,
        max_size=10,
    )
)
def test_roundtrip_arbitrary_complexes(faces):
    x = from_facets(faces)
    assert fct.loads(fct.dumps(x)) == x


def test_streams_and_paths(tmp_path):
    x = helpers.path_ball(2, 4)
    target = tmp_path / "ball.fct"
    fct.write_fct(x, target)
    assert fct.read_fct(target) == x

    buf = io.StringIO()
    fct.write_fct(x, buf)
    assert fct.loads(buf.getvalue()) == x
    assert fct.read_fct(io.StringIO(buf.getvalue())) == x


def test_written_bytes_are_deterministic(tmp_path):
    a, b = tmp_path / "a.fct", tmp_path / "b.fct"
    fct.write_fct(kuehnel_solid(4), a)
    fct.write_fct(kuehnel_solid(4), b)
    assert a.read_bytes() == b.read_bytes()


def _noisy(x, rng, absorbed):
    """FCT text of ``x`` with noise that parsing must drop: ``absorbed``
    proper sub-faces of facets (ridges down to vertices), every facet a
    second time with its vertices shuffled, comments and blank lines."""
    lines = [" ".join(map(str, f)) for f in x.facets]
    for f in x.facets:
        dup = list(f)
        rng.shuffle(dup)
        lines.append(" ".join(map(str, dup)) + "  # duplicate")
    for _ in range(absorbed):
        f = rng.choice(x.facets)
        sub = rng.choice(list(combinations(f, rng.randrange(1, len(f)))))
        lines.append(" ".join(map(str, sub)))
    lines += ["# comment", "", "   "] * 10
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def test_noisy_text_loads_like_plain_text():
    x = random_stacked_ball(3, 300, seed=5)
    plain = fct.dumps(x)
    noisy = _noisy(x, random.Random(5), absorbed=900)
    assert fct.loads(noisy) == fct.loads(plain) == x
    assert fct.dumps(fct.loads(noisy)) == plain


def test_noisy_loads_has_no_size_cliff():
    # an all-pairs scan would make 10^8 subset tests here, tens of seconds
    x = random_stacked_ball(3, 20000, seed=1)
    rng = random.Random(1)
    ridges = []
    for _ in range(5000):
        f = list(rng.choice(x.facets))
        f.pop(rng.randrange(len(f)))
        ridges.append(" ".join(map(str, f)) + "\n")
    text = fct.dumps(x) + "".join(ridges)
    t0 = perf_counter()
    loaded = fct.loads(text)
    dt = perf_counter() - t0
    assert loaded == x
    assert dt < 5.0, f"loads took {dt:.2f} s, budget 5 s"


def _with_ridges(x, rng):
    """FCT text of ``x`` in a shuffled line order with a quarter as many
    ridge lines as facets, a tenth duplicated with shuffled vertices and a
    trailing comment, and comment and blank lines: faces of two sizes."""
    lines = [" ".join(map(str, f)) for f in x.facets]
    for _ in range(len(x.facets) // 4):
        f = list(rng.choice(x.facets))
        f.pop(rng.randrange(len(f)))
        lines.append(" ".join(map(str, f)))
    for _ in range(len(x.facets) // 10):
        f = list(rng.choice(x.facets))
        rng.shuffle(f)
        lines.append("  ".join(map(str, f)) + "  # duplicate")
    lines += ["# comment", ""] * (len(x.facets) // 20)
    rng.shuffle(lines)
    return "".join(line + "\n" for line in lines)


def test_noisy_loads_keeps_the_ridge_index_it_absorbed_through():
    # the stray ridges are absorbed through the ridge index of the facets,
    # which the complex keeps for the pseudomanifold test and the boundary;
    # a plain read of one face size builds no index at all
    x = random_stacked_ball(3, 300, seed=3)
    loaded = fct.loads(_with_ridges(x, random.Random(3)))
    assert loaded == x
    stored = _ridge_incidence.peek(loaded)
    fresh = _ridge_incidence(SimplicialComplex(x.facets))
    assert stored == fresh and list(stored) == list(fresh)
    assert _ridge_incidence.peek(fct.loads(fct.dumps(x))) is None


def test_loads_peak_memory_per_facet_does_not_grow():
    # canonical lines in shuffled order on a doubling ladder; lines are
    # read a block at a time, so only the faces grow with the input.  Noisy
    # text also holds the ridge index of its absorption at the peak, and
    # its lines are dropped before that index is built
    per_facet = {"plain": [], "noisy": []}
    for m in (5000, 10000, 20000):
        x = random_stacked_ball(3, m, seed=7)
        lines = [" ".join(map(str, f)) + "\n" for f in x.facets]
        random.Random(1).shuffle(lines)
        texts = {"plain": "".join(lines), "noisy": _with_ridges(x, random.Random(1))}
        for kind, text in texts.items():
            tracemalloc.start()
            try:
                loaded = fct.loads(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert loaded == x
            assert (_ridge_incidence.peek(loaded) is None) == (kind == "plain")
            per_facet[kind].append(peak / len(x.facets))
    for kind, ladder in per_facet.items():
        assert max(ladder) <= 1.1 * ladder[0], (kind, ladder)
    # every token of the text held at once takes over 680 B per facet
    assert per_facet["plain"][-1] < 560, per_facet
