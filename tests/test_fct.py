import io
import random
from itertools import combinations
from time import perf_counter

import pytest
from hypothesis import given, strategies as st

import helpers
from trimanifold import fct
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


def test_loads_rejects_empty_input():
    with pytest.raises(FctFormatError) as info:
        fct.loads("# nothing here\n")
    assert info.value.line == 0


def test_dumps_layout():
    text = fct.dumps(fct.loads("4 5 6\n0 1 2\n"))
    assert text == "0 1 2\n4 5 6\n"
    assert not any(line != line.rstrip() for line in text.splitlines())


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
    from trimanifold.complexes import from_facets

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
