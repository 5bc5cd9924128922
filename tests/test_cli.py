import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import helpers
import trimanifold
from trimanifold import complexes, fct, homology, walkup
from trimanifold.analysis import LEMMA_IDS, VertexBijection
from trimanifold.cli import CHECK_NAMES, build_parser, main
from trimanifold.complexes import (
    SimplicialComplex,
    boundary_complex,
    from_facets,
    relabel_vertices,
)
from trimanifold.walkup import kuehnel_solid, kuehnel_torus, random_stacked_ball


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_writes_fct_to_stdout(capsys):
    code, out, err = run(capsys, "gen", "kuehnel-solid", "--d", "2")
    assert code == 0
    assert out == fct.dumps(kuehnel_solid(2))
    assert "f-vector 7 21 21 7" in err


def test_gen_writes_fct_to_file(capsys, tmp_path):
    target = tmp_path / "solid.fct"
    code, out, err = run(capsys, "gen", "kuehnel-solid", "--d", "3", "-o", str(target))
    assert code == 0
    assert fct.read_fct(target) == kuehnel_solid(3)
    # summary moves to stdout once the facet text has a file of its own
    assert "f-vector" in out and err == ""


def test_gen_stacked_ball_requires_m(capsys):
    code, _, err = run(capsys, "gen", "stacked-ball", "--d", "3")
    assert code == 2
    assert "--m" in err


def test_gen_stacked_ball_is_seed_stable(capsys, tmp_path):
    a, b = tmp_path / "a.fct", tmp_path / "b.fct"
    assert run(capsys, "gen", "stacked-ball", "--d", "3", "--m", "9",
               "--seed", "4", "-o", str(a))[0] == 0
    assert run(capsys, "gen", "stacked-ball", "--d", "3", "--m", "9",
               "--seed", "4", "-o", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, line", [
    (("kuehnel-torus", "--d", "11"),
     "dim 11 f-vector 25 300 1650 5500 12375 19800 23100 19800 12375 5500 1650 275"
     " euler 0"),
    (("stacked-ball", "--d", "4", "--m", "300"),
     "dim 4 f-vector 304 1206 1804 1201 300 euler 1"),
])
def test_gen_summary_of_a_complex_with_a_stored_class_report(capsys, tmp_path, argv, line):
    code, out, err = run(capsys, "gen", *argv, "-o", str(tmp_path / "x.fct"))
    assert (code, out, err) == (0, line + "\n", "")


def test_gen_survives_a_class_test_rebound_to_a_plain_wrapper(capsys):
    # a tracer or a mock that rebinds class_membership drops its attributes
    original = walkup.class_membership

    def traced(m):
        return original(m)

    jobs = [("kuehnel-solid", "--d", "9"), ("kuehnel-torus", "--d", "9"),
            ("stacked-ball", "--d", "4", "--m", "300")]
    plain = [run(capsys, "gen", *argv) for argv in jobs]
    with mock.patch.object(walkup, "class_membership", traced):
        made = [walkup.kuehnel_solid(9), walkup.kuehnel_torus(9),
                walkup.random_stacked_ball(4, 300)]
        rebound = [run(capsys, "gen", *argv) for argv in jobs]
    assert rebound == plain and all(code == 0 for code, _, _ in plain)
    assert [original.peek(x) for x in made] == [
        walkup.ClassReport(0, None),
        walkup.ClassReport(None, 0),
        walkup.ClassReport(0, None),
    ]


def test_check_reports_and_exit_zero(capsys, tmp_path):
    path = tmp_path / "torus.fct"
    fct.write_fct(kuehnel_torus(4), path)
    code, out, _ = run(capsys, "check", str(path),
                       "--checks", "pure,pm,neighborly,tight-neighborly")
    assert code == 0
    report = json.loads(out)
    assert report["instance"] == str(path)
    assert [c["id"] for c in report["checks"]] == [
        "pure", "pm", "neighborly", "tight-neighborly"
    ]
    assert all(c["holds"] for c in report["checks"])
    tight = report["checks"][-1]
    assert tight["witness"]["equality"] is True


def test_check_failing_predicate_exits_one(capsys, tmp_path):
    path = tmp_path / "ball.fct"
    fct.write_fct(helpers.path_ball(3, 5), path)
    code, out, _ = run(capsys, "check", str(path),
                       "--checks", "stacked-ball,stacked-sphere")
    assert code == 1
    verdicts = {c["id"]: c["holds"] for c in json.loads(out)["checks"]}
    assert verdicts == {"stacked-ball": True, "stacked-sphere": False}


def test_check_stacked_sphere_of_a_ball_names_its_boundary(capsys, tmp_path):
    path = tmp_path / "ball.fct"
    fct.write_fct(helpers.path_ball(3, 5), path)
    code, out, err = run(capsys, "check", str(path), "--checks", "stacked-sphere")
    assert (code, err) == (1, "")
    assert json.loads(out)["checks"] == [{
        "id": "stacked-sphere",
        "holds": False,
        "witness": {"error": "input has a non-empty boundary"},
    }]


def test_check_stacked_sphere_past_a_thousand_peels(capsys, tmp_path):
    # peeling this sphere takes 1199 steps; a search that recursed once per
    # peel died on the interpreter's recursion limit with exit 3
    path = tmp_path / "sphere.fct"
    fct.write_fct(boundary_complex(random_stacked_ball(3, 1200, seed=0)), path)
    code, out, err = run(capsys, "check", str(path), "--checks", "stacked-sphere")
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"][0]["holds"] is True


def test_iso_past_a_thousand_vertices(capsys, tmp_path):
    # a search that recursed once per vertex died on the interpreter's
    # recursion limit with exit 3 on this 1203-vertex sphere
    sphere = boundary_complex(random_stacked_ball(3, 1200, seed=0))
    labels = list(sphere.vertices)
    random.Random(1).shuffle(labels)
    copy = relabel_vertices(sphere, dict(zip(sphere.vertices, labels)))
    a, b = tmp_path / "a.fct", tmp_path / "b.fct"
    fct.write_fct(sphere, a)
    fct.write_fct(copy, b)
    code, out, err = run(capsys, "iso", str(a), str(b))
    assert (code, err) == (0, "")
    reply = json.loads(out)
    assert reply["isomorphic"] is True
    bij = VertexBijection(tuple(tuple(p) for p in reply["bijection"]))
    assert bij.maps_complex(sphere, copy)


def test_check_unknown_name_exits_two(capsys, tmp_path):
    path = tmp_path / "x.fct"
    fct.write_fct(helpers.simplex(2), path)
    code, _, err = run(capsys, "check", str(path), "--checks", "pure,bogus")
    assert code == 2
    assert "bogus" in err


_CHECK_BYTES = (
    '{\n'
    '  "instance": "t.fct",\n'
    '  "checks": [\n'
    '    {\n'
    '      "id": "pure",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
_VERIFY_BYTES = (
    '{\n'
    '  "instance": "t.fct",\n'
    '  "checks": [\n'
    '    {\n'
    '      "id": "lemma-2.4",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.8",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "hypothesis_error": "path lemma needs f0 > 7, instance has f0 = 7"\n'
    '      }\n'
    '    }\n'
    '  ]\n'
    '}\n'
)

# every registered lemma on the 4-dimensional cyclic solid: four hold, and
# the cyclic solid sits at f0 = 2 dim + 1, below the hypotheses of 2.8 and 2.9
_ALL_LEMMAS_BYTES = (
    '{\n'
    '  "instance": "t.fct",\n'
    '  "checks": [\n'
    '    {\n'
    '      "id": "lemma-2.2",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.3",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.4",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.5",\n'
    '      "holds": true,\n'
    '      "witness": null\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.8",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "hypothesis_error": "path lemma needs f0 > 11, instance has f0 = 11"\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "id": "lemma-2.9",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "hypothesis_error": "cover corollary needs f0 > 11, instance has f0 = 11"\n'
    '      }\n'
    '    }\n'
    '  ]\n'
    '}\n'
)

# neighborly on five vertices; lk 0 is the path 3-2-1-4, a stacked ball but
# no sphere, and lk 1 is a triangle with a pendant edge, neither
FIVE_VERTICES = from_facets([(0, 1, 2), (0, 1, 4), (0, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])
# the cone over a hexagon: lk 6 is a circle, every other link a path
HEXAGON_CONE = from_facets([(i, (i + 1) % 6, 6) for i in range(6)])
_CLASS_BYTES = (
    '{\n'
    '  "instance": "t.fct",\n'
    '  "checks": [\n'
    '    {\n'
    '      "id": "class-k",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "failing_vertex": 0\n'
    '      }\n'
    '    },\n'
    '    {\n'
    '      "id": "class-kbar",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "failing_vertex": 1\n'
    '      }\n'
    '    }\n'
    '  ]\n'
    '}\n'
)
_CONE_BYTES = _CLASS_BYTES.replace('"failing_vertex": 1', '"failing_vertex": 6')
_HYPOTHESIS_BYTES = (
    '{\n'
    '  "instance": "t.fct",\n'
    '  "checks": [\n'
    '    {\n'
    '      "id": "lemma-2.4",\n'
    '      "holds": false,\n'
    '      "witness": {\n'
    '        "hypothesis_error": "vertex link at 1 is not a stacked ball"\n'
    '      }\n'
    '    }\n'
    '  ]\n'
    '}\n'
)


@pytest.mark.parametrize(
    "x, argv, want_code, want",
    [
        (helpers.simplex(2), ["check", "t.fct", "--checks", "pure"], 0, _CHECK_BYTES),
        (kuehnel_solid(2), ["verify", "t.fct", "--lemmas", "2.4,2.8"], 1, _VERIFY_BYTES),
        (kuehnel_solid(4), ["verify", "t.fct", "--lemmas", "2.2,2.3,2.4,2.5,2.8,2.9"], 1,
         _ALL_LEMMAS_BYTES),
        # each class names its own first failing vertex
        (FIVE_VERTICES, ["check", "t.fct", "--checks", "class-k,class-kbar"], 1,
         _CLASS_BYTES),
        (HEXAGON_CONE, ["check", "t.fct", "--checks", "class-k,class-kbar"], 1,
         _CONE_BYTES),
        (FIVE_VERTICES, ["verify", "t.fct", "--lemmas", "2.4"], 1, _HYPOTHESIS_BYTES),
    ],
    ids=["check", "verify", "verify-every-lemma", "check-class-witnesses", "check-cone-witnesses",
         "verify-class-witness"],
)
def test_check_json_golden_bytes(capsys, tmp_path, monkeypatch, x, argv, want_code, want):
    monkeypatch.chdir(tmp_path)
    fct.write_fct(x, "t.fct")
    code, out, _ = run(capsys, *argv)
    assert code == want_code
    assert out == want


def test_check_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(fct.dumps(kuehnel_solid(2))))
    code, out, _ = run(capsys, "check", "-", "--checks", "pure")
    assert code == 0
    assert json.loads(out)["instance"] == "stdin"


def test_parse_error_carries_line_number(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\nnope\n"))
    code, _, err = run(capsys, "check", "-", "--checks", "pure")
    assert code == 2
    assert "line 2" in err


def test_non_decimal_label_exits_two_naming_its_line(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1 2\n0 1_0\n"))
    code, out, err = run(capsys, "check", "-", "--checks", "pure")
    assert (code, out) == (2, "")
    assert err == "input error: line 2: bad vertex label '1_0'\n"


def test_missing_file_exits_two(capsys, tmp_path):
    code, _, err = run(capsys, "betti", str(tmp_path / "absent.fct"))
    assert code == 2
    assert "input error" in err


def test_betti_json(capsys, tmp_path):
    path = tmp_path / "torus.fct"
    fct.write_fct(kuehnel_torus(3), path)
    code, out, _ = run(capsys, "betti", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["betti"] == [1, 1, 1, 1]
    assert payload["euler"] == 0


def test_params_json(capsys):
    code, out, _ = run(capsys, "params", "--beta1", "2", "--dmax", "500")
    assert code == 0
    payload = json.loads(out)
    assert [(s["d"], s["f0"]) for s in payload["solutions"]] == [
        (13, 35), (83, 204), (491, 1189)
    ]


def test_verify_default_lemmas_pass_on_solid(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    fct.write_fct(kuehnel_solid(3), path)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    ids = [c["id"] for c in json.loads(out)["checks"]]
    assert ids == ["lemma-2.2", "lemma-2.3", "lemma-2.4", "lemma-2.5"]


def test_verify_reports_hypothesis_failures(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    fct.write_fct(kuehnel_solid(4), path)
    code, out, _ = run(capsys, "verify", str(path), "--lemmas", "2.4,2.8")
    assert code == 1
    checks = {c["id"]: c for c in json.loads(out)["checks"]}
    assert checks["lemma-2.4"]["holds"]
    assert not checks["lemma-2.8"]["holds"]
    assert "hypothesis_error" in checks["lemma-2.8"]["witness"]


def test_verify_unknown_lemma_exits_two(capsys, tmp_path, monkeypatch):
    from trimanifold import analysis

    path = tmp_path / "solid.fct"
    dot = tmp_path / "dual.dot"
    fct.write_fct(kuehnel_solid(2), path)
    calls = []
    real = analysis.verify_lemma
    monkeypatch.setattr(analysis, "verify_lemma",
                        lambda m, lid: calls.append(lid) or real(m, lid))
    code, out, err = run(capsys, "verify", str(path), "--lemmas", "2.4,9.1",
                         "--dot", str(dot))
    # the ids are checked before any lemma runs or any file is written
    assert code == 2
    assert out == "" and "unknown lemma" in err
    assert not dot.exists()
    assert calls == []


@pytest.mark.parametrize("command, option", [("check", "--checks"), ("verify", "--lemmas")])
@pytest.mark.parametrize("ids", [",", " , ,", ""])
def test_an_empty_id_list_exits_two(capsys, tmp_path, command, option, ids):
    # a report of no checks would pass vacuously
    path = tmp_path / "solid.fct"
    dot = tmp_path / "dual.dot"
    fct.write_fct(kuehnel_solid(2), path)
    code, out, err = run(capsys, command, str(path), option, ids, "--dot", str(dot))
    assert code == 2
    assert out == "" and option in err
    assert not dot.exists()


def test_dot_file_written(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    dot = tmp_path / "dual.dot"
    fct.write_fct(kuehnel_solid(2), path)
    code, _, _ = run(capsys, "check", str(path), "--checks", "pure",
                     "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph dual {")
    assert text.count("--") == 7


def test_iso_exit_codes(capsys, tmp_path):
    a = tmp_path / "a.fct"
    b = tmp_path / "b.fct"
    fct.write_fct(boundary_complex(helpers.path_ball(3, 4)), a)
    fct.write_fct(boundary_complex(helpers.star_ball(3, 4)), b)
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 1
    assert json.loads(out) == {"isomorphic": False, "bijection": None}

    code, out, _ = run(capsys, "iso", str(a), str(a))
    assert code == 0
    payload = json.loads(out)
    assert payload["isomorphic"] and len(payload["bijection"]) == 7


def test_bar_and_boundary_roundtrip(capsys, tmp_path):
    torus = tmp_path / "torus.fct"
    solid = tmp_path / "solid.fct"
    back = tmp_path / "back.fct"
    fct.write_fct(kuehnel_torus(4), torus)
    assert run(capsys, "bar", str(torus), "-o", str(solid))[0] == 0
    assert fct.read_fct(solid) == kuehnel_solid(4)
    assert run(capsys, "boundary", str(solid), "-o", str(back))[0] == 0
    assert back.read_bytes() == torus.read_bytes()


def test_boundary_of_closed_input_exits_two(capsys, tmp_path):
    # the torus is closed, so its boundary is empty; a point's boundary is
    # the empty face alone; neither has a vertex to serialise
    for name, x in (("torus", kuehnel_torus(2)), ("point", from_facets([(0,)]))):
        path = tmp_path / f"{name}.fct"
        fct.write_fct(x, path)
        code, out, err = run(capsys, "boundary", str(path))
        assert code == 2, name
        assert out == "" and "closed" in err, name


def test_handle_pipeline(capsys, tmp_path):
    sphere = tmp_path / "sphere.fct"
    out_path = tmp_path / "handled.fct"
    fct.write_fct(boundary_complex(helpers.path_ball(5, 11)), sphere)
    code, _, _ = run(
        capsys, "handle", str(sphere),
        "--sigma1", "0,1,2,3,4", "--sigma2", "11,12,13,14,15",
        "--psi", "0:11,1:12,2:13,3:14,4:15", "-o", str(out_path),
    )
    assert code == 0
    from trimanifold.analysis import are_isomorphic

    assert are_isomorphic(fct.read_fct(out_path), kuehnel_torus(4)) is not None


def test_handle_rejects_malformed_psi(capsys, tmp_path):
    sphere = tmp_path / "sphere.fct"
    fct.write_fct(boundary_complex(helpers.path_ball(5, 11)), sphere)
    # a pair without ':', and a source mapped twice
    for psi, named in (("0-11", "'0-11'"), ("0:12,0:11,1:12,2:13,3:14,4:15", "vertex 0")):
        code, out, err = run(
            capsys, "handle", str(sphere),
            "--sigma1", "0,1,2,3,4", "--sigma2", "11,12,13,14,15",
            "--psi", psi,
        )
        assert code == 2, psi
        assert out == "" and "input error" in err and named in err, psi


@pytest.mark.parametrize(
    "option, value, token",
    [
        ("--psi", "0:1_1,1:12,2:13,3:14,4:15", "'1_1'"),  # digit separator
        ("--sigma1", "+0,1,2,3,4", "'+0'"),  # sign
        ("--psi", "0:11,1:12,2:13,3:14,4:\u0661\u0665", "'\u0661\u0665'"),  # Arabic-Indic
        ("--sigma2", "11,12,13,14,-15", "-15"),  # negative
    ],
)
def test_handle_reads_labels_with_the_fct_grammar(capsys, tmp_path, option, value, token):
    # int() reads the first three as 11, 0 and 15
    sphere = tmp_path / "sphere.fct"
    fct.write_fct(boundary_complex(helpers.path_ball(5, 11)), sphere)
    args = {"--sigma1": "0,1,2,3,4", "--sigma2": "11,12,13,14,15",
            "--psi": "0:11,1:12,2:13,3:14,4:15", option: value}
    code, out, err = run(capsys, "handle", str(sphere), *(a for kv in args.items() for a in kv))
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ") and token in err


def test_handle_refuses_a_zero_dimensional_input(capsys, tmp_path):
    points = tmp_path / "points.fct"
    fct.write_fct(from_facets([(0,), (1,), (2,)]), points)
    code, out, err = run(
        capsys, "handle", str(points),
        "--sigma1", "0", "--sigma2", "1", "--psi", "0:1",
    )
    assert code == 2
    assert out == ""
    assert err == ("input error: a handle needs dimension >= 1,"
                   " the input has dimension 0\n")


def test_json_output_is_deterministic(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    fct.write_fct(kuehnel_solid(3), path)
    first = run(capsys, "check", str(path), "--checks", "pure,pm,class-kbar")
    second = run(capsys, "check", str(path), "--checks", "pure,pm,class-kbar")
    assert first == second


# the per-vertex call of the one class scan that passes: the torus peels
# the cone over every link, the solid reads every link's facet graph as a
# star
@pytest.mark.parametrize("make, counted", [
    pytest.param(kuehnel_torus, "_peels_to_simplex_boundary", id="kuehnel_torus"),
    pytest.param(kuehnel_solid, "vertex_facet_subgraph", id="kuehnel_solid"),
])
def test_check_runs_class_membership_once(capsys, tmp_path, monkeypatch, make, counted):
    path = tmp_path / "x.fct"
    fct.write_fct(make(3), path)
    alone = [
        json.loads(run(capsys, "check", str(path), "--checks", name)[1])["checks"][0]
        for name in ("class-k", "class-kbar")
    ]
    # one class test makes one such call per vertex, so f0 calls mean the
    # two checks classified the links once
    calls = []
    real = getattr(walkup, counted)
    monkeypatch.setattr(walkup, counted, lambda *a: calls.append(a) or real(*a))
    # and it builds no link
    built = []
    monkeypatch.setattr(complexes, "link", lambda *a: built.append(a))
    monkeypatch.setattr(walkup, "link", lambda *a: built.append(a), raising=False)
    code, out, _ = run(capsys, "check", str(path), "--checks", "class-k,class-kbar")
    assert len(calls) == make(3).num_vertices
    assert built == []
    assert code == 1
    assert json.loads(out)["checks"] == alone


def test_verify_runs_class_membership_once(capsys, tmp_path, monkeypatch):
    solid = kuehnel_solid(4)
    path = tmp_path / "solid.fct"
    fct.write_fct(solid, path)
    # the class-K-bar scan reads one star per vertex of the solid
    calls = []
    real = walkup.vertex_facet_subgraph
    monkeypatch.setattr(walkup, "vertex_facet_subgraph",
                        lambda m, v: calls.append(v) or real(m, v))
    code, out, _ = run(capsys, "verify", str(path), "--lemmas", "2.2,2.3,2.4,2.5")
    # every lemma re-checks its hypothesis; the class report is computed once
    assert len(calls) == solid.num_vertices
    assert code == 0
    assert [c["holds"] for c in json.loads(out)["checks"]] == [True] * 4


_BUILDERS = {"dim", "vertices", "_vertex_facets", "_neighbours", "_ridge_incidence",
             "_facet_graph_counts", "dual_graph", "class_membership"}


@pytest.mark.parametrize("make", [kuehnel_torus, kuehnel_solid])
def test_only_the_memo_builders_write_the_cache(capsys, tmp_path, monkeypatch, make):
    path = tmp_path / "x.fct"
    fct.write_fct(make(4), path)
    read = []
    real = fct.read_fct
    monkeypatch.setattr(fct, "read_fct", lambda p: read.append(real(p)) or read[-1])
    run(capsys, "check", str(path), "--checks", "pure,pm,class-k,tight-neighborly")
    run(capsys, "verify", str(path))
    assert len(read) == 2
    for x in read:
        assert x._face_cache and set(x._face_cache) <= _BUILDERS


def test_the_one_skeleton_comes_from_the_neighbour_table(capsys, tmp_path, monkeypatch):
    # neighborliness, the class-K counts and every lemma hypothesis read
    # the memoised neighbour table; no command enumerates the edge level
    real = trimanifold.complexes.faces_of_dim
    levels = []

    def traced(x, k):
        levels.append(k)
        return real(x, k)

    for name, module in list(sys.modules.items()):  # every binding of it
        if name.startswith("trimanifold") and getattr(module, "faces_of_dim", None) is real:
            monkeypatch.setattr(module, "faces_of_dim", traced)
    read = []
    real_read = fct.read_fct
    monkeypatch.setattr(fct, "read_fct", lambda p: read.append(real_read(p)) or read[-1])
    checks = "pm,neighborly,class-k,tight-neighborly"
    jobs = [(kuehnel_torus(9), ["check", "--checks", checks]), (kuehnel_solid(5), ["verify"])]
    for i, (x, (command, *options)) in enumerate(jobs):
        path = tmp_path / f"{i}.fct"
        fct.write_fct(x, path)
        code, _, err = run(capsys, command, str(path), *options)
        assert code == 0, err
    assert 1 not in levels
    assert len(read) == 2
    for x in read:
        assert "_neighbours" in x._face_cache


def test_the_boundary_of_a_stacked_ball_enumerates_no_face_level(capsys, tmp_path, monkeypatch):
    # the summary reads the counts that boundary_complex stores from f_0
    real = trimanifold.complexes.faces_of_dim
    levels = []

    def traced(x, k):
        levels.append(k)
        return real(x, k)

    for name, module in list(sys.modules.items()):  # every binding of it
        if name.startswith("trimanifold") and getattr(module, "faces_of_dim", None) is real:
            monkeypatch.setattr(module, "faces_of_dim", traced)
    path, out_path = tmp_path / "b.fct", tmp_path / "s.fct"
    fct.write_fct(random_stacked_ball(5, 2000), path)
    t0 = time.perf_counter()
    code, out, err = run(capsys, "boundary", str(path), "-o", str(out_path))
    dt = time.perf_counter() - t0
    assert code == 0, err
    assert levels == []
    assert out == "dim 4 f-vector 2005 10010 20010 20005 8002 euler 2\n"
    assert dt < 1.5, f"boundary of a 2000-facet stacked 5-ball took {dt:.2f} s"


def test_connectivity_and_tree_tests_build_no_facet_graph(capsys, tmp_path, monkeypatch):
    # pm and stacked-ball read the edge and component counts of the ridge
    # index; only readers of adjacency build the graph
    read = []
    real = fct.read_fct
    monkeypatch.setattr(fct, "read_fct", lambda p: read.append(real(p)) or read[-1])
    path = tmp_path / "b.fct"
    fct.write_fct(random_stacked_ball(3, 200, seed=3), path)
    code, out, err = run(capsys, "check", str(path), "--checks", "pure,pm,stacked-ball")
    assert code == 0, err
    assert [c["holds"] for c in json.loads(out)["checks"]] == [True, True, True]
    code, _, err = run(capsys, "boundary", str(path), "-o", str(tmp_path / "s.fct"))
    assert code == 0, err
    assert len(read) == 2
    for x in read:
        assert "_facet_graph_counts" in x._face_cache
        assert "dual_graph" not in x._face_cache


def test_facet_graph_counts_have_no_size_cliff(capsys, tmp_path):
    # a book of m triangles on one edge, and m points on the empty ridge,
    # pass the f_0 test of stacked-ball; their complete facet graphs took
    # 1.46 s at m = 4000 and 71 s for the cycle rank of a 20000-page book
    # (Python 3.11, 2-vCPU host)
    m = 20000
    book = from_facets((0, 1, i) for i in range(2, m + 2))
    points = from_facets((i,) for i in range(m))
    t0 = time.perf_counter()
    for i, x in enumerate((book, points)):
        path = tmp_path / f"{i}.fct"
        fct.write_fct(x, path)
        code, out, err = run(capsys, "check", str(path), "--checks", "stacked-ball")
        assert code == 1, err
        assert json.loads(out)["checks"][0]["holds"] is False
    assert trimanifold.homology.beta1_dual_formula(book) == m * (m - 1) // 2 - m + 1
    dt = time.perf_counter() - t0
    assert dt < 2.0, f"book and points took {dt:.2f} s, budget 2 s"


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize(
    "argv, want",
    [
        (["gen", "kuehnel-solid", "--d", "2"], 0),
        (["betti", "no-such-file.fct"], 2),
        (["gen", "kuehnel-solid", "--d", "3"], 3),
    ],
)
def test_main_pauses_the_collector_and_restores_it(capsys, tmp_path, monkeypatch,
                                                   argv, want, collecting):
    from trimanifold import walkup

    monkeypatch.chdir(tmp_path)
    seen = []
    real = walkup.kuehnel_solid

    def solid(d):
        seen.append(gc.isenabled())
        if want == 3:
            raise RuntimeError("forced failure")
        return real(d)

    monkeypatch.setattr(walkup, "kuehnel_solid", solid)
    was = gc.isenabled()
    gc.enable() if collecting else gc.disable()
    try:
        code, _, err = run(capsys, *argv)
        after = gc.isenabled()
    finally:
        gc.enable() if was else gc.disable()
    assert code == want, err
    assert after is collecting
    assert seen == ([] if want == 2 else [False])


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_in_process_calls_match_separate_processes(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    fct.write_fct(kuehnel_solid(3), path)
    calls = (["betti", str(path)], ["gen", "kuehnel-torus", "--d", "2"])
    # one shared parser in this process, a fresh one in each child
    shared = [run(capsys, *argv) for argv in calls]
    src = os.path.dirname(os.path.dirname(trimanifold.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    for argv, (code, out, err) in zip(calls, shared):
        child = subprocess.run(
            [sys.executable, "-m", "trimanifold.cli", *argv],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (child.returncode, child.stdout, child.stderr) == (code, out, err)


def _loaded_by_importing(module: str) -> set:
    """The names in ``sys.modules`` after a fresh interpreter imports
    ``module``; -S keeps site hooks out, so only the package's count."""
    src = os.path.dirname(os.path.dirname(trimanifold.__file__))
    child = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, {module}; print(*sys.modules)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, check=True,
    )
    return set(child.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # every command-line run pays for its imports, and these two are among
    # the dearest
    assert not {"dataclasses", "inspect"} & _loaded_by_importing("trimanifold.cli")


@pytest.mark.parametrize(("layer", "below"), [
    ("errors", set()),
    ("complexes", {"errors"}),
    ("fct", {"complexes", "errors"}),
    ("dualgraph", {"complexes", "errors"}),
    ("walkup", {"complexes", "dualgraph", "errors"}),
    ("homology", {"complexes", "dualgraph", "errors", "walkup"}),
    ("analysis", {"complexes", "dualgraph", "errors", "homology", "walkup"}),
])
def test_importing_a_layer_loads_only_the_layers_below_it(layer, below):
    # the package namespace binds nothing, so a layer pulls in what it
    # imports and no more
    loaded = _loaded_by_importing(f"trimanifold.{layer}")
    assert {m.removeprefix("trimanifold.") for m in loaded
            if m.startswith("trimanifold.")} == below | {layer}


def test_usage_error_leaves_the_parser_usable(capsys, tmp_path):
    path = tmp_path / "solid.fct"
    fct.write_fct(kuehnel_solid(3), path)
    with pytest.raises(SystemExit) as info:
        main(["check", str(path)])
    assert info.value.code == 2
    assert "--checks" in capsys.readouterr().err
    code, out, _ = run(capsys, "check", str(path), "--checks", "pure")
    assert code == 0
    assert [c["id"] for c in json.loads(out)["checks"]] == ["pure"]


@st.composite
def facet_lists(draw):
    """Raw facet lists on at most 7 vertices: 1 to 8 faces of 1 to 5
    vertices each, sub-faces and repeats included."""
    n = draw(st.integers(1, 7))
    face = st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 5), unique=True)
    return draw(st.lists(face, min_size=1, max_size=8))


def _fct_text(faces) -> str:
    return "".join(" ".join(map(str, f)) + "\n" for f in faces)


def _quiet_main(*argv) -> int:
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return main(list(argv))


@settings(max_examples=200, deadline=None)
@given(facet_lists(), facet_lists(), st.permutations(range(7)), st.data())
def test_cli_never_fails_internally(faces, other, labels, data):
    # exit 3 is an internal error: no input the parser accepts may cause
    # it; sigma2 is a facet disjoint from sigma1 where there is one, so that
    # some handles are admissible
    facets = helpers.maximal_faces_by_pairs(faces)
    sigma1 = data.draw(st.sampled_from(facets))
    apart = [f for f in facets if not set(f) & set(sigma1)]
    sigma2 = data.draw(st.sampled_from(apart or facets))
    images = data.draw(st.permutations(sigma2))
    psi = ",".join(f"{s}:{t}" for s, t in zip(sigma1, images))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        a, b, copy = work / "a.fct", work / "b.fct", work / "copy.fct"
        a.write_text(_fct_text(faces))
        b.write_text(_fct_text(other))
        copy.write_text(_fct_text([[3 * labels[v] + 1 for v in f] for f in faces]))
        calls = [
            ("check", str(a), "--checks", ",".join(CHECK_NAMES)),
            ("check", str(a), "--checks", "pure", "--dot", str(work / "a.dot")),
            ("betti", str(a)),
            ("verify", str(a), "--lemmas", ",".join(LEMMA_IDS)),
            ("iso", str(a), str(copy)),
            ("iso", str(a), str(b)),
            ("bar", str(a), "-o", str(work / "bar.fct")),
            ("boundary", str(a), "-o", str(work / "boundary.fct")),
            ("handle", str(a), "--sigma1", ",".join(map(str, sigma1)),
             "--sigma2", ",".join(map(str, sigma2)), "--psi", psi,
             "-o", str(work / "handle.fct")),
        ]
        for argv in calls:
            assert _quiet_main(*argv) in (0, 1, 2), argv


@st.composite
def near_misses(draw):
    """Raw faces one mutation away from a generator output at d = 3..10:
    the Kühnel torus or solid, the boundary of a stacked (d+1)-ball or a
    one-handle body, with a facet dropped or added, two vertices merged,
    a shifted copy sharing at most 3 vertices joined on, or its labels
    spread out and permuted."""
    d = draw(st.integers(3, 10))
    kind = draw(st.sampled_from(("torus", "solid", "sphere", "handle")))
    if kind == "torus":
        x = kuehnel_torus(d)
    elif kind == "solid":
        x = kuehnel_solid(d)
    elif kind == "sphere":
        x = boundary_complex(random_stacked_ball(d + 1, draw(st.integers(1, 2 * d)),
                                                 draw(st.integers(0, 99))))
    else:
        x = helpers.handle_body(d, 1, 3 * (d + 2))
    faces, labels = [list(f) for f in x.facets], list(x.vertices)
    mutation = draw(st.sampled_from(("drop", "add", "merge", "union", "relabel")))
    if mutation == "drop":
        del faces[draw(st.integers(0, len(faces) - 1))]
    elif mutation == "add":
        pool = labels + [labels[-1] + 1, labels[-1] + 2]
        size = len(faces[0])
        faces.append(draw(st.lists(st.sampled_from(pool), min_size=size,
                                   max_size=size, unique=True)))
    elif mutation == "merge":
        keep, gone = draw(st.lists(st.sampled_from(labels), min_size=2, max_size=2,
                                   unique=True))
        faces = [sorted({keep if v == gone else v for v in f}) for f in faces]
    elif mutation == "union":
        offset = labels[-1] + 1 - draw(st.integers(0, 3))
        faces += helpers.shifted(x, offset).facets
    else:
        spread = dict(zip(labels, (3 * v + 1 for v in draw(st.permutations(labels)))))
        faces = [[spread[v] for v in f] for f in faces]
    return faces


@settings(max_examples=300, deadline=None)
@given(near_misses(), st.data())
def test_cli_never_fails_internally_near_the_generators(faces, data):
    # the gated routes (class Betti numbers at d >= 7, the cone peel on
    # large links, the stored reports) need inputs beyond the small random
    # lists above; betti is checked against the sweep on a fresh copy, the
    # one oracle that never takes the class route
    x = from_facets(faces)
    counts, ranks = homology._sweep(SimplicialComplex(x.facets), x.dim)
    want = [counts[k] - ranks[k] - ranks[k + 1] for k in range(len(counts))]
    labels = x.vertices
    image = dict(zip(labels, (2 * v + 5 for v in data.draw(st.permutations(labels)))))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        a, copy = work / "a.fct", work / "copy.fct"
        a.write_text(_fct_text(faces))
        copy.write_text(_fct_text([[image[v] for v in f] for f in x.facets]))
        calls = [
            ("check", str(a), "--checks", ",".join(CHECK_NAMES)),
            ("verify", str(a), "--lemmas", ",".join(LEMMA_IDS)),
            ("boundary", str(a), "-o", str(work / "boundary.fct")),
            ("bar", str(a), "-o", str(work / "bar.fct")),
            ("iso", str(a), str(copy)),
        ]
        for argv in calls:
            assert _quiet_main(*argv) in (0, 1, 2), argv
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(["betti", str(a)]) == 0
    assert json.loads(out.getvalue())["betti"] == want
