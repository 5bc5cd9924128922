"""The four workloads: seeded input files, CLI jobs and their oracles.

``build(name, seed, work)`` writes every input file under ``work`` before
any timing starts and returns the workload's jobs in a fixed order.
Each job is one ``trimanifold`` command line; its oracle receives the
job's standard output and the bytes of the file it wrote (if any) and
returns ``None`` when the answer is right, else a description of what
is wrong.  Oracles use only :mod:`gen` and the standard library.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from math import comb
from typing import Callable

import gen

# Jobs that fail on the package as it stands.  They stay in the ladders on
# purpose, as the size cliffs the benchmark exists to show, but run as
# untimed probes outside the timed passes (see ``run.py``).
KNOWN_DEFECTS = {
    "sp.d3-m1200.sphere": "D1: recursive peeling hits the recursion limit, exit 3",
    "iso.d3-m1200.relabel": "D2: recursive iso search hits the recursion limit, exit 3",
    "iso.polygon42.relabel": "D4: iso search is exponential on polygons, misses the deadline",
}


@dataclass
class Job:
    id: str
    argv: list
    code: int  # expected exit code
    check: Callable[[str, bytes | None], str | None]
    out: str | None = None  # path the job writes, read back after timing


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _fct_equals(expected_text: str) -> Callable:
    want = gen.digest(expected_text.encode())

    def check(stdout: str, data: bytes | None) -> str | None:
        if data is None or gen.digest(data) != want:
            return "written FCT differs from the canonical dump"
        return None

    return check


def _checks_hold(ids: list, witness: Callable | None = None) -> Callable:
    """Report lists every requested id with ``holds: true``."""

    def check(stdout: str, data: bytes | None) -> str | None:
        rows = json.loads(stdout)["checks"]
        if [r["id"] for r in rows] != ids:
            return f"check ids {[r['id'] for r in rows]} != {ids}"
        bad = [r["id"] for r in rows if r["holds"] is not True]
        if bad:
            return f"checks {bad} do not hold"
        if witness is not None:
            return witness({r["id"]: r["witness"] for r in rows})
        return None

    return check


def _stacked_ball_out(d: int, m: int) -> Callable:
    def check(stdout: str, data: bytes | None) -> str | None:
        if data is None:
            return "no output file"
        text = data.decode()
        facets = gen.loads(text)
        if gen.dumps(facets) != text:
            return "output is not canonical FCT"
        if not gen.is_stacked_ball_shape(facets, d, m):
            return f"output is not a stacked {d}-ball with {m} facets"
        return None

    return check


def _bar_refills(torus: list) -> Callable:
    want = sorted(torus)

    def check(stdout: str, data: bytes | None) -> str | None:
        if data is None:
            return "no output file"
        if gen.boundary(gen.loads(data.decode())) != want:
            return "boundary of the bar construction is not the input"
        return None

    return check


def _iso_maps(a: list, b: list) -> Callable:
    target = set(b)

    def check(stdout: str, data: bytes | None) -> str | None:
        reply = json.loads(stdout)
        if reply["isomorphic"] is not True:
            return "isomorphic copy reported non-isomorphic"
        mapping = dict(map(tuple, reply["bijection"]))
        if len(set(mapping.values())) != len(mapping):
            return "bijection is not injective"
        try:
            image = {tuple(sorted(mapping[v] for v in f)) for f in a}
        except KeyError as exc:
            return f"bijection misses vertex {exc}"
        return None if image == target else "bijection does not map facets onto facets"

    return check


def _not_iso(stdout: str, data: bytes | None) -> str | None:
    reply = json.loads(stdout)
    if reply != {"isomorphic": False, "bijection": None}:
        return "non-isomorphic pair reported isomorphic"
    return None


def _prefix(d: int, m: int) -> str:
    return f"d{d}-m{m}"


def stacked_pipeline(seed: int, work: str) -> list:
    """gen, boundary and the two stacked checks along a ball ladder."""
    rng = random.Random(seed)
    ladder = [(3, 150), (3, 300), (3, 600), (3, 1200),
              (4, 100), (4, 200), (4, 400), (4, 800),
              (5, 150), (5, 300), (5, 500)]
    jobs = []
    for d, m in ladder:
        tag = _prefix(d, m)
        ball = gen.stacked_ball(d, m, rng)
        ball = gen.relabel(ball, gen.random_relabelling(ball, rng))
        sphere = gen.boundary(ball)
        ball_path = _write(os.path.join(work, f"{tag}.ball.fct"), gen.shuffled_text(ball, rng))
        sphere_path = _write(os.path.join(work, f"{tag}.sphere.fct"), gen.dumps(sphere))
        gen_out = os.path.join(work, f"{tag}.gen.out.fct")
        bd_out = os.path.join(work, f"{tag}.boundary.out.fct")
        jobs += [
            Job(f"sp.{tag}.gen",
                ["gen", "stacked-ball", "--d", str(d), "--m", str(m),
                 "--seed", str(rng.randrange(1 << 32)), "-o", gen_out],
                0, _stacked_ball_out(d, m), gen_out),
            Job(f"sp.{tag}.boundary", ["boundary", ball_path, "-o", bd_out],
                0, _fct_equals(gen.dumps(sphere)), bd_out),
            Job(f"sp.{tag}.ball", ["check", ball_path, "--checks", "pure,pm,stacked-ball"],
                0, _checks_hold(["pure", "pm", "stacked-ball"])),
            Job(f"sp.{tag}.sphere", ["check", sphere_path, "--checks", "pure,pm,stacked-sphere"],
                0, _checks_hold(["pure", "pm", "stacked-sphere"])),
        ]
    return jobs


def _tight_witness(d: int) -> Callable:
    side = comb(d + 2, 2)

    def check(witnesses: dict) -> str | None:
        w = witnesses["tight-neighborly"]
        if w != {"equality": True, "lhs": side, "rhs": side, "beta1": 1}:
            return f"tight-neighborly witness {w}"
        return None

    return check


def _betti_torus(d: int) -> Callable:
    want = [1, 1] + [0] * (d - 3) + [1, 1]

    def check(stdout: str, data: bytes | None) -> str | None:
        reply = json.loads(stdout)
        if reply["betti"] != want or reply["euler"] != 0:
            return f"betti {reply['betti']} euler {reply['euler']}, want {want} and 0"
        return None

    return check


def torus_algebra(seed: int, work: str) -> list:
    """Kühnel solids and tori, d = 4..11, through every algebraic command."""
    rng = random.Random(seed)
    lemmas = ["2.2", "2.3", "2.4", "2.5"]
    jobs = []
    for d in range(4, 12):
        tag = f"d{d}"
        solid = gen.kuehnel_solid(d)
        torus = gen.kuehnel_torus(d)
        perm = gen.random_relabelling(solid, rng)
        torus_r = gen.relabel(torus, perm)
        torus_path = _write(os.path.join(work, f"{tag}.torus.fct"), gen.shuffled_text(torus_r, rng))
        solid_path = _write(os.path.join(work, f"{tag}.solid.fct"),
                            gen.shuffled_text(gen.relabel(solid, perm), rng))
        outs = {k: os.path.join(work, f"{tag}.{k}.out.fct") for k in ("torus", "solid", "bar")}
        jobs += [
            Job(f"ta.{tag}.gen-torus", ["gen", "kuehnel-torus", "--d", str(d), "-o", outs["torus"]],
                0, _fct_equals(gen.dumps(torus)), outs["torus"]),
            Job(f"ta.{tag}.gen-solid", ["gen", "kuehnel-solid", "--d", str(d), "-o", outs["solid"]],
                0, _fct_equals(gen.dumps(solid)), outs["solid"]),
            Job(f"ta.{tag}.betti", ["betti", torus_path], 0, _betti_torus(d)),
            Job(f"ta.{tag}.check",
                ["check", torus_path, "--checks", "pm,neighborly,class-k,tight-neighborly"],
                0, _checks_hold(["pm", "neighborly", "class-k", "tight-neighborly"],
                                _tight_witness(d))),
            Job(f"ta.{tag}.verify", ["verify", solid_path, "--lemmas", ",".join(lemmas)],
                0, _checks_hold([f"lemma-{x}" for x in lemmas])),
            Job(f"ta.{tag}.bar", ["bar", torus_path, "-o", outs["bar"]],
                0, _bar_refills(torus_r), outs["bar"]),
        ]
    return jobs


def _other_sphere(d: int, m: int, sphere: list, rng: random.Random) -> list:
    """A stacked sphere with the same f-vector and a different degree multiset."""
    while True:
        other = gen.boundary(gen.stacked_ball(d, m, rng))
        if gen.degree_multiset(other) != gen.degree_multiset(sphere):
            return other


def iso_relabel(seed: int, work: str) -> list:
    """iso on relabelled copies, certified non-isomorphic twins and solids."""
    rng = random.Random(seed)
    jobs = []

    def pair(tag: str, a: list, b: list, iso: bool) -> None:
        tag += ".relabel" if iso else ".other"
        a_path = _write(os.path.join(work, f"{tag}.a.fct"), gen.shuffled_text(a, rng))
        b_path = _write(os.path.join(work, f"{tag}.b.fct"), gen.shuffled_text(b, rng))
        jobs.append(Job(f"iso.{tag}", ["iso", a_path, b_path],
                        0 if iso else 1, _iso_maps(a, b) if iso else _not_iso))

    ladder = [(3, 50), (3, 100), (3, 200), (3, 300), (3, 400),
              (4, 50), (4, 100), (4, 200), (4, 300),
              (5, 50), (5, 100), (5, 200), (5, 300)]
    for d, m in ladder:
        tag = _prefix(d, m)
        sphere = gen.boundary(gen.stacked_ball(d, m, rng))
        sphere = gen.relabel(sphere, gen.random_relabelling(sphere, rng))
        pair(tag, sphere, gen.relabel(sphere, gen.random_relabelling(sphere, rng)), True)
        pair(tag, sphere, _other_sphere(d, m, sphere, rng), False)
    for d in range(4, 11):
        torus = gen.kuehnel_torus(d)
        pair(f"t{d}", torus, gen.relabel(torus, gen.random_relabelling(torus, rng)), True)
        # the solid has another dimension: the f-vector test rejects it
        pair(f"t{d}-solid", torus,
             gen.relabel(gen.kuehnel_solid(d), gen.random_relabelling(torus, rng)), False)
    polygon = gen.boundary(gen.stacked_ball(2, 40, rng))
    pair("polygon42", polygon, gen.relabel(polygon, gen.random_relabelling(polygon, rng)), True)
    big = gen.boundary(gen.stacked_ball(3, 1200, rng))
    pair("d3-m1200", big, gen.relabel(big, gen.random_relabelling(big, rng)), True)
    return jobs


def fct_canonical(seed: int, work: str) -> list:
    """Large balls as plain shuffled FCT and as noisy FCT, read and rewritten."""
    rng = random.Random(seed)
    ladder = [(3, 750), (3, 1500), (3, 3000), (3, 6000),
              (4, 600), (4, 1200), (4, 2400),
              (5, 500), (5, 1000), (5, 2000)]
    jobs = []
    for d, m in ladder:
        ball = gen.stacked_ball(d, m, rng)
        ball = gen.relabel(ball, gen.random_relabelling(ball, rng, spread=10**7))
        want_bd = _fct_equals(gen.dumps(gen.boundary(ball)))
        for kind, text in (("plain", gen.shuffled_text(ball, rng)),
                           ("noisy", gen.noisy_text(ball, rng, absorbed=0.25))):
            tag = f"{_prefix(d, m)}.{kind}"
            path = _write(os.path.join(work, f"{tag}.fct"), text)
            out = os.path.join(work, f"{tag}.boundary.out.fct")
            jobs += [
                Job(f"fc.{tag}.check", ["check", path, "--checks", "pure,pm"],
                    0, _checks_hold(["pure", "pm"])),
                Job(f"fc.{tag}.boundary", ["boundary", path, "-o", out], 0, want_bd, out),
            ]
    return jobs


WORKLOADS = {
    "stacked-pipeline": stacked_pipeline,
    "torus-algebra": torus_algebra,
    "iso-relabel": iso_relabel,
    "fct-canonical": fct_canonical,
}


def build(name: str, seed: int, work: str) -> list:
    return WORKLOADS[name](seed, work)
