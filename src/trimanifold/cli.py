"""Command-line front end.

Facet lists travel as FCT text, through file paths or ``-`` for standard
input; machine-readable JSON goes to standard output.  The human f-vector
summary of a generated or transformed complex goes to standard error
whenever the FCT text itself occupies standard output, and to standard
output when the text goes to a file.  Exit codes: 0 when everything
requested holds, 1 when some requested check fails, 2 for unusable
input, 3 for an internal invariant violation.

:func:`main` pauses the cyclic garbage collector while a command runs and
restores the caller's setting afterwards: command data are tuples, sets
and dicts of ints, which form no reference cycles, and the millions of
short-lived face tuples of a large job would otherwise trigger collector
passes that find nothing.

``params`` solves the tightness equation alone and loads only
:mod:`.tightness` and :mod:`.errors`; every other command reads or builds a
complex and loads all the combinatorial layers when it runs (see
:func:`_layers`).
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import sys

from .errors import LemmaHypothesisError, PreconditionError, TriManifoldError
from .tightness import LEMMA_IDS, parameter_solutions


@functools.cache
def _layers():
    """The six combinatorial layers, imported by the first call.

    The one place where a command loads them.  ``params`` never calls it,
    so its start imports none.  Every other command reads or builds a
    complex and reaches the layers only through this call, which imports
    all six whatever the command uses: one run of any such command leaves
    the whole package loaded, as the benchmark's tracer needs before it
    wraps each layer's functions.  Callers read a function from its module
    when they call it, so a patched module attribute is the one that runs.
    """
    from types import SimpleNamespace

    from . import analysis, complexes, dualgraph, fct, homology, walkup

    return SimpleNamespace(analysis=analysis, complexes=complexes, dualgraph=dualgraph,
                           fct=fct, homology=homology, walkup=walkup)


def _read_input(path: str):
    return _layers().fct.read_fct(sys.stdin if path == "-" else path)


def _instance_name(path: str) -> str:
    return "stdin" if path == "-" else path


def _emit_fct(x, out: str | None) -> None:
    layers = _layers()
    fv = layers.complexes.f_vector(x)
    summary = f"dim {x.dim} f-vector {' '.join(map(str, fv.counts))} euler {fv.euler}"
    if out is None or out == "-":
        layers.fct.write_fct(x, sys.stdout)
        print(summary, file=sys.stderr)
    else:
        layers.fct.write_fct(x, out)
        print(summary)


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _class_verdict(x, kbar: bool) -> tuple:
    report = _layers().walkup.class_membership(x)
    fail = report.kbar_fail if kbar else report.k_fail
    return fail is None, None if fail is None else {"failing_vertex": fail}


def _tight_verdict(x) -> tuple:
    tr = _layers().analysis.tight_neighborly_check(x)
    return tr.satisfies_inequality, {
        "equality": tr.is_equality,
        "lhs": tr.lhs,
        "rhs": tr.rhs,
        "beta1": tr.beta1,
    }


# check name -> (holds, witness) on a complex
_CHECKS = {
    "pure": lambda x: (_layers().complexes.is_pure(x), None),
    "pm": lambda x: (_layers().complexes.is_pseudomanifold(x), None),
    "neighborly": lambda x: (_layers().complexes.is_neighborly(x), None),
    "stacked-ball": lambda x: (_layers().walkup.is_stacked_ball(x), None),
    "stacked-sphere": lambda x: (_layers().walkup.is_stacked_sphere(x), None),
    "class-k": lambda x: _class_verdict(x, kbar=False),
    "class-kbar": lambda x: _class_verdict(x, kbar=True),
    "tight-neighborly": _tight_verdict,
}
CHECK_NAMES = tuple(_CHECKS)


def _run_check(x, name: str) -> dict:
    """One verdict of the named check on ``x``."""
    try:
        holds, witness = _CHECKS[name](x)
    except PreconditionError as exc:
        holds, witness = False, {"error": str(exc)}
    return {"id": name, "holds": holds, "witness": witness}


def _check_name(name: str) -> str:
    if name not in _CHECKS:
        raise ValueError(f"unknown check {name!r}")
    return name


def _run_lemma(x, lid: str) -> dict:
    """One verdict of the lemma with canonical id ``lid`` on ``x``."""
    try:
        rep = _layers().analysis.verify_lemma(x, lid)
        holds, witness = rep.holds, rep.witness
    except LemmaHypothesisError as exc:
        holds, witness = False, {"hypothesis_error": str(exc)}
    return {"id": f"lemma-{lid}", "holds": holds, "witness": witness}


def _parse_ids(option: str, text: str, canonical) -> list:
    """Split an id list, map each id through ``canonical``, refuse an empty list."""
    ids = [canonical(s.strip()) for s in text.split(",") if s.strip()]
    if not ids:
        raise ValueError(f"empty {option} list")
    return ids


def _report(args, x, ids: list, verdict) -> int:
    """Write ``--dot``, print the rows ``verdict(x, id)``, return the exit code."""
    if args.dot:
        dualgraph = _layers().dualgraph
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(dualgraph.to_dot(dualgraph.dual_graph(x)))
    checks = [verdict(x, i) for i in ids]
    _emit_json({"instance": _instance_name(args.input), "checks": checks})
    return 0 if all(c["holds"] for c in checks) else 1


def cmd_gen(args) -> int:
    walkup = _layers().walkup
    if args.kind == "kuehnel-solid":
        x = walkup.kuehnel_solid(args.d)
    elif args.kind == "kuehnel-torus":
        x = walkup.kuehnel_torus(args.d)
    else:
        if args.m is None:
            print("stacked-ball needs --m", file=sys.stderr)
            return 2
        x = walkup.random_stacked_ball(args.d, args.m, seed=args.seed)
    _emit_fct(x, args.output)
    return 0


def cmd_check(args) -> int:
    x = _read_input(args.input)
    return _report(args, x, _parse_ids("--checks", args.checks, _check_name), _run_check)


def cmd_betti(args) -> int:
    x = _read_input(args.input)
    bv = _layers().homology.betti_z2(x)
    _emit_json(
        {
            "instance": _instance_name(args.input),
            "betti": list(bv.betti),
            "euler": bv.alternating_sum(),
        }
    )
    return 0


def cmd_params(args) -> int:
    sols = parameter_solutions(args.beta1, args.dmax)
    _emit_json(
        {
            "beta1": args.beta1,
            "d_max": args.dmax,
            "solutions": [t._asdict() for t in sols],
        }
    )
    return 0


def cmd_verify(args) -> int:
    x = _read_input(args.input)
    ids = _parse_ids("--lemmas", args.lemmas, _layers().analysis.normalize_lemma_id)
    return _report(args, x, ids, _run_lemma)


def cmd_iso(args) -> int:
    a = _read_input(args.a)
    b = _read_input(args.b)
    bij = _layers().analysis.are_isomorphic(a, b)
    _emit_json(
        {
            "isomorphic": bij is not None,
            "bijection": [list(p) for p in bij.pairs] if bij else None,
        }
    )
    return 0 if bij is not None else 1


def cmd_bar(args) -> int:
    x = _read_input(args.input)
    _emit_fct(_layers().walkup.bar_construction(x), args.output)
    return 0


def cmd_boundary(args) -> int:
    x = _read_input(args.input)
    bd = _layers().complexes.boundary_complex(x)
    if bd.dim < 0:
        print("input error: the boundary has no vertices"
              " (the input is closed or a single point)", file=sys.stderr)
        return 2
    _emit_fct(bd, args.output)
    return 0


def _vertex(token: str) -> int:
    """A vertex label read with the FCT grammar."""
    token = token.strip()
    v = _layers().fct._label(token)
    if v is None or v < 0:
        raise ValueError(f"bad vertex label {token!r}")
    return v


def _parse_vertex_list(text: str) -> tuple:
    return tuple(sorted(_vertex(t) for t in text.split(",") if t.strip()))


def _parse_psi(text: str) -> dict:
    psi = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        left, sep, right = piece.partition(":")
        if not sep:
            raise ValueError(f"bad pair {piece!r}, expected src:dst")
        if (src := _vertex(left)) in psi:
            raise ValueError(f"vertex {src} is mapped twice in --psi")
        psi[src] = _vertex(right)
    return psi


def cmd_handle(args) -> int:
    x = _read_input(args.input)
    walkup = _layers().walkup
    hmap = walkup.HandleMap.create(
        _parse_vertex_list(args.sigma1),
        _parse_vertex_list(args.sigma2),
        _parse_psi(args.psi),
    )
    _emit_fct(walkup.handle_addition(x, hmap), args.output)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, so every :func:`main` call can share it."""
    parser = argparse.ArgumentParser(
        prog="trimanifold",
        description="generate, check and transform triangulated manifolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a built-in complex as FCT")
    p.add_argument("kind", choices=["kuehnel-solid", "kuehnel-torus", "stacked-ball"])
    p.add_argument("--d", type=int, required=True, help="dimension parameter")
    p.add_argument("--m", type=int, help="facet count for stacked-ball")
    p.add_argument("--seed", type=int, default=0, help="stream seed for stacked-ball")
    p.add_argument("-o", "--output", help="FCT destination, default stdout")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="run predicate checks, JSON verdicts")
    p.add_argument("input", help="FCT path or - for stdin")
    p.add_argument(
        "--checks", required=True, help="comma-separated: " + ",".join(CHECK_NAMES)
    )
    p.add_argument("--dot", help="also write the facet graph in DOT form")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("betti", help="mod-2 Betti numbers")
    p.add_argument("input")
    p.set_defaults(func=cmd_betti)

    p = sub.add_parser("params", help="tightness equation solutions")
    p.add_argument("--beta1", type=int, required=True)
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("verify", help="structural lemma checks")
    p.add_argument("input")
    p.add_argument(
        "--lemmas",
        default="2.2,2.3,2.4,2.5",
        help="comma-separated ids from " + ",".join(LEMMA_IDS),
    )
    p.add_argument("--dot", help="also write the facet graph in DOT form")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("iso", help="isomorphism test for two complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_iso)

    p = sub.add_parser("bar", help="pair-and-triple closure of a complex")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_bar)

    p = sub.add_parser("boundary", help="boundary complex")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("handle", help="remove two facets and identify them")
    p.add_argument("input")
    p.add_argument("--sigma1", required=True, help="comma-separated vertices")
    p.add_argument("--sigma2", required=True, help="comma-separated vertices")
    p.add_argument("--psi", required=True, help="pairs src:dst, comma-separated")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_handle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (TriManifoldError, ValueError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
