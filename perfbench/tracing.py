"""Per-layer spans recorded from outside the package.

:class:`Tracer` replaces each public function of every layer module at
every place it is bound: the defining module, each ``trimanifold``
namespace that did ``from .x import f``, and ``Z2Matrix.rank``.  Patching
only the defining module would miss the calls that go through those
copied bindings.  ``remove`` puts the originals back.

Each call appends one span ``[function, start, end, parent, job, size,
finished]`` to an in-memory list; nothing is written until the run ends.
Self time is a span's length minus the spans it directly caused.
"""

from __future__ import annotations

import inspect
import math
import statistics
import sys
import time

PACKAGE = "trimanifold"
# The package's modules, outermost first.  ``errors`` holds only exception
# classes and is not a layer.
LAYERS = ("cli", "fct", "complexes", "dualgraph", "walkup", "homology", "analysis")

FUNCTION_METRICS = (
    ("walkup.is_stacked_sphere", ("self_s", "facets_in", "exponent")),
    ("walkup.random_stacked_ball", ("self_s", "exponent")),
    ("walkup.class_membership", ("self_s",)),
    ("walkup.bar_construction", ("self_s",)),
    ("complexes.link", ("self_s", "calls", "repeat_frac")),
    ("complexes.faces_of_dim", ("self_s", "faces_out", "repeat_frac")),
    ("complexes.from_facets", ("self_s", "faces_in", "absorbed_frac", "exponent")),
    ("dualgraph.dual_graph", ("self_s", "calls", "repeat_frac")),
    ("homology.chain_complex", ("self_s",)),
    ("homology.Z2Matrix.rank", ("self_s", "cols")),
    ("analysis.are_isomorphic", ("self_s", "vertices_in", "exponent")),
    ("fct.loads", ("self_s", "bytes")),
    ("fct.dumps", ("self_s", "bytes")),
)


def _public_functions(module) -> dict:
    if module.__name__.endswith(".cli"):
        return {"main": module.main}
    return {
        name: obj
        for name in module.__all__
        if inspect.isfunction(obj := getattr(module, name))
        and obj.__module__ == module.__name__
    }


class Tracer:
    """Wraps the layer functions of an imported ``trimanifold`` package."""

    def __init__(self):
        self.names: list = []
        self.spans: list = []
        self.stack: list = []
        self.job = -1
        self.counts: dict = {}
        self._seen: set = set()
        self._alive: list = []
        self._patches: list = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        }
        wrappers = {}
        for layer in LAYERS:
            module = mods[f"{PACKAGE}.{layer}"]
            for name, fn in _public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in mods.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        z2 = mods[f"{PACKAGE}.homology"].Z2Matrix
        self._patch(z2, "rank", self._wrap("homology.Z2Matrix.rank", z2.rank))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def start_job(self, job: int) -> None:
        self.job = job
        self.stack.clear()
        self._seen.clear()
        self._alive.clear()

    def _count(self, name: str, key: str, k: int) -> None:
        per = self.counts.setdefault(name, {})
        per[key] = per.get(key, 0) + k

    def _repeat(self, name: str, obj, key) -> None:
        full = (name, id(obj), key)
        if full in self._seen:
            self._count(name, "repeats", 1)
        else:
            self._seen.add(full)
            self._alive.append(obj)  # keeps id(obj) unique within the job

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        before, after = _HOOKS.get(name, (None, None))

        def traced(*args, **kwargs):
            if before is not None:
                args = before(args)
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, self.job, 0, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[6] = True
            if after is not None:
                rec[5] = after(self, name, args, result) or 0
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reading ------------------------------------------------------------

    def take(self) -> tuple:
        """Hand over the recorded spans and counts and start afresh."""
        spans, counts = list(self.spans), self.counts
        self.spans.clear()
        self.counts = {}
        return spans, counts

    def summarise(self, spans: list, counts: dict, scales: list) -> dict:
        """Per-layer and per-function metrics of one traced pass.

        ``scales[j]`` converts measured seconds of job ``j`` into the
        reference seconds the run reports.
        """
        n = len(spans)
        dur = [(rec[2] - rec[1]) * scales[rec[4]] for rec in spans]
        child = [0.0] * n
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child[rec[3]] += dur[i]
        fn_self = [0.0] * len(self.names)
        fn_calls = [0] * len(self.names)
        sized: dict = {}
        total = 0.0
        for i, rec in enumerate(spans):
            fn_self[rec[0]] += dur[i] - child[i]
            fn_calls[rec[0]] += 1
            if rec[3] < 0:
                total += dur[i]
            if rec[6] and rec[5] > 0:
                sized.setdefault(rec[0], {}).setdefault(rec[5], []).append(dur[i])
        out: dict = {}
        for layer in LAYERS:
            ids = [i for i, nm in enumerate(self.names) if nm.startswith(layer + ".")]
            self_s = sum(fn_self[i] for i in ids)
            out[f"{layer}.self_s"] = self_s
            out[f"{layer}.calls"] = sum(fn_calls[i] for i in ids)
            out[f"{layer}.share"] = self_s / total if total else 0.0
        index = {nm: i for i, nm in enumerate(self.names)}
        for name, keys in FUNCTION_METRICS:
            i = index[name]
            c = counts.get(name, {})
            calls = fn_calls[i]
            for key in keys:
                if key == "self_s":
                    value = fn_self[i]
                elif key == "calls":
                    value = calls
                elif key == "repeat_frac":
                    value = c.get("repeats", 0) / calls if calls else 0.0
                elif key == "absorbed_frac":
                    faces = c.get("faces_in", 0)
                    value = c.get("absorbed", 0) / faces if faces else 0.0
                elif key == "exponent":
                    value = loglog_slope(sized.get(i, {}))
                else:
                    value = c.get(key, 0)
                out[f"{name}.{key}"] = value
        return out

    def dump(self, spans: list, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tsize\tfinished\n")
            for rec in spans:
                fh.write(f"{self.names[rec[0]]}\t{rec[1]:.7f}\t{rec[2]:.7f}\t"
                         f"{rec[3]}\t{rec[4]}\t{rec[5]}\t{int(rec[6])}\n")


def loglog_slope(by_size: dict) -> float:
    """Least-squares slope of log(median time) against log(size); 0 without a ladder."""
    pts = [(math.log(s), math.log(statistics.median(ts)))
           for s, ts in by_size.items() if statistics.median(ts) > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(p[0] for p in pts) / len(pts)
    my = sum(p[1] for p in pts) / len(pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    if sxx == 0:
        return 0.0
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


# -- argument and result probes, run outside the callee's span ---------------


def _listify(args):
    return (list(args[0]),) + args[1:]


def _from_facets(tr, name, args, result):
    faces = len(args[0])
    tr._count(name, "faces_in", faces)
    tr._count(name, "absorbed", faces - len(result.facets))
    return faces


def _facets_in(tr, name, args, result):
    size = len(args[0].facets)
    tr._count(name, "facets_in", size)
    return size


def _facets_out(tr, name, args, result):
    return len(result.facets)


def _iso(tr, name, args, result):
    tr._count(name, "vertices_in", args[0].num_vertices)
    return len(args[0].facets)


def _link(tr, name, args, result):
    tr._repeat(name, args[0], tuple(args[1]))


def _faces_of_dim(tr, name, args, result):
    tr._repeat(name, args[0], args[1])
    tr._count(name, "faces_out", len(result))


def _dual_graph(tr, name, args, result):
    tr._repeat(name, args[0], None)


def _rank(tr, name, args, result):
    tr._count(name, "cols", len(args[0].cols))


def _text_bytes(index):
    def probe(tr, name, args, result):
        tr._count(name, "bytes", len((args[0], result)[index]))
    return probe


_HOOKS = {
    "complexes.from_facets": (_listify, _from_facets),
    "walkup.is_stacked_sphere": (None, _facets_in),
    "walkup.random_stacked_ball": (None, _facets_out),
    "analysis.are_isomorphic": (None, _iso),
    "complexes.link": (None, _link),
    "complexes.faces_of_dim": (None, _faces_of_dim),
    "dualgraph.dual_graph": (None, _dual_graph),
    "homology.Z2Matrix.rank": (None, _rank),
    "fct.loads": (None, _text_bytes(0)),
    "fct.dumps": (None, _text_bytes(1)),
}
