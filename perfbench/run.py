"""End-to-end benchmark of the trimanifold command line.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload stacked-pipeline --seed 1 --seconds 20 --trace 0

The package is imported from ``./src``.  Before timing starts the
benchmark writes its seeded input files under ``.bench_work/`` with its
own generator (``gen.py``); the package only ever sees those files.  It
then runs whole passes over the workload's jobs as a closed loop, one
client in one process and one thread, until ``--seconds`` have elapsed.
Each job is one in-process ``trimanifold.cli.main(argv)`` call under a
fixed deadline, and its answer is checked against the benchmark's own
oracle (``workloads.py``).  The jobs that fail on the package as it
stands (``workloads.KNOWN_DEFECTS``) do not join the timed passes: with
``--trace 0`` each runs once as a probe before them, inside the
``--seconds`` budget, and shows in ``ok_frac`` and in the report.

Times are reported in reference seconds.  The host's speed swings by up
to 1.5x for seconds to minutes at a time, whatever runs on it, so each
measured interval is scaled by ``REF_S`` over the time of a fixed
reference task (``gen.reference_task``) timed right before and right
after it.  A reference second is a second on a machine where that task
takes ``REF_S``; the raw seconds stay in the report.  The benchmark pins
itself, and so the interpreters it starts, to one CPU, so that the
reference task and the work it scales run on the same core.

The last line of standard output is one JSON object.  With ``--trace 0``
it holds the end-to-end metrics; with ``--trace 1`` the benchmark
alternates untraced and traced passes and reports the per-layer metrics
of ``tracing.py`` instead.  A per-run report with every failure, the pass
digests and (traced) the spans goes to ``.bench_work/reports/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import gen
import workloads
from tracing import FUNCTION_METRICS, LAYERS, Tracer

# About twice the slowest job that passes today (2.2 s).
DEADLINE_S = 5.0
# Time of the reference task in reference seconds: its usual time on a
# 2.0 GHz Xeon VM outside the host's fast spells.
REF_S = 0.0011
# A job shorter than SLOT_S seconds runs up to MAX_REPS times per pass.
SLOT_S = 0.5
MAX_REPS = 5
# Fresh interpreter starts per run for setup_s, after one uncounted start
# that leaves the bytecode cache warm.
SETUP_STARTS = 9
SETUP_ARGV = ["-m", "trimanifold.cli", "params", "--beta1", "1", "--dmax", "3"]

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "ok_frac": "ratio",
    "peak_rss_mib": "MiB",
}


class JobTimeout(BaseException):
    """Raised by the deadline alarm.

    A ``BaseException`` so that ``cli.main``'s ``except Exception`` arm
    cannot turn a missed deadline into an exit code.
    """


def _on_alarm(signum, frame):
    raise JobTimeout


def per_layer_units() -> dict:
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.self_s": "s", f"{layer}.calls": "count",
                      f"{layer}.share": "ratio"})
    by_key = {"self_s": "s", "repeat_frac": "ratio", "absorbed_frac": "ratio",
              "exponent": "slope", "bytes": "bytes"}
    for name, keys in FUNCTION_METRICS:
        units.update({f"{name}.{k}": by_key.get(k, "count") for k in keys})
    units["trace.overhead_frac"] = "ratio"
    return units


def import_package(root: str):
    """Import ``trimanifold.cli`` from the checkout's ``src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "trimanifold", "cli.py")):
        raise SystemExit(f"error: no package source at {src}/trimanifold; "
                         "run from the root of a trimanifold checkout")
    sys.path.insert(0, src)
    import trimanifold.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise SystemExit(f"error: imported {cli.__file__}, not the checkout's package")
    return cli


class Gauge:
    """Converts measured seconds into reference seconds."""

    def __init__(self):
        self.task = gen.reference_task()

    def sample(self) -> float:
        """Best of three timings of the reference task, after a collection."""
        gc.collect()
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self.task()
            best = min(best, time.perf_counter() - t0)
        return best

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * REF_S * 2 / (before + after)


def measure_setup(root: str, gauge: Gauge) -> tuple:
    """Median wall time of a fresh CLI process, started one at a time."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    want = {"beta1": 1, "d_max": 3, "solutions": [{"beta1": 1, "d": 3, "f0": 9}]}
    times, ok = [], True
    for i in range(SETUP_STARTS + 1):
        before = gauge.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=root, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if i:
            times.append(gauge.scale(elapsed, before, gauge.sample()))
        ok = ok and proc.returncode == 0 and json.loads(proc.stdout or "null") == want
    return statistics.median(times), ok


class Runner:
    """Runs jobs in-process, one at a time, and checks their answers."""

    def __init__(self, cli, jobs: list, gauge: Gauge, tracer: Tracer | None = None):
        self.cli = cli
        self.jobs = jobs
        self.gauge = gauge
        self.tracer = tracer

    def run_job(self, index: int, job) -> tuple:
        if job.out and os.path.exists(job.out):
            os.remove(job.out)
        if self.tracer is not None:
            self.tracer.start_job(index)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = self.cli.main(list(job.argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except JobTimeout:
            code = None
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        latency = time.perf_counter() - t0
        return latency, code, out.getvalue(), err.getvalue()

    def run_pass(self, repeat: bool = True) -> dict:
        """One closed-loop pass over the jobs.

        With ``repeat``, a job shorter than ``SLOT_S`` runs again back to
        back, up to ``MAX_REPS`` times, and its latency is the median of
        its runs; the short jobs that set the median latency then rest on
        several samples, as the long ones rest on their length.
        """
        digest = hashlib.sha256()
        rows = []
        before = self.gauge.sample()
        for index, job in enumerate(self.jobs):
            lat, raws, first = [], [], None
            while True:
                raw, code, stdout, stderr = self.run_job(index, job)
                after = self.gauge.sample()
                lat.append(self.gauge.scale(raw, before, after))
                raws.append(raw)
                before = after
                data = written(job, code)
                kind, detail = judge(job, code, stdout, stderr, data)
                output = stdout.encode() + b"\0" + (data or b"") + b"\0"
                if first is None:
                    first = output
                elif kind == "ok" and output != first:
                    kind, detail = "wrong-answer", "output changed between runs"
                if (kind != "ok" or not repeat or len(raws) == MAX_REPS
                        or sum(raws) >= SLOT_S):
                    break
            # A failed job adds only its id: whether a defect shows as exit 3
            # or as a missed deadline may change with the machine's speed.
            digest.update(job.id.encode() + b"\0")
            if kind == "ok":
                digest.update(first)
            rows.append({"id": job.id, "kind": kind, "detail": detail, "runs": len(raws),
                         "latency_s": statistics.median(lat), "raw_s": statistics.median(raws)})
        return {"digest": digest.hexdigest(), "jobs": rows}

    def run_probes(self, probes: list) -> list:
        """Run each known-defect job once, untimed, and classify it."""
        rows = []
        for job in probes:
            _, code, stdout, stderr = self.run_job(-1, job)
            kind, detail = judge(job, code, stdout, stderr, written(job, code))
            rows.append({"id": job.id, "kind": kind, "detail": detail})
        return rows


def written(job, code) -> bytes | None:
    """The bytes of the file a finished job wrote, if it writes one."""
    if job.out and code is not None and os.path.exists(job.out):
        with open(job.out, "rb") as fh:
            return fh.read()
    return None


def judge(job, code, stdout: str, stderr: str, data) -> tuple:
    """Classify one job: ok, timeout, exit3, wrong-exit or wrong-answer."""
    if code is None:
        return "timeout", f"missed the {DEADLINE_S:g} s deadline"
    if code == 3:
        lines = stderr.strip().splitlines()
        return "exit3", lines[-1] if lines else ""
    if code != job.code:
        return "wrong-exit", f"exit {code}, expected {job.code}"
    try:
        problem = job.check(stdout, data)
    except (ValueError, KeyError, TypeError) as exc:
        problem = f"unreadable output: {exc!r}"
    return ("wrong-answer", problem) if problem else ("ok", "")


def charged(row: dict) -> float:
    """A job's latency; a failed job is charged the deadline, since it
    missed any latency limit."""
    return row["latency_s"] if row["kind"] == "ok" else DEADLINE_S


def ok_busy(p: dict) -> float:
    return sum(r["latency_s"] for r in p["jobs"] if r["kind"] == "ok")


def job_metrics(passes: list) -> dict:
    """jobs_per_s, median and tail latency over the job slots of a pass.

    Each slot's latency is its median over the passes, so a pass that ran
    during a slow spell of the machine does not move the result.  The
    tail is the highest percentile with ten slots beyond it.
    """
    n = len(passes[0]["jobs"])
    slots = sorted(statistics.median(charged(p["jobs"][i]) for p in passes)
                   for i in range(n))
    ok = sum(r["kind"] == "ok" for p in passes for r in p["jobs"]) / len(passes)
    return {"jobs_per_s": ok / sum(slots), "job_p50_s": statistics.median(slots),
            "job_tail_s": slots[n - 11]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    cli = import_package(root)
    work = os.path.join(".bench_work", args.workload)
    reports = os.path.join(".bench_work", "reports")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(reports, exist_ok=True)
    jobs = workloads.build(args.workload, args.seed, work)
    probes = [j for j in jobs if j.id in workloads.KNOWN_DEFECTS]
    jobs = [j for j in jobs if j.id not in workloads.KNOWN_DEFECTS]
    if len(jobs) < 40:
        raise SystemExit(f"error: a pass must hold at least 40 jobs, has {len(jobs)}")
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    gauge = Gauge()
    setup_s, setup_ok = (None, True) if args.trace else measure_setup(root, gauge)

    signal.signal(signal.SIGALRM, _on_alarm)
    tracer = Tracer() if args.trace else None
    runner = Runner(cli, jobs, gauge, tracer)
    plain, traced, layer_rows, spans = [], [], [], []
    t0 = time.perf_counter()
    probe_rows = [] if tracer is not None else runner.run_probes(probes)
    t_passes = time.perf_counter()
    while True:
        if tracer is not None and len(traced) < len(plain):
            tracer.install()
            try:
                traced.append(runner.run_pass(repeat=False))
            finally:
                tracer.remove()
            pass_spans, counts = tracer.take()
            scales = [r["latency_s"] / r["raw_s"] for r in traced[-1]["jobs"]]
            layer_rows.append(tracer.summarise(pass_spans, counts, scales))
            spans = spans or pass_spans
        else:
            plain.append(runner.run_pass())
        # Whole passes only: stop once the next pass would end further past
        # --seconds than stopping now falls short of it.
        now = time.perf_counter()
        elapsed = now - t0
        mean_pass = (now - t_passes) / (len(plain) + len(traced))
        if elapsed + mean_pass / 2 >= args.seconds and (tracer is None or traced):
            break

    passes = plain + traced
    digests = {p["digest"] for p in passes}
    rows = [r for p in passes for r in p["jobs"]] + probe_rows
    failures = sorted({(r["id"], r["kind"], r["detail"]) for r in rows if r["kind"] != "ok"})
    wrong = [f for f in failures if f[1] in ("wrong-exit", "wrong-answer")]
    correct = setup_ok and len(digests) == 1 and not wrong
    attempted = sum(r["runs"] for p in passes for r in p["jobs"])
    failed = sum(r["kind"] != "ok" for p in passes for r in p["jobs"])

    n = len(jobs)
    tail_label = f"p{100 * (n - 10) / n:g} of {n} job slots"
    if tracer is None:
        values = job_metrics(plain)
        values["setup_s"] = setup_s
        # Share of the workload's jobs, probes included, that passed every time.
        values["ok_frac"] = 1 - len({f[0] for f in failures}) / (n + len(probes))
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END_UNITS
    else:
        values = {k: statistics.median(row[k] for row in layer_rows) for k in layer_rows[0]}
        values["trace.overhead_frac"] = (
            statistics.median(map(ok_busy, traced))
            / statistics.median(map(ok_busy, plain)) - 1)
        units = per_layer_units()
        tracer.dump(spans, os.path.join(reports, f"{args.workload}-s{args.seed}.spans.tsv"))

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "deadline_s": DEADLINE_S, "tail": tail_label, "passes": passes,
              "digests": sorted(digests), "probes": probe_rows, "failures": failures, "values": values}
    name = f"{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(os.path.join(reports, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# {args.workload} seed {args.seed}: {len(plain)} plain + {len(traced)} traced "
          f"passes of {n} jobs, tail {tail_label}, digest {sorted(digests)[0][:16]}"
          f"{'' if len(digests) == 1 else ' (passes DISAGREE)'}")
    for job_id, kind, detail in failures:
        known = workloads.KNOWN_DEFECTS.get(job_id)
        print(f"# failed {job_id}: {kind} {detail}" + (f" [known {known}]" if known else ""))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
