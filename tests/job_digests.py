"""Per-job output digests of the four benchmark workloads.

Every job that ``perfbench/workloads.build(name, seed, work)`` returns, for
each workload at seeds 1 and 3, runs in process through
``trimanifold.cli.main``, and its exit code, stdout, stderr and written
file are hashed together with sha256.  ``test_job_digests.py`` compares
the digests with the ones checked in as ``job_digests.json``, so any
change to an output byte, an exit code or an error text shows up by job.

The inputs go under the relative directory ``work/<name>-s<seed>`` of the
current directory: the JSON ``instance`` field echoes the input path, so
the digests hold only when that path is the same on every run.

After a change of output that is meant, write the file anew from the root
of a checkout with::

    PYTHONPATH=src python3 tests/job_digests.py
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

import workloads  # noqa: E402

from trimanifold import cli  # noqa: E402

DIGESTS = os.path.join(HERE, "job_digests.json")
SEEDS = (1, 3)


def run_job(job) -> str:
    """The sha256 of one job's exit code, stdout, stderr and written file."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    data = None
    if job.out and os.path.exists(job.out):
        with open(job.out, "rb") as fh:
            data = fh.read()
    record = (code, out.getvalue(), err.getvalue(), data)
    return hashlib.sha256(repr(record).encode()).hexdigest()


def job_digests() -> dict:
    """Digest of every job, keyed ``"<workload> s<seed> <job id>"``; run it
    from the directory the relative work paths should start at."""
    digests = {}
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            work = os.path.join("work", f"{name}-s{seed}")
            os.makedirs(work)
            for job in workloads.build(name, seed, work):
                digests[f"{name} s{seed} {job.id}"] = run_job(job)
    return digests


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = job_digests()
        finally:
            os.chdir(cwd)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
