"""Byte identity of every benchmark job against the checked-in digests, and
the benchmark tracer's hold on the functions it reports by name."""

import json

from job_digests import DIGESTS, job_digests
from tracing import FUNCTION_METRICS, Tracer


def test_every_benchmark_job_matches_its_digest(tmp_path, monkeypatch):
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    monkeypatch.chdir(tmp_path)
    got = job_digests()
    assert len(want) == 348
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert differ == [], f"{len(differ)} jobs differ from job_digests.json: {differ}"


def test_the_tracer_wraps_every_function_the_benchmark_reports():
    # a traced run reads each named function's spans; one dropped from the
    # package or from its module's __all__ fails there with a KeyError
    tracer = Tracer()
    tracer.install()
    try:
        assert {name for name, _ in FUNCTION_METRICS} <= set(tracer.names)
    finally:
        tracer.remove()
