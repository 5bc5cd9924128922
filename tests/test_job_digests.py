"""Byte identity of every benchmark job against the checked-in digests."""

import json

from job_digests import DIGESTS, job_digests


def test_every_benchmark_job_matches_its_digest(tmp_path, monkeypatch):
    with open(DIGESTS, encoding="utf-8") as fh:
        want = json.load(fh)
    monkeypatch.chdir(tmp_path)
    got = job_digests()
    assert len(want) == 348
    differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
    assert differ == [], f"{len(differ)} jobs differ from job_digests.json: {differ}"
