"""Every pool job of every benchmark workload reproduces its recorded
digest.

The benchmark's own harness runs each job through `cli.main` in a fresh
directory and digests the exit code and every artifact, so a change to an
artifact's bytes or values (a torus basis order, a CSV line, a JSON value)
fails here without a benchmark run.  `mixbench/` is loaded read-only, by
file (`conftest.bench_module`).
"""

import json

from conftest import BENCH, bench_module
from mixlab import cli

REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def _mismatched(monkeypatch, tmp_path, workload):
    """(key, kind, error) of each job of `workload`'s pool that fails or
    does not reproduce its recorded digest."""
    jobs = bench_module(monkeypatch, "jobs")  # harness imports it by this name
    harness = bench_module(monkeypatch, "harness")
    # The harness collects garbage before each job so that no job is timed
    # collecting another's; under pytest's heap that costs about 15 ms a
    # job, and no digest depends on it.
    monkeypatch.setattr(harness.gc, "collect", lambda: 0)
    pool, _ = jobs.pool(workload)
    mismatched = []
    for job in pool:
        outcome = harness.run_job(job, cli.main, str(tmp_path))
        if outcome.error or outcome.digest != REFERENCE[workload][job.key()]:
            mismatched.append((job.key(), job.kind, outcome.error))
    return mismatched


def test_every_torus_lattice_job_matches_reference(monkeypatch, tmp_path):
    # Every torus-lattice artifact comes from the torus kernel, the raw-word
    # Monte Carlo draw or the array grid writers, so the whole pool runs.
    mismatched = _mismatched(monkeypatch, tmp_path, "torus-lattice")
    assert len(REFERENCE["torus-lattice"]) == 96 and mismatched == []


def test_every_joining_calculus_job_matches_reference(monkeypatch, tmp_path):
    # Every joining-calculus artifact is read from tensor JSON and written
    # back from integer numerators, so the whole pool runs.
    mismatched = _mismatched(monkeypatch, tmp_path, "joining-calculus")
    assert len(REFERENCE["joining-calculus"]) == 80 and mismatched == []


def test_every_plane_exact_job_matches_reference(monkeypatch, tmp_path):
    # Random and dyadic mix scans, exact measures and the parity joining
    # pipeline: every artifact is exact.
    mismatched = _mismatched(monkeypatch, tmp_path, "plane-exact")
    assert len(REFERENCE["plane-exact"]) == 128 and mismatched == []


def test_every_word_stats_job_matches_reference(monkeypatch, tmp_path):
    # Rank-one words and rank-one and Bernoulli deviation scans.
    mismatched = _mismatched(monkeypatch, tmp_path, "word-stats")
    assert len(REFERENCE["word-stats"]) == 80 and mismatched == []
