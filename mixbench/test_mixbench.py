"""Self-tests of the benchmark harness.

    python3 -m pytest mixbench -q
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
from pathlib import Path

import pytest

import layers
import tracing
from harness import run_job
from jobs import WORKLOADS, job_sequence, pool
from run import REFERENCE_LOOP_S, Checked, at_reference_speed, import_cli
from tracing import Span, Tracer, self_times

cli = import_cli()
HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))


def _cheapest(workload: str, kind: str):
    """First job of the lowest band of `kind`: the smallest sizes."""
    jobs, bands = pool(workload)
    return next(jobs[b[0]] for b in bands if jobs[b[0]].kind == kind)


def _listing(workload: str, seed: int, n: int = 40) -> list:
    return [(j.argv, j.inputs) for j in itertools.islice(job_sequence(workload, seed), n)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_job_lists_repeat_for_a_seed_and_differ_across_seeds(workload):
    assert _listing(workload, 7) == _listing(workload, 7)
    assert _listing(workload, 7) != _listing(workload, 8)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pass_after_the_warm_up_round_runs_each_pool_job_once(workload):
    jobs, _ = pool(workload)
    round_size = sum(per_round for _, _, per_round in WORKLOADS[workload])
    sequence = job_sequence(workload, 5)
    list(itertools.islice(sequence, round_size))  # warm-up round
    for _ in range(2):
        passed = [j.key() for j in itertools.islice(sequence, len(jobs))]
        assert sorted(passed) == sorted(j.key() for j in jobs)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_pool_job_has_a_reference_and_valid_arguments(workload):
    jobs, _ = pool(workload)
    assert sorted(REFERENCE[workload]) == sorted(j.key() for j in jobs)
    for job in jobs:
        assert "--workers" not in job.argv
        if job.argv[0] == "joining":
            assert "--order" not in job.argv  # the parity pipeline keeps order 5
        if job.kind == "mix-random":
            box = int(job.argv[job.argv.index("--box") + 1])
            assert (2 * box + 4) ** 2 <= 512 * 512
        if job.kind == "measure-exact":
            sites = json.loads(job.inputs["c.json"])["sites"]
            span = max(max(s[k] for s in sites) - min(s[k] for s in sites) for k in (0, 1))
            assert (span + 3) ** 2 <= 512 * 512


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(1, "root", 0.0, 10.0, None, "j"),
        Span(2, "a", 1.0, 4.0, 1, "j"),
        Span(3, "b", 3.0, 6.0, 1, "j"),     # overlaps a, as pool threads do
        Span(4, "a.child", 2.0, 3.0, 2, "j"),
        Span(5, "b.child", 5.0, 9.0, 3, "j"),  # runs past its parent's end
    ]
    own = self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 2.0, 4: 1.0, 5: 4.0})
    assert layers.layer_breakdown(spans)["root"] == pytest.approx(5000.0)


def test_times_are_scaled_by_the_speed_loops_around_them():
    ref = REFERENCE_LOOP_S
    assert at_reference_speed([0.04, 0.06], [2 * ref, 2 * ref]) == pytest.approx([0.02, 0.03])
    loops = [ref] * 11
    loops[5] = 10 * ref  # one slow loop does not move the median of any window
    assert at_reference_speed([0.01] * 11, loops) == pytest.approx([0.01] * 11)


def _identities() -> dict:
    seen = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "mixlab" or name.startswith("mixlab.")):
            continue
        for key, value in vars(mod).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    return seen


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    before = _identities()
    tracer = Tracer()
    jobs = [_cheapest("plane-exact", "measure-exact"),
            _cheapest("torus-lattice", "render-clusters"),
            _cheapest("joining-calculus", "joining-lower"),
            _cheapest("word-stats", "dev-rankone")]
    tracer.install(tracing.TARGETS)
    try:
        assert len(tracer._patches) >= len(tracing.TARGETS)
        for job in jobs:
            tracer.job = job.key()
            outcome = run_job(job, cli.main, str(tmp_path))
            assert outcome.exit_code == 0
    finally:
        tracer.uninstall()
    after = _identities()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "algebraic.torus_kernel", "joinings.JoiningTensor.__post_init__",
            "rankone.WordOracle.correlation_grid"} <= names
    values = layers.derive(tracer.spans, tracer.counts, len(jobs))
    assert set(values) == {m.name for m in layers.METRICS}


def test_counters_survive_concurrent_updates():
    tracer = Tracer()
    target = tracing.Target("mixlab.gf2", "rank",
                            observe=tracing._add("hits", lambda a, k, r: 1))
    wrapped = tracer._wrap(target, lambda: None)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [wrapped() for _ in range(2000)])
                   for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counts["hits"] == 8 * 2000
    assert len(tracer.spans) == 8 * 2000


def _rewrite_measure(argv, edit):
    code = cli.main(argv)
    with open("out/measure.json", encoding="utf-8") as fh:
        obj = json.load(fh)
    edit(obj)
    with open("out/measure.json", "w", encoding="utf-8") as fh:
        json.dump(obj, fh)  # other formatting, same content
    return code


def test_tampered_artifact_and_escaped_exception_count_as_failures(tmp_path):
    job = _cheapest("plane-exact", "measure-exact")
    checked = Checked(REFERENCE["plane-exact"])

    def new_config(obj):
        obj["config"]["params"]["inlined"] = True

    def tampered(obj):
        obj["result"]["meta"]["method"] = "tampered"

    def crashing(argv):
        raise RuntimeError("escaped")

    checked.add(job, run_job(job, cli.main, str(tmp_path)))
    checked.add(job, run_job(job, lambda argv: _rewrite_measure(argv, new_config),
                             str(tmp_path)))
    assert checked.failed == 0  # config contents and formatting are not outputs
    checked.add(job, run_job(job, lambda argv: _rewrite_measure(argv, tampered),
                             str(tmp_path)))
    checked.add(job, run_job(job, crashing, str(tmp_path)))
    checked.add(job, run_job(job, lambda argv: cli.main(argv[:-2]), str(tmp_path)))
    assert checked.failed == 3
    assert [f["exit_code"] for f in checked.failures()] == [0, None, 2]


def test_benchmark_json_names_every_reported_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    reported = [m.name for m in layers.METRICS + layers.OVERHEAD_METRICS]
    assert [m["name"] for m in bench["per_layer"]] == reported
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
