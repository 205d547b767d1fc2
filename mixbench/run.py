"""mixlab benchmark: one workload, one seed, one run.

    python3 mixbench/run.py --workload plane-exact --seed 1 --seconds 15 --trace 0

Run from the repository root.  One client runs the workload's seeded jobs
in a closed loop, one after another, in this process through
``mixlab.cli.main(argv)``, each in a fresh working directory, until
``--seconds`` have passed.  Every job's exit code and artifacts are checked
against ``reference.json``.

With ``--trace 0`` the run reports the end-to-end metrics: jobs per second
(jobs completed over the time spent inside ``cli.main``), median and 90th
percentile job time, all three over the whole passes over the job pool that
the run completed (see ``jobs.py``), set-up time (median time a fresh
interpreter takes to import ``mixlab.cli``, probed throughout the run) and
the peak resident set of this process.  Times are reported at a reference
machine speed (see ``speed_loop``); the raw times are printed and kept in
the report.  With ``--trace 1`` it runs every job twice, once as shipped and
once with every layer boundary wrapped (see ``tracing.py``), alternating
which goes first, and reports the per-layer metrics of ``layers.py`` plus
the tracing overhead.  Human-readable lines come first; the last line of
standard output is the JSON result.  Spans and a full report are written to
``.mixbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import Outcome, run_job
from jobs import WORKLOADS, Job, job_sequence, pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".mixbench_out"
SETUP_PROBES = 9

# Shared hosts change speed by up to half for seconds to minutes at a time, and
# every CPU-bound time moves with them.  A fixed pure-Python loop moves in
# step with the jobs (a NumPy loop does not), so each time is scaled by
# REFERENCE_LOOP_S over the median loop time measured around it.  The
# constant is about the loop's fastest time on a 2-vCPU Intel Xeon VM with
# CPython 3.11, so there the scaled times read as wall times at full speed.
REFERENCE_LOOP_S = 0.0016
SPEED_WINDOW = 5  # loops on each side of a job that set its speed


def speed_loop() -> float:
    """Wall time of a fixed pure-Python loop: the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) % 1000003
    table: dict[int, int] = {}
    for i in range(3000):
        table[i % 97] = table.get(i % 97, 0) + i
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], loops: list[float]) -> list[float]:
    """Scale times[i] by the speed of loops around loops[i]."""
    w = SPEED_WINDOW
    return [t * REFERENCE_LOOP_S / statistics.median(loops[max(0, i - w):i + w + 1])
            for i, t in enumerate(times)]


def import_cli():
    """mixlab.cli from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import mixlab.cli
    except ImportError as exc:
        sys.exit(f"mixbench: cannot import mixlab from {SRC}: {exc}")
    if not Path(mixlab.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"mixbench: mixlab was imported from {mixlab.cli.__file__}, not {SRC}")
    return mixlab.cli


def load_reference(workload: str) -> dict[str, str]:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)[workload]


class SetupProbe:
    """Time a fresh interpreter takes to import mixlab.cli.

    The clock runs inside the new interpreter, around the import alone:
    process start-up and site initialisation are no cost of mixlab's, and
    they move by tens of ms between otherwise equal runs.  Probes are spread
    over the run, between jobs, so a burst of load on the machine skews at
    most a few of them; the metric is their median.  Speed loops on either
    side of each probe scale it to the reference speed.
    """

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cmd = [sys.executable, "-c", "import time; t0 = time.perf_counter(); "
                    "import mixlab.cli; print(time.perf_counter() - t0)"]
        self.times: list[float] = []
        self.loops: list[float] = []
        self._import()  # writes bytecode, unless PYTHONDONTWRITEBYTECODE is set

    def _import(self) -> float:
        return float(subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout)

    def probe(self) -> None:
        loops = [speed_loop() for _ in range(SPEED_WINDOW)]
        self.times.append(self._import())
        loops += [speed_loop() for _ in range(SPEED_WINDOW)]
        self.loops.append(statistics.median(loops))

    def due(self, fraction_done: float) -> bool:
        return len(self.times) < SETUP_PROBES * min(fraction_done, 1.0)

    def medians(self) -> tuple[float, float]:
        """Median set-up time at the reference speed, and as measured."""
        while len(self.times) < SETUP_PROBES:
            self.probe()
        scaled = [t * REFERENCE_LOOP_S / loop for t, loop in zip(self.times, self.loops)]
        return statistics.median(scaled), statistics.median(self.times)


def environment() -> dict:
    sha = None  # the checkout need not be a git repository
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


class Checked:
    """Jobs run so far, each with its outcome and verdict."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.rows: list[tuple[Job, Outcome, bool]] = []

    def add(self, job: Job, outcome: Outcome) -> None:
        ok = outcome.exit_code == 0 and self.reference.get(job.key()) == outcome.digest
        self.rows.append((job, outcome, ok))

    @property
    def failed(self) -> int:
        return sum(not ok for _, _, ok in self.rows)

    def failures(self) -> list[dict]:
        return [{"job": job.key(), "kind": job.kind, "argv": list(job.argv),
                 "exit_code": out.exit_code, "digest": out.digest,
                 "expected": self.reference.get(job.key()), "error": out.error}
                for job, out, ok in self.rows if not ok]


def closed_loop(jobs, main, scratch: str, checked: Checked, seconds: float,
                setup: SetupProbe) -> tuple[list[Outcome], list[float]]:
    """Run jobs back to back until `seconds` of wall time have passed.

    A speed loop follows every job; the loop times come back with the jobs.
    """
    done, loops = [], []
    start = time.perf_counter()
    for job in jobs:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            break
        if setup.due(elapsed / seconds):
            setup.probe()
        outcome = run_job(job, main, scratch)
        loops.append(speed_loop())
        checked.add(job, outcome)
        done.append(outcome)
    return done, loops


def end_to_end(job_s: list[float], setup_s: float) -> dict[str, tuple[float, str]]:
    ms = sorted(t * 1e3 for t in job_s)
    deciles = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "jobs_per_s": (len(ms) / (sum(ms) / 1e3), "jobs/s"),
        "job_ms_p50": (statistics.median(ms), "ms"),
        "job_ms_p90": (deciles[8], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(sequence, cli, scratch: str, checked: Checked, seconds: float,
               tag: str) -> tuple[dict, dict]:
    """Run each job twice, untraced and traced, alternating which goes first."""
    import layers
    import tracing

    tracer = tracing.Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    for i, job in enumerate(sequence):
        if time.perf_counter() >= deadline:
            break
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if not with_trace:
                outcome = run_job(job, cli.main, scratch)
                plain.append(outcome)
            else:
                tracer.install(tracing.TARGETS)
                tracer.job = job.key()
                try:
                    outcome = run_job(job, cli.main, scratch)  # cli.main is wrapped now
                finally:
                    tracer.uninstall()
                traced.append(outcome)
            checked.add(job, outcome)
    jobs = len(traced)
    t_plain = sum(o.elapsed_s for o in plain)
    t_traced = sum(o.elapsed_s for o in traced)
    values = layers.derive(tracer.spans, tracer.counts, jobs)
    metrics = {m.name: (values[m.name], m.unit) for m in layers.METRICS}
    metrics["trace.jobs_per_s_untraced"] = (jobs / t_plain, "jobs/s")
    metrics["trace.jobs_per_s_traced"] = (jobs / t_traced, "jobs/s")
    metrics["trace.overhead_pct"] = (100.0 * (t_traced / t_plain - 1.0), "%")
    breakdown = layers.layer_breakdown(tracer.spans)
    by_span = layers.layer_breakdown(tracer.spans, key=lambda name: name)
    spans_path = OUT_DIR / f"spans-{tag}.jsonl.gz"
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        for s in tracer.spans:
            fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent, s.job, s.error]) + "\n")
    detail = {
        "jobs": jobs,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "layer_self_ms": dict(sorted(breakdown.items(), key=lambda kv: -kv[1])),
        "span_self_ms": dict(sorted(by_span.items(), key=lambda kv: -kv[1])),
        "layer_map": [vars(m) for m in layers.METRICS],
    }
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cli = import_cli()
    reference = load_reference(args.workload)
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    checked = Checked(reference)
    sequence = job_sequence(args.workload, args.seed)
    round_size = sum(per_round for _, _, per_round in WORKLOADS[args.workload])
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        # Warm-up round: checked, not timed.
        for _ in range(round_size):
            job = next(sequence)
            checked.add(job, run_job(job, cli.main, scratch))
        # The harness's own long-lived objects stay out of the jobs' collections.
        gc.freeze()
        if args.trace:
            metrics, detail = traced_run(sequence, cli, scratch, checked, args.seconds, tag)
        else:
            setup = SetupProbe()
            done, loops = closed_loop(sequence, cli.main, scratch, checked, args.seconds, setup)
            # Time only whole passes, so every seed measures the same jobs; a
            # run too short for one pass times all it ran.
            pass_size = len(pool(args.workload)[0])
            timed = len(done) // pass_size * pass_size or len(done)
            wall = [o.elapsed_s for o in done]
            setup_s, setup_wall_s = setup.medians()
            metrics = end_to_end(at_reference_speed(wall, loops)[:timed], setup_s)
            raw = end_to_end(wall[:timed], setup_wall_s)
            detail = {"jobs": len(done), "jobs_timed": timed,
                      "speed_loop_ms": 1e3 * statistics.median(loops),
                      "wall_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(checked.rows)
    failed = checked.failed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": attempted, "failed": failed, "error_rate": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        **detail, "failures": checked.failures()[:50],
    }
    report_path = OUT_DIR / f"report-{tag}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    for f in report["failures"][:5]:
        print(f"mixbench: FAILED job {f['job']} ({f['kind']}): exit {f['exit_code']}, "
              f"digest {f['digest']} != {f['expected']} {f['error']}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} jobs={detail['jobs']} "
          f"timed={detail.get('jobs_timed', detail['jobs'])} "
          f"environment={json.dumps(report['environment'])}")
    for name, (value, unit) in metrics.items():
        wall = detail.get("wall_metrics", {}).get(name, {}).get("value", value)
        print(f"{name:42s} {value:14.4f} {unit}"
              + (f"  (wall {wall:.4f})" if wall != value else ""))
    print(f"{'error_rate':42s} {failed / attempted:14.4f} fraction ({failed}/{attempted})")
    if args.trace:
        total = sum(detail["layer_self_ms"].values())
        for layer, ms in detail["layer_self_ms"].items():
            print(f"layer {layer:36s} {ms:14.1f} ms  {100 * ms / total:5.1f}%")
        for span, ms in list(detail["span_self_ms"].items())[:5]:
            print(f"span  {span:36s} {ms:14.1f} ms  {100 * ms / total:5.1f}%")
    print(f"# report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
