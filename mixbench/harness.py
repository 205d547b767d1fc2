"""Run one benchmark job through ``mixlab.cli.main`` and digest its output.

Each job runs in a fresh temporary working directory that holds only its
input files; ``--out`` is the relative directory ``out``.  The digest covers
the exit code and every artifact.  JSON artifacts lose their top-level
``"config"`` key and have floats rounded to 12 significant digits before
hashing; ``config.json`` and ``metrics.json`` are skipped, because their
contents describe how a job ran rather than what it computed.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

from jobs import Job

SKIPPED_ARTIFACTS = frozenset({"config.json", "metrics.json"})


@dataclass
class Outcome:
    exit_code: Optional[int]
    elapsed_s: float
    digest: str
    error: str = ""


def _canonical(obj):
    # Floats from LAPACK (the chain-check norms) may differ in the last bits
    # between BLAS builds; 12 significant digits keep every other change.
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_canonical(v) for v in obj]
    return obj


def artifact_digest(exit_code: Optional[int], outdir: str) -> str:
    h = hashlib.sha256(f"exit={exit_code}\n".encode())
    if os.path.isdir(outdir):
        for name in sorted(os.listdir(outdir)):
            if name in SKIPPED_ARTIFACTS:
                continue
            with open(os.path.join(outdir, name), "rb") as fh:
                data = fh.read()
            if name.endswith(".json"):
                try:
                    obj = json.loads(data)
                except ValueError:
                    obj = None  # hashed as written; it cannot match the reference
                if isinstance(obj, dict):
                    obj.pop("config", None)
                if obj is not None:
                    data = json.dumps(_canonical(obj), sort_keys=True).encode()
            h.update(f"{name}\n{len(data)}\n".encode())
            h.update(data)
    return h.hexdigest()[:16]


def run_job(job: Job, main: Callable[[list], int], scratch: str) -> Outcome:
    """Run `job` in a fresh directory under `scratch`; time only `main`."""
    cwd = os.getcwd()
    workdir = os.path.abspath(tempfile.mkdtemp(prefix="job-", dir=scratch))
    try:
        for name, text in job.inputs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        os.chdir(workdir)
        # Start from a clean heap, as a fresh CLI process would, so one job's
        # garbage is never collected on the next job's clock.
        gc.collect()
        error = ""
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(list(job.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 - any escape is a failed job
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if code != 0 and not error:
            error = sink.getvalue().strip()[-300:]
        return Outcome(code, elapsed, artifact_digest(code, os.path.join(workdir, "out")), error)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
