"""Record the reference digest of every pool job at the current commit.

    python3 mixbench/record.py

Run from the repository root.  Every job runs twice and must exit 0 with
the same digest both times; otherwise a generator emits input the CLI
rejects, or an output is not reproducible, and nothing is written.
Re-record only when a change is meant to alter outputs, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

from harness import run_job
from jobs import WORKLOADS, pool
from run import HERE, OUT_DIR, import_cli


def main() -> int:
    cli = import_cli()
    reference = {}
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="record-", dir=OUT_DIR)
    bad = 0
    try:
        for workload in sorted(WORKLOADS):
            t0 = time.perf_counter()
            digests = {}
            for job in pool(workload)[0]:
                outcome = run_job(job, cli.main, scratch)
                again = run_job(job, cli.main, scratch)
                if outcome.exit_code != 0 or again.digest != outcome.digest:
                    bad += 1
                    print(f"{workload} job {job.key()} exit {outcome.exit_code}, digests "
                          f"{outcome.digest} {again.digest}: {' '.join(job.argv)}: "
                          f"{outcome.error}", file=sys.stderr)
                digests[job.key()] = outcome.digest
            reference[workload] = digests
            print(f"{workload}: {len(digests)} jobs in {time.perf_counter() - t0:.1f} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if bad:
        print(f"{bad} jobs failed; reference not written", file=sys.stderr)
        return 1
    text = json.dumps(reference, indent=0, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
