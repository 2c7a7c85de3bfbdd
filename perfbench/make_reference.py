"""Record the exact reference outputs of the default seed.

    python3 perfbench/make_reference.py

Runs every job of every workload for seed 0, plus the set-up probe, through
the CLI of this checkout, and writes the SHA-256 of each job's stdout to
``reference.json``, keyed by the job's digest.  It refuses to write when a
job fails or a cross-path check does not hold.  Rerun it only when the
expected output changes on purpose, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import jobs as joblib
import run as runlib


def main() -> int:
    sys.path.insert(0, str(runlib.SRC))
    env = runlib.child_env()
    workloads = [joblib.build(name, 0) for name in joblib.WORKLOADS]
    workloads.append(joblib.Workload("setup", [joblib.SETUP_JOB]))
    reference = {}
    for wl in workloads:
        outcomes = [runlib.run_job(job, env, runlib.JOB_TIMEOUT_S) for job in wl.jobs]
        failed = runlib.check_pass(wl, outcomes, {})
        if failed:
            for i, reason in failed.items():
                print(f"{wl.name} job {i} ({wl.jobs[i].name}): {reason}", file=sys.stderr)
            return 1
        for job, out in zip(wl.jobs, outcomes):
            reference[runlib.job_digest(job)] = {
                "workload": wl.name,
                "name": job.name,
                "stdout_sha256": hashlib.sha256(out.stdout).hexdigest(),
            }
        print(f"{wl.name}: {len(wl.jobs)} jobs recorded")
    with open(runlib.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
