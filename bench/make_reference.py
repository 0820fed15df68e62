"""Regenerate reference.json: job summaries for the default seed.

    python3 bench/make_reference.py

Runs rounds 0..FULL_ROUNDS-1 of every workload at full size and rounds
0..TINY_ROUNDS-1 at tiny size, checks every output and stores each job's
summary.  Run it only when a change of outputs is intended and explained.
"""

from __future__ import annotations

import json
import os
import sys

import run  # sets the thread pins and the import paths
import workloads

FULL_ROUNDS = 6
TINY_ROUNDS = 2


def main() -> int:
    run._setup_here()
    import checks

    ref = {}
    for size, rounds in (("full", FULL_ROUNDS), ("tiny", TINY_ROUNDS)):
        for w in workloads.WORKLOADS:
            entries = ref.setdefault(size, {}).setdefault(w, {})
            for r in range(rounds):
                jobs = workloads.jobs(w, run.DEFAULT_SEED, r, size)
                _, outputs, errors = run.run_round(jobs)
                failures = run.check_round(jobs, outputs, errors, None)
                if failures:
                    print("\n".join(failures), file=sys.stderr)
                    return 1
                for job in jobs:
                    entries[job.id] = checks.check(job, outputs[job.id])[0]
                print(f"{size} {w} round {r}: {len(jobs)} jobs", flush=True)
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
