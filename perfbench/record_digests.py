"""Record the digests of the deterministic job outputs into digests.json.

    python3 perfbench/record_digests.py

Runs every catalog-sweep and search-scan job once and stores the SHA-256 of
each job's canonical output.  Record them only from a commit whose outputs
are known to be right: every later run is checked against them.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    prog = run.load_program(run.ROOT)
    table: dict[str, dict[str, str]] = {}
    for name in ("catalog-sweep", "search-scan"):
        workload = workloads.make(name, prog, 0, {})
        table[name] = {}
        for job in workload.jobs(0):
            verdict = run.run_job(prog, workload, job, None)
            if verdict.problems != ["no recorded digest"]:
                print(f"{job.key}: {verdict.problems}", file=sys.stderr)
                return 1
            table[name][job.key] = verdict.digest
            print(job.key, verdict.digest)
    path = run.HERE / "digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
