"""Write reference.json: the exit code and stdout digest of every benchmark job.

    python3 bench/make_reference.py

Covers the fixture workloads and every pass plan of `random_batch` for
seeds 0-10.  The file
in the repository was generated at the commit that defined the benchmark;
regenerating it from a later commit would let that commit's outputs
define "correct", so only do so when an output change is intended and
reviewed.  Jobs whose data no reference covers (other seeds) are still
checked against the identities in checks.py.
"""

from __future__ import annotations

import json
import sys

import checks
import run
import workloads

REFERENCE_SEEDS = range(0, 11)


def main() -> int:
    batches = [plan for name in ("cover_sweep", "character_battery") for plan in workloads.build(name, 0, run.ROOT)]
    batches += [plan for seed in REFERENCE_SEEDS for plan in workloads.build("random_batch", seed, run.ROOT)]
    entries = {}
    with run.work_area() as workdir:
        for data, jobs in batches:
            result = run.run_child(workdir, data, jobs, False)
            for job, outcome in zip(jobs, result["jobs"]):
                if outcome["error"]:
                    print(f"job raised: {job} on {data[job['datum']]}\n{outcome['error']}", file=sys.stderr)
                entries[checks.job_key(job, data[job["datum"]])] = [outcome["rc"], checks.digest(outcome["stdout"])]
    lines = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(entries.items())]
    text = f'{{"seeds": {json.dumps(list(REFERENCE_SEEDS))},\n "jobs": {{\n' + ",\n".join(lines) + "\n}}\n"
    checks.REFERENCE.write_text(text, encoding="utf-8")
    print(f"wrote {len(entries)} job digests to {checks.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
