"""Pin each job's exit code and stdout digest at the current commit.

    python3 bench/pin.py --workload models --seeds 0-31

Writes bench/pins/<workload>.json: "fixed" holds the jobs whose input does
not depend on the seed, "seeds" the seeded jobs of every seed in the range.
A job is pinned only if it passes the independent checks in oracle.py; the
run stops otherwise.  Re-pin only when the program's stdout is meant to
change, and say so in the change that does it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import jobs as workloads
import oracle
from run import BENCH, PINS, run_passes


def pin_seed(workload: str, seed: int, with_fixed: bool) -> dict:
    work = os.path.join(BENCH, ".work", f"pin-{workload}-{seed}")
    os.makedirs(work, exist_ok=True)
    try:
        job_list = [j for j in workloads.make_jobs(workload, seed, work)
                    if j["seeded"] or with_fixed]
        rows = run_passes(job_list, work, 0, 0, os.path.join(work, "spans.tsv"))[0]["jobs"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    fixed, seeded = {}, []
    for job, row in zip(job_list, rows):
        reason = "raised" if row["code"] is None else oracle.check_job(job, row["code"], row["stdout"])
        if reason is not None:
            raise SystemExit(f"{workload} seed {seed} {job['key']}: {reason}")
        if job["seeded"]:
            seeded.append(oracle.pin(row["code"], row["sha256"]))
        else:
            fixed[job["key"]] = oracle.pin(row["code"], row["sha256"])
    return {"fixed": fixed, "seeded": "".join(seeded)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = ap.parse_args()
    low, high = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(low, high + 1))
    digests = [pin_seed(args.workload, s, s == low) for s in seeds]
    pins = {"fixed": digests[0]["fixed"],
            "seeds": {str(s): d["seeded"] for s, d in zip(seeds, digests)}}
    os.makedirs(PINS, exist_ok=True)
    with open(os.path.join(PINS, f"{args.workload}.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"pinned {args.workload}: {len(pins['fixed'])} fixed jobs, {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
