"""The s5wd benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Run from the root of a checkout.  The run generates the workload's inputs
from the seed, times set-up in fresh interpreters, then runs whole passes
over the jobs until --seconds have passed, each pass in a fresh worker
process that calls s5wd.cli.main on each job in turn.  Every job run is checked against its pinned exit code and stdout
digest and by the independent checks in oracle.py.  Human-readable lines
come first; the last line is one JSON object with correct, attempted,
failed and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import jobs as workloads
import oracle
from oracle import DIGEST_HEX

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
PINS = os.path.join(BENCH, "pins")
SETUP_PROBES = 15
PASS_TIMEOUT_S = 150  # a traced pass of the largest workload takes about 12 s


def probe_setup() -> float:
    """Seconds from starting a fresh interpreter to the worker being ready."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, WORKER, "--probe"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe did not become ready")
    return elapsed


def run_worker(jobs_path: str, out_path: str, traced: bool, spans: str) -> dict:
    """One pass over the jobs in a fresh worker process."""
    argv = [sys.executable, WORKER, "--jobs", jobs_path, "--out", out_path,
            "--trace", str(int(traced)), "--spans", spans]
    with subprocess.Popen(argv, cwd=ROOT) as proc:
        try:
            proc.wait(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    with open(out_path, encoding="utf-8") as handle:
        return json.load(handle)


def run_passes(job_list: list, work: str, seconds: float, trace: int, spans: str) -> list:
    """Whole passes, each in its own fresh process, until seconds have passed
    (at least one; with trace, alternately untraced and traced and at least
    one of each).  Only the first pass keeps the stdout the checks need."""
    jobs_path = os.path.join(work, "jobs.json")
    out_path = os.path.join(work, "result.json")
    with open(jobs_path, "w", encoding="utf-8") as handle:
        json.dump([{"argv": j["argv"], "keep": j.get("keep", False)} for j in job_list], handle)
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        record = run_worker(jobs_path, out_path, bool(trace) and len(passes) % 2 == 1, spans)
        if passes:
            for row in record["jobs"]:
                row["stdout"] = None
        passes.append(record)
        if time.perf_counter() >= deadline and (not trace or len(passes) >= 2):
            return passes


def load_pins(workload: str, seed: int, job_list: list) -> dict:
    """Pinned exit code and digest per job key.  Jobs whose input does not
    depend on the seed are pinned for every seed; seeded jobs only for the
    seeds in the pin file, as one string of pins in job order."""
    path = os.path.join(PINS, f"{workload}.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        pins = json.load(handle)
    out = dict(pins["fixed"])
    packed = pins["seeds"].get(str(seed), "")
    seeded = [job["key"] for job in job_list if job["seeded"]]
    width = 1 + DIGEST_HEX
    if packed and len(packed) != width * len(seeded):
        raise RuntimeError(f"{path} does not match the jobs of seed {seed}; re-pin")
    if packed:
        out.update((key, packed[k * width:(k + 1) * width]) for k, key in enumerate(seeded))
    return out


def judge(job_list: list, result: dict, pins) -> list:
    """One failure reason (or None) per job run, pass by pass."""
    first = result["passes"][0]["jobs"]
    independent = [oracle.check_job(job, row["code"], row["stdout"])
                   if row["code"] is not None else None
                   for job, row in zip(job_list, first)]
    reasons = []
    for record in result["passes"]:
        for k, (job, row) in enumerate(zip(job_list, record["jobs"])):
            if row["code"] is None:
                reason = f"raised {row['error']}"
            elif job["key"] in pins and oracle.pin(row["code"], row["sha256"]) != pins[job["key"]]:
                reason = "exit code or stdout differs from the pinned digest"
            elif row["sha256"] != first[k]["sha256"]:
                reason = "stdout differs between passes"
            else:
                reason = independent[k]
            reasons.append(None if reason is None else f"{job['key']}: {reason}")
    return reasons


def percentile(values: list, q: int) -> float:
    """The q-th percentile (inclusive method) of values."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def job_times(passes: list) -> list:
    """Each job's median time in seconds over the passes, so that one slow
    moment of the machine costs one job run, not the whole figure."""
    return [statistics.median(rows) for rows in
            zip(*([row["seconds"] for row in r["jobs"]] for r in passes))]


def end_to_end(result: dict, setup: list) -> dict:
    untraced = job_times([r for r in result["passes"] if not r["traced"]])
    times = [t * 1000 for t in untraced]
    return {
        "wall_s": (sum(untraced), "s"),
        # the low median is one job's time, not the mean of two unlike jobs
        "job_p50_ms": (statistics.median_low(times), "ms"),
        "job_p90_ms": (percentile(times, 90), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in result["passes"]
                                          if not r["traced"]) / 1024, "MB"),
    }


def per_layer(result: dict) -> dict:
    traced = [r for r in result["passes"] if r["traced"]]
    untraced = [r for r in result["passes"] if not r["traced"]]
    out = {}
    for name, (value, unit) in traced[0]["layers"].items():
        if unit == "s":
            value = statistics.median(r["layers"][name][0] for r in traced)
        out[name] = (value, unit)
    out["cli.stdout_bytes"] = (sum(row["bytes"] for row in traced[0]["jobs"]), "bytes")
    out["trace.overhead_ratio"] = (sum(job_times(traced)) / sum(job_times(untraced)), "ratio")
    return out


def properties(workload: str, job_list: list, result: dict) -> list:
    """Lines describing the inputs, printed with every run."""
    first = result["passes"][0]["jobs"]
    lines = []
    if workload == "decide":
        seen, repeats, unknown = set(), 0, 0
        for job, row in zip(job_list, first):
            repeats += job["group"] in seen
            seen.add(job["group"])
            unknown += row["code"] == 2
        lines.append(f"share of jobs repeating an earlier (n, bound, class): "
                     f"{repeats / len(job_list):.3f}")
        lines.append(f"share of unknown verdicts: {unknown / len(job_list):.3f}")
    elif workload == "broadcast":
        for job in job_list:
            c = job["check"]
            lines.append(f"{job['key']}: worlds {c['worlds']}, components {c['components']}, "
                         f"largest component {c['largest']}")
    else:
        for job, row in zip(job_list, first):
            lines.append(f"{job['key']}: worlds {job['worlds']}, stdout {row['bytes']} bytes")
    return lines


def run(workload: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload.  Returns the printed lines, the JSON summary, and
    the worker's result and the job list for the self-test."""
    work = os.path.join(BENCH, ".work", f"{workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        job_list = workloads.make_jobs(workload, seed, work, tiny)
        probe_setup()  # compiles bytecode and warms the file cache; not counted
        setup = [probe_setup() for _ in range(SETUP_PROBES)]
        spans = os.path.join(BENCH, ".work", f"spans-{workload}.tsv")
        result = {"passes": run_passes(job_list, work, seconds, trace, spans)}
        pins = {} if tiny else load_pins(workload, seed, job_list)
        reasons = judge(job_list, result, pins)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = sum(r is not None for r in reasons)
    metrics = per_layer(result) if trace else end_to_end(result, setup)
    passes = result["passes"]
    lines = [
        f"workload {workload}, seed {seed}, python {platform.python_version()}, "
        f"nproc {os.cpu_count()}, {len(job_list)} jobs, {len(passes)} passes "
        f"({sum(r['traced'] for r in passes)} traced); closed loop, one client",
        *properties(workload, job_list, result),
    ]
    if not trace:
        lines.append(f"job times: median of {len(passes)} passes, each in a fresh process, for "
                     f"each of {len(job_list)} jobs; peak_rss_mb: median over those processes; "
                     f"setup: median of {len(setup)} fresh interpreters")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append(f"error_rate = {failed / len(reasons):.6g} ({failed} of {len(reasons)} job runs)")
    if not trace:
        for job, seconds in zip(job_list, job_times(passes)):
            if not job["key"].startswith(("quick-", "search-")):
                lines.append(f"time of {job['key']}: {seconds * 1000:.1f} ms")
    else:
        first_traced = next(r for r in passes if r["traced"])
        for k, top in sorted(first_traced["job_self_s"].items(), key=lambda kv: int(kv[0])):
            job = job_list[int(k)]
            if not job["key"].startswith(("quick-", "search-")):
                shares = ", ".join(f"{n} {v:.3f}s" for n, v in top.items())
                lines.append(f"self time of {job['key']}: {shares}")
    pinned = sum(job["key"] in pins for job in job_list)
    lines.append(f"pinned stdout digests: {pinned} of {len(job_list)} jobs; "
                 f"independent checks: {sum('check' in job for job in job_list)} jobs")
    lines += [reason for reason in reasons if reason is not None][:20]
    summary = {
        "correct": failed == 0,
        "attempted": len(reasons),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return {"lines": lines, "summary": summary, "result": result, "jobs": job_list}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "s5wd", "cli.py")):
        print(f"error: no s5wd sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    if args.selftest:
        import selftest

        return selftest.main(run, judge, load_pins)
    if args.workload is None:
        ap.error("--workload is required")
    report = run(args.workload, args.seed, args.seconds, args.trace)
    for line in report["lines"]:
        print(line)
    print(json.dumps(report["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
