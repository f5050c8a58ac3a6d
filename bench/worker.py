"""One pass of a workload: runs the job list once through s5wd.cli.main.

Started by run.py in a fresh interpreter from the checkout root, once per
pass, so that no state outlives a pass, just as a real CLI user starts a
fresh process for each call.  With --probe it only imports the package,
warms up and reports ready, which is how run.py times set-up.  Otherwise it
runs every job once, in order (a closed loop with one client), and writes
per-job times, exit codes and stdout digests as JSON.  With --trace 1 the
pass is traced and the spans are written to --spans.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class DigestSink(io.TextIOBase):
    """A stdout that hashes and counts what is written, and keeps the text
    only when asked, so the harness holds no copy of large outputs."""

    def __init__(self, keep: bool):
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.parts = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.sha.update(data)
        self.bytes += len(data)
        if self.parts is not None:
            self.parts.append(text)
        return len(text)

    def text(self):
        return None if self.parts is None else "".join(self.parts)


def run_pass(cli, jobs: list, tracer) -> list:
    """(seconds, exit code, stdout sha256, stdout bytes, error) per job."""
    rows = []
    for k, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = k
        out, err = DigestSink(job.get("keep", False)), io.StringIO()
        error = ""
        gc.collect()  # each job starts from a collected heap, like a fresh CLI process
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except Exception as exc:  # a raise is a failed job, not a crashed run
                code, error = None, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        rows.append({"seconds": seconds, "code": code, "sha256": out.sha.hexdigest(),
                     "bytes": out.bytes, "error": error or err.getvalue()[-300:],
                     "stdout": out.text()})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--jobs")
    ap.add_argument("--out")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans")
    args = ap.parse_args()

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import s5wd  # noqa: F401  (import cost is part of set-up)
    from s5wd import cli

    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["parse", "--formula", "[1]p -> p", "--n", "1"])
    if args.probe:
        print("ready", flush=True)
        return 0

    with open(args.jobs, encoding="utf-8") as handle:
        jobs = json.load(handle)
    tracer = None
    if args.trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()
    try:
        rows = run_pass(cli, jobs, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = {"traced": bool(args.trace), "jobs": rows,
              "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["job_self_s"] = {job: dict(totals.most_common(4))
                                for job, totals in tracer.self_by_job().items()}
        tracer.write(args.spans)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
