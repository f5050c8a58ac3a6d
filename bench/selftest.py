"""Self-test of the benchmark: python3 bench/run.py --selftest

Runs every workload at a tiny size, untraced and traced, and asserts that
each run is correct and prints every metric BENCHMARK.json names, with its
unit.  Then asserts that the checks reject a corrupted decide witness and a
wrong stdout digest, and that a seed without pins is judged by the
independent checks alone.  Exits 0 when all of it holds.
"""

from __future__ import annotations

import itertools
import json
import os

import jobs as workloads
import oracle
from oracle import DIGEST_HEX

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNPINNED_SEED = 1000  # pins/ cover seeds 0-31


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {trace: {m["name"]: m["unit"] for m in spec[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def _corrupted_witnesses(job: dict, stdout: str) -> list:
    """Outputs that keep the verdict but break the witness: an unknown
    witness world, and each valuation change at the witness world that flips
    the formula's truth there."""
    lines = stdout.splitlines()
    world = lines[2][len("witness world: "):]
    model = json.loads(lines[3])
    bad = [lines[:2] + ["witness world: nowhere"] + lines[3:]]
    worlds, rels, val = oracle.frame_from_model_json(model)
    formula = job["check"]["formula"]
    truth = oracle.holds(formula, world, worlds, rels, val)
    names = sorted(oracle.atoms_of(formula))
    for bits in itertools.product((False, True), repeat=len(names)):
        val[world] = {a for a, b in zip(names, bits) if b}
        if oracle.holds(formula, world, worlds, rels, val) != truth:
            model["valuation"][world] = sorted(val[world])
            bad.append(lines[:3] + [json.dumps(model, sort_keys=True)])
    return ["\n".join(b) + "\n" for b in bad]


def main(run, judge, load_pins) -> int:
    declared = _declared()
    reports = {}
    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            report = run(workload, 1, 0, trace, tiny=True)
            text = "\n".join(report["lines"])
            _expect(report["summary"]["correct"], f"{workload} trace {trace}:\n{text}")
            got = {k: v["unit"] for k, v in report["summary"]["metrics"].items()}
            _expect(got == declared[trace], f"{workload} trace {trace} metrics {sorted(got)}")
            for name, unit in got.items():
                _expect(f"{name} = " in text and f" {unit}" in text,
                        f"{name} is not printed with its unit")
            reports[workload, trace] = report
            print(f"selftest: {workload} trace {trace} ok")

    report = reports["decide", 0]
    first = report["result"]["passes"][0]["jobs"]
    rejected = 0
    for job, row in zip(report["jobs"], first):
        if oracle.check_job(job, row["code"], row["stdout"]) is not None:
            raise SystemExit(f"selftest failed: a correct witness was rejected ({job['key']})")
        if row["stdout"].startswith(("verdict: satisfiable", "verdict: countermodel")):
            for bad in _corrupted_witnesses(job, row["stdout"]):
                _expect(oracle.check_job(job, row["code"], bad) is not None,
                        f"corrupted witness of {job['key']} was accepted")
                rejected += 1
    _expect(rejected > 0, "no witness to corrupt")
    print(f"selftest: {rejected} corrupted decide witnesses rejected")

    pins = {job["key"]: oracle.pin(row["code"], row["sha256"])
            for job, row in zip(report["jobs"], first)}
    _expect(not any(judge(report["jobs"], report["result"], pins)), "pinned digests rejected")
    victim = report["jobs"][0]["key"]
    pins[victim] = pins[victim][0] + "0" * DIGEST_HEX
    reasons = judge(report["jobs"], report["result"], pins)
    _expect(all(r is not None for r in reasons[::len(first)]), "a wrong digest was accepted")
    _expect(sum(r is not None for r in reasons) == len(report["result"]["passes"]),
            "a wrong digest failed other jobs too")
    print("selftest: wrong stdout digest rejected")

    pins = load_pins("decide", UNPINNED_SEED, report["jobs"])
    _expect(not any(job["key"] in pins for job in report["jobs"]), "an unpinned seed got pins")
    _expect(not any(judge(report["jobs"], report["result"], pins)),
            "a correct run of an unpinned seed was rejected")
    print("selftest: unpinned seed judged by the independent checks")
    print("selftest: ok")
    return 0
