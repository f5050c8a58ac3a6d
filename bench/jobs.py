"""Seeded inputs for the three workloads.

Each workload is a list of jobs.  A job is a dict with
  key    stable name, used to look up its pinned stdout digest;
  argv   the arguments handed to s5wd.cli.main;
  seeded True when its input depends on the seed (so is its digest);
  check  what oracle.check_job verifies independently, or absent;
  keep   True when the worker must return the full stdout for the check;
  group  (decide) the query's (n, bound, class);
  worlds (models) the size of the job's main input.
Input files are written under the run's work directory.  The broadcast
jobs are fixed by construction, so that workload ignores the seed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random

import oracle

P, Q = ("atom", "p"), ("atom", "q")

# ---- decide -----------------------------------------------------------------

ANCHORS = [
    # valuation-heavy: extension over 17k valuations, returns unknown
    ("anchor-wd", 2, "ed", 5, (
        "imp",
        ("and", ("S", ("dia", 1, P)), ("S", ("dia", 2, Q))),
        ("S", ("S", ("and", ("dia", 1, P), ("dia", 2, Q)))),
    )),
    # enumeration-heavy: every connected E frame up to 6 worlds
    ("anchor-t6", 2, "e", 6, ("imp", ("box", 1, P), P)),
    ("anchor-d3", 3, "e", 4, ("imp", ("box", 1, P), ("D", P))),
]
CLASSES = ("e", "ed", "ewd", "edi")
# 600 quick queries put job_p90_ms well inside the quick queries' times, so
# it has dozens of samples beyond it and does not jump with the few slow ones
QUICK_JOBS = 600
SEARCH_JOBS = 16
_KINDS = ("atom", "not", "and", "or", "imp", "iff", "box", "dia", "S", "D")


def random_formula(rng: random.Random, n: int, depth: int, names) -> tuple:
    kind = rng.choice(_KINDS) if depth > 0 else "atom"
    if kind == "atom":
        return ("atom", rng.choice(names))
    if kind in ("box", "dia"):
        return (kind, rng.randint(1, n), random_formula(rng, n, depth - 1, names))
    if kind in ("not", "S", "D"):
        return (kind, random_formula(rng, n, depth - 1, names))
    return (
        kind,
        random_formula(rng, n, depth - 1, names),
        random_formula(rng, n, depth - 1, names),
    )


def _decide_job(key, f, n, klass, bound, mode, verdict=None, seeded=True) -> dict:
    argv = ["decide", "--formula", oracle.render(f), "--n", str(n), "--mode", mode,
            "--max-worlds", str(bound), "--class", klass]
    check = {"kind": "decide", "formula": f, "n": n, "klass": klass, "bound": bound,
             "verdict": verdict}
    return {"key": key, "argv": argv, "seeded": seeded, "check": check, "keep": True,
            "group": (n, bound, klass)}


def decide_jobs(rng: random.Random, work: str, tiny: bool) -> list:
    """Three fixed anchor queries plus a seeded sweep of small queries.

    A sweep query is "quick" when its search target is satisfiable on the
    one-world frame, which every class contains and the search tries first,
    so its verdict is fixed and its cost is the per-call overhead.  The
    "search" queries are the others; they are kept to n=2, bound 4 and one
    atom so that an exhaustive search costs tens of milliseconds and the
    sweep's total does not swing with the seed.
    """
    jobs = [_decide_job(key, f, n, klass, bound, "valid", seeded=False)
            for key, n, klass, bound, f in ([] if tiny else ANCHORS)]
    quick_jobs, search_jobs = (6, 2) if tiny else (QUICK_JOBS, SEARCH_JOBS)
    quick = search = 0
    while quick < quick_jobs or search < search_jobs:
        n = rng.choice((2, 3))
        bound = 4 if n == 3 else rng.choice((4, 5))
        klass = rng.choice(CLASSES)
        mode = rng.choice(("sat", "valid"))
        f = random_formula(rng, n, rng.randint(2, 4), ("p", "q"))
        target = f if mode == "sat" else ("not", f)
        if oracle.satisfiable_on_one_world(target, n):
            if quick < quick_jobs:
                verdict = "satisfiable" if mode == "sat" else "countermodel"
                jobs.append(_decide_job(f"quick-{quick}", f, n, klass, bound, mode, verdict))
                quick += 1
        elif search < search_jobs:
            f = random_formula(rng, 2, rng.randint(2, 4), ("p",))
            target = f if mode == "sat" else ("not", f)
            if not oracle.satisfiable_on_one_world(target, 2):
                jobs.append(_decide_job(f"search-{search}", f, 2, klass, 4, mode))
                search += 1
    return jobs


# ---- broadcast ----------------------------------------------------------------

CARD_GAMES = [
    # (key, deck, hand, modeling, depth, verify)
    ("deck6-hand2-depth3", 6, 2, "simple", 3, "hypercube"),  # 937 components
    ("deck6-hand3-depth2", 6, 3, "simple", 2, "hypercube"),  # 400-world components
    ("rich-full", 5, 2, "rich", 3, "full"),
    ("rich-hypercube", 5, 2, "rich", 3, "hypercube"),  # fails: missing-tuple
    ("deck4-hand2-depth4-emit", 4, 2, "simple", 4, None),
]
TINY_CARD_GAMES = [
    ("deck3-hand1-depth2", 3, 1, "simple", 2, "hypercube"),
    ("rich-full", 3, 1, "rich", 2, "full"),
    ("rich-hypercube", 3, 1, "rich", 2, "hypercube"),
    ("deck2-hand1-depth2-emit", 2, 1, "simple", 2, None),
]
# relative, because the path is printed and so part of the pinned stdout
EMITTED = os.path.join("bench", ".work", "emitted-frame.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def card_game_shape(deck: int, hand: int, depth: int) -> dict:
    """Worlds, components and largest component of the card-game trace frame.

    A trace is a pair of initial hands plus, per step, one card from each
    current hand (nothing once a hand is empty).  Traces form a component
    exactly when they share the face-up play sequence; the largest is the
    set of initial states.
    """
    hands = math.comb(deck, hand)
    plays = [min(t, hand) for t in range(depth)]
    return {
        "worlds": hands ** 2 * sum(math.perm(hand, m) ** 2 for m in plays),
        "components": sum(math.perm(deck, m) ** 2 for m in plays),
        "largest": hands ** 2,
    }


def broadcast_jobs(rng: random.Random, work: str, tiny: bool) -> list:
    jobs = []
    for key, deck, hand, modeling, depth, verify in TINY_CARD_GAMES if tiny else CARD_GAMES:
        game = f"deck={deck},hand={hand}" + (",modeling=rich" if modeling == "rich" else "")
        argv = ["broadcast", "simulate", "--card-game", game, "--depth", str(depth)]
        check = dict(card_game_shape(deck, hand, depth), kind="broadcast")
        if verify:
            argv += ["--verify", verify]
            # the simple modeling is homogeneous, so every component is a
            # hypercube; the rich one is full but not a hypercube
            check.update(verify=verify, verify_ok=modeling == "simple" or verify == "full")
        else:
            argv += ["--emit-frame", EMITTED]
            check["emitted"] = os.path.join(ROOT, EMITTED)
        jobs.append({"key": key, "argv": argv, "seeded": False, "check": check, "keep": True})
    return jobs


# ---- models -----------------------------------------------------------------


def _names(rng: random.Random, count: int, prefix: str = "w") -> list:
    # fixed width, so that string sizes and sort costs do not vary with the seed
    width = len(str(10 * count - 1))
    return [f"{prefix}{k:0{width}d}" for k in rng.sample(range(10 * count), count)]


def _write(work: str, name: str, data: dict) -> str:
    path = os.path.join(work, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle)
    return path


def _blocks_to_pairs(blocks) -> list:
    return [[w, u] for block in blocks for w in block for u in block]


def _grid(rng: random.Random, sizes) -> tuple:
    """Worlds of a product grid, named and ordered by the seed, with the
    partition of agent i grouping worlds by coordinate i.  Extra trailing
    sizes are coordinates no agent sees (clusters)."""
    cells = list(itertools.product(*(range(s) for s in sizes)))
    names = dict(zip(cells, _names(rng, len(cells))))
    order = list(cells)
    rng.shuffle(order)
    worlds = [names[c] for c in order]
    parts = []
    for i in range(2):
        groups: dict = {}
        for c in order:
            groups.setdefault(c[i], []).append(names[c])
        parts.append(list(groups.values()))
    return worlds, parts


def _random_e(rng: random.Random, groups: int, size: int, block_sizes) -> tuple:
    """Disjoint groups of worlds; inside each, agent i splits the group into
    random blocks of block_sizes[i] worlds."""
    worlds = _names(rng, groups * size)
    parts = [[] for _ in block_sizes]
    for g in range(groups):
        members = worlds[g * size:(g + 1) * size]
        for i, b in enumerate(block_sizes):
            shuffled = rng.sample(members, size)
            parts[i] += [shuffled[k:k + b] for k in range(0, size, b)]
    return worlds, parts


def _relations_json(n: int, worlds, parts) -> dict:
    return {"n": n, "worlds": worlds,
            "relations": {str(i + 1): _blocks_to_pairs(p) for i, p in enumerate(parts)}}


def _partitions_json(n: int, worlds, parts) -> dict:
    return {"n": n, "worlds": worlds, "partitions": {str(i + 1): p for i, p in enumerate(parts)}}


def _props_lines(identity: bool) -> list:
    """frame-props of a connected ED frame, I or not."""
    return ["E: yes", "D: yes", f"I: {'yes' if identity else 'no'}", "WD: yes", "CONNECTED: yes"]


def _lines_job(key, argv, lines) -> dict:
    return {"key": key, "argv": argv, "seeded": True, "keep": True,
            "check": {"kind": "lines", "lines": lines}}


MODEL_SIZES = {
    "hypercube": (40, 40), "full": (20, 20, 3), "model": (5, 300, (10, 12)),
    "unpack": (8, 8, 2), "system": 8, "iso": (20, 20), "cover": (300, (6, 10)),
}
TINY_MODEL_SIZES = {
    "hypercube": (4, 4), "full": (3, 3, 2), "model": (2, 24, (4, 6)),
    "unpack": (2, 2, 2), "system": 2, "iso": (3, 3), "cover": (24, (4, 6)),
}


def _tag(jobs: list, worlds: int) -> None:
    """Record the input size on the jobs added since the last call."""
    for job in jobs:
        job.setdefault("worlds", worlds)


def models_jobs(rng: random.Random, work: str, tiny: bool) -> list:
    size = TINY_MODEL_SIZES if tiny else MODEL_SIZES
    jobs = []

    # EDI hypercube, 40 x 40, in the relations form
    worlds, parts = _grid(rng, size["hypercube"])
    cube = _write(work, "hypercube.json", _relations_json(2, worlds, parts))
    jobs.append(_lines_job("props-hypercube", ["frame-props", "--frame", cube],
                           _props_lines(True)))
    jobs.append({"key": "from-frame-hypercube", "seeded": True,
                 "argv": ["from-frame", "--frame", cube, "--mode", "hypercube"]})
    _tag(jobs, len(worlds))

    # ED frame of a full system: 20 x 20 local states, 3 environments each
    worlds, parts = _grid(rng, size["full"])
    full = _write(work, "full.json", _partitions_json(2, worlds, parts))
    jobs.append(_lines_job("props-full", ["frame-props", "--frame", full],
                           _props_lines(False)))
    jobs.append({"key": "from-frame-full", "seeded": True,
                 "argv": ["from-frame", "--frame", full, "--mode", "full"]})
    _tag(jobs, len(worlds))

    # random E model: 5 components of 300 worlds, atoms p and q
    worlds, parts = _random_e(rng, *size["model"])
    val = {w: [a for a in ("p", "q") if rng.random() < 0.5] for w in worlds}
    model = _partitions_json(2, worlds, parts)
    model["valuation"] = val
    path = _write(work, "model.json", model)
    ows, orels = oracle.frame_from_pairs(2, worlds, [_blocks_to_pairs(p) for p in parts])
    jobs.append({"key": "components", "argv": ["components", "--frame", path], "seeded": True,
                 "keep": True, "check": {"kind": "components",
                                         "components": oracle.components(ows, orels)}})
    jobs.append(_lines_job("validate-model", ["validate-model", "--model", path],
                           ["n: 2", f"worlds: {len(worlds)}", "atoms: p q", "equivalence: yes"]))
    f = ("or", ("box", 1, ("imp", P, ("dia", 2, Q))), ("S", ("D", ("not", P))))
    world = rng.choice(worlds)
    truth = oracle.holds(f, world, ows, orels, {w: set(a) for w, a in val.items()})
    jobs.append(_lines_job("check", ["check", "--model", path, "--world", world,
                                     "--formula", oracle.render(f)],
                           ["true" if truth else "false"]))
    g = ("and", ("box", 1, ("imp", P, ("dia", 2, Q))), ("dia", 2, ("box", 1, ("not", Q))))
    jobs.append({"key": "filtrate", "seeded": True,
                 "argv": ["filtrate", "--model", path, "--formula", oracle.render(g)]})
    _tag(jobs, len(worlds))

    # unpacking a 128-world ED frame (8 x 8 local states, clusters of 2)
    worlds, parts = _grid(rng, size["unpack"])
    small = _write(work, "ed128.json", _partitions_json(2, worlds, parts))
    clusters = len(worlds) // size["unpack"][2]
    unpacked = clusters * size["unpack"][2] ** 2
    jobs.append(_lines_job("unpack", ["unpack", "--frame", small], [f"worlds: {unpacked}"]))
    _tag(jobs, len(worlds))

    # F map of the 8 x 8 x 8 three-agent hypercube system
    local = [_names(rng, size["system"], prefix) for prefix in ("a", "b", "c")]
    states = [["e"] + list(s) for s in itertools.product(*local)]
    rng.shuffle(states)
    system = _write(work, "system.json",
                    {"n": 3, "env": ["e"], "locals": local, "states": states})
    jobs.append({"key": "f-map", "seeded": True, "argv": ["f-map", "--system", system]})
    _tag(jobs, len(states))

    # isomorphism of a 400-world hypercube frame and a renamed, reordered copy
    worlds, parts = _grid(rng, size["iso"])
    left = _relations_json(2, worlds, parts)
    rename = dict(zip(worlds, _names(rng, len(worlds), "v")))
    order = list(rename.values())
    rng.shuffle(order)
    right = _relations_json(2, order, [[[rename[w] for w in b] for b in p] for p in parts])
    argv = ["iso", "--left", _write(work, "iso-left.json", left),
            "--right", _write(work, "iso-right.json", right), "--max-worlds", "400"]
    jobs.append({"key": "iso", "argv": argv, "seeded": True, "keep": True,
                 "check": {"kind": "iso", "left": left, "right": right}})
    _tag(jobs, len(worlds))

    # p-morphism from two disjoint copies of a 300-world E frame onto it
    worlds, parts = _random_e(rng, 1, *size["cover"])
    copies = {w: (f"{w}a", f"{w}b") for w in worlds}
    cover = [[[copies[w][c] for w in b] for b in p] for p in parts for c in (0, 1)]
    source = _partitions_json(2, [x for w in worlds for x in copies[w]],
                              [cover[0] + cover[1], cover[2] + cover[3]])
    mapping = {x: w for w in worlds for x in copies[w]}
    argv = ["pmorph", "--map", _write(work, "cover-map.json", {"map": mapping}),
            "--source", _write(work, "cover.json", source),
            "--target", _write(work, "cover-target.json", _partitions_json(2, worlds, parts))]
    jobs.append(_lines_job("pmorph", argv, ["ok: yes"]))
    _tag(jobs, len(source["worlds"]))
    return jobs


WORKLOADS = {"broadcast": broadcast_jobs, "decide": decide_jobs, "models": models_jobs}


def make_jobs(workload: str, seed: int, work: str, tiny: bool = False) -> list:
    """The workload's jobs for this seed; tiny inputs exercise the same
    commands in well under a second.  The job order is fixed, so that each
    job meets the same heap state whatever the seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), work, tiny)
