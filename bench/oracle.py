"""Independent checks of CLI outputs, written without s5wd.

Formulas are nested tuples: ("atom", name), ("not", f), (op, f, g) for
op in and/or/imp/iff, ("box", i, f), ("dia", i, f), ("S", f), ("D", f).
Frames are (worlds, relations) with relations[i - 1] a dict world -> set of
successors for agent i.
"""

from __future__ import annotations

import itertools
import json

_BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}


def render(f) -> str:
    """Concrete CLI syntax, fully parenthesised so precedence never matters."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + render(f[1])
    if kind in _BINARY:
        return f"({render(f[1])} {_BINARY[kind]} {render(f[2])})"
    if kind == "box":
        return f"[{f[1]}]" + render(f[2])
    if kind == "dia":
        return f"<{f[1]}>" + render(f[2])
    return f"{kind} " + render(f[1])


def atoms_of(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    return set().union(*(atoms_of(g) for g in f[1:] if isinstance(g, tuple)))


def holds(f, w, worlds, rels, val) -> bool:
    """Truth of f at world w; val maps a world to its set of true atoms."""
    kind = f[0]
    if kind == "atom":
        return f[1] in val[w]
    if kind == "not":
        return not holds(f[1], w, worlds, rels, val)
    if kind in _BINARY:
        a = holds(f[1], w, worlds, rels, val)
        b = holds(f[2], w, worlds, rels, val)
        return {"and": a and b, "or": a or b, "imp": (not a) or b, "iff": a == b}[kind]
    if kind == "box":
        return all(holds(f[2], u, worlds, rels, val) for u in rels[f[1] - 1][w])
    if kind == "dia":
        return any(holds(f[2], u, worlds, rels, val) for u in rels[f[1] - 1][w])
    if kind == "S":
        return any(holds(f[1], u, worlds, rels, val) for rel in rels for u in rel[w])
    if kind == "D":
        common = set.intersection(*(set(rel[w]) for rel in rels))
        return all(holds(f[1], u, worlds, rels, val) for u in common)
    raise ValueError(f"not a formula: {f!r}")


def satisfiable_on_one_world(f, n: int) -> bool:
    """True iff some valuation makes f true on the single reflexive world."""
    names = sorted(atoms_of(f))
    rels = [{0: {0}} for _ in range(n)]
    for bits in itertools.product((False, True), repeat=len(names)):
        val = {0: {a for a, b in zip(names, bits) if b}}
        if holds(f, 0, [0], rels, val):
            return True
    return False


# ---- frames --------------------------------------------------------------


def frame_from_pairs(n: int, worlds, pairs_by_agent) -> tuple:
    rels = [{w: set() for w in worlds} for _ in range(n)]
    for i in range(n):
        for w, u in pairs_by_agent[i]:
            rels[i][w].add(u)
    return list(worlds), rels


def frame_from_model_json(data: dict) -> tuple:
    """(worlds, rels, val) of a model or frame in the CLI's relations form."""
    n = data["n"]
    worlds = data["worlds"]
    pairs = [data["relations"].get(str(i), []) for i in range(1, n + 1)]
    worlds, rels = frame_from_pairs(n, worlds, pairs)
    val = {w: set(data.get("valuation", {}).get(w, [])) for w in worlds}
    return worlds, rels, val


def is_equivalence(worlds, rels) -> bool:
    for rel in rels:
        for w in worlds:
            if w not in rel[w] or any(rel[u] != rel[w] for u in rel[w]):
                return False
    return True


def _has_join(rels, combo) -> bool:
    # combo[i] is a world for agent i; a join w has combo[i] R_i w for all i
    return bool(set.intersection(*(set(rels[i][v]) for i, v in enumerate(combo))))


def is_directed(worlds, rels) -> bool:
    return all(_has_join(rels, c) for c in itertools.product(worlds, repeat=len(rels)))


def is_weakly_directed(worlds, rels) -> bool:
    for w0 in worlds:
        hood = set().union(*(rel[w0] for rel in rels))
        if not all(_has_join(rels, c) for c in itertools.product(hood, repeat=len(rels))):
            return False
    return True


def has_identity_intersection(worlds, rels) -> bool:
    return all(set.intersection(*(set(rel[w]) for rel in rels)) == {w} for w in worlds)


def components(worlds, rels) -> list:
    """Connected components of the symmetric closure, as sets."""
    parent = {w: w for w in worlds}

    def find(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]
            w = parent[w]
        return w

    for rel in rels:
        for w in worlds:
            for u in rel[w]:
                parent[find(w)] = find(u)
    groups: dict = {}
    for w in worlds:
        groups.setdefault(find(w), set()).add(w)
    return list(groups.values())


def in_class(worlds, rels, klass: str) -> bool:
    """Membership in the decide classes e, ed, ewd and edi."""
    if not is_equivalence(worlds, rels):
        return False
    if klass in ("ed", "edi") and not is_directed(worlds, rels):
        return False
    if klass == "ewd" and not is_weakly_directed(worlds, rels):
        return False
    if klass == "edi" and not has_identity_intersection(worlds, rels):
        return False
    return True


# ---- per-job output checks ------------------------------------------------
# Each returns None when the output is right, else a one-line reason.


# a pin is the exit code followed by this many hex digits (32 bits) of the
# stdout's sha256: enough to catch any change, small enough to pin 616
# decide jobs for each of many seeds
DIGEST_HEX = 8


def pin(code: int, sha256: str) -> str:
    return f"{code}{sha256[:DIGEST_HEX]}"


def check_decide(spec: dict, code: int, out: str):
    lines = out.splitlines()
    if len(lines) < 2 or not lines[0].startswith("verdict: "):
        return "decide output has no verdict line"
    verdict = lines[0][len("verdict: "):]
    if code != (2 if verdict == "unknown" else 0):
        return f"exit code {code} does not match verdict {verdict}"
    if spec.get("verdict") and verdict != spec["verdict"]:
        return f"verdict {verdict}, construction fixes {spec['verdict']}"
    if verdict not in ("satisfiable", "countermodel"):
        return None
    if len(lines) != 4 or not lines[2].startswith("witness world: "):
        return "witness lines missing"
    world = lines[2][len("witness world: "):]
    try:
        data = json.loads(lines[3])
    except ValueError:
        return "witness model is not JSON"
    worlds, rels, val = frame_from_model_json(data)
    if world not in val or data["n"] != spec["n"] or len(worlds) > spec["bound"]:
        return "witness world or frame size out of range"
    if not in_class(worlds, rels, spec["klass"]) or len(components(worlds, rels)) != 1:
        return f"witness frame is not a connected {spec['klass']} frame"
    wanted = verdict == "satisfiable"
    if holds(spec["formula"], world, worlds, rels, val) != wanted:
        return "witness does not give the claimed truth value"
    return None


def check_iso(spec: dict, code: int, out: str):
    lines = out.splitlines()
    if code != 0 or not lines or lines[0] != "isomorphic":
        return "no isomorphism reported"
    mapping = dict(line.split(" -> ") for line in lines[1:])
    left, right = spec["left"], spec["right"]
    if sorted(mapping) != sorted(left["worlds"]) or sorted(mapping.values()) != sorted(
        right["worlds"]
    ):
        return "map is not a bijection between the world sets"
    for i in range(1, left["n"] + 1):
        image = {(mapping[w], mapping[u]) for w, u in left["relations"][str(i)]}
        if image != {tuple(p) for p in right["relations"][str(i)]}:
            return f"map does not preserve relation {i}"
    return None


def check_broadcast(spec: dict, code: int, out: str):
    head = dict(line.split(": ", 1) for line in out.splitlines() if ": " in line)
    for key in ("worlds", "components"):
        if head.get(key) != str(spec[key]):
            return f"{key} {head.get(key)}, construction gives {spec[key]}"
    sizes = [
        int(line.split()[3]) for line in out.splitlines() if line.startswith("component ")
    ]
    if sizes and max(sizes) != spec["largest"]:
        return f"largest component {max(sizes)}, construction gives {spec['largest']}"
    if "verify" in spec:
        want = "ok" if spec["verify_ok"] else "failed"
        if head.get(f"verify ({spec['verify']})") != want:
            return f"verify verdict is not {want}"
        if not spec["verify_ok"] and "failed (missing-tuple)" not in out:
            return "failure reason is not missing-tuple"
    if "emitted" in spec:
        with open(spec["emitted"], encoding="utf-8") as handle:
            if len(json.load(handle)["worlds"]) != spec["worlds"]:
                return "emitted frame has the wrong world count"
    if code != (0 if spec.get("verify_ok", True) else 1):
        return f"exit code {code}"
    return None


def check_lines(spec: dict, code: int, out: str):
    """Exact expected first lines, for outputs the construction fixes."""
    if code != 0:
        return f"exit code {code}"
    got = out.splitlines()[: len(spec["lines"])]
    if got != spec["lines"]:
        return f"output starts {got[:3]!r}, expected {spec['lines'][:3]!r}"
    return None


def check_components(spec: dict, code: int, out: str):
    if code != 0:
        return f"exit code {code}"
    got = sorted(sorted(line.split(": ", 1)[1].split()) for line in out.splitlines())
    if got != sorted(sorted(c) for c in spec["components"]):
        return "components differ from the generated ones"
    return None


CHECKERS = {
    "decide": check_decide,
    "iso": check_iso,
    "broadcast": check_broadcast,
    "lines": check_lines,
    "components": check_components,
}


def check_job(job: dict, code: int, out: str):
    """Independent check of one job's output; None when it passes."""
    check = job.get("check")
    if check is None:
        return None if code == 0 else f"exit code {code}"
    return CHECKERS[check["kind"]](check, code, out)
