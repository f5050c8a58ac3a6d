"""Seeded random generators and shared fixtures for the test suite."""

import random

from s5wd.formula import (
    And,
    Atom,
    Box,
    Diamond,
    Dist,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Some,
)
import itertools

from s5wd.broadcast import perfect_recall_state
from s5wd.decide import frame_in_class
from s5wd.formula import atoms
from s5wd.kripke import (
    BudgetError,
    Frame,
    Model,
    MorphismReport,
    WorldMap,
    _check_formula,
    _initial_color,
    _predecessors,
    equivalence_classes,
    extension,
    find_isomorphism,
    frame_from_partitions,
    frame_of,
    is_connected,
)
from s5wd.systems import (
    GlobalStateSystem,
    class_label,
    f_map,
    is_full,
    system_from_states,
)


def random_formula(
    rng: random.Random,
    n: int,
    atom_names: list[str],
    depth: int,
    *,
    allow_s: bool = False,
    allow_d: bool = False,
) -> Formula:
    """Random formula of modal/boolean nesting at most depth."""
    kinds = ["atom", "not", "and", "or", "implies", "iff", "box", "diamond"]
    if allow_s:
        kinds.append("some")
    if allow_d:
        kinds.append("dist")
    if depth <= 0:
        return Atom(rng.choice(atom_names))
    kind = rng.choice(kinds)
    if kind == "atom":
        return Atom(rng.choice(atom_names))
    if kind == "not":
        return Not(random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d))
    if kind in ("and", "or", "implies", "iff"):
        node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
        return node(
            random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d),
            random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d),
        )
    if kind == "box":
        return Box(
            rng.randint(1, n),
            random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d),
        )
    if kind == "diamond":
        return Diamond(
            rng.randint(1, n),
            random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d),
        )
    if kind == "some":
        return Some(random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d))
    return Dist(random_formula(rng, n, atom_names, depth - 1, allow_s=allow_s, allow_d=allow_d))


def random_partition(rng: random.Random, items: list) -> list[list]:
    """Random set partition of items, uniform over assignments to open or new blocks."""
    blocks: list[list] = []
    for item in items:
        choice = rng.randint(0, len(blocks))
        if choice == len(blocks):
            blocks.append([item])
        else:
            blocks[choice].append(item)
    return blocks


def random_i_local(
    rng: random.Random, n: int, i: int, atom_names: list[str], depth: int
) -> Formula:
    """Random i-local formula: boolean skeleton over agent-i modal roots."""
    if depth <= 0 or rng.random() < 0.3:
        node = Box if rng.random() < 0.5 else Diamond
        return node(i, random_formula(rng, n, atom_names, max(depth, 1)))
    kind = rng.choice(["not", "and", "or", "implies", "iff"])
    if kind == "not":
        return Not(random_i_local(rng, n, i, atom_names, depth - 1))
    node = {"and": And, "or": Or, "implies": Implies, "iff": Iff}[kind]
    return node(
        random_i_local(rng, n, i, atom_names, depth - 1),
        random_i_local(rng, n, i, atom_names, depth - 1),
    )


def random_equivalence_frame(
    rng: random.Random, n: int, size: int, prefix: str = "w"
) -> Frame:
    worlds = [f"{prefix}{k}" for k in range(size)]
    return frame_from_partitions(
        n, worlds, [random_partition(rng, worlds) for _ in range(n)]
    )


def random_model(rng: random.Random, fr: Frame, atom_names: list[str]) -> Model:
    return Model(
        fr,
        {w: tuple(a for a in atom_names if rng.random() < 0.5) for w in fr.worlds},
    )


def random_frame(rng: random.Random, n: int, size: int, density: float = 0.4) -> Frame:
    """Arbitrary (not necessarily equivalence) frame with the given edge density."""
    worlds = [f"w{k}" for k in range(size)]
    rels = []
    for _ in range(n):
        rels.append({(w, u) for w in worlds for u in worlds if rng.random() < density})
    return Frame(n, worlds, rels)


def missing_corner_model() -> Model:
    """Three-world equivalence model falsifying <1>[2]p -> [2]<1>p at w0.

    Agent 1 cannot tell w0 from w1; agent 2 cannot tell w0 from w2; p holds
    only at w1.  The frame is E and I but neither D nor WD.
    """
    fr = frame_from_partitions(
        2,
        ["w0", "w1", "w2"],
        [[["w0", "w1"], ["w2"]], [["w0", "w2"], ["w1"]]],
    )
    return Model(fr, {"w1": ("p",)})


def row_diagonal_morphism() -> WorldMap:
    """Frame p-morphism from a 4-world EDI frame onto a 2-world total cluster.

    Source worlds are letter/index pairs; agent 1 groups by index (rows) and
    agent 2 by diagonals.  Mapping by letter lands on a non-I frame, so no
    modal formula can pin down the intersection-identity property.
    """
    source = frame_from_partitions(
        2,
        ["a0", "b0", "a1", "b1"],
        [[["a0", "b0"], ["a1", "b1"]], [["a0", "b1"], ["b0", "a1"]]],
    )
    target = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a", "b"]]])
    return WorldMap(source, target, {"a0": "a", "b0": "b", "a1": "a", "b1": "b"})


def random_hypercube(rng: random.Random, n: int, max_axis: int = 3) -> GlobalStateSystem:
    """Hypercube with 1..max_axis values per axis and a singleton environment."""
    axes = [
        [f"a{i}_{k}" for k in range(rng.randint(1, max_axis))] for i in range(1, n + 1)
    ]
    states = [("1",) + combo for combo in itertools.product(*axes)]
    return system_from_states(n, states)


def random_full_system(
    rng: random.Random, n: int, max_axis: int = 3, max_env: int = 3
) -> GlobalStateSystem:
    """Full system: every local combination gets at least one environment."""
    axes = [
        [f"a{i}_{k}" for k in range(rng.randint(1, max_axis))] for i in range(1, n + 1)
    ]
    envs = [f"e{k}" for k in range(rng.randint(1, max_env))]
    states = []
    for combo in itertools.product(*axes):
        chosen = [e for e in envs if rng.random() < 0.5]
        if not chosen:
            chosen = [rng.choice(envs)]
        for e in chosen:
            states.append((e,) + combo)
    return system_from_states(n, states)


def assert_isomorphism(wm: WorldMap) -> None:
    """Fail unless wm is a bijection preserving all relations both ways."""
    src = frame_of(wm.source)
    tgt = frame_of(wm.target)
    images = [wm(w) for w in src.worlds]
    assert len(set(images)) == len(src.worlds) == len(tgt.worlds)
    for i in src.agents:
        for w in src.worlds:
            for u in src.worlds:
                assert (u in src.succ(i, w)) == (wm(u) in tgt.succ(i, wm(w)))
    if isinstance(wm.source, Model):
        for w in src.worlds:
            assert wm.source.atoms_at(w) == wm.target.atoms_at(wm(w))


# Brute-force definitions kept as oracles for the grouped fast paths.


def pairs_from_blocks(worlds, blocks) -> set:
    """Every pair inside a block; blocks must partition worlds."""
    seen = set()
    pairs = set()
    for block in blocks:
        for w in block:
            if w in seen:
                raise ValueError(f"world {w!r} appears in two partition blocks")
            seen.add(w)
        for w in block:
            for u in block:
                pairs.add((w, u))
    for w in worlds:
        if w not in seen:
            raise ValueError(f"world {w!r} is missing from the partition")
    return pairs


def frame_by_label_pairs(n: int, worlds, label) -> Frame:
    """frame_from_labels built from pairs: agent i relates every two worlds
    whose labels label(i, w) are equal, found by comparing all pairs."""
    worlds = list(worlds)
    rels = []
    for i in range(1, n + 1):
        labelled = [(w, label(i, w)) for w in worlds]
        rels.append({(a, b) for a, x in labelled for b, y in labelled if x == y})
    return Frame(n, worlds, rels)


def f_map_by_definition(s: GlobalStateSystem) -> Frame:
    """F image by comparing every pair of states."""
    return frame_by_label_pairs(s.n, s.states, lambda i, state: state[i])


def union_by_pairs(a: Frame, b: Frame) -> Frame:
    """disjoint_union built from the tagged relation pairs of both frames."""
    worlds = [(0, w) for w in a.worlds] + [(1, w) for w in b.worlds]
    rels = [
        {((0, w), (0, u)) for w, u in ra} | {((1, w), (1, u)) for w, u in rb}
        for ra, rb in zip(a.relations, b.relations)
    ]
    return Frame(a.n, worlds, rels)


def classes_by_scan(worlds, related) -> tuple:
    """Classes ordered by first world, found by scanning all worlds once per
    class; related(w) is the class of w as a set."""
    seen = set()
    out = []
    for w in worlds:
        if w in seen:
            continue
        members = tuple(v for v in worlds if v in related(w))
        seen.update(members)
        out.append(members)
    return tuple(out)


def components_by_pair_scan(x) -> list:
    """connected_components, restricting each component by scanning every
    relation pair of the whole frame."""
    fr = frame_of(x)
    adjacency = {w: set() for w in fr.worlds}
    for rel in fr.relations:
        for w, u in rel:
            adjacency[w].add(u)
            adjacency[u].add(w)
    seen: set = set()
    out = []
    for w in fr.worlds:
        if w in seen:
            continue
        stack = [w]
        seen.add(w)
        members = {w}
        while stack:
            v = stack.pop()
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    members.add(u)
                    stack.append(u)
        ordered = tuple(v for v in fr.worlds if v in members)
        rels = [{(a, b) for (a, b) in rel if a in members and b in members} for rel in fr.relations]
        piece = Frame(fr.n, ordered, rels)
        if isinstance(x, Model):
            piece = Model(piece, {v: x.atoms_at(v) for v in ordered})
        out.append((piece, ordered))
    return out


# The simple implementations the compiled kernel and the orbit-marking
# enumerator replaced, kept as oracles.


def extension_by_sets(m, f) -> frozenset:
    """Worlds of m at which f holds, as frozensets computed over subformulas."""
    fr = m.frame
    _check_formula(fr, f)
    all_worlds = frozenset(fr.worlds)
    memo: dict = {}

    def ext(g):
        if g in memo:
            return memo[g]
        if isinstance(g, Atom):
            out = frozenset(w for w in fr.worlds if g.name in m.atoms_at(w))
        elif isinstance(g, Not):
            out = all_worlds - ext(g.child)
        elif isinstance(g, And):
            out = ext(g.left) & ext(g.right)
        elif isinstance(g, Or):
            out = ext(g.left) | ext(g.right)
        elif isinstance(g, Implies):
            out = (all_worlds - ext(g.left)) | ext(g.right)
        elif isinstance(g, Iff):
            left, right = ext(g.left), ext(g.right)
            out = (left & right) | ((all_worlds - left) - right)
        elif isinstance(g, Box):
            body = ext(g.child)
            out = frozenset(w for w in fr.worlds if fr.succ(g.agent, w) <= body)
        elif isinstance(g, Diamond):
            body = ext(g.child)
            out = frozenset(w for w in fr.worlds if fr.succ(g.agent, w) & body)
        elif isinstance(g, Some):
            body = ext(g.child)
            out = frozenset(
                w for w in fr.worlds if any(fr.succ(i, w) & body for i in fr.agents)
            )
        elif isinstance(g, Dist):
            body = ext(g.child)
            out = frozenset(w for w in fr.worlds if fr.isucc(w) <= body)
        else:
            raise TypeError(f"not a formula node: {g!r}")
        memo[g] = out
        return out

    return ext(f)


def countermodel_by_valuation(fr, f, *, max_assignments: int = 2**20):
    """find_frame_countermodel by building one Model per valuation, in
    itertools.product order, and taking its frozenset extension."""
    names = atoms(f)
    k = len(names)
    size = len(fr.worlds)
    if 2 ** (size * k) > max_assignments:
        raise BudgetError(
            f"frame validity needs 2^{size * k} valuations, over budget {max_assignments}"
        )
    for bits in itertools.product((False, True), repeat=size * k):
        valuation = {
            w: tuple(names[j] for j in range(k) if bits[wi * k + j])
            for wi, w in enumerate(fr.worlds)
        }
        m = Model(fr, valuation)
        holds = extension_by_sets(m, f)
        if len(holds) < size:
            for w in fr.worlds:
                if w not in holds:
                    return (m, w)
    return None


def set_partitions(k: int):
    """All partitions of {0..k-1} as block lists, in restricted-growth order."""
    assignment = [0] * k

    def rec(pos: int, used: int):
        if pos == k:
            blocks: dict = {}
            for idx, b in enumerate(assignment):
                blocks.setdefault(b, []).append(idx)
            yield [blocks[b] for b in sorted(blocks)]
            return
        for b in range(used + 1):
            assignment[pos] = b
            yield from rec(pos + 1, max(used, b + 1))

    yield from rec(0, 0)


def frame_signature(fr: Frame) -> tuple:
    per_world = []
    for w in fr.worlds:
        per_world.append(
            tuple(len(fr.succ(i, w)) for i in fr.agents) + (len(fr.isucc(w)),)
        )
    return tuple(sorted(per_world))


def enumerate_frames_pairwise(n: int, max_worlds: int, klass: str = "e", *,
                              connected_only: bool = False):
    """enumerate_frames by building a frame for every partition tuple and
    keeping it unless find_isomorphism matches an earlier kept frame with
    the same degree signature."""
    for k in range(1, max_worlds + 1):
        worlds = [f"w{j}" for j in range(k)]
        parts = [
            [[worlds[idx] for idx in block] for block in partition]
            for partition in set_partitions(k)
        ]
        accepted: dict = {}
        for combo in itertools.product(parts, repeat=n):
            fr = frame_from_partitions(n, worlds, combo)
            if not frame_in_class(fr, klass):
                continue
            if connected_only and not is_connected(fr):
                continue
            bucket = accepted.setdefault(frame_signature(fr), [])
            if any(
                find_isomorphism(fr, prev, max_worlds=k) is not None for prev in bucket
            ):
                continue
            bucket.append(fr)
            yield fr


# The per-function join tests, the class-product hypercube search and the
# system-building fullness check that one join test and class labels
# replaced, kept as oracles.


def _nonempty_intersection(sets: tuple) -> bool:
    out = sets[0]
    for s in sets[1:]:
        out = out & s
        if not out:
            return False
    return bool(out)


def check_d_by_product(fr: Frame) -> bool:
    """check_d over the product of each agent's distinct successor sets."""
    per_agent = []
    for i in fr.agents:
        distinct = {}
        for w in fr.worlds:
            distinct.setdefault(fr.succ(i, w), None)
        per_agent.append(list(distinct))
    return all(_nonempty_intersection(combo) for combo in itertools.product(*per_agent))


def check_wd_by_neighborhood(fr: Frame) -> bool:
    """check_wd with a product of distinct successor sets per neighborhood."""
    for w0 in fr.worlds:
        hood = sorted(fr.neighborhood(w0), key=fr.index)
        if not hood:
            continue
        per_agent = []
        for i in fr.agents:
            distinct = {}
            for v in hood:
                distinct.setdefault(fr.succ(i, v), None)
            per_agent.append(list(distinct))
        for combo in itertools.product(*per_agent):
            if not _nonempty_intersection(combo):
                return False
    return True


def frame_to_full_system_by_tables(fr: Frame) -> tuple:
    """frame_to_full_system with one class-name table per agent."""
    labels = []
    for i in fr.agents:
        table = {}
        for members in equivalence_classes(fr, i):
            for w in members:
                table[w] = class_label(members)
        labels.append(table)
    states = [(w,) + tuple(labels[i - 1][w] for i in fr.agents) for w in fr.worlds]
    system = system_from_states(fr.n, states)
    image = f_map(system)
    return system, WorldMap(image, fr, {state: state[0] for state in image.worlds})


def frame_to_hypercube_by_product(fr: Frame) -> tuple:
    """frame_to_hypercube by intersecting every combination of classes."""
    per_agent = [
        [(class_label(members), set(members)) for members in equivalence_classes(fr, i)]
        for i in fr.agents
    ]
    mapping = {}
    for combo in itertools.product(*per_agent):
        members = set(fr.worlds)
        for _, block in combo:
            members &= block
        assert len(members) == 1
        mapping[("1",) + tuple(name for name, _ in combo)] = members.pop()
    system = system_from_states(fr.n, list(mapping))
    return system, WorldMap(f_map(system), fr, mapping)


def not_full_hole_by_system(members: tuple) -> tuple:
    """First agent-axis combination with no trace among members, found by
    building the system of their recall coordinates; () if there is none."""
    width = len(members[0][0][1])
    coords = [tuple(perfect_recall_state(tr, i) for i in range(width)) for tr in members]
    system = system_from_states(width - 1, coords)
    if is_full(system):
        return ()
    return next(
        combo
        for combo in itertools.product(*system.local_alphabets)
        if not any(state[1:] == combo for state in system.states)
    )


def check_suitable_by_pairs(fil, i: int) -> MorphismReport:
    """check_suitable by scanning every ordered pair of source worlds."""
    m = fil.source
    fr = frame_of(m)
    fr._check_agent(i)
    proj = fil.projection
    related = fil.quotient.frame.relations[i - 1]
    for w in fr.worlds:
        succ = fr.succ(i, w)
        # scan in world order so failure witnesses are deterministic
        for u in fr.worlds:
            if u in succ and (proj(w), proj(u)) not in related:
                return MorphismReport(False, "containment", (i, w, u))
    modal = [
        (g, extension(m, g), extension(m, g.child))
        for g in fil.closure
        if isinstance(g, (Box, Diamond)) and g.agent == i
    ]
    for w1 in fr.worlds:
        for w2 in fr.worlds:
            if (proj(w1), proj(w2)) not in related:
                continue
            for g, outer, inner in modal:
                if isinstance(g, Box) and w1 in outer and w2 not in inner:
                    return MorphismReport(False, "transfer", (i, w1, w2, g))
                if isinstance(g, Diamond) and w2 in inner and w1 not in outer:
                    return MorphismReport(False, "transfer", (i, w1, w2, g))
    return MorphismReport(True)


def find_isomorphism_by_lists(a, b, *, max_worlds: int = 12):
    """find_isomorphism with list domains filtered pair by pair and a
    recursive search, one Python frame per assigned world."""
    if isinstance(a, Model) != isinstance(b, Model):
        raise ValueError("cannot compare a Frame with a Model")
    fa, fb = frame_of(a), frame_of(b)
    if fa.n != fb.n:
        raise ValueError(f"agent counts differ: {fa.n} vs {fb.n}")
    if max(len(fa.worlds), len(fb.worlds)) > max_worlds:
        raise BudgetError(
            f"isomorphism search over {max(len(fa.worlds), len(fb.worlds))} worlds "
            f"exceeds the budget of {max_worlds}"
        )
    if len(fa.worlds) != len(fb.worlds):
        return None

    pred_a, pred_b = _predecessors(fa), _predecessors(fb)
    tagged = [("a", w) for w in fa.worlds] + [("b", w) for w in fb.worlds]

    def side(tag):
        return (fa, pred_a, a) if tag == "a" else (fb, pred_b, b)

    colors = {}
    initial = {}
    for tag, w in tagged:
        fr, pred, x = side(tag)
        initial[(tag, w)] = _initial_color(x, pred, w)
    palette = {sig: k for k, sig in enumerate(sorted(set(initial.values())))}
    colors = {tw: palette[sig] for tw, sig in initial.items()}

    while True:
        signatures = {}
        for tag, w in tagged:
            fr, pred, _ = side(tag)
            sig = (
                colors[(tag, w)],
                tuple(
                    tuple(sorted(colors[(tag, v)] for v in fr._succ[i][w]))
                    for i in range(fr.n)
                ),
                tuple(
                    tuple(sorted(colors[(tag, v)] for v in pred[i][w]))
                    for i in range(fr.n)
                ),
            )
            signatures[(tag, w)] = sig
        palette = {sig: k for k, sig in enumerate(sorted(set(signatures.values())))}
        refined = {tw: palette[signatures[tw]] for tw in signatures}
        if len(set(refined.values())) == len(set(colors.values())):
            colors = refined
            break
        colors = refined

    buckets_a: dict = {}
    buckets_b: dict = {}
    for w in fa.worlds:
        buckets_a.setdefault(colors[("a", w)], []).append(w)
    for w in fb.worlds:
        buckets_b.setdefault(colors[("b", w)], []).append(w)
    if set(buckets_a) != set(buckets_b):
        return None
    if any(len(buckets_a[c]) != len(buckets_b[c]) for c in buckets_a):
        return None

    def pair_ok(u, t, w, v):
        # consistency of candidate u->t with assigned w->v, both directions
        for i in range(fa.n):
            if (u in fa._succ[i][w]) != (t in fb._succ[i][v]):
                return False
            if (w in fa._succ[i][u]) != (v in fb._succ[i][t]):
                return False
        return True

    def self_ok(w, v):
        return all((w in fa._succ[i][w]) == (v in fb._succ[i][v]) for i in range(fa.n))

    domains = {
        w: [v for v in buckets_b[colors[("a", w)]] if self_ok(w, v)] for w in fa.worlds
    }
    if any(not dom for dom in domains.values()):
        return None
    assignment: dict = {}

    def backtrack(domains) -> bool:
        if not domains:
            return True
        w = min(domains, key=lambda u: (len(domains[u]), fa.index(u)))
        for v in domains[w]:
            narrowed = {}
            feasible = True
            for u, dom in domains.items():
                if u == w:
                    continue
                filtered = [t for t in dom if t != v and pair_ok(u, t, w, v)]
                if not filtered:
                    feasible = False
                    break
                narrowed[u] = filtered
            if not feasible:
                continue
            assignment[w] = v
            if backtrack(narrowed):
                return True
            del assignment[w]
        return False

    if not backtrack(domains):
        return None
    return WorldMap(a, b, dict(assignment))
