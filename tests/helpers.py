"""Seeded random generators and shared fixtures for the test suite."""

import dataclasses
import json
import random
import re

from s5wd.formula import (
    AgentIndexError,
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
    ParseError,
    Some,
    children,
    negation,
)
import itertools
import math

from s5wd.broadcast import (
    EPSILON,
    AgentProtocol,
    BroadcastEnvironment,
    ComponentReport,
    DecompositionReport,
    JointProtocol,
    action_sequence,
    _apply,
    build_card_game,
    enabled_joint_actions,
    generate_frame,
    perfect_recall_state,
    play_any_card_protocol,
    verify_hypercube_decomposition,
)
from s5wd.decide import _growth_strings, _relabel_table, frame_in_class
from s5wd.filtration import Filtration
from s5wd.formula import atoms, has_node, subformula_closure
from s5wd.kripke import (
    BudgetError,
    Frame,
    Model,
    MorphismReport,
    WorldMap,
    _check_nodes,
    _compile,
    _initial_color,
    check_equivalence,
    component_members,
    equivalence_classes,
    extension,
    find_isomorphism,
    frame_from_labels,
    frame_from_partitions,
    frame_of,
    is_connected,
    world_key,
)
from s5wd.systems import (
    GlobalStateSystem,
    class_label,
    f_map,
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


def successor_tables_by_pair_loop(worlds: list, rels) -> tuple:
    """Frame's successor tables built one pair at a time, each pair checked
    before it is added, equal sets one object; a faulty pair raises the
    ValueError Frame raises for the first one."""
    index = {w: k for k, w in enumerate(worlds)}
    shared: dict = {}
    succ = []
    for i, pairs in enumerate(rels, 1):
        table = {w: set() for w in worlds}
        for pair in pairs:
            try:
                w, u = pair if isinstance(pair, (list, tuple)) else ()
                known = w in index and u in index
            except (TypeError, ValueError):
                raise ValueError(f"{pair!r:.80} in relation {i} is not a pair of worlds") from None
            if not known:
                raise ValueError(f"relation pair ({w!r}, {u!r}) references an unknown world")
            table[w].add(u)
        for w, v in table.items():
            v = frozenset(v)
            table[w] = shared.setdefault(v, v)
        succ.append(table)
    return tuple(succ)


def equivalence_by_pairs(fr: Frame) -> bool:
    """Reflexivity, symmetry and transitivity read off the pair sets."""
    for rel in fr.relations:
        succ: dict = {}
        for w, u in rel:
            succ.setdefault(w, set()).add(u)
        if any((w, w) not in rel for w in fr.worlds):
            return False
        if any((u, w) not in rel or not succ[u] <= succ[w] for w, u in rel):
            return False
    return True


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


def valuation_by_loop(members, valuation) -> tuple:
    """Model's valuation loop before the shared normaliser: (member, sorted
    distinct atom names) for each of members, () where valuation has none.
    It sorts before it checks, so a name that is no string can raise a raw
    TypeError instead of a ValueError."""
    items = dict(valuation)
    for w in items:
        if w not in members:
            raise ValueError(f"valuation references an unknown member {w!r}")
    cooked = []
    for w in members:
        names = items.get(w, ())
        if not isinstance(names, (list, tuple, set, frozenset)):
            raise ValueError(f"valuation of {w!r} is not a list of atoms: {names!r}")
        names = tuple(sorted(set(names)))
        for name in names:
            if not isinstance(name, str) or not re.fullmatch(r"[a-z][a-z0-9_]*", name):
                raise ValueError(f"bad atom name {name!r}")
        cooked.append((w, names))
    return tuple(cooked)


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


def is_hypercube_by_count(s: GlobalStateSystem) -> bool:
    """is_hypercube by multiplying the local alphabet sizes."""
    if len(s.env_alphabet) != 1:
        return False
    expected = 1
    for alphabet in s.local_alphabets:
        expected *= len(alphabet)
    return len(s.states) == expected


def is_full_by_product(s: GlobalStateSystem) -> bool:
    """is_full by walking the product of the local alphabets."""
    seen = {state[1:] for state in s.states}
    for combo in itertools.product(*s.local_alphabets):
        if combo not in seen:
            return False
    return True


def homogeneous_by_pools(e: BroadcastEnvironment) -> bool:
    """BroadcastEnvironment.homogeneous by counting each agent's initial pool."""
    pools = [set() for _ in range(e.n + 1)]
    for _, priv in e.initial_states:
        for i, p in enumerate(priv):
            pools[i].add(p)
    count = 1
    for pool in pools:
        count *= len(pool)
    return count == len(e.initial_states)


def assert_isomorphism(wm: WorldMap) -> None:
    """Fail unless wm is a bijection preserving all relations both ways."""
    src = frame_of(wm.source)
    tgt = frame_of(wm.target)
    images = [wm(w) for w in src.worlds]
    assert len(set(images)) == len(src.worlds) == len(tgt.worlds)
    # a bijection preserves relations both ways iff it maps each successor
    # set onto the image's successor set
    for i in src.agents:
        for w in src.worlds:
            assert {wm(u) for u in src.succ(i, w)} == tgt.succ(i, wm(w))
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


# The character-loop tokenizer that the one token pattern replaced, and the
# recursive parser, printer and structural helpers that the compiled formula
# walk replaced, kept as oracles.


def tokenize_by_chars(text: str) -> list:
    """formula._tokenize by reading one character at a time."""
    tokens = []
    i = 0
    length = len(text)
    while i < length:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "~&|[]()>":
            tokens.append((c, None, i))
            i += 1
        elif c == "-":
            if text.startswith("->", i):
                tokens.append(("->", None, i))
                i += 2
            else:
                raise ParseError("expected '->'", i)
        elif c == "<":
            if text.startswith("<->", i):
                tokens.append(("<->", None, i))
                i += 3
            else:
                tokens.append(("<", None, i))
                i += 1
        elif c in ("S", "D"):
            tokens.append((c, None, i))
            i += 1
        elif "0" <= c <= "9":  # not str.isdigit, which takes '²' and '٢' too
            j = i
            while j < length and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
        elif "a" <= c <= "z":
            j = i
            while j < length and ("0" <= text[j] <= "9" or text[j] == "_" or "a" <= text[j] <= "z"):
                j += 1
            tokens.append(("atom", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, length))
    return tokens


class _DescentParser:
    def __init__(self, tokens, n: int, extended: bool):
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.extended = extended

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def iff(self) -> Formula:
        left = self.implies()
        if self.peek()[0] == "<->":
            self.take()
            return Iff(left, self.iff())
        return left

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.peek()[0] == "->":
            self.take()
            return Implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek()[0] == "|":
            self.take()
            left = Or(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.unary()
        while self.peek()[0] == "&":
            self.take()
            left = And(left, self.unary())
        return left

    def agent_index(self) -> int:
        i = int(self.expect("nat")[1])
        if not 1 <= i <= self.n:
            raise AgentIndexError(f"agent index {i} out of range 1..{self.n}")
        return i

    def unary(self) -> Formula:
        kind, value, pos = self.take()
        if kind == "~":
            return Not(self.unary())
        if kind == "[":
            i = self.agent_index()
            self.expect("]")
            return Box(i, self.unary())
        if kind == "<":
            i = self.agent_index()
            self.expect(">")
            return Diamond(i, self.unary())
        if kind == "S":
            if not self.extended:
                raise ParseError("operator S is not enabled", pos)
            return Some(self.unary())
        if kind == "D":
            if not self.extended:
                raise ParseError("operator D is not enabled", pos)
            return Dist(self.unary())
        if kind == "(":
            f = self.iff()
            self.expect(")")
            return f
        if kind == "atom":
            return Atom(value)
        raise ParseError(f"unexpected {kind!r}", pos)


def parse_by_descent(text: str, n: int, *, extended: bool = True) -> Formula:
    """parse by one recursive method per precedence level."""
    if n < 1:
        raise ValueError("agent count n must be at least 1")
    parser = _DescentParser(tokenize_by_chars(text), n, extended)
    f = parser.iff()
    parser.expect("end")
    return f


_PRINT_LEVELS = {Iff: 1, Implies: 2, Or: 3, And: 4}
_PRINT_OPS = {And: "&", Or: "|", Implies: "->", Iff: "<->"}


def _level(f: Formula) -> int:
    return _PRINT_LEVELS.get(type(f), 5 if not isinstance(f, Atom) else 6)


def _render(f: Formula, min_level: int) -> str:
    if isinstance(f, Atom):
        body = f.name
    elif isinstance(f, Not):
        body = "~" + _render(f.child, 5)
    elif isinstance(f, Box):
        body = f"[{f.agent}]" + _render(f.child, 5)
    elif isinstance(f, Diamond):
        body = f"<{f.agent}>" + _render(f.child, 5)
    elif isinstance(f, Some):
        body = "S " + _render(f.child, 5)
    elif isinstance(f, Dist):
        body = "D " + _render(f.child, 5)
    elif isinstance(f, (And, Or)):
        level = _level(f)
        body = f"{_render(f.left, level)} {_PRINT_OPS[type(f)]} {_render(f.right, level + 1)}"
    elif isinstance(f, (Implies, Iff)):
        level = _level(f)
        body = f"{_render(f.left, level + 1)} {_PRINT_OPS[type(f)]} {_render(f.right, level)}"
    else:
        raise TypeError(f"not a formula node: {f!r}")
    if _level(f) < min_level:
        return f"({body})"
    return body


def pretty_by_recursion(f: Formula) -> str:
    """pretty by concatenating each level's rendered children."""
    return _render(f, 0)


def expand_s_by_recursion(f: Formula, n: int) -> Formula:
    """expand_s by rebuilding every node from its expanded children."""
    if n < 1:
        raise ValueError("agent count n must be at least 1")
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(expand_s_by_recursion(f.child, n))
    if isinstance(f, (And, Or, Implies, Iff)):
        return type(f)(expand_s_by_recursion(f.left, n), expand_s_by_recursion(f.right, n))
    if isinstance(f, Box):
        return Box(f.agent, expand_s_by_recursion(f.child, n))
    if isinstance(f, Diamond):
        return Diamond(f.agent, expand_s_by_recursion(f.child, n))
    if isinstance(f, Dist):
        return Dist(expand_s_by_recursion(f.child, n))
    if isinstance(f, Some):
        child = expand_s_by_recursion(f.child, n)
        out: Formula = Diamond(1, child)
        for i in range(2, n + 1):
            out = Or(out, Diamond(i, child))
        return out
    raise TypeError(f"not a formula node: {f!r}")


def subformulas_by_recursion(f: Formula) -> tuple:
    """subformulas by a recursive visit that hashes every subtree."""
    seen: dict = {}

    def visit(g: Formula) -> None:
        if g in seen:
            return
        seen[g] = None
        for child in children(g):
            visit(child)

    visit(f)
    return tuple(seen)


def modal_depth_by_recursion(f: Formula) -> int:
    inner = max((modal_depth_by_recursion(g) for g in children(f)), default=0)
    if isinstance(f, (Box, Diamond, Some, Dist)):
        return inner + 1
    return inner


def is_i_local_by_recursion(f: Formula, i: int) -> bool:
    if isinstance(f, (Box, Diamond)):
        return f.agent == i
    if isinstance(f, Not):
        return is_i_local_by_recursion(f.child, i)
    if isinstance(f, (And, Or, Implies, Iff)):
        return is_i_local_by_recursion(f.left, i) and is_i_local_by_recursion(f.right, i)
    return False


def subformula_closure_by_recursion(f: Formula) -> tuple:
    """subformula_closure by adding each subformula's negation in turn."""
    members = dict.fromkeys(subformulas_by_recursion(f))
    if any(isinstance(g, Some) for g in members):
        raise ValueError("formula contains S; expand_s before taking the closure")
    for g in tuple(members):
        members.setdefault(negation(g), None)
    return tuple(members)


# The simple implementations the compiled kernel and the orbit-marking
# enumerator replaced, kept as oracles.


def extension_by_sets(m, f) -> frozenset:
    """Worlds of m at which f holds, as frozensets computed over subformulas."""
    fr = m.frame
    _check_nodes(fr, _compile(f))
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
            f"frame validity needs 2^{size * k} valuations, over budget {max_assignments}; "
            "raise --max-assignments (max_assignments=)"
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


def enumerate_frames_by_marking(n: int, max_worlds: int, klass: str = "e", *,
                                connected_only: bool = False):
    """enumerate_frames with every tuple code split into its n digits for each
    relabelling, and each orbit's first tuple built by frame_from_labels."""
    for k in range(1, max_worlds + 1):
        worlds = [f"w{j}" for j in range(k)]
        position = {w: j for j, w in enumerate(worlds)}
        strings = _growth_strings(k)
        index = {s: idx for idx, s in enumerate(strings)}
        perms = [[1, 0] + list(range(2, k)), [(j + 1) % k for j in range(k)]] if k > 1 else []
        tables = [_relabel_table(strings, index, perm) for perm in perms]
        places = [len(strings) ** (n - 1 - a) for a in range(n)]
        marked = bytearray(len(strings) ** n)
        for code in range(len(marked)):
            if marked[code]:
                continue
            marked[code] = 1
            stack = [code]
            while stack:
                rest = stack.pop()
                digits = []
                for place in places:
                    digit, rest = divmod(rest, place)
                    digits.append(digit)
                for table in tables:
                    image = sum(table[d] * place for d, place in zip(digits, places))
                    if not marked[image]:
                        marked[image] = 1
                        stack.append(image)
            combo = [strings[(code // place) % len(strings)] for place in places]
            fr = frame_from_labels(n, worlds, lambda i, w: combo[i - 1][position[w]])
            if not frame_in_class(fr, klass):
                continue
            if connected_only and not is_connected(fr):
                continue
            yield fr


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
    if is_full_by_product(system):
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


def world_equivalence_by_extensions(m, closure) -> list:
    """world_equivalence with one extension call per closure member."""
    truths = [extension(m, g) for g in closure]
    groups: dict = {}
    for w in frame_of(m).worlds:
        groups.setdefault(tuple(w in t for t in truths), []).append(w)
    return list(groups.values())


def filtrate_by_extensions(m, f) -> Filtration:
    """filtrate with one extension call per closure member and the quotient
    relations built from pairs; the suitability check is left out."""
    fr = frame_of(m)
    if not check_equivalence(fr):
        raise ValueError("filtration requires an equivalence model")
    if has_node(f, Some):
        raise ValueError("S must be expanded before filtration")
    if has_node(f, Dist):
        raise ValueError("the D operator is not supported by filtration")
    closure = subformula_closure(f)
    truths = [extension(m, g) for g in closure]
    classes = world_equivalence_by_extensions(m, closure)
    rep_of = {w: block[0] for block in classes for w in block}
    reps = [block[0] for block in classes]

    def modal_signature(i, w):
        return tuple(
            w in truths[k]
            for k, g in enumerate(closure)
            if isinstance(g, (Box, Diamond)) and g.agent == i
        )

    keep = set(atoms(f))
    quotient = Model(
        frame_by_label_pairs(fr.n, reps, modal_signature),
        {r: tuple(a for a in m.atoms_at(r) if a in keep) for r in reps},
    )
    return Filtration(m, closure, quotient, WorldMap(fr, quotient.frame, rep_of))


def two_block_model() -> Model:
    """Agent 1 splits the four worlds in halves, agent 2 sees one cluster;
    p alternates inside each agent-1 class."""
    fr = frame_from_partitions(
        2,
        ["w0", "w1", "w2", "w3"],
        [[["w0", "w1"], ["w2", "w3"]], [["w0", "w1", "w2", "w3"]]],
    )
    return Model(fr, {"w0": ("p",), "w2": ("p",)})


def split_pair_model() -> Model:
    """Agent 1 distinguishes the two worlds, agent 2 does not; p at w0."""
    fr = frame_from_partitions(
        2, ["w0", "w1"], [[["w0"], ["w1"]], [["w0", "w1"]]]
    )
    return Model(fr, {"w0": ("p",)})


def with_agent_relation(fil, i: int, pairs) -> Filtration:
    """fil with agent i's quotient relation replaced by pairs."""
    q = fil.quotient.frame
    rels = [set(pairs) if j == i else rel for j, rel in enumerate(q.relations, 1)]
    return dataclasses.replace(
        fil, quotient=Model(Frame(q.n, q.worlds, rels), dict(fil.quotient.valuation))
    )


def predecessors_by_pairs(fr: Frame) -> list:
    """Per agent, a dict from each world to the set of worlds that relate to
    it, one set per world, built pair by pair."""
    pred = [{w: set() for w in fr.worlds} for _ in range(fr.n)]
    for i, table in enumerate(fr._succ):
        for w, s in table.items():
            for u in s:
                pred[i][u].add(w)
    return pred


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

    pred_a, pred_b = predecessors_by_pairs(fa), predecessors_by_pairs(fb)
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


# json.dumps(value, separators=(",", ":")) without building an encoder per call
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _tagged(value):
    """The tagged form broadcast keys encode: tuples as lists, sets as
    {"set": members sorted by their text}."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, tuple):
        return [_tagged(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_tagged(v) for v in value]
        items.sort(key=_compact)
        return {"set": items}
    raise TypeError(f"value is not serializable: {value!r}")


def _plain(value):
    """The form world keys encode: tuples and lists as lists, sets as lists
    sorted by member text."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_plain(v) for v in value]
        items.sort(key=_compact)
        return items
    raise TypeError(f"world component is not serializable: {value!r}")


def key_by_json_dumps(value) -> str:
    """broadcast._key by building the tagged object and serializing it."""
    return _compact(_tagged(value))


def _table_by_json_dumps(table) -> dict:
    """A broadcast table as a JSON object: keys as key_by_json_dumps texts,
    in text order, and values tagged."""
    texts = {key_by_json_dumps(k): k for k in table}
    return {text: _tagged(table[texts[text]]) for text in sorted(texts)}


def environment_json_by_tagged(e) -> dict:
    """environment_to_json built from _tagged objects, fields in the order
    the writer gives them, each alphabet a list sorted by member text."""
    def alphabets(entries):
        return [None if a is None else sorted(map(_tagged, a), key=_compact) for a in entries]

    data = {"n": e.n, "external_actions": alphabets(e.external_actions),
            "internal_actions": alphabets(e.internal_actions),
            "private_states": alphabets(e.private_states),
            "valuation": _table_by_json_dumps(e.valuation)}
    if e.initial_private is not None:
        data["initial_private"] = alphabets(e.initial_private)
    else:
        data["initial_states"] = [_tagged(s) for s in e.initial_states]
    data["env_protocol"] = None if e.env_protocol is None else _table_by_json_dumps(e.env_protocol)
    data["transitions"] = None if e.transitions is None else [
        _table_by_json_dumps(table) for table in e.transitions
    ]
    return data


def protocol_json_by_tagged(p) -> dict:
    """protocol_to_json built from _tagged objects."""
    return {"agents": [
        {"kind": "table", "table": _table_by_json_dumps(a.table)} if a.kind == "table"
        else {"kind": a.kind}
        for a in p.agents
    ]}


def assert_written_as_tagged(env, proto, env_json: dict, proto_json: dict) -> None:
    """env_json and proto_json, the writers' documents for env and proto,
    dump without sort_keys, so that key order counts, to the text of the
    documents built from _tagged objects."""
    assert json.dumps(env_json) == json.dumps(environment_json_by_tagged(env))
    assert json.dumps(proto_json) == json.dumps(protocol_json_by_tagged(proto))


def world_key_by_json_dumps(w) -> str:
    """world_key by building the plain object and serializing it."""
    return w if isinstance(w, str) else _compact(_plain(w))


def random_nested_value(rng: random.Random, depth: int = 4):
    """A random nested value for the canonical key encoders: strings that
    need escaping or sort apart from their numbers, ints, bools and None,
    tuples, lists and frozensets of mixed members, and now and then a float
    or a dict, which the encoders reject."""
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        return rng.choices([
            lambda: rng.choice(["", "a", "c2", "c10", "eps", 'q"uote', "back\\slash",
                                "tab\tnl\n", "\x00\x1f", "caf\u00e9", "\u2603", "\U0001f600"]),
            lambda: f"c{rng.randint(0, 12)}",
            lambda: rng.randint(-1000, 1000),
            lambda: rng.choice([True, False, None, 0, 1, -1, 2**70]),
            lambda: rng.choice([0.5, float("nan"), {"k": 1}, {}]),
        ], weights=[4, 3, 3, 3, 1])[0]()
    size = rng.randint(0, 4)
    members = [random_nested_value(rng, depth - 1) for _ in range(size)]
    kind = rng.choice([tuple, tuple, list, frozenset, frozenset])
    if kind is frozenset:
        try:
            return frozenset(members)
        except TypeError:  # an unhashable member
            return tuple(members)
    return kind(members)


def build_card_game_by_full_states(deck_size: int, hand_size: int, modeling: str = "simple"):
    """build_card_game closing over full states (face-up pair, private
    states) with its own play loop, then reading pools and valuation off the
    closed set in a second pass."""
    if deck_size < 1 or not 0 <= hand_size <= deck_size:
        raise ValueError("need deck_size >= 1 and 0 <= hand_size <= deck_size")
    if modeling not in ("simple", "rich"):
        raise ValueError(f"unknown modeling {modeling!r}")
    n = 2
    deck = tuple(f"c{k}" for k in range(deck_size))
    full_deck = frozenset(deck)
    hands0 = [frozenset(c) for c in itertools.combinations(deck, hand_size)]
    plays = (EPSILON, frozenset()) + tuple(frozenset({c}) for c in deck)
    blank = (EPSILON,) * (n + 1)

    if modeling == "simple":
        initial = [(blank, ("1", h1, h2)) for h1 in hands0 for h2 in hands0]
    else:
        initial = [
            (blank, ((full_deck - h1, full_deck - h2, frozenset(), frozenset()), h1, h2))
            for h1 in hands0
            for h2 in hands0
        ]

    tau = [{}, {}, {}]
    seen = set(initial)
    frontier = list(initial)
    while frontier:
        grown = []
        for s in frontier:
            _, priv = s
            options = []
            for hand in (priv[1], priv[2]):
                if hand:
                    options.append([frozenset({c}) for c in sorted(hand)])
                else:
                    options.append([frozenset()])
            for c1, c2 in itertools.product(*options):
                ext = (EPSILON, c1, c2)
                if modeling == "simple":
                    p0 = "1"
                else:
                    d1, d2, f1, f2 = priv[0]
                    p0 = (d1 | f1, d2 | f2, c1, c2)
                tau[0][(ext, EPSILON, priv[0])] = p0
                tau[1][(ext, EPSILON, priv[1])] = priv[1] - c1
                tau[2][(ext, EPSILON, priv[2])] = priv[2] - c2
                t = (ext, (p0, priv[1] - c1, priv[2] - c2))
                if t not in seen:
                    seen.add(t)
                    grown.append(t)
        frontier = grown

    pools = [set(), set(), set()]
    for _, priv in seen:
        for i in range(3):
            pools[i].add(priv[i])
    valuation = {
        s: ("face_up_matches",)
        for s in seen
        if isinstance(s[0][1], frozenset) and len(s[0][1]) == 1 and s[0][1] == s[0][2]
    }
    common = dict(
        external_actions=((EPSILON,), plays, plays),
        internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
        private_states=tuple(pools),
        transitions=tau,
        valuation=valuation,
    )
    if modeling == "simple":
        env = BroadcastEnvironment(n, initial_private=(("1",), hands0, hands0), **common)
    else:
        env = BroadcastEnvironment(n, initial_states=initial, **common)
    return env, play_any_card_protocol(n)


def recall_map_is_isomorphism(fr: Frame, members: tuple, coords: dict) -> bool:
    """True iff tr -> coords[tr] is an isomorphism from the component onto
    the F image of its coordinate tuples: the tuples are distinct, and agent
    i relates two members exactly when their i-th coordinates agree."""
    width = len(coords[members[0]])
    if fr.n != width - 1:
        raise ValueError(f"agent counts differ: {fr.n} vs {width - 1}")
    if len(set(coords.values())) != len(members):
        return False
    for i in fr.agents:
        sharing: dict = {}
        for tr in members:
            sharing.setdefault(coords[tr][i], set()).add(tr)
        if any(fr.succ(i, tr) != sharing[coords[tr][i]] for tr in members):
            return False
    return True


def verify_hypercube_decomposition_by_exits(fr: Frame, *, mode: str = "hypercube"):
    """verify_hypercube_decomposition with one report and exit per failed check."""
    if mode not in ("hypercube", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    for members in component_members(fr):
        shared = action_sequence(members[0])
        mismatch = next(
            (tr for tr in members if action_sequence(tr) != shared), None
        )
        if mismatch is not None:
            reports.append(
                ComponentReport(members, None, (), False, "action-mismatch",
                                (members[0], mismatch))
            )
            continue
        width = len(members[0][0][1])
        coords = {
            tr: tuple(perfect_recall_state(tr, i) for i in range(width))
            for tr in members
        }
        axes = [list(dict.fromkeys(coords[tr][i] for tr in members)) for i in range(width)]
        axis_sizes = tuple(len(axis) for axis in axes)
        product_size = math.prod(axis_sizes)
        realized = set(coords.values())
        if mode == "hypercube" and len(realized) != product_size:
            missing = next(
                t for t in itertools.product(*axes) if t not in realized
            )
            reports.append(
                ComponentReport(members, shared, axis_sizes, False,
                                "missing-tuple", (missing,))
            )
            continue
        if mode == "full":
            seen = {c[1:] for c in realized}
            if len(seen) != product_size // axis_sizes[0]:
                hole = next(
                    combo
                    for combo in itertools.product(
                        *(sorted(axis, key=world_key) for axis in axes[1:])
                    )
                    if combo not in seen
                )
                reports.append(
                    ComponentReport(members, shared, axis_sizes, False,
                                    "not-full", (hole,))
                )
                continue
        if not recall_map_is_isomorphism(fr, members, coords):
            reports.append(
                ComponentReport(members, shared, axis_sizes, False,
                                "not-isomorphic", ())
            )
            continue
        reports.append(ComponentReport(members, shared, axis_sizes, True))
    return DecompositionReport(tuple(reports), all(r.ok for r in reports))


def generate_frame_by_traces(e: BroadcastEnvironment, p: JointProtocol, depth: int) -> Frame:
    """generate_frame with the joint actions after each trace asked of
    enabled_joint_actions, which checks every agent's actions again."""
    level = [(s,) for s in e.initial_states]
    worlds = list(level)
    for _ in range(depth - 1):
        grown = {}
        for tr in level:
            for joint in sorted(enabled_joint_actions(e, p, tr), key=key_by_json_dumps):
                grown.setdefault(tr + (_apply(e, tr[-1], joint),), None)
        level = list(grown)
        worlds.extend(level)
    return frame_by_label_pairs(e.n, worlds, lambda i, tr: perfect_recall_state(tr, i))


def pruned_card_frame() -> tuple:
    """The deck-4/hand-2 card-game frame at depth 2 without the middle trace
    of its first 9-member component, and that trace."""
    env, proto = build_card_game(4, 2)
    fr = generate_frame(env, proto, 2)
    report = verify_hypercube_decomposition(fr)
    victim = next(c for c in report.components if len(c.members) == 9).members[4]
    keep = set(fr.worlds) - {victim}
    relations = [{(a, b) for a, b in rel if a in keep and b in keep} for rel in fr.relations]
    return Frame(2, [tr for tr in fr.worlds if tr != victim], relations), victim


def merged_card_frame() -> tuple:
    """The deck-4/hand-2 card-game frame at depth 2 with two of agent 1's
    classes in its first 9-member component merged into one, and that
    component's members."""
    env, proto = build_card_game(4, 2)
    fr = generate_frame(env, proto, 2)
    report = verify_hypercube_decomposition(fr)
    victim = next(c for c in report.components if len(c.members) == 9)
    first = victim.members[0]
    other = next(
        tr for tr in victim.members
        if perfect_recall_state(tr, 1) != perfect_recall_state(first, 1)
    )
    merged = fr.succ(1, first) | fr.succ(1, other)
    agent1 = set(fr.relations[0]) | {(a, b) for a in merged for b in merged}
    return Frame(2, fr.worlds, [agent1, fr.relations[1]]), victim.members


def glued_card_frame() -> Frame:
    """Two depth-2 traces of the deck-2/hand-1 card game with different
    action sequences, related by agent 1."""
    env, proto = build_card_game(2, 1)
    fr = generate_frame(env, proto, 2)
    long = [tr for tr in fr.worlds if len(tr) == 2]
    a, b = next(
        (x, y) for x in long for y in long
        if action_sequence(x) != action_sequence(y)
    )
    return Frame(2, [a, b], [{(a, a), (b, b), (a, b), (b, a)}, {(a, a), (b, b)}])


def random_broadcast_environment(rng: random.Random) -> tuple:
    """A random broadcast environment and joint table protocol.

    n is 1..3.  Every agent, the environment (agent 0) too, has 1-2 external
    actions (EPSILON among them), 1-2 internal actions and 1-2 private
    states.  The initial set is a product of nonempty per-agent subsets
    (homogeneous) or, one time in three, a random nonempty subset of the
    product of the private states (homogeneous or not).  Every transition
    table is total, and every protocol table, the environment's unless it is
    passive, enables 1-2 action pairs at each observation.
    """
    n = rng.randint(1, 3)
    agents = range(n + 1)

    def some(names):
        return tuple(rng.sample(names, rng.randint(1, len(names))))

    external = tuple((EPSILON, f"x{i}")[: rng.randint(1, 2)] for i in agents)
    internal = tuple(some((EPSILON, f"b{i}")) for i in agents)
    private = tuple(some((f"p{i}", f"q{i}")) for i in agents)
    joints = list(itertools.product(*external))

    def table(i):
        actions = list(itertools.product(external[i], internal[i]))
        return {
            (ext, p): rng.sample(actions, min(len(actions), rng.randint(1, 2)))
            for ext in joints
            for p in private[i]
        }

    if rng.random() < 1 / 3:
        product = list(itertools.product(*private))
        blank = (EPSILON,) * (n + 1)
        initial = {"initial_states": [(blank, s) for s in some(product)]}
    else:
        initial = {"initial_private": tuple(some(pool) for pool in private)}
    passive = EPSILON in internal[0] and rng.random() < 0.5
    env = BroadcastEnvironment(
        n,
        external_actions=external,
        internal_actions=internal,
        private_states=private,
        env_protocol=None if passive else table(0),
        transitions=tuple(
            {(ext, b, p): rng.choice(private[i])
             for ext in joints for b in internal[i] for p in private[i]}
            for i in agents
        ),
        **initial,
    )
    protocol = JointProtocol(tuple(AgentProtocol("table", table(i)) for i in agents[1:]))
    return env, protocol
