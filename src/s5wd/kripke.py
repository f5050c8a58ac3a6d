"""Finite Kripke frames and models: satisfaction, frame properties, morphisms.

Worlds are arbitrary hashable identifiers (strings when loaded from JSON,
tuples in product constructions).  Relations are explicit pair sets, one per
agent, indexed 1..n.  All values are immutable after construction and all
operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .formula import (
    AgentIndexError,
    Atom,
    Box,
    Diamond,
    Dist,
    Formula,
    And,
    Implies,
    Not,
    Or,
    Some,
    children,
    has_node,
    subformulas,
)

_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


class BudgetError(RuntimeError):
    """A configurable resource bound was exceeded."""


def _plain(value):
    """JSON-ready form of a world identifier; frozensets become sorted lists."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, (set, frozenset)):
        items = [_plain(v) for v in value]
        items.sort(key=lambda x: json.dumps(x, separators=(",", ":")))
        return items
    raise TypeError(f"world component is not serializable: {value!r}")


def world_key(w) -> str:
    """Canonical string form of a world identifier, used as a JSON key."""
    if isinstance(w, str):
        return w
    return json.dumps(_plain(w), separators=(",", ":"))


@dataclass(frozen=True)
class Frame:
    """Finite frame (W, R_1..R_n); relations[i-1] holds agent i's world pairs.

    The constructor accepts relations as a length-n sequence of pair iterables
    or as a mapping keyed by agent index (int or string).
    """

    n: int
    worlds: tuple
    relations: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("agent count n must be at least 1")
        worlds = tuple(self.worlds)
        if not worlds:
            raise ValueError("worlds must be nonempty")
        world_set = set(worlds)
        if len(world_set) != len(worlds):
            raise ValueError("worlds must be distinct")
        rels = self.relations
        if isinstance(rels, Mapping):
            rels = [rels.get(i, rels.get(str(i), ())) for i in range(1, self.n + 1)]
        rels = tuple(rels)
        if len(rels) != self.n:
            raise ValueError(f"expected {self.n} relations, got {len(rels)}")
        cooked = []
        for pairs in rels:
            rel = set()
            for pair in pairs:
                w, u = pair
                if w not in world_set or u not in world_set:
                    raise ValueError(f"relation pair ({w!r}, {u!r}) references an unknown world")
                rel.add((w, u))
            cooked.append(frozenset(rel))
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "relations", tuple(cooked))
        index = {w: k for k, w in enumerate(worlds)}
        succ = []
        # equal successor sets share one object, so tuples of them (the join
        # test's memo keys) compare by identity instead of element by element
        shared: dict = {}
        for rel in cooked:
            table = {w: set() for w in worlds}
            for w, u in rel:
                table[w].add(u)
            for w, v in table.items():
                v = frozenset(v)
                table[w] = shared.setdefault(v, v)
            succ.append(table)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_succ", tuple(succ))

    @property
    def agents(self) -> range:
        return range(1, self.n + 1)

    def has_world(self, w) -> bool:
        return w in self._index

    def index(self, w) -> int:
        """Position of w in the frame's world order."""
        try:
            return self._index[w]
        except KeyError:
            raise ValueError(f"unknown world {w!r}") from None

    def _check_agent(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise AgentIndexError(f"agent index {i} out of range 1..{self.n}")

    def succ(self, i: int, w) -> frozenset:
        """R_i-successors of w."""
        self._check_agent(i)
        self.index(w)
        return self._succ[i - 1][w]

    def neighborhood(self, w) -> frozenset:
        """Worlds one step from w under any relation."""
        out = set()
        for table in self._succ:
            out |= table[w]
        return frozenset(out)

    def isucc(self, w) -> frozenset:
        """Successors of w under the intersection of all relations."""
        out = self._succ[0][w]
        for table in self._succ[1:]:
            out = out & table[w]
        return out


@dataclass(frozen=True)
class Model:
    """Model (frame, pi): the valuation assigns each world its true atoms.

    The constructor accepts the valuation as a mapping world -> list, tuple
    or set of atom names; missing worlds get the empty set.  Stored
    canonically as a tuple of (world, sorted atom tuple) pairs in frame world
    order.
    """

    frame: Frame
    valuation: tuple

    def __post_init__(self):
        raw = self.valuation
        items = dict(raw) if not isinstance(raw, Mapping) else dict(raw)
        for w in items:
            if not self.frame.has_world(w):
                raise ValueError(f"valuation references an unknown world {w!r}")
        cooked = []
        for w in self.frame.worlds:
            names = items.get(w, ())
            if not isinstance(names, (list, tuple, set, frozenset)):
                # a string would otherwise be read as its characters
                raise ValueError(f"valuation of world {w!r} is not a list of atoms: {names!r}")
            names = tuple(sorted(set(names)))
            for name in names:
                if not isinstance(name, str) or not _ATOM_RE.fullmatch(name):
                    raise ValueError(f"bad atom name {name!r}")
            cooked.append((w, names))
        object.__setattr__(self, "valuation", tuple(cooked))
        object.__setattr__(self, "_atoms_at", {w: frozenset(names) for w, names in cooked})

    def atoms_at(self, w) -> frozenset:
        """Atom names true at w."""
        try:
            return self._atoms_at[w]
        except KeyError:
            raise ValueError(f"unknown world {w!r}") from None


def frame_of(x: Union[Frame, Model]) -> Frame:
    """The frame of x, whether x is a Frame or a Model."""
    return x if isinstance(x, Frame) else x.frame


@dataclass(frozen=True)
class WorldMap:
    """Total map between the world sets of two frames or models.

    The constructor accepts the mapping as a dict or pair iterable; it is
    stored as a tuple of (source world, target world) pairs in source world
    order.  Totality and image containment are enforced.
    """

    source: Union[Frame, Model]
    target: Union[Frame, Model]
    mapping: tuple

    def __post_init__(self):
        src = frame_of(self.source)
        tgt = frame_of(self.target)
        items = dict(self.mapping)
        for w in items:
            if not src.has_world(w):
                raise ValueError(f"map key {w!r} is not a source world")
        for w in src.worlds:
            if w not in items:
                raise ValueError(f"map is not total: {w!r} has no image")
        for u in items.values():
            if not tgt.has_world(u):
                raise ValueError(f"map value {u!r} is not a target world")
        cooked = tuple((w, items[w]) for w in src.worlds)
        object.__setattr__(self, "mapping", cooked)
        object.__setattr__(self, "_table", dict(cooked))

    def __call__(self, w):
        try:
            return self._table[w]
        except KeyError:
            raise ValueError(f"unknown world {w!r}") from None

    def as_dict(self) -> dict:
        return dict(self.mapping)


@dataclass(frozen=True)
class MorphismReport:
    """Outcome of a morphism check; falsy when a clause fails.

    clause is one of "surjectivity", "forward", "back", "valuation"; witness
    pins down the first violation found.
    """

    ok: bool
    clause: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return f"{self.clause} fails at {self.witness!r}"


def _check_formula(fr: Frame, f: Formula) -> None:
    for g in subformulas(f):
        if isinstance(g, (Box, Diamond)):
            fr._check_agent(g.agent)
    if has_node(f, Dist) and not check_equivalence(fr):
        raise ValueError("the D operator requires an equivalence model")


def _compile(f: Formula) -> list:
    """f as a hash-consed DAG: (kind, arg, child ids) nodes, children before
    parents, root last.  kind is the node class and arg the atom name or the
    agent index (else None).  Nodes are keyed by kind, arg and child ids, so
    equal subformulas share one id without hashing formula trees."""
    nodes: list = []
    ids: dict = {}
    done: dict = {}  # id() of a formula object -> its node id; f keeps them alive
    stack = [(f, False)]
    while stack:
        g, ready = stack.pop()
        if id(g) in done:
            continue
        kids = children(g)
        if not ready:
            stack.append((g, True))
            stack.extend((c, False) for c in reversed(kids))
            continue
        kind = type(g)
        arg = g.name if kind is Atom else g.agent if kind in (Box, Diamond) else None
        key = (kind, arg, tuple(done[id(c)] for c in kids))
        node = ids.get(key)
        if node is None:
            node = ids[key] = len(nodes)
            nodes.append(key)
        done[id(g)] = node
    return nodes


class _Kernel:
    """A compiled formula evaluated on one frame for a batch of valuations.

    Each world's truth value is one int with one bit per valuation of the
    batch, so the boolean connectives act on the whole batch at once.  Worlds
    sharing a successor set share a modal result, so each distinct successor
    set is folded once per modal node.
    """

    def __init__(self, fr: Frame, nodes: list):
        self.frame = fr
        self.nodes = nodes
        self._groups: dict = {}

    def _modal_groups(self, kind, agent) -> list:
        key = agent if kind in (Box, Diamond) else kind
        groups = self._groups.get(key)
        if groups is None:
            fr = self.frame
            if kind is Some:
                succ = fr.neighborhood
            elif kind is Dist:
                succ = fr.isucc
            else:
                succ = fr._succ[agent - 1].__getitem__
            members: dict = {}
            for k, w in enumerate(fr.worlds):
                members.setdefault(succ(w), []).append(k)
            groups = [(ks, [fr._index[u] for u in s]) for s, ks in members.items()]
            self._groups[key] = groups
        return groups

    def run(self, atom_value, full: int) -> list:
        """Root value per world in world order; atom_value(name) gives an
        atom's per-world values and full has a bit set for every valuation."""
        values: list = []
        size = len(self.frame.worlds)
        for kind, arg, kids in self.nodes:
            if kind is Atom:
                out = atom_value(arg)
            elif kind is Not:
                out = [full ^ x for x in values[kids[0]]]
            elif kind in (Box, Diamond, Some, Dist):
                child = values[kids[0]]
                fold, empty = (operator.and_, full) if kind in (Box, Dist) else (operator.or_, 0)
                out = [0] * size
                for members, succ in self._modal_groups(kind, arg):
                    acc = functools.reduce(fold, [child[u] for u in succ], empty)
                    for k in members:
                        out[k] = acc
            else:
                pairs = zip(values[kids[0]], values[kids[1]])
                if kind is And:
                    out = [a & b for a, b in pairs]
                elif kind is Or:
                    out = [a | b for a, b in pairs]
                elif kind is Implies:
                    out = [(full ^ a) | b for a, b in pairs]
                else:  # Iff
                    out = [full ^ a ^ b for a, b in pairs]
            values.append(out)
        return values[-1]


def extension(m: Model, f: Formula) -> frozenset:
    """Worlds of m at which f holds: the kernel run on the one valuation of m."""
    fr = m.frame
    _check_formula(fr, f)
    nodes = _compile(f)
    truths = [m.atoms_at(w) for w in fr.worlds]
    root = _Kernel(fr, nodes).run(lambda name: [int(name in t) for t in truths], 1)
    return frozenset(w for w, x in zip(fr.worlds, root) if x)


def satisfies(m: Model, w, f: Formula) -> bool:
    """True iff f holds at world w of m."""
    m.frame.index(w)
    return w in extension(m, f)


def valid_on_model(m: Model, f: Formula) -> bool:
    """True iff f holds at every world of m."""
    return len(extension(m, f)) == len(m.frame.worlds)


# valuations per kernel batch: bounds memory to nodes * worlds * 512 bytes
_BATCH_BITS = 12


def find_frame_countermodel(
    fr: Frame, f: Formula, *, max_assignments: int = 2**20
) -> Optional[tuple]:
    """First (model, world) falsifying f over valuations of f's atoms, or None.

    Valuations range only over the atoms occurring in f; other atoms cannot
    affect satisfaction.  Valuation v sets atom j at the world in position w
    iff bit (N - 1 - (w * #atoms + j)) of v is set, N = |W| * #atoms: the
    itertools.product order over (world, atom) truth values.  Valuations are
    evaluated in order, 2^_BATCH_BITS at a time as bits of one int per world,
    and the witness is the lowest falsifying valuation and then the first
    world in world order.  Raises BudgetError when 2^N exceeds
    max_assignments.
    """
    nodes = _compile(f)
    names = sorted({arg for kind, arg, _ in nodes if kind is Atom})
    k = len(names)
    size = len(fr.worlds)
    bits = size * k
    if 2**bits > max_assignments:
        raise BudgetError(
            f"frame validity needs 2^{bits} valuations, over budget {max_assignments}"
        )
    _check_formula(fr, f)
    kernel = _Kernel(fr, nodes)
    batch = min(bits, _BATCH_BITS)
    full = (1 << (1 << batch)) - 1
    # column[b]: bit t set iff bit b of t is set, for t < 2^batch
    column = [
        full // ((1 << (2 << b)) - 1) * (((1 << (1 << b)) - 1) << (1 << b))
        for b in range(batch)
    ]
    position = {name: j for j, name in enumerate(names)}
    for start in range(0, 1 << bits, 1 << batch):

        def atom_value(name):
            out = []
            for w in range(size):
                b = bits - 1 - (w * k + position[name])
                out.append(column[b] if b < batch else full * (start >> b & 1))
            return out

        root = kernel.run(atom_value, full)
        falsified = 0
        for x in root:
            falsified |= full ^ x
        if falsified:
            t = (falsified & -falsified).bit_length() - 1
            v = start + t
            w = next(w for w, x in zip(fr.worlds, root) if not x >> t & 1)
            valuation = {
                u: [names[j] for j in range(k) if v >> (bits - 1 - (ui * k + j)) & 1]
                for ui, u in enumerate(fr.worlds)
            }
            return (Model(fr, valuation), w)
    return None


def valid_on_frame(fr: Frame, f: Formula, *, max_assignments: int = 2**20) -> bool:
    """True iff f holds at every world under every valuation of its atoms."""
    return find_frame_countermodel(fr, f, max_assignments=max_assignments) is None


def _relation_is_equivalence(fr: Frame, i: int) -> bool:
    table = fr._succ[i - 1]
    for w in fr.worlds:
        s = table[w]
        if w not in s:
            return False
        for u in s:
            if table[u] != s:
                return False
    return True


def check_equivalence(fr: Frame) -> bool:
    """True iff every relation is reflexive, symmetric, and transitive."""
    cached = getattr(fr, "_equivalence_cache", None)
    if cached is None:
        cached = all(_relation_is_equivalence(fr, i) for i in fr.agents)
        object.__setattr__(fr, "_equivalence_cache", cached)
    return cached


def check_i(fr: Frame) -> bool:
    """True iff the intersection of all relations is the identity."""
    return all(fr.isucc(w) == frozenset((w,)) for w in fr.worlds)


def _distinct_successors(fr: Frame, worlds) -> tuple:
    """Per agent, the distinct successor sets of the members of worlds.

    Only these matter to the join test, which keeps its product small on
    large symmetric frames.
    """
    return tuple(frozenset(table[w] for w in worlds) for table in fr._succ)


def _all_joined(family: tuple, known: dict) -> bool:
    """True iff every tuple (S_1..S_n), S_i drawn from family[i-1], has a
    common member; known memoizes tuple verdicts."""
    for combo in itertools.product(*family):
        verdict = known.get(combo)
        if verdict is None:
            verdict = known[combo] = bool(frozenset.intersection(*combo))
        if not verdict:
            return False
    return True


def check_d(fr: Frame) -> bool:
    """True iff every n-tuple (w_1..w_n) has a join w with w_i R_i w for all i."""
    return _all_joined(_distinct_successors(fr, fr.worlds), {})


def check_wd(fr: Frame) -> bool:
    """True iff all w_1..w_n in a common one-step neighborhood have a join.

    Tests the condition: whenever each w_i (i = 1..n) is one step from some
    common w_0 under any relation, some w satisfies w_i R_i w for all i.
    Neighborhoods with the same distinct successor sets share one verdict.
    """
    known: dict = {}
    # kept apart from known: the family of an empty neighborhood equals the
    # tuple of n empty successor sets, which has the opposite verdict
    families: dict = {}
    for w0 in fr.worlds:
        family = _distinct_successors(fr, fr.neighborhood(w0))
        if family not in families:
            families[family] = _all_joined(family, known)
        if not families[family]:
            return False
    return True


def equivalence_classes(fr: Frame, i: int) -> tuple:
    """Classes of R_i ordered by first world, each a tuple in world order."""
    fr._check_agent(i)
    if not getattr(fr, "_equivalence_cache", False) and not _relation_is_equivalence(fr, i):
        raise ValueError(f"relation {i} is not an equivalence relation")
    return _group_by(fr.worlds, fr._succ[i - 1].__getitem__)


def _group_by(worlds, key) -> tuple:
    """Worlds grouped by key(w), groups ordered by first world, each in world order."""
    groups: dict = {}
    for w in worlds:
        groups.setdefault(key(w), []).append(w)
    return tuple(tuple(g) for g in groups.values())


def _restrict(x: Union[Frame, Model], members: tuple) -> Union[Frame, Model]:
    # members is a connected component, so it holds every successor of its worlds
    fr = frame_of(x)
    rels = [[(w, u) for w in members for u in table[w]] for table in fr._succ]
    piece = Frame(fr.n, members, rels)
    if isinstance(x, Frame):
        return piece
    return Model(piece, {w: x.atoms_at(w) for w in members})


def component_members(x: Union[Frame, Model]) -> list:
    """World tuples of the components of the union of all relations,
    symmetrically closed; worlds keep their relative order and components are
    ordered by first world."""
    fr = frame_of(x)
    index = fr._index
    root = list(range(len(fr.worlds)))

    def find(k: int) -> int:
        while root[k] != k:
            root[k] = k = root[root[k]]
        return k

    # union-find over world indices: each world joins its successors.  Equal
    # successor sets are one object, so the members of each set are joined
    # once and every later holder of it joins the first.
    holder: dict = {}
    for table in fr._succ:
        for w, s in table.items():
            if not s:
                continue
            if s not in holder:
                holder[s] = w
                r = find(index[w])
                for u in s:
                    root[find(index[u])] = r
            else:
                root[find(index[w])] = find(index[holder[s]])
    groups: dict = {}
    for k, w in enumerate(fr.worlds):
        groups.setdefault(find(k), []).append(w)
    return [tuple(g) for g in groups.values()]


def connected_components(x: Union[Frame, Model]) -> list:
    """(restricted frame-or-model, world tuple) pairs, one per component of
    component_members(x), in its order."""
    return [(_restrict(x, members), members) for members in component_members(x)]


def is_connected(x: Union[Frame, Model]) -> bool:
    return len(component_members(x)) == 1


def generated_submodel(m: Model, w) -> Model:
    """The connected component of m containing w; satisfaction at w is preserved."""
    m.frame.index(w)
    for members in component_members(m):
        if w in members:
            return _restrict(m, members)
    raise AssertionError("unreachable")


def disjoint_union(a: Frame, b: Frame) -> Frame:
    """Disjoint union; worlds are tagged (0, w) from a and (1, w) from b."""
    if a.n != b.n:
        raise ValueError(f"agent counts differ: {a.n} vs {b.n}")
    worlds = tuple((0, w) for w in a.worlds) + tuple((1, w) for w in b.worlds)
    rels = []
    for i in range(a.n):
        pairs = {((0, w), (0, u)) for (w, u) in a.relations[i]}
        pairs |= {((1, w), (1, u)) for (w, u) in b.relations[i]}
        rels.append(pairs)
    return Frame(a.n, worlds, rels)


def _initial_color(x: Union[Frame, Model], pred: list, w) -> tuple:
    fr = frame_of(x)
    degrees = tuple((len(fr._succ[i][w]), len(pred[i][w])) for i in range(fr.n))
    if isinstance(x, Model):
        return (degrees, tuple(sorted(x.atoms_at(w))))
    return (degrees, ())


def _predecessors(fr: Frame) -> list:
    pred = [{w: set() for w in fr.worlds} for _ in range(fr.n)]
    for i, rel in enumerate(fr.relations):
        for w, u in rel:
            pred[i][u].add(w)
    return pred


def find_isomorphism(
    a: Union[Frame, Model], b: Union[Frame, Model], *, max_worlds: int = 12
) -> Optional[WorldMap]:
    """A structure-preserving bijection from a to b, or None.

    Model arguments must agree on atoms world by world.  Uses joint color
    refinement, then backtracking with forward checking, trying the most
    constrained world first.  Raises BudgetError when either side has more
    than max_worlds worlds.
    """
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

    # worlds are indices into fa.worlds and fb.worlds; sets of b worlds are
    # int masks, bit k standing for fb.worlds[k]
    sa, pa = _mask_tables(fa, fa._succ), _mask_tables(fa, pred_a)
    sb, pb = _mask_tables(fb, fb._succ), _mask_tables(fb, pred_b)

    def loops(tables: list, k: int) -> tuple:
        return tuple(table[k] >> k & 1 for table in tables)

    # a world may map to the b worlds of its color with its self-loops
    same_color = {c: _mask(fb._index, ws) for c, ws in buckets_b.items()}
    same_loops: dict = {}
    for t in range(len(fb.worlds)):
        same_loops[loops(sb, t)] = same_loops.get(loops(sb, t), 0) | 1 << t
    domains = {}
    for k, w in enumerate(fa.worlds):
        domains[k] = same_color[colors[("a", w)]] & same_loops.get(loops(sa, k), 0)
        if not domains[k]:
            return None

    def narrow(rest: dict, w: int, v: int) -> Optional[dict]:
        # forward checking: u may map to t only if u relates to w, both ways
        # and under every agent, as t relates to v; a test equal to one
        # already listed (symmetric relations, equal agents) is dropped
        tests: list = []
        for i in range(fa.n):
            for x, y in ((sa[i][w], sb[i][v]), (pa[i][w], pb[i][v])):
                if (x, y, ~y) not in tests:
                    tests.append((x, y, ~y))
        clear = ~(1 << v)
        out = {}
        for u, dom in rest.items():
            dom &= clear
            for x, y, not_y in tests:
                dom &= y if x >> u & 1 else not_y
            if not dom:
                return None
            out[u] = dom
        return out

    # backtracking on an explicit stack, so depth is not bounded by the
    # recursion limit; entries are [world, image, untried images, domains of
    # the other worlds unassigned before it], deepest last
    stack: list = []
    while domains:
        w = min(domains, key=lambda u: (domains[u].bit_count(), u))
        stack.append([w, None, domains.pop(w), domains])
        while True:
            if not stack:
                return None
            entry = stack[-1]
            w, _, untried, rest = entry
            narrowed = None
            while untried and narrowed is None:
                v = _lowest(untried)
                untried ^= 1 << v
                narrowed = narrow(rest, w, v)
            if narrowed is None:
                stack.pop()
                continue
            entry[1], entry[2] = v, untried
            domains = narrowed
            break
    return WorldMap(a, b, {fa.worlds[w]: fb.worlds[v] for w, v, _, _ in stack})


def _mask(index: dict, worlds) -> int:
    """Int with bit index[w] set for each w in worlds."""
    return sum(1 << index[w] for w in worlds)


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _mask_tables(fr: Frame, tables) -> list:
    """Per agent, the mask of tables[i][w] for each world w in world order."""
    return [[_mask(fr._index, table[w]) for w in fr.worlds] for table in tables]


def check_p_morphism(wm: WorldMap) -> MorphismReport:
    """Verify surjectivity, forward homomorphism, and back-simulation.

    Falsy report names the first violated clause with a witness:
    ("surjectivity", (uncovered target,)), ("forward", (agent, w, v)) for an
    edge (w, v) whose image is not an edge, ("back", (agent, w, u)) for a
    target successor u of the image of w with no preimage among w's
    successors.
    """
    src = frame_of(wm.source)
    tgt = frame_of(wm.target)
    if src.n != tgt.n:
        raise ValueError(f"agent counts differ: {src.n} vs {tgt.n}")
    image = {wm(w) for w in src.worlds}
    for u in tgt.worlds:
        if u not in image:
            return MorphismReport(False, "surjectivity", (u,))
    for i in src.agents:
        for w in src.worlds:
            target_succ = tgt.succ(i, wm(w))
            for v in sorted(src.succ(i, w), key=src.index):
                if wm(v) not in target_succ:
                    return MorphismReport(False, "forward", (i, w, v))
    for i in src.agents:
        for w in src.worlds:
            mapped = {wm(v) for v in src.succ(i, w)}
            for u in sorted(tgt.succ(i, wm(w)), key=tgt.index):
                if u not in mapped:
                    return MorphismReport(False, "back", (i, w, u))
    return MorphismReport(True)


def check_model_p_morphism(wm: WorldMap) -> MorphismReport:
    """Frame clauses plus world-by-world atom agreement between the models."""
    if not isinstance(wm.source, Model) or not isinstance(wm.target, Model):
        raise ValueError("model p-morphism check needs Model source and target")
    report = check_p_morphism(wm)
    if not report:
        return report
    for w in wm.source.frame.worlds:
        if wm.source.atoms_at(w) != wm.target.atoms_at(wm(w)):
            return MorphismReport(False, "valuation", (w, wm(w)))
    return MorphismReport(True)


def frame_to_json(fr: Frame) -> dict:
    """JSON-ready dict; worlds and relation pairs follow frame world order."""
    keys = [world_key(w) for w in fr.worlds]
    rels = {}
    for i, table in enumerate(fr._succ, 1):
        rels[str(i)] = [
            [keys[k], keys[j]]
            for k, w in enumerate(fr.worlds)
            for j in sorted(map(fr._index.__getitem__, table[w]))
        ]
    return {"n": fr.n, "worlds": keys, "relations": rels}


def frame_from_labels(n: int, worlds: Iterable, label) -> Frame:
    """Equivalence frame in which agent i relates two worlds iff their
    labels label(i, w) are equal."""
    worlds = tuple(worlds)
    rels = []
    for i in range(1, n + 1):
        blocks = _group_by(worlds, functools.partial(label, i))
        rels.append([(w, u) for block in blocks for w in block for u in block])
    return Frame(n, worlds, rels)


def _block_labels(worlds: tuple, blocks) -> dict:
    """Block index of each world; blocks must partition worlds exactly."""
    label = {}
    for k, block in enumerate(blocks):
        for w in block:
            if w in label:
                raise ValueError(f"world {w!r} appears in two partition blocks")
            label[w] = k
    for w in worlds:
        if w not in label:
            raise ValueError(f"world {w!r} is missing from the partition")
    known = set(worlds)
    for w in label:
        if w not in known:
            raise ValueError(f"partition block names an unknown world {w!r}")
    return label


def frame_from_json(data: Mapping) -> Frame:
    """Load a frame from the JSON dict form; accepts relations or partitions."""
    n = data["n"]
    worlds = tuple(data["worlds"])
    if "relations" in data and "partitions" in data:
        raise ValueError("give either 'relations' or 'partitions', not both")
    if "partitions" in data:
        parts = data["partitions"]
        partitions = []
        for i in range(1, n + 1):
            blocks = parts.get(str(i), parts.get(i))
            if blocks is None:
                raise ValueError(f"missing partition for agent {i}")
            partitions.append(blocks)
        return frame_from_partitions(n, worlds, partitions)
    if "relations" not in data:
        raise ValueError("frame JSON needs 'relations' or 'partitions'")
    rels = data["relations"]
    return Frame(
        n,
        worlds,
        {i: [tuple(p) for p in rels.get(str(i), rels.get(i, ()))] for i in range(1, n + 1)},
    )


def frame_from_partitions(n: int, worlds: Iterable, partitions) -> Frame:
    """Equivalence frame from one block list per agent."""
    worlds = tuple(worlds)
    partitions = list(partitions)
    if len(partitions) != n:
        raise ValueError(f"expected {n} partitions, got {len(partitions)}")
    labels = [_block_labels(worlds, blocks) for blocks in partitions]
    return frame_from_labels(n, worlds, lambda i, w: labels[i - 1][w])


def model_to_json(m: Model) -> dict:
    data = frame_to_json(m.frame)
    data["valuation"] = {world_key(w): list(names) for w, names in m.valuation}
    return data


def model_from_json(data: Mapping) -> Model:
    fr = frame_from_json(data)
    raw = data.get("valuation", {})
    by_key = {world_key(w): w for w in fr.worlds}
    valuation = {}
    for key, names in raw.items():
        if key not in by_key:
            raise ValueError(f"valuation references an unknown world {key!r}")
        valuation[by_key[key]] = names
    return Model(fr, valuation)


def world_map_to_json(wm: WorldMap) -> dict:
    return {"map": {world_key(w): world_key(u) for w, u in wm.mapping}}


def world_map_from_json(
    data: Mapping, source: Union[Frame, Model], target: Union[Frame, Model]
) -> WorldMap:
    src_by_key = {world_key(w): w for w in frame_of(source).worlds}
    tgt_by_key = {world_key(w): w for w in frame_of(target).worlds}
    mapping = {}
    for key, value in data["map"].items():
        if key not in src_by_key:
            raise ValueError(f"map key {key!r} is not a source world")
        if value not in tgt_by_key:
            raise ValueError(f"map value {value!r} is not a target world")
        mapping[src_by_key[key]] = tgt_by_key[value]
    return WorldMap(source, target, mapping)
