"""Finite Kripke frames and models: satisfaction, frame properties, morphisms.

Worlds are arbitrary hashable identifiers (strings when loaded from JSON,
tuples in product constructions).  A frame stores one successor table per
agent, indexed 1..n, mapping each world to its successor frozenset; its pair
sets are derived on first access.  All values are immutable after
construction and all operations are pure.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import FrozenInstanceError, dataclass
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Mapping, NamedTuple, Optional, Union

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
    _ATOM_PATTERN,
    _compile,
    _compile_all,
)

_ATOM_RE = re.compile(_ATOM_PATTERN)

# the most agents a frame document or enumeration may name: each costs a table
MAX_AGENTS = 1000


class BudgetError(RuntimeError):
    """A configurable resource bound was exceeded."""


def _json_encoder(sequences: tuple, set_form: str):
    """An encoder of nested values to compact JSON text, as json.dumps with
    separators=(",", ":") writes it.  Instances of the sequences types become
    arrays, and a set becomes set_form with its members' texts, sorted as
    strings, in place of %s.  Anything else but a string, an int, a bool or
    None raises TypeError."""

    def encode(value) -> str:
        if isinstance(value, str):
            return _json_string(value)
        if isinstance(value, sequences):
            return "[" + ",".join(map(encode, value)) + "]"
        if isinstance(value, (set, frozenset)):
            return set_form % ",".join(sorted(map(encode, value)))
        if value is None:
            return "null"
        if value is True:
            return "true"
        if value is False:
            return "false"
        if isinstance(value, int):
            return int.__repr__(value)
        raise TypeError(f"value is not serializable: {value!r}")

    return encode


_world_text = _json_encoder((tuple, list), "[%s]")


def world_key(w) -> str:
    """Canonical string form of a world identifier, used as a JSON key: a
    string is itself, anything else its compact JSON text with tuples and
    lists as arrays and sets as arrays sorted by member text."""
    if isinstance(w, str):
        return w
    return _world_text(w)


class _Tables(NamedTuple):
    """Successor tables that a builder hands to Frame unchecked: per agent, a
    dict from each world to its successor frozenset, equal sets one object.
    equivalence is True when each world's set is its class, else None."""

    succ: tuple
    equivalence: Optional[bool]


class Frame:
    """Finite frame (W, R_1..R_n), stored as one successor table per agent.

    The constructor accepts relations as a length-n sequence of pair iterables
    or as a mapping keyed by agent index (int or decimal string, each agent
    at most once, an absent agent relating nothing).  relations[i-1]
    gives back agent i's world pairs, built on first access.  Frames are
    immutable and equal when their n, world order and relations are.
    """

    def __init__(self, n: int, worlds: Iterable, relations):
        # the work is in __post_init__, which bench/spans.py wraps to time frames
        vars(self).update(n=n, worlds=worlds, _given=relations)
        self.__post_init__()

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("agent count n must be at least 1")
        worlds = tuple(self.worlds)
        if not worlds:
            raise ValueError("worlds must be nonempty")
        index = _world_index(worlds)
        rels = vars(self).pop("_given")
        if isinstance(rels, _Tables):
            vars(self).update(worlds=worlds, _index=index, _succ=rels[0], _equivalence=rels[1])
            return
        if isinstance(rels, Mapping):
            rels = _by_agent(rels, self.n)
        rels = tuple(rels)
        if len(rels) != self.n:
            raise ValueError(f"expected {self.n} relations, got {len(rels)}")
        # equal successor sets share one object, so tuples of them (the join
        # test's memo keys) compare by identity instead of element by element
        shared: dict = {}
        # a pair member must name its world as well as equal it, as true, false
        # and 1.0 equal the worlds 1, 0 and 1; strings need no test
        own = None
        if not all(map(isinstance, worlds, itertools.repeat(str))):
            own = dict(zip(worlds, worlds))
        succ = tuple(_successors(i, pairs, index, own, shared) for i, pairs in enumerate(rels, 1))
        vars(self).update(worlds=worlds, _index=index, _succ=succ, _equivalence=None)

    def _frozen(self, name, *value):
        raise FrozenInstanceError(f"Frame field {name!r} is read-only")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        same = isinstance(other, Frame)
        return same and (self.n, self.worlds, self._succ) == (other.n, other.worlds, other._succ)

    def __hash__(self):
        rows = tuple(tuple(map(t.get, self.worlds)) for t in self._succ)
        return hash((self.n, self.worlds, rows))

    def __repr__(self):
        return f"Frame(n={self.n!r}, worlds={self.worlds!r}, relations={self.relations!r})"

    @functools.cached_property
    def relations(self) -> tuple:
        """Per agent, the frozenset of its (world, successor) pairs."""
        return tuple(frozenset((w, u) for w in self.worlds for u in t[w]) for t in self._succ)

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
        return frozenset().union(*(table[w] for table in self._succ))

    def isucc(self, w) -> frozenset:
        """Successors of w under the intersection of all relations."""
        return frozenset.intersection(*(table[w] for table in self._succ))


def _by_agent(rels: Mapping, n: int) -> list:
    """The relations of a mapping keyed by agent, in agent order; a key is an
    agent 1..n as an int or as its decimal string, and names its agent once."""
    names = {str(i): i for i in range(1, n + 1)}
    given: dict = {}
    for key in rels:
        i = names.get(key) if isinstance(key, str) else key if type(key) is int else None
        if i is None or not 1 <= i <= n:
            raise ValueError(f"relation key {key!r:.80} names no agent 1..{n}")
        if i in given:
            raise ValueError(f"agent {i} is keyed both as {i!r} and as {str(i)!r}")
        given[i] = rels[key]
    return [given.get(i, ()) for i in range(1, n + 1)]


def _names_world(member, world) -> bool:
    """True iff member, equal to world, names it too: it is world or has its
    world_key text, so true names no world 1 and (true, 0) no world (1, 0)."""
    try:
        return member is world or world_key(member) == world_key(world)
    except TypeError:  # world_key cannot encode it
        return False


# symbols, the worlds JSON gives: equal values of one of these types share a text
_SYMBOL_TYPES = frozenset({str, int, bool, type(None)})


def _names_worlds(members: list, own: dict) -> bool:
    """True iff every member is a world of own, which maps each world to
    itself, and names it, tested in bulk: members that are the worlds
    themselves pass by identity, and, when every world is a symbol, members
    of their worlds' types pass."""
    try:
        named = list(map(own.__getitem__, members))
    except KeyError:
        return False
    if all(map(operator.is_, members, named)) or (
        list(map(type, members)) == list(map(type, named))
        and _SYMBOL_TYPES.issuperset(map(type, own))
    ):
        return True
    return all(map(_names_world, members, named))


def _successors(i: int, pairs, index: dict, own, shared: dict) -> dict:
    """Agent i's successor table from its world pairs, equal sets taken from
    shared; own maps each world to itself, or is None when every world is a
    string.  The pairs are checked in bulk; only when that fails are they
    walked one by one, to report the first faulty pair."""
    if not isinstance(pairs, (list, tuple)):
        pairs = list(pairs)  # read once, since a fault walks them again
    table = {w: [] for w in index}
    try:
        # a string or a set would otherwise be unpacked as a pair
        fits = all(map(isinstance, pairs, itertools.repeat((list, tuple))))
        if fits:
            for w, u in pairs:
                table[w].append(u)
            for w, v in table.items():
                v = frozenset(v)
                table[w] = shared.setdefault(v, v)
            fits = index.keys() >= frozenset().union(*set(table.values()))
        if fits and own is not None:
            fits = _names_worlds(list(itertools.chain.from_iterable(pairs)), own)
    except (KeyError, TypeError, ValueError):
        fits = False
    if not fits:
        _raise_first_fault(i, pairs, index, own)
    return table


def _raise_first_fault(i: int, pairs, index: dict, own) -> None:
    """Raise the ValueError for the first pair that is no pair of worlds."""
    for pair in pairs:
        try:
            w, u = pair if isinstance(pair, (list, tuple)) else ()
            known = w in index and u in index
        except (TypeError, ValueError):
            raise ValueError(f"{pair!r:.80} in relation {i} is not a pair of worlds") from None
        if not known or own is not None and not (
            _names_world(w, own[w]) and _names_world(u, own[u])
        ):
            raise ValueError(f"relation pair ({w!r}, {u!r}) references an unknown world")


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
        _store_valuation(self, self.frame._index, "world")

    def atoms_at(self, w) -> frozenset:
        """Atom names true at w."""
        try:
            return self._atoms_at[w]
        except KeyError:
            raise ValueError(f"unknown world {w!r}") from None


def _atom_names(names, noun: str, owner) -> tuple:
    """names, a list, tuple or set of atom names, as the sorted tuple of the
    distinct ones; anything else, a string too, is no valuation of owner."""
    if not isinstance(names, (list, tuple, set, frozenset)):
        raise ValueError(f"valuation of {noun} {owner!r} is not a list of atoms: {names!r}")
    for name in names:
        if not isinstance(name, str) or not _ATOM_RE.fullmatch(name):
            raise ValueError(f"bad atom name {name!r}")
    return tuple(sorted(set(names)))


def _store_valuation(owner, members, noun: str) -> None:
    """Store owner.valuation, given from members (a dict) to atom names, as
    (member, sorted names) pairs in members' order, and in owner._atoms_at."""
    items = dict(owner.valuation)
    for key in items:
        if key not in members:
            raise ValueError(f"valuation references an unknown {noun} {key!r}")
    cooked = tuple((m, _atom_names(items.get(m, ()), noun, m)) for m in members)
    object.__setattr__(owner, "valuation", cooked)
    object.__setattr__(owner, "_atoms_at", {m: frozenset(names) for m, names in cooked})


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


def _check_nodes(fr: Frame, nodes: list) -> None:
    """Check a compiled formula against fr: every [i]/<i> agent in range, and
    D only on an equivalence frame."""
    for kind, arg, *_ in nodes:
        if kind in (Box, Diamond):
            fr._check_agent(arg)
    if any(kind is Dist for kind, *_ in nodes) and not check_equivalence(fr):
        raise ValueError("the D operator requires an equivalence model")


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
        """Every node's per-world values, by node id; atom_value(name) gives an
        atom's per-world values and full has a bit set for every valuation."""
        values: list = []
        size = len(self.frame.worlds)
        for kind, arg, kids, _ in self.nodes:
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
        return values


def _extensions(m: Model, formulas: Iterable[Formula]) -> list:
    """Each formula's extension in m as an int mask, bit k for the k-th world,
    from one kernel run on the one valuation of m over the formulas' DAG."""
    fr = m.frame
    nodes, roots = _compile_all(formulas)
    _check_nodes(fr, nodes)
    truths = [m.atoms_at(w) for w in fr.worlds]
    values = _Kernel(fr, nodes).run(lambda name: [int(name in t) for t in truths], 1)
    return [int("".join(map(str, reversed(values[k]))), 2) for k in roots]


def extension(m: Model, f: Formula) -> frozenset:
    """Worlds of m at which f holds."""
    bits = reversed(bin(_extensions(m, (f,))[0]))  # bit k of the mask first
    return frozenset(w for w, b in zip(m.frame.worlds, bits) if b == "1")


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
    return _countermodel(fr, _compile(f), max_assignments)


def _countermodel(fr: Frame, nodes: list, max_assignments: int) -> Optional[tuple]:
    """find_frame_countermodel on an already compiled formula."""
    names = sorted({arg for kind, arg, *_ in nodes if kind is Atom})
    k = len(names)
    size = len(fr.worlds)
    bits = size * k
    if 2**bits > max_assignments:
        raise BudgetError(
            f"frame validity needs 2^{bits} valuations, over budget {max_assignments}; "
            "raise --max-assignments (max_assignments=)"
        )
    _check_nodes(fr, nodes)
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

        root = kernel.run(atom_value, full)[-1]
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
    """Reflexive, and every member of a successor set has that same set.
    Each distinct set object is checked once; members usually share it, so
    identity settles most comparisons."""
    table = fr._succ[i - 1]
    if not all(w in table[w] for w in fr.worlds):
        return False
    for s in {id(s): s for s in table.values()}.values():
        for u in s:
            t = table[u]
            if t is not s and t != s:
                return False
    return True


def check_equivalence(fr: Frame) -> bool:
    """True iff every relation is reflexive, symmetric, and transitive."""
    if fr._equivalence is None:
        vars(fr)["_equivalence"] = all(_relation_is_equivalence(fr, i) for i in fr.agents)
    return fr._equivalence


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
    D implies WD, so the global join test comes first and seeds the memo.
    """
    known: dict = {}
    if _all_joined(_distinct_successors(fr, fr.worlds), known):
        return True
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
    if not fr._equivalence and not _relation_is_equivalence(fr, i):
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
    # and the pieces of an equivalence frame are equivalence frames
    fr = frame_of(x)
    succ = tuple({w: table[w] for w in members} for table in fr._succ)
    piece = Frame(fr.n, members, _Tables(succ, fr._equivalence or None))
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
    return list(_group_by(fr.worlds, lambda w: find(index[w])))


def connected_components(x: Union[Frame, Model]) -> list:
    """(restricted frame-or-model, world tuple) pairs, one per component of
    component_members(x), in its order."""
    return [(_restrict(x, members), members) for members in component_members(x)]


def is_connected(x: Union[Frame, Model]) -> bool:
    return len(component_members(x)) == 1


def generated_submodel(m: Model, w) -> Model:
    """The connected component of m containing w; satisfaction at w is preserved."""
    m.frame.index(w)
    return _restrict(m, next(c for c in component_members(m) if w in c))


def disjoint_union(a: Frame, b: Frame) -> Frame:
    """Disjoint union; worlds are tagged (0, w) from a and (1, w) from b."""
    if a.n != b.n:
        raise ValueError(f"agent counts differ: {a.n} vs {b.n}")
    worlds = tuple((0, w) for w in a.worlds) + tuple((1, w) for w in b.worlds)
    succ = []
    for i in range(a.n):
        table: dict = {}
        for k, fr in ((0, a), (1, b)):
            tagged = {s: frozenset((k, u) for u in s) for s in set(fr._succ[i].values())}
            table.update({(k, w): tagged[fr._succ[i][w]] for w in fr.worlds})
        succ.append(table)
    return Frame(a.n, worlds, _Tables(tuple(succ), a._equivalence and b._equivalence or None))


def _initial_color(x: Union[Frame, Model], pred: list, w) -> tuple:
    fr = frame_of(x)
    degrees = tuple((len(fr._succ[i][w]), len(pred[i][w])) for i in range(fr.n))
    return (degrees, tuple(sorted(x.atoms_at(w))) if isinstance(x, Model) else ())


def _predecessors(fr: Frame) -> list:
    """Per agent, a dict from each world to its predecessor frozenset; equal
    sets, the frame's successor sets among them, are one object."""
    shared = {s: s for table in fr._succ for s in table.values()}
    made: dict = {}  # union of a tuple of source sets -> its shared frozenset
    pred = []
    for table in fr._succ:
        # the worlds that share a successor set are predecessors of each member
        sources: dict = {}
        for w, s in table.items():
            sources.setdefault(s, []).append(w)
        into: dict = {w: [] for w in fr.worlds}
        for s, ws in sources.items():
            ws = frozenset(ws)
            for u in s:
                into[u].append(ws)
        for u, parts in into.items():
            parts = tuple(parts)
            if parts not in made:
                p = frozenset().union(*parts)
                made[parts] = shared.setdefault(p, p)
            into[u] = made[parts]
        pred.append(into)
    return pred


def find_isomorphism(
    a: Union[Frame, Model], b: Union[Frame, Model], *, max_worlds: int = 12
) -> Optional[WorldMap]:
    """A structure-preserving bijection from a to b, or None.

    Model arguments must agree on atoms world by world.  Uses joint color
    refinement, then backtracking with forward checking over cells of
    a-worlds that share one domain, trying the most constrained world first.
    Raises BudgetError when either side has more than max_worlds worlds.
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
    sides = ((fa, pred_a, a), (fb, pred_b, b))
    signatures = [{w: _initial_color(x, pred, w) for w in fr.worlds} for fr, pred, x in sides]
    count = 0
    while True:
        # refine until a round splits no color
        palette = sorted({sig for side in signatures for sig in side.values()})
        palette = {sig: k for k, sig in enumerate(palette)}
        colors = [{w: palette[sig] for w, sig in side.items()} for side in signatures]
        if len(palette) == count:
            break
        count = len(palette)
        for (fr, pred, _), color, side in zip(sides, colors, signatures):
            # each distinct neighbour set is sorted once per round
            seen: dict = {}
            for table in (*fr._succ, *pred):
                for s in table.values():
                    if s not in seen:
                        seen[s] = tuple(sorted(map(color.__getitem__, s)))
            for w in fr.worlds:
                side[w] = (
                    color[w],
                    tuple(seen[table[w]] for table in fr._succ),
                    tuple(seen[table[w]] for table in pred),
                )

    buckets: list = [{}, {}]
    for bucket, color in zip(buckets, colors):
        for w, c in color.items():
            bucket.setdefault(c, []).append(w)
    sizes = [{c: len(ws) for c, ws in bucket.items()} for bucket in buckets]
    if sizes[0] != sizes[1]:
        return None

    # worlds are indices into fa.worlds and fb.worlds; sets of worlds are
    # int masks, bit k standing for the k-th world
    sa, pa = _mask_tables(fa, fa._succ), _mask_tables(fa, pred_a)
    sb, pb = _mask_tables(fb, fb._succ), _mask_tables(fb, pred_b)

    def loops(tables: list, k: int) -> tuple:
        return tuple(table[k] >> k & 1 for table in tables)

    # a world may map to the b worlds of its color with its self-loops; a
    # cell (a-mask, b-mask) holds a-worlds that share one domain, the b-mask
    same_loops: dict = {}
    for t in range(len(fb.worlds)):
        same_loops[loops(sb, t)] = same_loops.get(loops(sb, t), 0) | 1 << t
    groups: dict = {}
    for k, w in enumerate(fa.worlds):
        key = (colors[0][w], loops(sa, k))
        groups[key] = groups.get(key, 0) | 1 << k
    cells = []
    for (c, loop), members in groups.items():
        images = _mask(fb._index, buckets[1][c]) & same_loops.get(loop, 0)
        if not images:
            return None
        cells.append((members, images))

    def narrow(cells: list, w: int, v: int) -> Optional[list]:
        # forward checking: u may map to t only if u relates to w, both ways
        # and under every agent, as t relates to v, so each test splits a
        # cell in two; a test equal to one already listed (symmetric
        # relations, equal agents) is dropped
        tests: list = []
        for i in range(fa.n):
            for test in ((sa[i][w], sb[i][v]), (pa[i][w], pb[i][v])):
                if test not in tests:
                    tests.append(test)
        cells = [(members & ~(1 << w), images & ~(1 << v)) for members, images in cells]
        for x, y in tests:
            split = []
            for members, images in cells:
                for part, image in ((members & x, images & y), (members & ~x, images & ~y)):
                    # more worlds than images: no bijection below this node
                    if part.bit_count() > image.bit_count():
                        return None
                    if part:
                        split.append((part, image))
            cells = split
        return cells

    # backtracking on an explicit stack, so depth is not bounded by the
    # recursion limit; entries are [world, image, untried images, cells
    # before it was assigned], deepest last
    stack: list = []
    while cells:
        members, images = min(cells, key=lambda cell: (cell[1].bit_count(), cell[0] & -cell[0]))
        stack.append([_lowest(members), None, images, cells])
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
            cells = narrowed
            break
    return WorldMap(a, b, {fa.worlds[w]: fb.worlds[v] for w, v, _, _ in stack})


def _mask(index: dict, worlds) -> int:
    """Int with bit index[w] set for each w in worlds."""
    return sum(1 << index[w] for w in worlds)


def _lowest(mask: int) -> int:
    """Index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _mask_tables(fr: Frame, tables) -> list:
    """Per agent, the mask of tables[i][w] for each world w in world order;
    each distinct set is masked once."""
    masks: dict = {}
    for table in tables:
        for s in table.values():
            if s not in masks:
                masks[s] = _mask(fr._index, s)
    return [[masks[table[w]] for w in fr.worlds] for table in tables]


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
    texts: dict = {}  # each distinct successor set's keys, in world order
    for table in fr._succ:
        for s in table.values():
            if s not in texts:
                texts[s] = [keys[j] for j in sorted(map(fr._index.__getitem__, s))]
    rels = {
        str(i): [[key, u] for key, w in zip(keys, fr.worlds) for u in texts[table[w]]]
        for i, table in enumerate(fr._succ, 1)
    }
    return {"n": fr.n, "worlds": keys, "relations": rels}


def frame_from_labels(n: int, worlds: Iterable, label) -> Frame:
    """Equivalence frame in which agent i relates two worlds iff their
    labels label(i, w) are equal."""
    worlds = tuple(worlds)
    succ = []
    for i in range(1, n + 1):
        table: dict = {}
        for block in _group_by(worlds, functools.partial(label, i)):
            table.update(dict.fromkeys(block, frozenset(block)))
        succ.append(table)
    return Frame(n, worlds, _Tables(tuple(succ), True))


def _world_index(worlds: tuple) -> dict:
    """Position of each world; two Python-equal worlds raise a ValueError."""
    index = {w: k for k, w in enumerate(worlds)}
    if len(index) != len(worlds):
        # index holds each world's last position, so the first world off it has a twin
        w = next(w for k, w in enumerate(worlds) if index[w] != k)
        raise ValueError(f"worlds {w!r} and {worlds[index[w]]!r} in 'worlds' are equal")
    return index


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
    # a block member must name its world too, as a relation pair's must
    own = dict(zip(worlds, worlds))
    if not _names_worlds(list(label), own):
        w = next(w for w in label if w not in own or not _names_world(w, own[w]))
        raise ValueError(f"partition block names an unknown world {w!r}")
    return label


def _json_object(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{where} is not an object: {value!r:.80}")
    return value


def _json_field(data, name: str, where: str):
    """data[name], data being the JSON object that where names."""
    try:
        return _json_object(data, where)[name]
    except KeyError:
        raise ValueError(f"{where} lacks the required field {name!r}") from None


def _json_int(value, where: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{where} is not an integer: {value!r:.80}")
    return value


def _json_list(value, where: str) -> list:
    # a string would otherwise be read as its characters
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{where} is not a list: {value!r:.80}")
    return value


def _symbols(values, where: str) -> tuple:
    """values as a tuple of symbols, the JSON values that world_key can
    write: strings, integers, true, false and null."""
    for x in _json_list(values, where):
        if isinstance(x, (list, dict)):
            raise ValueError(f"symbol {x!r} in {where} is not a string or number")
        if isinstance(x, float):
            raise ValueError(f"symbol {x!r} in {where} is not an integer")
    return tuple(values)


def _agent_lists(data, n: int, field: str) -> Mapping:
    """data[field], checked to be a JSON object from "1".."n" to lists."""
    table = _json_object(data[field], f"'{field}'")
    agents = {str(i) for i in range(1, n + 1)}
    for key, entry in table.items():
        if key not in agents:
            raise ValueError(f"key {key!r:.80} in '{field}' names no agent 1..{n}")
        _json_list(entry, f"{field[:-1]} {key}")
    return table


def _world_reader(worlds, message: str):
    """The function from a world's world_key text to the world, for worlds;
    any other value, a non-string too, raises ValueError(message % value)."""
    by_key = {world_key(w): w for w in worlds}

    def world(text):
        if isinstance(text, str) and text in by_key:
            return by_key[text]
        raise ValueError(message % (text,))

    return world


def frame_from_json(data: Mapping) -> Frame:
    """Load a frame from the JSON dict form; accepts relations or partitions.
    A missing required field or a field of the wrong JSON type raises a
    ValueError naming it."""
    n = _json_int(_json_field(data, "n", "frame JSON"), "'n'")
    if n > MAX_AGENTS:
        raise ValueError(f"agent count n must be at most {MAX_AGENTS}")
    worlds = _symbols(_json_field(data, "worlds", "frame JSON"), "'worlds'")
    # a string world is its own text, so only a symbol of another type can share one
    shared = sorted({world_key(w) for w in worlds if not isinstance(w, str)}.intersection(worlds))
    if shared:
        raise ValueError(f"worlds {shared[0]} and {shared[0]!r} share the text {shared[0]!r}")
    if "relations" in data and "partitions" in data:
        raise ValueError("give either 'relations' or 'partitions', not both")
    if "partitions" in data:
        parts = _agent_lists(data, n, "partitions")
        partitions = []
        for i in range(1, n + 1):
            if str(i) not in parts:
                raise ValueError(f"missing partition for agent {i}")
            partitions.append([_symbols(b, f"a block of partition {i}") for b in parts[str(i)]])
        return frame_from_partitions(n, worlds, partitions)
    if "relations" not in data:
        raise ValueError("frame JSON needs 'relations' or 'partitions'")
    return Frame(n, worlds, _agent_lists(data, n, "relations"))


def frame_from_partitions(n: int, worlds: Iterable, partitions) -> Frame:
    """Equivalence frame from one block list per agent."""
    worlds = tuple(worlds)
    partitions = list(partitions)
    if len(partitions) != n:
        raise ValueError(f"expected {n} partitions, got {len(partitions)}")
    _world_index(worlds)  # before the blocks, which would read equal worlds as one
    labels = [_block_labels(worlds, blocks) for blocks in partitions]
    return frame_from_labels(n, worlds, lambda i, w: labels[i - 1][w])


def model_to_json(m: Model) -> dict:
    data = frame_to_json(m.frame)
    # the valuation is stored in world order, so it pairs with the written keys
    data["valuation"] = {key: list(names) for key, (_, names) in zip(data["worlds"], m.valuation)}
    return data


def model_from_json(data: Mapping) -> Model:
    fr = frame_from_json(data)
    world = _world_reader(fr.worlds, "valuation references an unknown world %r")
    raw = _json_object(data.get("valuation", {}), "'valuation'")
    return Model(fr, {world(key): names for key, names in raw.items()})


def world_map_to_json(wm: WorldMap) -> dict:
    return {"map": {world_key(w): world_key(u) for w, u in wm.mapping}}


def world_map_from_json(
    data: Mapping, source: Union[Frame, Model], target: Union[Frame, Model]
) -> WorldMap:
    source_world = _world_reader(frame_of(source).worlds, "map key %r is not a source world")
    target_world = _world_reader(frame_of(target).worlds, "map value %r is not a target world")
    table = _json_object(_json_field(data, "map", "world map JSON"), "'map'")
    mapping = {source_world(key): target_world(value) for key, value in table.items()}
    return WorldMap(source, target, mapping)
