"""Broadcast environments: traces, joins, and hypercube decomposition.

Agents 0..n act simultaneously; every action has an external part that all
agents observe and an internal part that only affects the owner's private
state.  Agent 0 is the environment and is excluded from generated epistemic
frames.  A state is a pair (ext, priv) of length-(n+1) tuples: the joint
external action that produced the state and the agents' private states.  A
trace is a nonempty tuple of states; the generated frame relates traces with
equal perfect-recall observation sequences.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .kripke import (
    AgentIndexError,
    BudgetError,
    Frame,
    Model,
    _atom_names,
    _group_by,
    _json_encoder,
    _json_field,
    _json_int,
    _json_list,
    _json_object,
    component_members,
    frame_from_labels,
    world_key,
)
from .systems import GlobalStateSystem, _is_product, is_hypercube, system_from_states

EPSILON = "eps"

BUILTIN_PROTOCOLS = ("pass", "play-any-card")


def _encode(value):
    """JSON-ready tagged form of a state/action component; invertible."""
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, (set, frozenset)):
        # member order is _key order, so _key(value) == json.dumps of this
        return {"set": [_encode(v) for v in _sorted_tuple(value)]}
    raise TypeError(f"value is not serializable: {value!r}")


def _decode(value):
    if value is None or isinstance(value, (str, int, bool)):
        return value
    if isinstance(value, list):
        return tuple(_decode(v) for v in value)
    if isinstance(value, dict) and set(value) == {"set"} and isinstance(value["set"], list):
        return frozenset(_decode(v) for v in value["set"])
    raise ValueError(f"cannot decode value: {value!r}")


# canonical key of a value: json.dumps(_encode(value)), compact, written directly
_key = _json_encoder((tuple,), '{"set":[%s]}')


def _sorted_tuple(values) -> tuple:
    return tuple(sorted(values, key=_key))


def _text(value) -> str:
    """value's _key text, or its repr where _key cannot encode it."""
    try:
        return _key(value)
    except TypeError:
        return repr(value)


def _table_key(key, sequences: tuple, where: str, shape: str) -> tuple:
    """key as a tuple with one member per flag of sequences, a flagged member
    being a tuple too (a list is taken as one); a key of another shape
    raises a ValueError naming it, where and the shape wanted."""
    if isinstance(key, (tuple, list)) and len(key) == len(sequences) and all(
        isinstance(part, (tuple, list)) for part, seq in zip(key, sequences) if seq
    ):
        return tuple(tuple(part) if seq else part for part, seq in zip(key, sequences))
    raise ValueError(f"key {_text(key):.80} in {where} is not {shape}")


def _table(entries, entry) -> MappingProxyType:
    """entries, a mapping or (key, value) pairs, as a read-only mapping;
    entry(key, value) checks and normalises one pair, and a later pair with
    the same key wins."""
    items = entries.items() if isinstance(entries, Mapping) else entries
    return MappingProxyType(dict(entry(k, v) for k, v in items))


@dataclass(frozen=True)
class BroadcastEnvironment:
    """A broadcast environment for agents 0..n.

    external_actions, internal_actions and private_states are per-agent
    alphabets (index 0 is the environment), stored as frozensets; every
    external alphabet must contain EPSILON.  A private_states entry may be
    None to skip membership checks for that agent.  Give either
    initial_private (per-agent initial pools; the initial set is their full
    product, which makes the environment homogeneous) or an explicit
    initial_states list.  env_protocol is agent 0's AgentProtocol table from
    observations to action pairs; None means the passive protocol.
    transitions is one table per agent keyed by (joint external action,
    internal action, private state); None means private states never change.
    valuation maps states to atom names.  Tables are stored as read-only
    mappings: an environment compares by value but is not hashable.
    """

    n: int
    external_actions: tuple
    internal_actions: tuple
    private_states: tuple
    initial_private: Optional[tuple] = None
    initial_states: Optional[tuple] = None
    env_protocol: Optional[Mapping] = None
    transitions: Optional[tuple] = None
    valuation: Mapping = ()

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("need at least one agent besides the environment")
        width = self.n + 1
        for i, actions in enumerate(self._alphabets("external_actions")):
            if EPSILON not in actions:
                raise ValueError(f"external actions of agent {i} lack {EPSILON!r}")
        self._alphabets("internal_actions")
        self._alphabets("private_states")

        if (self.initial_private is None) == (self.initial_states is None):
            raise ValueError("give exactly one of initial_private or initial_states")
        blank = (EPSILON,) * width
        if self.initial_private is not None:
            pools = self._alphabets("initial_private")
            states = tuple((blank, combo) for combo in itertools.product(*pools))
        else:
            states = tuple(dict.fromkeys(
                (tuple(s[0]), tuple(s[1])) for s in self.initial_states
            ))
            if not states:
                raise ValueError("initial_states must be nonempty")
        states = _sorted_tuple(states)
        for s in states:
            self._check_state(s)
            if s[0] != blank:
                raise ValueError("initial states must carry the null external action")
        object.__setattr__(self, "initial_states", states)

        if self.env_protocol is None:
            if not self._knows("internal_actions", 0, EPSILON):
                raise ValueError(
                    "the passive environment protocol needs the null internal action"
                )
            protocol = AgentProtocol("pass")
        else:
            protocol = AgentProtocol("table", self.env_protocol)
            for actions in protocol.table.values():
                for a, b in actions:
                    if not (self._knows("external_actions", 0, a)
                            and self._knows("internal_actions", 0, b)):
                        raise ValueError(f"unknown environment action {(a, b)!r}")
            object.__setattr__(self, "env_protocol", protocol.table)
        object.__setattr__(self, "_env_protocol", protocol)

        if self.transitions is not None:
            if len(self.transitions) != width:
                raise ValueError(f"transitions must have {width} entries")
            object.__setattr__(self, "transitions", tuple(
                _table(table, functools.partial(self._transition, i))
                for i, table in enumerate(self.transitions)
            ))
        valuation = _table(self.valuation, self._labels).items()
        object.__setattr__(self, "valuation", MappingProxyType({s: a for s, a in valuation if a}))

    def _knows(self, name, i, value) -> bool:
        """True iff value is in agent i's alphabet of the field name
        (external_actions, internal_actions or private_states); a None
        alphabet takes every value, and an unhashable value is in none."""
        alphabet = getattr(self, name)[i]
        try:
            return alphabet is None or value in alphabet
        except TypeError:
            return False

    def _require(self, name, entries) -> None:
        for i, value in entries:
            if not self._knows(name, i, value):
                shown = repr(value) if isinstance(value, str) else _text(value)
                raise ValueError(f"unknown {name[:-1].replace('_', ' ')} {shown} of agent {i}")

    def _alphabets(self, name) -> tuple:
        """Store the field name as one frozenset per agent.  A None
        private_states entry stays None: that agent goes unchecked."""
        if len(entries := getattr(self, name)) != self.n + 1:
            raise ValueError(f"{name} must have {self.n + 1} entries")
        out = tuple(
            None if name == "private_states" and entry is None else frozenset(entry)
            for entry in entries
        )
        for i, entry in enumerate(out):
            if entry == frozenset():
                raise ValueError(f"{name} of agent {i} is empty")
        object.__setattr__(self, name, out)
        return out

    def _transition(self, i, key, target) -> tuple:
        """One checked entry of agent i's transition table."""
        avec, b, p = _table_key(key, (True, False, False), f"transition table {i}",
                                "[joint action, internal action, private state]")
        if len(avec) != self.n + 1:
            raise ValueError("transition keys need a full joint action")
        self._require("external_actions", enumerate(avec))
        self._require("internal_actions", [(i, b)])
        self._require("private_states", [(i, p), (i, target)])
        return (avec, b, p), target

    def _labels(self, state, atoms) -> tuple:
        """One checked valuation entry: a state and its sorted atom names."""
        state = _table_key(state, (True, True), "'valuation'",
                           "a state [joint action, private states]")
        self._check_state(state)
        return state, _atom_names(atoms, "state", state)

    def _check_state(self, s) -> None:
        width = self.n + 1
        if len(s) != 2 or len(s[0]) != width or len(s[1]) != width:
            raise ValueError(f"malformed state: {s!r}")
        self._require("external_actions", enumerate(s[0]))
        self._require("private_states", enumerate(s[1]))

    @property
    def homogeneous(self) -> bool:
        """True iff the initial states are exactly a product of per-agent sets."""
        return _is_product(priv for _, priv in self.initial_states)

    def atoms_at(self, state) -> tuple:
        return self.valuation.get(state, ())


@dataclass(frozen=True)
class AgentProtocol:
    """Memoryless protocol: a table from last observation to enabled action
    pairs, or a named builtin ("pass", "play-any-card").  The table is stored
    as a read-only mapping, each action list _key-sorted."""

    kind: str
    table: Optional[Mapping] = None

    def __post_init__(self):
        if self.kind in BUILTIN_PROTOCOLS:
            if self.table is not None:
                raise ValueError(f"builtin protocol {self.kind!r} takes no table")
            return
        if self.kind != "table":
            raise ValueError(f"unknown protocol kind {self.kind!r}")

        def entry(obs, actions):
            acts = _sorted_tuple(set(map(tuple, actions)))
            if not acts:
                raise ValueError("protocol action sets must be nonempty")
            return _table_key(obs, (True, False), "a protocol table",
                              "an observation [joint action, private state]"), acts

        table = _table(self.table, entry)
        if not table:
            raise ValueError("protocol table is empty")
        object.__setattr__(self, "table", table)

    def enabled(self, obs) -> tuple:
        if self.kind == "pass":
            return ((EPSILON, EPSILON),)
        if self.kind == "play-any-card":
            hand = obs[1]
            if hand:
                return tuple((frozenset({c}), EPSILON) for c in _sorted_tuple(hand))
            return ((frozenset(), EPSILON),)
        actions = self.table.get(obs)
        if actions is None:
            raise ValueError(f"protocol undefined for observation {_key(obs)}")
        return actions


@dataclass(frozen=True)
class JointProtocol:
    """One protocol per agent 1..n."""

    agents: tuple

    def __post_init__(self):
        agents = tuple(self.agents)
        if not agents:
            raise ValueError("a joint protocol needs at least one agent")
        for entry in agents:
            if not isinstance(entry, AgentProtocol):
                raise ValueError(f"not an agent protocol: {entry!r}")
        object.__setattr__(self, "agents", agents)


def trivial_protocol(n: int) -> JointProtocol:
    return JointProtocol(tuple(AgentProtocol("pass") for _ in range(n)))


def play_any_card_protocol(n: int) -> JointProtocol:
    return JointProtocol(tuple(AgentProtocol("play-any-card") for _ in range(n)))


def observation(e: BroadcastEnvironment, i: int, s) -> tuple:
    """What agent i sees of state s: the joint external action and its own
    private state."""
    if not 0 <= i <= e.n:
        raise AgentIndexError(f"agent index {i} out of range 0..{e.n}")
    return (s[0], s[1][i])


def perfect_recall_state(tr, i: int) -> tuple:
    """Agent i's observation sequence along the trace."""
    if not tr:
        raise ValueError("empty trace")
    width = len(tr[0][1])
    if not 0 <= i < width:
        raise AgentIndexError(f"agent index {i} out of range 0..{width - 1}")
    try:
        return tuple((s[0], s[1][i]) for s in tr)
    except IndexError:
        raise ValueError(f"a state of trace {tr!r} is narrower than its first") from None


def action_sequence(tr) -> tuple:
    """The joint external actions performed along the trace."""
    return tuple(s[0] for s in tr[1:])


def _agent_actions(e: BroadcastEnvironment, protocol: AgentProtocol, i: int, obs) -> tuple:
    """The action pairs protocol enables for agent i at observation obs, each
    checked against agent i's alphabets."""
    actions = protocol.enabled(obs)
    for a, b in actions:
        if not (e._knows("external_actions", i, a) and e._knows("internal_actions", i, b)):
            raise ValueError(f"protocol action {(a, b)!r} unknown to agent {i}")
    return actions


def enabled_joint_actions(e: BroadcastEnvironment, p: JointProtocol, tr) -> frozenset:
    """All joint actions the protocols allow after the trace; a joint action
    is a length-(n+1) tuple of (external, internal) pairs."""
    if len(p.agents) != e.n:
        raise ValueError(f"protocol covers {len(p.agents)} agents, environment has {e.n}")
    fin = tr[-1]
    return frozenset(itertools.product(*(
        _agent_actions(e, protocol, i, observation(e, i, fin))
        for i, protocol in enumerate((e._env_protocol, *p.agents))
    )))


def _apply(e: BroadcastEnvironment, s, joint) -> tuple:
    ext = tuple(a for a, _ in joint)
    priv = []
    for i in range(e.n + 1):
        b = joint[i][1]
        p = s[1][i]
        if e.transitions is None:
            priv.append(p)
            continue
        target = e.transitions[i].get((ext, b, p))
        if target is None:
            raise ValueError(
                f"transition undefined for agent {i} at {_key((ext, b, p))}"
            )
        priv.append(target)
    return (ext, tuple(priv))


def replay_consistent(e: BroadcastEnvironment, p: JointProtocol, tr) -> bool:
    """True iff the trace starts initial and every step is reachable by an
    enabled joint action."""
    if not tr or tr[0] not in e.initial_states:
        return False
    for k in range(len(tr) - 1):
        options = {
            _apply(e, tr[k], j) for j in enabled_joint_actions(e, p, tr[: k + 1])
        }
        if tr[k + 1] not in options:
            return False
    return True


def generate_frame(
    e: BroadcastEnvironment, p: JointProtocol, depth: int, *, max_worlds: int = 20_000
) -> Frame:
    """Frame over all traces of length <= depth under the protocol; traces
    are related for agent i iff their agent-i observation sequences agree."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if len(p.agents) != e.n:
        raise ValueError(f"protocol covers {len(p.agents)} agents, environment has {e.n}")
    level = [(s,) for s in e.initial_states]
    worlds = list(level)
    if len(worlds) > max_worlds:
        raise BudgetError(f"more than {max_worlds} traces at depth 1")
    # for this call only: traces share joint actions, each keyed once, and
    # observations, each of whose actions are asked for and checked once
    keys = functools.cache(_key)
    protocols = (e._env_protocol, *p.agents)
    actions = functools.cache(lambda i, obs: _agent_actions(e, protocols[i], i, obs))
    for _ in range(depth - 1):
        nxt = []
        seen = set()
        for tr in level:
            ext, priv = tr[-1]
            joints = itertools.product(*(actions(i, (ext, x)) for i, x in enumerate(priv)))
            for joint in sorted(frozenset(joints), key=keys):
                grown = tr + (_apply(e, tr[-1], joint),)
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        worlds.extend(nxt)
        if len(worlds) > max_worlds:
            raise BudgetError(f"more than {max_worlds} traces reached")
        level = nxt
    return frame_from_labels(e.n, worlds, lambda i, tr: perfect_recall_state(tr, i))


def join(r1, r2, i: int) -> tuple:
    """The trace that follows r1 except for agent i's private states, which
    are taken from r2; requires equal joint external action sequences."""
    if len(r1) != len(r2) or action_sequence(r1) != action_sequence(r2):
        raise ValueError("traces have different action sequences")
    width = len(r1[0][1])
    if not 0 <= i < width:
        raise AgentIndexError(f"agent index {i} out of range 0..{width - 1}")
    out = []
    for s, t in zip(r1, r2):
        priv = list(s[1])
        priv[i] = t[1][i]
        out.append((s[0], tuple(priv)))
    return tuple(out)


def derived_valuation(e: BroadcastEnvironment, fr: Frame) -> Model:
    """Model over a generated frame: each trace gets the atoms of its final
    state under the environment's valuation."""
    return Model(fr, {tr: e.atoms_at(tr[-1]) for tr in fr.worlds})


@dataclass(frozen=True)
class ComponentReport:
    """One connected component of a trace frame: its members, shared action
    sequence, per-agent axis sizes (agent 0 first), and the verdict."""

    members: tuple
    action_sequence: Optional[tuple]
    axis_sizes: tuple
    ok: bool
    reason: Optional[str] = None
    witness: tuple = ()


@dataclass(frozen=True)
class DecompositionReport:
    components: tuple
    ok: bool

    def __bool__(self) -> bool:
        return self.ok


def _relates_exactly(table: Mapping, block: tuple) -> bool:
    """True iff table gives every member of block the successor set block:
    the first member's set is compared with block and the others' with that
    set, by identity first, since equal sets are mostly one object."""
    first = table[block[0]]
    return len(first) == len(block) and first.issuperset(block) and all(
        s is first or s == first for s in map(table.__getitem__, block[1:])
    )


def verify_hypercube_decomposition(fr: Frame, *, mode: str = "hypercube") -> DecompositionReport:
    """Check that every connected component of a generated trace frame is the
    F image of a product of per-agent recall-state axes.

    The isomorphism checked is the recall map, which sends each trace to its
    tuple of perfect-recall states (agent 0 first); no other map is tried.
    mode "hypercube" requires the component to realize the full product of
    all axes including agent 0's (the homogeneous case); mode "full" only
    requires every combination of agents' axes to have some agent-0
    completion.  Failures carry a reason and witness instead of raising.
    """
    if mode not in ("hypercube", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    for members in component_members(fr):
        shared = action_sequence(members[0])
        mismatch = next((tr for tr in members if action_sequence(tr) != shared), None)
        if mismatch is not None:
            reports.append(
                ComponentReport(members, None, (), False, "action-mismatch",
                                (members[0], mismatch))
            )
            continue
        width = len(members[0][0][1])
        # coordinate i of a member stands for its agent-i recall state: the
        # first state's external action and agent i's private states, read off
        # one transpose (the members share every later action).  A state
        # narrower than width raises what perfect_recall_state raises.
        coords = []
        for tr in members:
            columns = tuple(zip(*[s[1] for s in tr]))
            if len(columns) < width:
                perfect_recall_state(tr, len(columns))
            coords.append(tuple(zip(itertools.repeat(tr[0][0], width), columns)))

        by_agent = tuple(zip(*coords))  # coordinate i of every member, in member order

        def recall(i, c):
            # agent i's recall state in the first member whose coordinate i is c
            return perfect_recall_state(members[by_agent[i].index(c)], i)

        axes = [list(dict.fromkeys(column)) for column in by_agent]
        axis_sizes = tuple(len(axis) for axis in axes)
        product_size = math.prod(axis_sizes)
        realized = set(coords)
        reason, witness = None, ()
        if mode == "hypercube" and len(realized) != product_size:
            reason = "missing-tuple"
            hole = next(t for t in itertools.product(*axes) if t not in realized)
            witness = (tuple(itertools.starmap(recall, enumerate(hole))),)
        elif mode == "full" and (
            len(seen := {c[1:] for c in realized}) != product_size // axis_sizes[0]
        ):
            reason = "not-full"
            states = [{c: recall(i, c) for c in axes[i]} for i in range(1, width)]
            ordered = (sorted(axis, key=lambda c, s=s: world_key(s[c]))
                       for axis, s in zip(axes[1:], states))
            hole = next(c for c in itertools.product(*ordered) if c not in seen)
            witness = (tuple(s[c] for s, c in zip(states, hole)),)
        elif fr.n != width - 1:
            raise ValueError(f"agent counts differ: {fr.n} vs {width - 1}")
        # the recall map is one-to-one, and agent i relates exactly the members
        # that share coordinate i: an isomorphism onto the F image of its tuples
        elif len(realized) < len(members) or not all(
            _relates_exactly(table, block)
            for i, table in enumerate(fr._succ, 1)
            for block in _group_by(members, dict(zip(members, by_agent[i])).__getitem__)
        ):
            reason = "not-isomorphic"
        reports.append(
            ComponentReport(members, shared, axis_sizes, reason is None, reason, witness)
        )
    return DecompositionReport(tuple(reports), all(r.ok for r in reports))


def initial_system(e: BroadcastEnvironment) -> GlobalStateSystem:
    """The system of global states formed by the initial private states."""
    return system_from_states(e.n, [priv for _, priv in e.initial_states])


def build_card_game(
    deck_size: int, hand_size: int, modeling: str = "simple", *, max_worlds: float = math.inf
):
    """Two players each hold a hand drawn from their own deck and repeatedly
    play a card face up; played cards are external, hands are private.

    The simple modeling gives the environment a single private state, so the
    environment is homogeneous.  The rich modeling makes the environment
    track both remaining decks and the face-up cards, which correlates its
    state with the hands; the initial states are then full but not a
    hypercube.  Returns (environment, play-any-card protocol).  More than
    max_worlds initial states, the depth-1 traces, raise BudgetError unbuilt.
    """
    if deck_size < 1 or not 0 <= hand_size <= deck_size:
        raise ValueError("need deck_size >= 1 and 0 <= hand_size <= deck_size")
    if modeling not in ("simple", "rich"):
        raise ValueError(f"unknown modeling {modeling!r}")
    if math.comb(deck_size, hand_size) ** 2 > max_worlds:
        raise BudgetError(f"more than {max_worlds} traces at depth 1")
    n = 2
    simple = modeling == "simple"
    deck = tuple(f"c{k}" for k in range(deck_size))
    full_deck, empty = frozenset(deck), frozenset()
    hands0 = [frozenset(c) for c in itertools.combinations(deck, hand_size)]
    plays = (EPSILON, empty) + tuple(frozenset({c}) for c in deck)
    initial = [
        ("1" if simple else (full_deck - h1, full_deck - h2, empty, empty), h1, h2)
        for h1 in hands0
        for h2 in hands0
    ]

    # close the private-state tuples under play-any-card with a passive
    # environment (a step reads nothing else), recording each transition and
    # valuation entry as the successor is built
    play = AgentProtocol("play-any-card").enabled  # reads only the hand
    tau = [{}, {}, {}]
    valuation = {}
    seen = set(initial)
    frontier = initial
    while frontier:
        grown = []
        for priv in frontier:
            p0, h1, h2 = priv
            for (c1, _), (c2, _) in itertools.product(play((None, h1)), play((None, h2))):
                ext = (EPSILON, c1, c2)
                q0 = "1" if simple else (p0[0] | p0[2], p0[1] | p0[3], c1, c2)
                t = (q0, h1 - c1, h2 - c2)
                for i in range(3):
                    tau[i][(ext, EPSILON, priv[i])] = t[i]
                if c1 and c1 == c2:
                    valuation[(ext, t)] = ("face_up_matches",)
                if t not in seen:
                    seen.add(t)
                    grown.append(t)
        frontier = grown

    start = (
        {"initial_private": (("1",), hands0, hands0)} if simple
        else {"initial_states": [((EPSILON,) * 3, priv) for priv in initial]}
    )
    env = BroadcastEnvironment(
        n,
        external_actions=((EPSILON,), plays, plays),
        internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
        private_states=tuple(zip(*seen)),
        transitions=tau,
        valuation=valuation,
        **start,
    )
    return env, play_any_card_protocol(n)


def env_from_hypercube(h: GlobalStateSystem, val) -> BroadcastEnvironment:
    """Degenerate broadcast environment whose depth-1 traces reproduce a
    hypercube system: every state is initial, nothing ever acts or changes,
    and the valuation mirrors val (a mapping from h's states to atoms)."""
    if not is_hypercube(h):
        raise ValueError("system is not a hypercube")
    width = h.n + 1
    alphabets = (h.env_alphabet,) + h.local_alphabets
    blank = (EPSILON,) * width
    return BroadcastEnvironment(
        h.n,
        external_actions=tuple((EPSILON,) for _ in range(width)),
        internal_actions=tuple((EPSILON,) for _ in range(width)),
        private_states=alphabets,
        initial_private=alphabets,
        valuation={(blank, s): tuple(val.get(s, ())) for s in h.states},
    )


def _json_table(table, value) -> dict:
    """table as a JSON object, keyed by _key texts in order, each value as value(v)."""
    return dict(sorted((_key(k), value(v)) for k, v in table.items()))


def _json_alphabets(alphabets) -> list:
    return [None if a is None else [_encode(v) for v in _sorted_tuple(a)] for a in alphabets]


def environment_to_json(e: BroadcastEnvironment) -> dict:
    data = {
        "n": e.n,
        "external_actions": _json_alphabets(e.external_actions),
        "internal_actions": _json_alphabets(e.internal_actions),
        "private_states": _json_alphabets(e.private_states),
        "valuation": _json_table(e.valuation, list),
    }
    if e.initial_private is not None:
        data["initial_private"] = _json_alphabets(e.initial_private)
    else:
        data["initial_states"] = [_encode(s) for s in e.initial_states]
    data["env_protocol"] = None if e.env_protocol is None else _json_table(e.env_protocol, _encode)
    data["transitions"] = None if e.transitions is None else [
        _json_table(table, _encode) for table in e.transitions
    ]
    return data


def _action_list(value, where: str) -> tuple:
    """A JSON list of (external, internal) action pairs, decoded."""
    for action in _json_list(value, where):
        if not isinstance(action, list) or len(action) != 2:
            raise ValueError(f"action {action!r:.80} in {where} is not a pair")
    return tuple(map(_decode, value))


def _keyed_json(value, where: str, read) -> dict:
    """The JSON object that where names, whose keys are _key texts, as a dict
    from each decoded key to read(entry, key text)."""
    out = {}
    for text, entry in _json_object(value, where).items():
        try:
            key = _decode(json.loads(text))
        except (ValueError, TypeError):
            raise ValueError(
                f"key {text!r:.80} in {where} is not the JSON text of a value"
            ) from None
        out[key] = read(entry, text)
    return out


def environment_from_json(data: Mapping) -> BroadcastEnvironment:
    """Load an environment from its JSON dict form.  A missing required
    field, or a document, n, valuation, env_protocol, transitions, an
    alphabet, initial or action list, or an entry of one, of the wrong JSON
    type, or a table key that is not the JSON text of a value, raises a
    ValueError naming it."""

    def field(name):
        return _json_field(data, name, "environment JSON")

    def entries(name, nullable=False):
        # one decoded tuple per entry of a list field
        return tuple(
            None if nullable and entry is None
            else tuple(map(_decode, _json_list(entry, f"'{name}' entry {i}")))
            for i, entry in enumerate(_json_list(field(name), f"'{name}'"))
        )

    _json_object(data, "environment JSON")
    kwargs = dict(
        external_actions=entries("external_actions"),
        internal_actions=entries("internal_actions"),
        private_states=entries("private_states", nullable=True),
        valuation=_keyed_json(
            data.get("valuation", {}), "'valuation'",
            lambda v, k: tuple(_json_list(v, f"the valuation of state {k}")),
        ),
    )
    if data.get("initial_private") is not None:
        kwargs["initial_private"] = entries("initial_private")
    else:
        kwargs["initial_states"] = entries("initial_states")
    if data.get("env_protocol") is not None:
        kwargs["env_protocol"] = _keyed_json(
            data["env_protocol"], "'env_protocol'",
            lambda v, k: _action_list(v, f"the 'env_protocol' actions at {k}"),
        )
    if data.get("transitions") is not None:
        kwargs["transitions"] = tuple(
            _keyed_json(table, f"transition table {i}", lambda v, k: _decode(v))
            for i, table in enumerate(_json_list(data["transitions"], "'transitions'"))
        )
    return BroadcastEnvironment(_json_int(field("n"), "'n'"), **kwargs)


def protocol_to_json(p: JointProtocol) -> dict:
    return {"agents": [
        {"kind": "table", "table": _json_table(entry.table, _encode)}
        if entry.kind == "table" else {"kind": entry.kind}
        for entry in p.agents
    ]}


def protocol_from_json(data: Mapping) -> JointProtocol:
    entries = _json_list(_json_field(data, "agents", "protocol JSON"), "'agents'")
    agents = []
    for i, entry in enumerate(entries, 1):
        where = f"the agent {i} protocol"
        kind = _json_field(entry, "kind", where)
        if kind == "table":
            table = _keyed_json(
                _json_field(entry, "table", where), f"the agent {i} table",
                lambda v, k: _action_list(v, f"the agent {i} table actions at {k}"),
            )
            agents.append(AgentProtocol("table", table))
        else:
            agents.append(AgentProtocol(kind))
    return JointProtocol(tuple(agents))
