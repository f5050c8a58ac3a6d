"""Systems of global states: the F map to frames, hypercube and full predicates,
and reconstructions of ED/EDI frames as systems.

A global state is an (n+1)-tuple (environment, local_1..local_n).  Agent i
considers two states indistinguishable exactly when their i-th local
components coincide; the environment component is invisible to every agent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Union

from .kripke import (
    Frame,
    Model,
    WorldMap,
    _json_object,
    _symbols,
    check_d,
    check_equivalence,
    check_i,
    equivalence_classes,
    frame_from_labels,
    world_key,
)


@dataclass(frozen=True)
class GlobalStateSystem:
    """States over L_e x L_1 x ... x L_n with tight alphabets.

    Alphabets and states are stored sorted by their canonical encodings, so
    equal systems compare equal regardless of construction order.  A symbol
    that occurs in no state is rejected: the hypercube and fullness
    predicates quantify over alphabets, so loose symbols would skew them.
    """

    n: int
    env_alphabet: tuple
    local_alphabets: tuple
    states: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("agent count n must be at least 1")
        env = tuple(sorted(set(self.env_alphabet), key=world_key))
        locals_ = tuple(
            tuple(sorted(set(alphabet), key=world_key)) for alphabet in self.local_alphabets
        )
        if len(locals_) != self.n:
            raise ValueError(f"expected {self.n} local alphabets, got {len(locals_)}")
        states = tuple(sorted({tuple(s) for s in self.states}, key=world_key))
        if not states:
            raise ValueError("states must be nonempty")
        env_set = set(env)
        local_sets = [set(alphabet) for alphabet in locals_]
        for state in states:
            if len(state) != self.n + 1:
                raise ValueError(f"state {state!r} is not an {self.n + 1}-tuple")
            if state[0] not in env_set:
                raise ValueError(f"state {state!r} has environment outside the alphabet")
            for i in range(1, self.n + 1):
                if state[i] not in local_sets[i - 1]:
                    raise ValueError(
                        f"state {state!r} has agent {i} component outside the alphabet"
                    )
        used_env = {s[0] for s in states}
        for e in env:
            if e not in used_env:
                raise ValueError(f"environment symbol {e!r} occurs in no state")
        for i in range(1, self.n + 1):
            used = {s[i] for s in states}
            for symbol in locals_[i - 1]:
                if symbol not in used:
                    raise ValueError(f"agent {i} symbol {symbol!r} occurs in no state")
        object.__setattr__(self, "env_alphabet", env)
        object.__setattr__(self, "local_alphabets", locals_)
        object.__setattr__(self, "states", states)

    @property
    def agents(self) -> range:
        return range(1, self.n + 1)


def system_from_states(n: int, states: Iterable) -> GlobalStateSystem:
    """System whose alphabets are exactly the symbols occurring in states."""
    states = [tuple(s) for s in states]
    if not states:
        raise ValueError("states must be nonempty")
    env = {s[0] for s in states}
    locals_ = [{s[i] for s in states} for i in range(1, n + 1)]
    return GlobalStateSystem(n, env, locals_, states)


@dataclass(frozen=True)
class InterpretedSystem:
    """A system together with a valuation on its states."""

    system: GlobalStateSystem
    valuation: tuple

    def __post_init__(self):
        raw = self.valuation
        items = dict(raw)
        state_set = set(self.system.states)
        for state in items:
            if tuple(state) not in state_set:
                raise ValueError(f"valuation references an unknown state {state!r}")
        items = {tuple(state): names for state, names in items.items()}
        cooked = tuple(
            (state, tuple(sorted(set(items.get(state, ()))))) for state in self.system.states
        )
        object.__setattr__(self, "valuation", cooked)
        object.__setattr__(self, "_atoms_at", {s: frozenset(a) for s, a in cooked})

    def atoms_at(self, state) -> frozenset:
        try:
            return self._atoms_at[tuple(state)]
        except KeyError:
            raise ValueError(f"unknown state {state!r}") from None


def f_map(s: GlobalStateSystem) -> Frame:
    """Frame on the states: s ~_i t iff the agent-i components agree."""
    return frame_from_labels(s.n, s.states, lambda i, state: state[i])


def f_map_interpreted(isys: InterpretedSystem) -> Model:
    """Model on the states, carrying the interpreted valuation across."""
    fr = f_map(isys.system)
    return Model(fr, {state: isys.atoms_at(state) for state in isys.system.states})


def is_hypercube(s: GlobalStateSystem) -> bool:
    """True iff the environment alphabet is a singleton and states are the
    full product of the local alphabets."""
    if len(s.env_alphabet) != 1:
        return False
    expected = 1
    for alphabet in s.local_alphabets:
        expected *= len(alphabet)
    return len(s.states) == expected


def is_full(s: GlobalStateSystem) -> bool:
    """True iff every combination of local values occurs with some environment."""
    seen = {state[1:] for state in s.states}
    for combo in itertools.product(*s.local_alphabets):
        if combo not in seen:
            return False
    return True


def class_label(members: Iterable) -> str:
    """Canonical name for an equivalence class, e.g. "{w0|w1}"."""
    return "{" + "|".join(world_key(w) for w in members) + "}"


def _labelled_system(fr: Frame, env) -> tuple:
    """System with one state (env(w), [w]_1, .., [w]_n) per world w of the
    equivalence frame fr, and the map from its F image sending each state
    back to its world."""
    states = {w: (env(w),) for w in fr.worlds}
    for i in fr.agents:
        for members in equivalence_classes(fr, i):
            name = class_label(members)
            for w in members:
                states[w] += (name,)
    mapping = {state: w for w, state in states.items()}
    system = system_from_states(fr.n, mapping)
    return system, WorldMap(f_map(system), fr, mapping)


def frame_to_full_system(fr: Frame) -> tuple:
    """Full system whose frame is isomorphic to fr; fr must be E and D.

    States are (w, [w]_1, .., [w]_n) with the world itself as environment.
    Returns (system, world map) where the map sends each state to its first
    component and is an isomorphism from f_map(system) onto fr.
    """
    if not check_equivalence(fr):
        raise ValueError("frame is not an equivalence frame")
    if not check_d(fr):
        raise ValueError("frame is not directed")
    return _labelled_system(fr, lambda w: w)


def frame_to_hypercube(fr: Frame) -> tuple:
    """Hypercube over fr's quotient classes; fr must be E, D, and I.

    States are ("1", [w]_1, .., [w]_n), one per world w, and the returned map
    sends each state back to its world.  By the identity intersection the
    states are distinct, and by directedness every combination of classes is
    some world's, so the states form the full product; the map is an
    isomorphism from f_map(system) onto fr.
    """
    if not check_equivalence(fr):
        raise ValueError("frame is not an equivalence frame")
    if not check_d(fr):
        raise ValueError("frame is not directed")
    if not check_i(fr):
        raise ValueError("frame does not have the identity intersection property")
    system, wm = _labelled_system(fr, lambda w: "1")
    if not is_hypercube(system):
        raise RuntimeError(
            "internal error: class intersection is not a singleton on an EDI frame"
        )
    return system, wm


def system_to_json(s: GlobalStateSystem) -> dict:
    return {
        "n": s.n,
        "env": [world_key(e) for e in s.env_alphabet],
        "locals": [[world_key(x) for x in alphabet] for alphabet in s.local_alphabets],
        "states": [[world_key(c) for c in state] for state in s.states],
    }


def system_from_json(data: Mapping) -> GlobalStateSystem:
    return GlobalStateSystem(
        data["n"],
        _symbols(data["env"], "env"),
        tuple(
            _symbols(alphabet, f"the agent {i} alphabet")
            for i, alphabet in enumerate(data["locals"], 1)
        ),
        tuple(_symbols(state, f"state {k}") for k, state in enumerate(data["states"])),
    )


def interpreted_to_json(isys: InterpretedSystem) -> dict:
    data = system_to_json(isys.system)
    data["valuation"] = {
        world_key(state): list(names) for state, names in isys.valuation
    }
    return data


def interpreted_from_json(data: Mapping) -> InterpretedSystem:
    system = system_from_json(data)
    raw = _json_object(data.get("valuation", {}), "'valuation'")
    by_key = {world_key(state): state for state in system.states}
    valuation = {}
    for key, names in raw.items():
        if key not in by_key:
            raise ValueError(f"valuation references an unknown state {key!r}")
        valuation[by_key[key]] = tuple(names)
    return InterpretedSystem(system, valuation)
