"""Broadcast environments, trace frames, and hypercube decomposition."""

import hashlib
import json
import random
from collections import Counter

import pytest

from s5wd import broadcast
from s5wd.broadcast import (
    EPSILON,
    AgentProtocol,
    BroadcastEnvironment,
    JointProtocol,
    action_sequence,
    build_card_game,
    derived_valuation,
    enabled_joint_actions,
    env_from_hypercube,
    environment_from_json,
    environment_to_json,
    generate_frame,
    initial_system,
    join,
    observation,
    perfect_recall_state,
    play_any_card_protocol,
    protocol_from_json,
    protocol_to_json,
    replay_consistent,
    trivial_protocol,
    verify_hypercube_decomposition,
)
from s5wd.formula import expand_s, parse, wd_instance
from s5wd.kripke import (
    AgentIndexError,
    BudgetError,
    Frame,
    check_equivalence,
    check_wd,
    find_isomorphism,
    satisfies,
    valid_on_model,
    world_key,
)
from s5wd.systems import InterpretedSystem, f_map_interpreted, is_full, is_hypercube
from helpers import (
    glued_card_frame,
    merged_card_frame,
    pruned_card_frame,
    random_formula,
    random_hypercube,
    verify_hypercube_decomposition_by_exits,
)

BLANK3 = (EPSILON,) * 3


def light_switch_env():
    """One agent may flip a private bit; the environment is passive."""
    return BroadcastEnvironment(
        1,
        external_actions=((EPSILON,), (EPSILON, "announce")),
        internal_actions=((EPSILON,), (EPSILON, "flip")),
        private_states=(("idle",), ("off", "on")),
        initial_private=(("idle",), ("off",)),
        transitions=(
            {((EPSILON, a), EPSILON, "idle"): "idle" for a in (EPSILON, "announce")},
            {
                ((EPSILON, a), b, p): q
                for a in (EPSILON, "announce")
                for b, flips in ((EPSILON, False), ("flip", True))
                for p, q in (
                    (("off", "on") if flips else ("off", "off")),
                    (("on", "off") if flips else ("on", "on")),
                )
            },
        ),
        valuation={((EPSILON, "announce"), ("idle", "on")): ("lit",)},
    )


def flip_protocol():
    table = {
        obs: (("announce", "flip"), (EPSILON, EPSILON))
        for ext in ((EPSILON, EPSILON), (EPSILON, "announce"))
        for obs in ((ext, "off"), (ext, "on"))
    }
    return JointProtocol((AgentProtocol("table", table),))


BLANK2 = (EPSILON, EPSILON)
TICKED = ("tick", EPSILON)


def clock_env(**changes):
    """The environment follows a table protocol: an idle clock may be wound
    once, which everyone sees as a tick.  Agent 1 is passive and cannot see
    whether the clock started wound."""
    kwargs = dict(
        external_actions=((EPSILON, "tick"), (EPSILON,)),
        internal_actions=((EPSILON, "wind"), (EPSILON,)),
        private_states=(("idle", "wound"), ("a", "b")),
        initial_private=(("idle", "wound"), ("a", "b")),
        env_protocol={
            (BLANK2, "idle"): [("tick", "wind"), (EPSILON, EPSILON)],
            (BLANK2, "wound"): [(EPSILON, EPSILON)],
            (TICKED, "wound"): [(EPSILON, EPSILON)],
        },
        transitions=(
            {
                (ext, b, p): "wound" if b == "wind" else p
                for ext in (BLANK2, TICKED)
                for b in (EPSILON, "wind")
                for p in ("idle", "wound")
            },
            {(ext, EPSILON, p): p for ext in (BLANK2, TICKED) for p in ("a", "b")},
        ),
        valuation={(TICKED, ("wound", "a")): ("ticked",)},
    )
    kwargs.update(changes)
    return BroadcastEnvironment(1, **kwargs)


class TestEnvironmentConstruction:
    def test_product_initial_states(self):
        e = BroadcastEnvironment(
            2,
            external_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            private_states=(("e",), ("a", "b"), ("x", "y")),
            initial_private=(("e",), ("a", "b"), ("x", "y")),
        )
        assert len(e.initial_states) == 4
        assert all(ext == BLANK3 for ext, _ in e.initial_states)
        assert e.homogeneous

    def test_explicit_initial_states_not_homogeneous(self):
        e = BroadcastEnvironment(
            2,
            external_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            private_states=(("e",), ("a", "b"), ("x", "y")),
            initial_states=[(BLANK3, ("e", "a", "x")), (BLANK3, ("e", "b", "y"))],
        )
        assert not e.homogeneous

    def test_initial_arguments_are_exclusive(self):
        kwargs = dict(
            external_actions=((EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(("e",), ("p",)),
        )
        with pytest.raises(ValueError, match="exactly one"):
            BroadcastEnvironment(1, **kwargs)
        with pytest.raises(ValueError, match="exactly one"):
            BroadcastEnvironment(
                1,
                initial_private=(("e",), ("p",)),
                initial_states=[((EPSILON, EPSILON), ("e", "p"))],
                **kwargs,
            )

    def test_external_actions_need_epsilon(self):
        with pytest.raises(ValueError, match="lack"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), ("announce",)),
                internal_actions=((EPSILON,), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_private=(("e",), ("p",)),
            )

    def test_initial_states_must_be_blank(self):
        with pytest.raises(ValueError, match="null external action"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), (EPSILON, "go")),
                internal_actions=((EPSILON,), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_states=[((EPSILON, "go"), ("e", "p"))],
            )

    def test_unknown_private_state_rejected(self):
        with pytest.raises(ValueError, match="unknown private state"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), (EPSILON,)),
                internal_actions=((EPSILON,), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_private=(("e",), ("q",)),
            )

    def test_unchecked_private_states(self):
        e = BroadcastEnvironment(
            1,
            external_actions=((EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(None, ("p",)),
            initial_states=[((EPSILON, EPSILON), (("a", "b"), "p"))],
        )
        assert e.initial_states[0][1][0] == ("a", "b")

    def test_passive_environment_needs_null_internal_action(self):
        with pytest.raises(ValueError, match="null internal action"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), (EPSILON,)),
                internal_actions=(("tick",), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_private=(("e",), ("p",)),
            )

    def test_transition_validation(self):
        kwargs = dict(
            external_actions=((EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(("e",), ("p",)),
            initial_private=(("e",), ("p",)),
        )
        with pytest.raises(ValueError, match="unknown external action"):
            BroadcastEnvironment(
                1, transitions=({}, {((EPSILON, "go"), EPSILON, "p"): "p"}), **kwargs
            )
        with pytest.raises(ValueError, match="unknown private state"):
            BroadcastEnvironment(
                1, transitions=({}, {((EPSILON, EPSILON), EPSILON, "p"): "q"}), **kwargs
            )
        # an unhashable target is in no alphabet
        with pytest.raises(ValueError, match="unknown private state"):
            BroadcastEnvironment(
                1, transitions=({}, {((EPSILON, EPSILON), EPSILON, "p"): ["p"]}), **kwargs
            )

    def test_bad_atom_name(self):
        with pytest.raises(ValueError, match="bad atom name"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), (EPSILON,)),
                internal_actions=((EPSILON,), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_private=(("e",), ("p",)),
                valuation={((EPSILON, EPSILON), ("e", "p")): ("Bad",)},
            )
        # an unhashable private state in a valuation key, given as a pair
        with pytest.raises(ValueError, match="unknown private state"):
            BroadcastEnvironment(
                1,
                external_actions=((EPSILON,), (EPSILON,)),
                internal_actions=((EPSILON,), (EPSILON,)),
                private_states=(("e",), ("p",)),
                initial_private=(("e",), ("p",)),
                valuation=[(((EPSILON, EPSILON), ("e", ["p"])), ("q",))],
            )

    def test_valuation_normalized_and_queryable(self):
        s = ((EPSILON, EPSILON), ("e", "p"))
        e = BroadcastEnvironment(
            1,
            external_actions=((EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(("e",), ("p",)),
            initial_private=(("e",), ("p",)),
            valuation={s: ("q", "p", "q")},
        )
        assert e.atoms_at(s) == ("p", "q")
        assert e.atoms_at(((EPSILON, EPSILON), ("e", "missing"))) == ()


class TestObservations:
    def test_observation_projects_private_state(self):
        s = (BLANK3, ("e", "a", "x"))
        e = BroadcastEnvironment(
            2,
            external_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            private_states=(("e",), ("a",), ("x",)),
            initial_private=(("e",), ("a",), ("x",)),
        )
        assert observation(e, 0, s) == (BLANK3, "e")
        assert observation(e, 2, s) == (BLANK3, "x")
        with pytest.raises(AgentIndexError):
            observation(e, 3, s)

    def test_perfect_recall_state(self):
        tr = (
            (BLANK3, ("e", "a", "x")),
            ((EPSILON, "go", EPSILON), ("e", "b", "x")),
        )
        assert perfect_recall_state(tr, 1) == (
            (BLANK3, "a"),
            ((EPSILON, "go", EPSILON), "b"),
        )
        with pytest.raises(AgentIndexError):
            perfect_recall_state(tr, 5)
        with pytest.raises(ValueError, match="empty"):
            perfect_recall_state((), 1)
        # the width is read off the first state, so a narrower later one is named
        narrowed = tr + ((BLANK3, ("e",)),)
        with pytest.raises(ValueError) as err:
            perfect_recall_state(narrowed, 1)
        assert str(err.value) == f"a state of trace {narrowed!r} is narrower than its first"

    def test_action_sequence_drops_initial_state(self):
        tr = (
            (BLANK3, ("e", "a", "x")),
            ((EPSILON, "go", EPSILON), ("e", "b", "x")),
        )
        assert action_sequence(tr) == ((EPSILON, "go", EPSILON),)
        assert action_sequence(tr[:1]) == ()


class TestProtocols:
    def test_pass_protocol(self):
        p = AgentProtocol("pass")
        assert p.enabled(((EPSILON, EPSILON), "anything")) == ((EPSILON, EPSILON),)

    def test_play_any_card(self):
        p = AgentProtocol("play-any-card")
        hand = frozenset({"c2", "c0"})
        assert p.enabled((BLANK3, hand)) == (
            (frozenset({"c0"}), EPSILON),
            (frozenset({"c2"}), EPSILON),
        )
        assert p.enabled((BLANK3, frozenset())) == ((frozenset(), EPSILON),)

    def test_table_protocol(self):
        obs = ((EPSILON, EPSILON), "off")
        p = AgentProtocol("table", {obs: [("announce", "flip")]})
        assert p.enabled(obs) == (("announce", "flip"),)
        with pytest.raises(ValueError, match="undefined"):
            p.enabled(((EPSILON, EPSILON), "on"))

    def test_protocol_validation(self):
        with pytest.raises(ValueError, match="unknown protocol kind"):
            AgentProtocol("wait")
        with pytest.raises(ValueError, match="takes no table"):
            AgentProtocol("pass", {((EPSILON,), "p"): ((EPSILON, EPSILON),)})
        with pytest.raises(ValueError, match="nonempty"):
            AgentProtocol("table", {((EPSILON,), "p"): ()})
        with pytest.raises(ValueError, match="at least one agent"):
            JointProtocol(())

    def test_protocol_helpers(self):
        assert len(trivial_protocol(3).agents) == 3
        assert all(a.kind == "pass" for a in trivial_protocol(2).agents)
        assert all(a.kind == "play-any-card" for a in play_any_card_protocol(2).agents)


class TestStepsAndReplay:
    def test_enabled_joint_actions(self):
        e = light_switch_env()
        tr = (e.initial_states[0],)
        acts = enabled_joint_actions(e, flip_protocol(), tr)
        assert acts == frozenset(
            {
                ((EPSILON, EPSILON), ("announce", "flip")),
                ((EPSILON, EPSILON), (EPSILON, EPSILON)),
            }
        )
        with pytest.raises(ValueError, match="covers"):
            enabled_joint_actions(e, trivial_protocol(2), tr)

    def test_generated_traces_replay(self):
        e = light_switch_env()
        p = flip_protocol()
        fr = generate_frame(e, p, 3)
        assert all(replay_consistent(e, p, tr) for tr in fr.worlds)

    def test_replay_rejects_corruption(self):
        e = light_switch_env()
        p = flip_protocol()
        fr = generate_frame(e, p, 2)
        long = [tr for tr in fr.worlds if len(tr) == 2]
        tr = long[0]
        # replacing the starting state with a non-initial one breaks replay
        bad_start = (((EPSILON, "announce"), ("idle", "off")),) + tr[1:]
        assert not replay_consistent(e, p, bad_start)
        # an unreachable second state breaks replay
        ext = tr[1][0]
        flipped = "on" if tr[1][1][1] == "off" else "off"
        twisted = (tr[0], (ext, ("idle", flipped)))
        consistent = replay_consistent(e, p, twisted)
        options = {
            t[1] for t in long if t[0] == tr[0]
        }
        assert consistent == ((ext, ("idle", flipped)) in options)

    def test_missing_transition_raises(self):
        e = BroadcastEnvironment(
            1,
            external_actions=((EPSILON,), (EPSILON, "go")),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(("e",), ("p",)),
            initial_private=(("e",), ("p",)),
            transitions=({((EPSILON, "go"), EPSILON, "e"): "e"}, {}),
        )
        p = JointProtocol(
            (AgentProtocol("table", {(((EPSILON, EPSILON)), "p"): (("go", EPSILON),)}),)
        )
        with pytest.raises(ValueError, match="transition undefined"):
            generate_frame(e, p, 2)


class TestTableEnvironmentProtocol:
    def test_enabled_joint_actions(self):
        e = clock_env()
        passive = (EPSILON, EPSILON)
        idle = ((BLANK2, ("idle", "a")),)
        assert enabled_joint_actions(e, trivial_protocol(1), idle) == frozenset(
            {(("tick", "wind"), passive), (passive, passive)}
        )
        wound = ((BLANK2, ("wound", "b")),)
        assert enabled_joint_actions(e, trivial_protocol(1), wound) == frozenset(
            {(passive, passive)}
        )

    def test_table_is_normalized(self):
        e = clock_env()
        assert e.env_protocol == {
            (BLANK2, "idle"): ((EPSILON, EPSILON), ("tick", "wind")),
            (BLANK2, "wound"): ((EPSILON, EPSILON),),
            (TICKED, "wound"): ((EPSILON, EPSILON),),
        }
        assert e.external_actions == (frozenset({EPSILON, "tick"}), frozenset({EPSILON}))
        with pytest.raises(TypeError):
            e.env_protocol[(TICKED, "idle")] = ((EPSILON, EPSILON),)
        # equality does not depend on the order entries are given in
        backwards = clock_env(
            external_actions=(("tick", EPSILON), (EPSILON,)),
            env_protocol=[(obs, acts[::-1]) for obs, acts in reversed(e.env_protocol.items())],
            transitions=tuple(dict(reversed(table.items())) for table in e.transitions),
        )
        assert backwards == e
        # JSON writes each table in _key order of its keys, whatever order it was given in
        assert json.dumps(environment_to_json(backwards)) == json.dumps(environment_to_json(e))
        assert list(environment_to_json(backwards)["env_protocol"]) == [
            '[["eps","eps"],"idle"]', '[["eps","eps"],"wound"]', '[["tick","eps"],"wound"]'
        ]

    def test_undefined_observation(self):
        e = clock_env(env_protocol={(BLANK2, "idle"): [(EPSILON, EPSILON)]})
        with pytest.raises(ValueError, match="protocol undefined for observation"):
            enabled_joint_actions(e, trivial_protocol(1), ((BLANK2, ("wound", "a")),))

    def test_unknown_environment_action(self):
        for action in (("bang", EPSILON), ("tick", "spin")):
            with pytest.raises(ValueError, match="unknown environment action"):
                clock_env(env_protocol={(BLANK2, "idle"): [action]})

    def test_empty_action_set(self):
        with pytest.raises(ValueError, match="nonempty"):
            clock_env(env_protocol={(BLANK2, "idle"): []})

    def test_generate_frame(self):
        e = clock_env()
        p = trivial_protocol(1)
        assert [len(generate_frame(e, p, d).worlds) for d in (1, 2, 3)] == [4, 10, 18]
        fr = generate_frame(e, p, 3)
        assert all(replay_consistent(e, p, tr) for tr in fr.worlds)
        assert verify_hypercube_decomposition(fr).ok
        ticked = [tr for tr in fr.worlds if e.atoms_at(tr[-1])]
        # a tick after one or two steps, from the idle clock with agent 1 at "a"
        assert [len(tr) for tr in ticked] == [2, 3]
        assert {tr[-1] for tr in ticked} == {(TICKED, ("wound", "a"))}

    def test_json_round_trip(self):
        e = clock_env()
        data = json.loads(json.dumps(environment_to_json(e)))
        assert set(data["env_protocol"]) == {
            '[["eps","eps"],"idle"]', '[["eps","eps"],"wound"]', '[["tick","eps"],"wound"]'
        }
        assert environment_from_json(data) == e

    def test_empty_table_is_rejected(self):
        # read like an agent's table: an empty one is an error, not a protocol
        with pytest.raises(ValueError, match="protocol table is empty"):
            clock_env(env_protocol={})


class TestGenerateFrame:
    def test_depth_validation(self):
        e = light_switch_env()
        with pytest.raises(ValueError, match="depth"):
            generate_frame(e, flip_protocol(), 0)
        with pytest.raises(ValueError, match="covers"):
            generate_frame(e, trivial_protocol(2), 1)

    def test_budget(self):
        env, proto = build_card_game(4, 2)
        with pytest.raises(BudgetError):
            generate_frame(env, proto, 2, max_worlds=100)

    def test_light_switch_counts(self):
        e = light_switch_env()
        fr = generate_frame(e, flip_protocol(), 2)
        # 1 initial trace, then flip or wait
        assert len(fr.worlds) == 3
        assert check_equivalence(fr) and check_wd(fr)

    def test_card_game_counts(self):
        env, proto = build_card_game(4, 2)
        for depth, count in ((1, 36), (2, 180), (3, 324)):
            fr = generate_frame(env, proto, depth)
            assert len(fr.worlds) == count

    def test_joint_actions_keyed_once(self, monkeypatch):
        env, proto = build_card_game(4, 2)
        keyed = []
        key = broadcast._key

        def counted(value):
            # only joint actions, tuples of n + 1 (external, internal) pairs;
            # play-any-card also keys the cards of a hand
            if isinstance(value, tuple) and len(value) == env.n + 1 and all(
                isinstance(pair, tuple) and len(pair) == 2 for pair in value
            ):
                keyed.append(value)
            return key(value)

        monkeypatch.setattr(broadcast, "_key", counted)
        fr = generate_frame(env, proto, 4)
        assert len(fr.worlds) == 468
        counts = Counter(keyed)
        # the joint actions enabled after each trace that was extended
        enabled = [joint for tr in fr.worlds if len(tr) < 4
                   for joint in enabled_joint_actions(env, proto, tr)]
        # each distinct joint action once, although traces share them
        assert counts == Counter(set(enabled))
        assert len(enabled) > 10 * len(counts)

    def test_each_observation_checked_once(self, monkeypatch):
        env, proto = build_card_game(4, 2)
        calls = []
        enabled = AgentProtocol.enabled

        def counted(protocol, obs):
            calls.append((id(protocol), obs))
            return enabled(protocol, obs)

        monkeypatch.setattr(AgentProtocol, "enabled", counted)
        fr = generate_frame(env, proto, 4)
        protocols = (env._env_protocol, *proto.agents)
        extended = [tr for tr in fr.worlds if len(tr) < 4]
        seen = {(id(protocols[i]), observation(env, i, tr[-1]))
                for tr in extended for i in range(3)}
        # one call per distinct (agent, observation), however many traces share it
        assert Counter(calls) == Counter(seen)
        assert (len(calls), 3 * len(extended)) == (157, 972)

    def test_small_card_game_components(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 2)
        assert len(fr.worlds) == 8
        report = verify_hypercube_decomposition(fr)
        assert report.ok
        assert sorted(len(c.members) for c in report.components) == [1, 1, 1, 1, 4]

    def test_generated_frames_are_equivalence_wd(self):
        env, proto = build_card_game(4, 2)
        for depth in (1, 2):
            fr = generate_frame(env, proto, depth)
            assert check_equivalence(fr)
            assert check_wd(fr)

    def test_synchrony(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 3)
        for rel in fr.relations:
            assert all(len(a) == len(b) for a, b in rel)

    def test_relations_follow_recall(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 2)
        for i in (1, 2):
            rel = fr.relations[i - 1]
            for a in fr.worlds:
                for b in fr.worlds:
                    related = (a, b) in rel
                    assert related == (
                        perfect_recall_state(a, i) == perfect_recall_state(b, i)
                    )


class TestJoin:
    def test_join_with_self(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 2)
        for tr in fr.worlds[:4]:
            assert join(tr, tr, 1) == tr

    def test_join_splices_one_agent(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        rel = fr.relations[0]
        r1, r2 = next(
            (a, b) for a, b in rel
            if a != b and len(a) == 2 and a[0] != b[0]
        )
        merged = join(r1, r2, 2)
        assert perfect_recall_state(merged, 2) == perfect_recall_state(r2, 2)
        assert perfect_recall_state(merged, 1) == perfect_recall_state(r1, 1)
        assert perfect_recall_state(merged, 0) == perfect_recall_state(r1, 0)
        assert action_sequence(merged) == action_sequence(r1)

    def test_join_needs_equal_actions(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 2)
        long = [tr for tr in fr.worlds if len(tr) == 2]
        mismatch = next(
            (a, b) for a in long for b in long if action_sequence(a) != action_sequence(b)
        )
        with pytest.raises(ValueError, match="action sequences"):
            join(*mismatch, 1)
        with pytest.raises(ValueError, match="action sequences"):
            join(fr.worlds[0], long[0], 1)
        with pytest.raises(AgentIndexError):
            join(long[0], long[0], 7)

    def test_equal_recall_implies_equal_choices(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        rng = random.Random(11)
        pairs = [
            (i, a, b)
            for i in (1, 2)
            for a, b in rng.sample(
                sorted(fr.relations[i - 1], key=lambda p: (world_key(p[0]), world_key(p[1]))),
                60,
            )
        ]
        for i, a, b in pairs:
            obs_a = observation(env, i, a[-1])
            obs_b = observation(env, i, b[-1])
            assert obs_a == obs_b
            assert proto.agents[i - 1].enabled(obs_a) == proto.agents[i - 1].enabled(obs_b)

    def test_joins_of_related_traces_replay(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        rng = random.Random(12)
        for i in (1, 2):
            ordered = sorted(
                fr.relations[i - 1], key=lambda p: (world_key(p[0]), world_key(p[1]))
            )
            for a, b in rng.sample(ordered, 40):
                merged = join(a, b, i)
                assert replay_consistent(env, proto, merged)


class TestCardGame:
    def test_validation(self):
        with pytest.raises(ValueError, match="deck_size"):
            build_card_game(0, 0)
        with pytest.raises(ValueError, match="deck_size"):
            build_card_game(2, 3)
        with pytest.raises(ValueError, match="modeling"):
            build_card_game(2, 1, "partial")

    def test_simple_modeling_is_homogeneous(self):
        env, _ = build_card_game(4, 2)
        assert env.homogeneous
        assert len(env.initial_states) == 36
        sysm = initial_system(env)
        assert is_hypercube(sysm) and is_full(sysm)

    def test_rich_modeling_is_full_not_hypercube(self):
        env, _ = build_card_game(4, 2, "rich")
        assert not env.homogeneous
        assert len(env.initial_states) == 36
        sysm = initial_system(env)
        assert is_full(sysm) and not is_hypercube(sysm)

    def test_rich_environment_state_tracks_decks(self):
        env, proto = build_card_game(2, 1, "rich")
        fr = generate_frame(env, proto, 2)
        for tr in fr.worlds:
            if len(tr) < 2:
                continue
            d1, d2, f1, f2 = tr[-1][1][0]
            assert f1 == tr[-1][0][1] and f2 == tr[-1][0][2]
            assert d1 | (f1 or frozenset()) == frozenset({"c0", "c1"}) - tr[-1][1][1] | f1

    def test_face_up_matches_atom(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        m = derived_valuation(env, fr)
        hits = [tr for tr in fr.worlds if satisfies(m, tr, parse("face_up_matches", 2))]
        assert len(hits) == 36
        for tr in hits:
            assert tr[-1][0][1] == tr[-1][0][2]
            assert len(tr[-1][0][1]) == 1

    def test_wd_instances_hold_on_trace_models(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        m = derived_valuation(env, fr)
        for text in (
            "(S [1]face_up_matches & S [2]face_up_matches) -> S S ([1]face_up_matches & [2]face_up_matches)",
            "(S <1>face_up_matches & S <2>~face_up_matches) -> S S (<1>face_up_matches & <2>~face_up_matches)",
        ):
            assert valid_on_model(m, expand_s(parse(text, 2), 2))

    def test_knowledge_of_own_hand(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 1)
        m = derived_valuation(env, fr)
        # with one card each from the same two-card deck, hands can coincide,
        # so neither player knows the other's card at depth 1
        g = parse("~face_up_matches", 2)
        assert valid_on_model(m, expand_s(g, 2)) is True


class TestVerifyDecomposition:
    def test_simple_game_depths(self):
        env, proto = build_card_game(4, 2)
        for depth, comps in ((1, 1), (2, 17), (3, 161)):
            fr = generate_frame(env, proto, depth)
            report = verify_hypercube_decomposition(fr)
            assert report.ok and bool(report)
            assert len(report.components) == comps

    def test_component_profile(self):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 2)
        report = verify_hypercube_decomposition(fr)
        sizes = Counter(len(c.members) for c in report.components)
        assert sizes == Counter({9: 16, 36: 1})
        axes = Counter(c.axis_sizes for c in report.components)
        assert axes == Counter({(1, 3, 3): 16, (1, 6, 6): 1})
        depth1 = next(c for c in report.components if len(c.members) == 36)
        assert depth1.action_sequence == ()

    def test_missing_trace_is_detected(self):
        pruned, victim = pruned_card_frame()
        broken = verify_hypercube_decomposition(pruned)
        assert not broken.ok
        bad = [c for c in broken.components if not c.ok]
        assert len(bad) == 1
        assert bad[0].reason == "missing-tuple"
        missing = bad[0].witness[0]
        assert tuple(perfect_recall_state(victim, i) for i in range(3)) == missing

    def test_merged_recall_classes_are_not_isomorphic(self):
        merged, members = merged_card_frame()
        bad = [c for c in verify_hypercube_decomposition(merged).components if not c.ok]
        assert [c.members for c in bad] == [members]
        assert bad[0].reason == "not-isomorphic"
        assert bad[0].axis_sizes == (1, 3, 3)

    def test_recall_map_must_be_one_to_one(self):
        # traces that differ only past the width of the first one's private
        # states share every recall state, and so their recall tuple; no tuple
        # of the product is missing, though there are more members than tuples
        ext = (EPSILON, EPSILON)
        worlds = [((ext, ("e", "a")),), ((ext, ("e", "a", "x")),)]
        fr = Frame(1, worlds, [[(u, v) for u in worlds for v in worlds]])
        for mode in ("hypercube", "full"):
            (report,) = verify_hypercube_decomposition(fr, mode=mode).components
            assert (report.ok, report.reason, report.axis_sizes) == (
                False, "not-isomorphic", (1, 1)
            )
            assert verify_hypercube_decomposition_by_exits(fr, mode=mode).components == (report,)

    def test_reads_no_recall_state(self, monkeypatch):
        env, proto = build_card_game(4, 2)
        fr = generate_frame(env, proto, 3)
        calls = []
        monkeypatch.setattr(broadcast, "perfect_recall_state", lambda *args: calls.append(args))
        for mode in ("hypercube", "full"):
            assert verify_hypercube_decomposition(fr, mode=mode).ok
        assert calls == []

    def test_agent_counts_differ(self):
        # every component passes the product checks, then the counts are compared
        fr = generate_frame(light_switch_env(), flip_protocol(), 2)
        twice = Frame(2, fr.worlds, [fr.relations[0]] * 2)
        for mode in ("hypercube", "full"):
            with pytest.raises(ValueError, match=r"^agent counts differ: 2 vs 1$"):
                verify_hypercube_decomposition(twice, mode=mode)

    def test_action_mismatch_is_detected(self):
        report = verify_hypercube_decomposition(glued_card_frame())
        assert not report.ok
        assert report.components[0].reason == "action-mismatch"

    def test_rich_modeling_needs_full_mode(self):
        env, proto = build_card_game(4, 2, "rich")
        fr = generate_frame(env, proto, 2)
        strict = verify_hypercube_decomposition(fr, mode="hypercube")
        assert not strict.ok
        assert all(c.reason == "missing-tuple" for c in strict.components if not c.ok)
        relaxed = verify_hypercube_decomposition(fr, mode="full")
        assert relaxed.ok
        assert len(relaxed.components) == 17

    def test_missing_combination_is_not_full(self):
        e = BroadcastEnvironment(
            2,
            external_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,), (EPSILON,)),
            private_states=(("e",), ("a", "b"), ("x", "y")),
            initial_states=[(BLANK3, ("e", "a", "x")), (BLANK3, ("e", "a", "y")),
                            (BLANK3, ("e", "b", "x"))],
        )
        fr = generate_frame(e, trivial_protocol(2), 1)
        full = verify_hypercube_decomposition(fr, mode="full")
        assert not full.ok
        [component] = full.components
        assert component.reason == "not-full"
        assert component.witness == ((((BLANK3, "b"),), ((BLANK3, "y"),)),)
        strict = verify_hypercube_decomposition(fr, mode="hypercube")
        assert strict.components[0].reason == "missing-tuple"

    def test_full_mode_builds_no_system(self, monkeypatch):
        env, proto = build_card_game(4, 2, "rich")
        fr = generate_frame(env, proto, 2)

        def refuse(*args, **kwargs):
            raise AssertionError("system_from_states called")

        monkeypatch.setattr(broadcast, "system_from_states", refuse)
        assert verify_hypercube_decomposition(fr, mode="full").ok

    def test_mode_validation(self):
        env, proto = build_card_game(2, 1)
        fr = generate_frame(env, proto, 1)
        with pytest.raises(ValueError, match="unknown mode"):
            verify_hypercube_decomposition(fr, mode="loose")


class TestEnvFromHypercube:
    def test_rejects_non_hypercube(self):
        states = [("e", "a", "x"), ("e", "b", "y")]
        from s5wd.systems import system_from_states

        with pytest.raises(ValueError, match="not a hypercube"):
            env_from_hypercube(system_from_states(2, states), {})

    def test_depth_one_frame_matches_f_map(self):
        rng = random.Random(31)
        for _ in range(25):
            h = random_hypercube(rng, rng.randint(1, 3))
            val = {
                s: tuple(a for a in ("p", "q") if rng.random() < 0.5)
                for s in h.states
            }
            env = env_from_hypercube(h, val)
            assert env.homogeneous
            assert len(env.initial_states) == len(h.states)
            fr = generate_frame(env, trivial_protocol(h.n), 1)
            m = derived_valuation(env, fr)
            target = f_map_interpreted(InterpretedSystem(h, val))
            wm = find_isomorphism(m, target, max_worlds=len(h.states))
            assert wm is not None

    def test_satisfaction_transports(self):
        rng = random.Random(32)
        h = random_hypercube(rng, 2)
        val = {s: (("p",) if rng.random() < 0.5 else ()) for s in h.states}
        env = env_from_hypercube(h, val)
        fr = generate_frame(env, trivial_protocol(2), 1)
        m = derived_valuation(env, fr)
        target = f_map_interpreted(InterpretedSystem(h, val))
        wm = find_isomorphism(m, target, max_worlds=len(h.states))
        for _ in range(20):
            g = random_formula(rng, 2, ("p",), 3)
            for tr in fr.worlds:
                assert satisfies(m, tr, g) == satisfies(target, wm(tr), g)

    def test_hypercube_verification_of_result(self):
        rng = random.Random(33)
        h = random_hypercube(rng, 2)
        env = env_from_hypercube(h, {})
        fr = generate_frame(env, trivial_protocol(2), 1)
        report = verify_hypercube_decomposition(fr)
        assert report.ok
        assert len(report.components) == 1
        assert report.components[0].axis_sizes[0] == 1


class TestJson:
    def test_environment_round_trip(self):
        for modeling in ("simple", "rich"):
            env, _ = build_card_game(3, 1, modeling)
            data = environment_to_json(env)
            assert environment_from_json(data) == env
            assert environment_from_json(json.loads(json.dumps(data))) == env

    def test_environment_round_trip_with_protocol_and_transitions(self):
        e = light_switch_env()
        assert environment_from_json(environment_to_json(e)) == e

    def test_protocol_round_trip(self):
        for p in (
            trivial_protocol(2),
            play_any_card_protocol(3),
            flip_protocol(),
        ):
            data = protocol_to_json(p)
            assert protocol_from_json(json.loads(json.dumps(data))) == p

    @pytest.mark.parametrize("build, digest", [
        (lambda: build_card_game(3, 1, "rich")[0],
         "3b5f76799d381632f97f8360a695c1bb6ef7a2c25c0552e7e6fdf2c3fc0a725c"),
        (clock_env, "37bec640a4efd55a89fbd835bde1d096d07b993f9e6bca23ccf207169b4d3158"),
    ], ids=["rich-deck3-hand1", "clock"])
    def test_json_text_is_pinned(self, build, digest):
        # the written order is part of the format: no sort_keys here
        text = json.dumps(environment_to_json(build()))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_unencodable_value_fails_when_written(self):
        # tables and alphabets are not sorted when built, so a float private
        # state outside the initial pools is caught by the writer
        e = BroadcastEnvironment(
            1,
            external_actions=((EPSILON,), (EPSILON,)),
            internal_actions=((EPSILON,), (EPSILON,)),
            private_states=(("e",), ("p", 1.5)),
            initial_private=(("e",), ("p",)),
        )
        with pytest.raises(TypeError, match="not serializable: 1.5"):
            environment_to_json(e)

    def test_json_is_deterministic(self):
        a, _ = build_card_game(3, 1)
        b, _ = build_card_game(3, 1)
        assert json.dumps(environment_to_json(a), sort_keys=True) == json.dumps(
            environment_to_json(b), sort_keys=True
        )
