"""Systems of global states, the F map, and frame reconstructions."""

import random

import pytest

from s5wd import kripke
from s5wd.kripke import (
    Frame,
    check_d,
    check_equivalence,
    check_i,
    check_p_morphism,
    equivalence_classes,
    find_isomorphism,
    frame_from_partitions,
    is_connected,
)
from s5wd.systems import (
    GlobalStateSystem,
    InterpretedSystem,
    class_label,
    f_map,
    f_map_interpreted,
    frame_to_full_system,
    frame_to_hypercube,
    interpreted_from_json,
    interpreted_to_json,
    is_full,
    is_hypercube,
    system_from_json,
    system_from_states,
    system_to_json,
)
from helpers import (
    assert_isomorphism,
    missing_corner_model,
    random_equivalence_frame,
    random_full_system,
    random_hypercube,
    row_diagonal_morphism,
)


def small_hypercube():
    return system_from_states(
        2, [("1", a, c) for a in ("a", "b") for c in ("c", "d")]
    )


def shared_deck_system():
    # Two players each hold one of two cards; equal hands are impossible.
    states = [("e", h1, h2) for h1 in ("c0", "c1") for h2 in ("c0", "c1") if h1 != h2]
    return system_from_states(2, states)


class TestGlobalStateSystem:
    def test_canonical_order(self):
        a = GlobalStateSystem(1, ["e"], [["y", "x"]], [("e", "y"), ("e", "x")])
        b = GlobalStateSystem(1, ["e"], [["x", "y"]], [("e", "x"), ("e", "y")])
        assert a == b and hash(a) == hash(b)
        assert a.states == (("e", "x"), ("e", "y"))

    def test_tightness_enforced(self):
        with pytest.raises(ValueError):
            GlobalStateSystem(1, ["e"], [["x", "unused"]], [("e", "x")])
        with pytest.raises(ValueError):
            GlobalStateSystem(1, ["e", "unused"], [["x"]], [("e", "x")])

    def test_component_outside_alphabet(self):
        with pytest.raises(ValueError):
            GlobalStateSystem(1, ["e"], [["x"]], [("e", "z")])

    def test_wrong_arity(self):
        with pytest.raises(ValueError):
            GlobalStateSystem(2, ["e"], [["x"], ["y"]], [("e", "x")])

    def test_empty_states(self):
        with pytest.raises(ValueError):
            GlobalStateSystem(1, [], [[]], [])

    def test_wrong_alphabet_count(self):
        with pytest.raises(ValueError):
            GlobalStateSystem(2, ["e"], [["x"]], [("e", "x", "x")])

    def test_from_states(self):
        s = shared_deck_system()
        assert s.env_alphabet == ("e",)
        assert s.local_alphabets == (("c0", "c1"), ("c0", "c1"))
        assert len(s.states) == 2


class TestInterpretedSystem:
    def test_valuation_normalized(self):
        s = small_hypercube()
        isys = InterpretedSystem(s, {("1", "a", "c"): ("p",)})
        assert isys.atoms_at(("1", "a", "c")) == {"p"}
        assert isys.atoms_at(("1", "b", "d")) == frozenset()

    def test_unknown_state(self):
        s = small_hypercube()
        with pytest.raises(ValueError):
            InterpretedSystem(s, {("1", "zz", "c"): ("p",)})
        with pytest.raises(ValueError):
            InterpretedSystem(s, {}).atoms_at(("1", "zz", "c"))

    @pytest.mark.parametrize("state", ["ea", ["e", "a"]], ids=["string", "list"])
    def test_state_of_another_type_is_unknown(self, state):
        # a string is not read as its characters, nor a list as a tuple
        isys = InterpretedSystem(system_from_states(1, [("e", "a")]), {("e", "a"): ["p"]})
        assert isys.atoms_at(("e", "a")) == {"p"}
        with pytest.raises(ValueError, match="unknown state"):
            isys.atoms_at(state)


class TestFMap:
    def test_small_hypercube_frame(self):
        fr = f_map(small_hypercube())
        assert len(fr.worlds) == 4
        assert equivalence_classes(fr, 1) == (
            (("1", "a", "c"), ("1", "a", "d")),
            (("1", "b", "c"), ("1", "b", "d")),
        )
        assert equivalence_classes(fr, 2) == (
            (("1", "a", "c"), ("1", "b", "c")),
            (("1", "a", "d"), ("1", "b", "d")),
        )
        assert check_equivalence(fr) and check_d(fr) and check_i(fr)

    def test_singleton_system(self):
        fr = f_map(system_from_states(2, [("e", "x", "y")]))
        assert fr.worlds == (("e", "x", "y"),)
        assert fr.relations == (
            frozenset({(("e", "x", "y"), ("e", "x", "y"))}),
        ) * 2

    def test_interpreted_carries_valuation(self):
        s = small_hypercube()
        isys = InterpretedSystem(s, {("1", "a", "c"): ("p",)})
        m = f_map_interpreted(isys)
        assert m.atoms_at(("1", "a", "c")) == {"p"}
        assert m.atoms_at(("1", "a", "d")) == frozenset()

    def test_random_hypercubes_are_edi(self):
        rng = random.Random(2101)
        for _ in range(50):
            fr = f_map(random_hypercube(rng, rng.randint(1, 3)))
            assert check_equivalence(fr) and check_d(fr) and check_i(fr)

    def test_random_full_systems_are_directed_and_connected(self):
        rng = random.Random(2102)
        for _ in range(50):
            n = rng.randint(2, 3)
            fr = f_map(random_full_system(rng, n))
            assert check_equivalence(fr) and check_d(fr)
            assert is_connected(fr)

    def test_shared_deck_frame_not_directed(self):
        fr = f_map(shared_deck_system())
        assert check_equivalence(fr)
        assert not check_d(fr)


class TestPredicates:
    def test_hypercube(self):
        assert is_hypercube(small_hypercube())
        states = [s for s in small_hypercube().states if s != ("1", "b", "d")]
        assert not is_hypercube(system_from_states(2, states))

    def test_hypercube_needs_singleton_env(self):
        s = system_from_states(1, [("e0", "x"), ("e1", "x")])
        assert not is_hypercube(s)

    def test_full(self):
        assert is_full(small_hypercube())
        s = system_from_states(
            2, [("e0", "a", "c"), ("e1", "a", "d"), ("e0", "b", "c"), ("e0", "b", "d")]
        )
        assert is_full(s) and not is_hypercube(s)
        assert not is_full(shared_deck_system())


class TestFrameToFullSystem:
    def test_singleton_frame(self):
        fr = frame_from_partitions(2, ["w"], [[["w"]], [["w"]]])
        system, wm = frame_to_full_system(fr)
        assert system.states == (("w", "{w}", "{w}"),)
        assert check_p_morphism(wm)

    def test_three_point_cluster(self):
        fr = frame_from_partitions(
            2, ["a", "b", "c"], [[["a", "b", "c"]], [["a", "b", "c"]]]
        )
        system, wm = frame_to_full_system(fr)
        assert len(system.env_alphabet) == 3
        assert all(len(alphabet) == 1 for alphabet in system.local_alphabets)
        assert is_full(system)
        assert_isomorphism(wm)

    def test_round_trip_on_random_directed_frames(self):
        rng = random.Random(2103)
        directed = 0
        for _ in range(60):
            fr = random_equivalence_frame(rng, 2, rng.randint(1, 5))
            if not check_d(fr):
                continue
            directed += 1
            system, wm = frame_to_full_system(fr)
            assert is_full(system)
            assert check_p_morphism(wm)
            assert_isomorphism(wm)
        assert directed >= 8

    def test_preconditions(self):
        with pytest.raises(ValueError, match="directed"):
            frame_to_full_system(missing_corner_model().frame)
        bad = frame_from_partitions(1, ["w0", "w1"], [[["w0", "w1"]]])
        not_equivalence = bad.relations[0] - {("w0", "w1")}
        from s5wd.kripke import Frame

        with pytest.raises(ValueError, match="equivalence"):
            frame_to_full_system(Frame(1, bad.worlds, [not_equivalence]))


class TestFrameToHypercube:
    def test_singleton_frame(self):
        fr = frame_from_partitions(2, ["w"], [[["w"]], [["w"]]])
        system, wm = frame_to_hypercube(fr)
        assert system.states == (("1", "{w}", "{w}"),)
        assert is_hypercube(system)
        assert check_p_morphism(wm)

    def test_row_diagonal_source(self):
        source = row_diagonal_morphism().source
        system, wm = frame_to_hypercube(source)
        assert is_hypercube(system)
        assert [len(a) for a in system.local_alphabets] == [2, 2]
        assert_isomorphism(wm)

    def test_round_trip_axis_cardinalities(self):
        rng = random.Random(2104)
        for _ in range(30):
            cube = random_hypercube(rng, rng.randint(1, 3))
            fr = f_map(cube)
            again, wm = frame_to_hypercube(fr)
            assert is_hypercube(again)
            assert [len(a) for a in again.local_alphabets] == [
                len(a) for a in cube.local_alphabets
            ]
            assert_isomorphism(wm)
            found = find_isomorphism(f_map(again), fr, max_worlds=30)
            assert found is not None
            assert_isomorphism(found)

    def test_each_relation_checked_once(self, monkeypatch):
        labelled = f_map(random_hypercube(random.Random(7), 2))
        # built from pairs, the frame does not know its relations are
        # equivalences; built from labels, it does and is never scanned
        fr = Frame(labelled.n, labelled.worlds, labelled.relations)
        checked = []
        real = kripke._relation_is_equivalence

        def counting(fr, i):
            checked.append(i)
            return real(fr, i)

        monkeypatch.setattr(kripke, "_relation_is_equivalence", counting)
        frame_to_hypercube(fr)
        assert checked == [1, 2]
        checked.clear()
        frame_to_hypercube(labelled)
        assert checked == []

    def test_preconditions(self):
        with pytest.raises(ValueError, match="directed"):
            frame_to_hypercube(missing_corner_model().frame)
        total = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a", "b"]]])
        with pytest.raises(ValueError, match="identity intersection"):
            frame_to_hypercube(total)


class TestJson:
    def test_system_round_trip(self):
        s = small_hypercube()
        data = system_to_json(s)
        assert data["env"] == ["1"]
        assert data["locals"] == [["a", "b"], ["c", "d"]]
        assert system_from_json(data) == s

    def test_interpreted_round_trip(self):
        s = small_hypercube()
        isys = InterpretedSystem(s, {("1", "a", "c"): ("p",)})
        data = interpreted_to_json(isys)
        assert data["valuation"]['["1","a","c"]'] == ["p"]
        assert interpreted_from_json(data) == isys

    def test_interpreted_unknown_state(self):
        data = interpreted_to_json(InterpretedSystem(small_hypercube(), {}))
        data["valuation"]["zz"] = ["p"]
        with pytest.raises(ValueError):
            interpreted_from_json(data)

    def test_list_symbols_rejected(self):
        data = system_to_json(small_hypercube())
        for key, value, where in (
            ("env", [["1"]], "env"),
            ("locals", [["a", "b"], ["c", ["d"]]], "the agent 2 alphabet"),
            ("states", [["1", "a", "c"], ["1", {"b": 0}, "d"]], "state 1"),
        ):
            bad = dict(data, **{key: value})
            with pytest.raises(ValueError, match=f"symbol .* in {where} is not a string"):
                system_from_json(bad)
        with pytest.raises(ValueError, match="state 0 is not a list: '1ac'"):
            system_from_json(dict(data, states=["1ac"]))

    def test_class_label(self):
        assert class_label(("w0", "w1")) == "{w0|w1}"
        assert class_label(((0, "w0"),)) == '{[0,"w0"]}'
