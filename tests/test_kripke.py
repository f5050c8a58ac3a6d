"""Frames, models, satisfaction, frame properties, and structural maps."""

import random
import sys

import pytest

from s5wd import kripke
from s5wd.formula import AgentIndexError, parse, wd_instance
from s5wd.kripke import (
    BudgetError,
    Frame,
    Model,
    WorldMap,
    check_d,
    check_equivalence,
    check_i,
    check_model_p_morphism,
    check_p_morphism,
    check_wd,
    connected_components,
    disjoint_union,
    equivalence_classes,
    extension,
    find_frame_countermodel,
    find_isomorphism,
    frame_from_json,
    frame_from_labels,
    frame_from_partitions,
    frame_to_json,
    generated_submodel,
    is_connected,
    model_from_json,
    model_to_json,
    satisfies,
    valid_on_frame,
    valid_on_model,
    world_key,
    world_map_from_json,
    world_map_to_json,
)
from helpers import (
    assert_isomorphism,
    missing_corner_model,
    random_equivalence_frame,
    random_formula,
    random_frame,
    random_i_local,
    random_model,
    random_partition,
    row_diagonal_morphism,
)

CATACH = "<1>[2]p -> [2]<1>p"


def identity_frame(n, size):
    worlds = [f"w{k}" for k in range(size)]
    return Frame(n, worlds, [{(w, w) for w in worlds} for _ in range(n)])


def total_frame(n, size):
    worlds = [f"w{k}" for k in range(size)]
    return Frame(n, worlds, [{(w, u) for w in worlds for u in worlds} for _ in range(n)])


class TestFrameConstruction:
    def test_relations_as_mapping(self):
        fr = Frame(2, ["w0", "w1"], {1: [("w0", "w1")], "2": [("w1", "w1")]})
        assert fr.succ(1, "w0") == {"w1"}
        assert fr.succ(2, "w1") == {"w1"}
        assert fr.succ(2, "w0") == frozenset()

    def test_missing_agent_key_means_empty(self):
        fr = Frame(2, ["w0"], {1: [("w0", "w0")]})
        assert fr.succ(2, "w0") == frozenset()

    @pytest.mark.parametrize("rels, message", [
        ({"1": [("a", "b")], "2": [("a", "b")]}, "relation key '2' names no agent 1..1"),
        ({1: [("a", "b")], 0: []}, "relation key 0 names no agent 1..1"),
        ({"01": [("a", "b")]}, "relation key '01' names no agent 1..1"),
        ({True: [("a", "b")]}, "relation key True names no agent 1..1"),
        ({1.0: [("a", "b")]}, "relation key 1.0 names no agent 1..1"),
        ({1: [("a", "b")], "1": []}, "agent 1 is keyed both as 1 and as '1'"),
        ({"1": [], 1: [("a", "b")]}, "agent 1 is keyed both as 1 and as '1'"),
    ])
    def test_relation_key_that_names_no_agent(self, rels, message):
        # such a key was dropped, or one of two keys for an agent was
        with pytest.raises(ValueError) as err:
            Frame(1, ["a", "b"], rels)
        assert str(err.value) == message

    @pytest.mark.parametrize("worlds, pair", [
        ([1], (True, 1)),
        ([1], (1, 1.0)),
        ([0, "a"], (False, "a")),
        ([(1, 0)], ((True, 0), (1, 0))),
        ([(1, 0), "a"], ("a", (1.0, 0))),
        ([frozenset({1})], (frozenset({1}), frozenset({True}))),
    ])
    def test_pair_member_of_another_type(self, worlds, pair):
        # true, false and 1.0 equal the worlds 1, 0 and 1 but are none of
        # them, and a tuple or set naming a world must have its world_key text
        with pytest.raises(ValueError) as err:
            Frame(1, worlds, [[pair]])
        assert str(err.value) == f"relation pair {pair!r} references an unknown world"

    @pytest.mark.parametrize("worlds, blocks, member", [
        ([1], [[True]], True),
        ([(1, 0)], [[(True, 0)]], (True, 0)),
        ([(1, 0), "a"], [["a"], [(1.0, 0)]], (1.0, 0)),
    ])
    def test_block_member_of_another_type(self, worlds, blocks, member):
        with pytest.raises(ValueError) as err:
            frame_from_partitions(1, worlds, [blocks])
        assert str(err.value) == f"partition block names an unknown world {member!r}"

    def test_members_equal_to_their_worlds_by_text(self):
        # a member that is not the world itself names it by its world_key text
        world = (1, ("a", frozenset({2, 3})))
        twin = tuple([1, tuple(["a", frozenset([3, 2])])])
        assert twin is not world
        fr = Frame(1, [world, "b"], [[(twin, "b"), ("b", twin)]])
        assert fr.succ(1, world) == {"b"} and fr.succ(1, "b") == {world}
        assert frame_from_partitions(1, [world, "b"], [[[twin, "b"]]]).succ(1, world) == {world, "b"}

    def test_pair_members_of_their_worlds_types(self):
        fr = Frame(1, [True, 1.5, "a"], [[(True, 1.5), (1.5, "a")]])
        assert fr.succ(1, True) == {1.5} and fr.succ(1, 1.5) == {"a"}

    def test_unknown_world_in_pair(self):
        with pytest.raises(ValueError):
            Frame(1, ["w0"], [[("w0", "zz")]])

    @pytest.mark.parametrize("pair", [("a",), "ab", ("a", "b", "a"), {"a", "b"}, ("a", ["b"]), 5])
    def test_pair_of_another_shape(self, pair):
        # "ab" was unpacked as ("a", "b"), and a set in either order
        message = f"{pair!r} in relation 2 is not a pair of worlds"
        with pytest.raises(ValueError) as err:
            Frame(2, ["a", "b"], [[("a", "a")], [("b", "b"), pair]])
        assert str(err.value) == message

    def test_empty_worlds(self):
        with pytest.raises(ValueError):
            Frame(1, [], [[]])

    def test_duplicate_worlds(self):
        # both worlds are named, the first one first
        with pytest.raises(ValueError, match=r"^worlds 'w0' and 'w0' in 'worlds' are equal$"):
            Frame(1, ["w0", "w1", "w0"], [[]])
        with pytest.raises(ValueError, match=r"^worlds 1 and True in 'worlds' are equal$"):
            frame_from_json({"n": 1, "worlds": [1, True], "relations": {}})

    def test_wrong_relation_count(self):
        with pytest.raises(ValueError):
            Frame(2, ["w0"], [[("w0", "w0")]])

    def test_bad_agent_count(self):
        with pytest.raises(ValueError):
            Frame(0, ["w0"], [])

    def test_agent_bounds(self):
        fr = identity_frame(2, 2)
        with pytest.raises(AgentIndexError):
            fr.succ(3, "w0")
        with pytest.raises(AgentIndexError):
            fr.succ(0, "w0")

    def test_value_equality(self):
        a = Frame(1, ["w0", "w1"], [[("w0", "w1")]])
        b = Frame(1, ("w0", "w1"), [{("w0", "w1")}])
        assert a == b and hash(a) == hash(b)

    def test_world_order_and_relations_decide_equality(self):
        a = Frame(1, ["w0", "w1"], [[("w0", "w1")]])
        assert a != Frame(1, ["w1", "w0"], [[("w0", "w1")]])
        assert a != Frame(1, ["w0", "w1"], [[("w1", "w0")]])
        assert a != Frame(2, ["w0", "w1"], [[("w0", "w1")], []])

    def test_immutable(self):
        fr = identity_frame(1, 2)
        with pytest.raises(AttributeError):
            fr.n = 2
        with pytest.raises(AttributeError):
            fr.relations = ()
        with pytest.raises(AttributeError):
            del fr.worlds


class TestFrameStorage:
    """Frames store successor tables only; relations is derived from them."""

    def test_relations_built_on_first_access(self):
        fr = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a"], ["b"]]])
        assert "relations" not in vars(fr)
        rels = fr.relations
        assert rels == (
            frozenset({("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}),
            frozenset({("a", "a"), ("b", "b")}),
        )
        assert fr.relations is rels

    def test_each_route_runs_post_init_once(self, monkeypatch):
        built = []
        post_init = Frame.__post_init__
        monkeypatch.setattr(Frame, "__post_init__", lambda fr: built.append(post_init(fr)))
        pairs = identity_frame(1, 2)
        labels = frame_from_labels(2, ["a", "b", "c"], lambda i, w: w == "c")
        union = disjoint_union(pairs, pairs)
        frame_from_json({"n": 1, "worlds": ["a"], "relations": {"1": [["a", "a"]]}})
        frame_from_json({"n": 1, "worlds": ["a"], "partitions": {"1": [["a"]]}})
        assert len(built) == 5
        built.clear()
        assert len(connected_components(labels)) == len(built) == 2
        built.clear()
        assert len(connected_components(union)) == len(built) == 4

    def test_label_frames_are_never_scanned(self, monkeypatch):
        def refuse(fr, i):
            raise AssertionError("equivalence scan")

        monkeypatch.setattr(kripke, "_relation_is_equivalence", refuse)
        fr = frame_from_labels(2, ["a", "b", "c"], lambda i, w: w == "abc"[i])
        assert check_equivalence(fr)
        assert equivalence_classes(fr, 1) == (("a", "c"), ("b",))
        for piece, _ in connected_components(fr):
            assert check_equivalence(piece)
        assert check_equivalence(disjoint_union(fr, fr))


class TestModelConstruction:
    def test_missing_worlds_get_empty_valuation(self):
        fr = identity_frame(1, 2)
        m = Model(fr, {"w0": ("p",)})
        assert m.atoms_at("w0") == {"p"}
        assert m.atoms_at("w1") == frozenset()

    def test_unknown_world_rejected(self):
        with pytest.raises(ValueError):
            Model(identity_frame(1, 1), {"zz": ("p",)})

    def test_bad_atom_name_rejected(self):
        with pytest.raises(ValueError):
            Model(identity_frame(1, 1), {"w0": ("P",)})

    def test_valuation_value_must_be_a_list(self):
        # a string is not read as its characters
        for value in ("pq", "p", 3, None, {"p": True}):
            with pytest.raises(ValueError, match="not a list of atoms"):
                Model(identity_frame(1, 1), {"w0": value})
        data = model_to_json(Model(identity_frame(1, 1), {}))
        data["valuation"] = {"w0": "pq"}
        with pytest.raises(ValueError, match="not a list of atoms"):
            model_from_json(data)

    def test_atoms_at_unknown_world(self):
        with pytest.raises(ValueError):
            Model(identity_frame(1, 1), {}).atoms_at("zz")


class TestSatisfaction:
    def test_singleton_reflexive(self):
        m = Model(identity_frame(1, 1), {"w0": ("p",)})
        assert satisfies(m, "w0", parse("[1]p", 1))

    def test_two_world_cluster(self):
        fr = frame_from_partitions(1, ["w0", "w1"], [[["w0", "w1"]]])
        m = Model(fr, {"w0": ("p",)})
        assert not satisfies(m, "w0", parse("[1]p", 1))
        assert satisfies(m, "w0", parse("<1>p", 1))

    def test_missing_corner_falsifies_catach(self):
        m = missing_corner_model()
        assert not satisfies(m, "w0", parse(CATACH, 2))
        assert not valid_on_model(m, parse(CATACH, 2))

    def test_knowledge_implies_truth_on_equivalence_models(self):
        rng = random.Random(101)
        f = parse("[1]p -> p", 2)
        for _ in range(30):
            m = random_model(rng, random_equivalence_frame(rng, 2, rng.randint(1, 5)), ["p"])
            assert valid_on_model(m, f)

    def test_boolean_connectives(self):
        m = Model(identity_frame(1, 2), {"w0": ("p",), "w1": ("q",)})
        assert extension(m, parse("p | q", 1)) == {"w0", "w1"}
        assert extension(m, parse("p & q", 1)) == frozenset()
        assert extension(m, parse("p -> q", 1)) == {"w1"}
        assert extension(m, parse("p <-> ~q", 1)) == {"w0", "w1"}

    def test_some_matches_expansion(self):
        from s5wd.formula import expand_s

        rng = random.Random(202)
        for _ in range(60):
            fr = random_equivalence_frame(rng, 2, rng.randint(1, 5))
            m = random_model(rng, fr, ["p", "q"])
            f = random_formula(rng, 2, ["p", "q"], 3, allow_s=True)
            assert extension(m, f) == extension(m, expand_s(f, 2))

    def test_dist_semantics(self):
        m = Model(total_frame(2, 2), {"w0": ("p",)})
        assert not satisfies(m, "w0", parse("D p", 2))
        ident = Model(identity_frame(2, 2), {"w0": ("p",)})
        assert satisfies(ident, "w0", parse("D p", 2))
        assert valid_on_frame(identity_frame(2, 2), parse("p <-> D p", 2))

    def test_dist_needs_equivalence(self):
        fr = Frame(1, ["w0", "w1"], [[("w0", "w1")]])
        with pytest.raises(ValueError):
            satisfies(Model(fr, {}), "w0", parse("D p", 1))

    def test_unknown_world(self):
        with pytest.raises(ValueError):
            satisfies(Model(identity_frame(1, 1), {}), "zz", parse("p", 1))

    def test_agent_out_of_range(self):
        with pytest.raises(AgentIndexError):
            from s5wd.formula import Box, Atom

            satisfies(Model(identity_frame(1, 1), {}), "w0", Box(2, Atom("p")))


class TestFrameValidity:
    def test_tautology(self):
        rng = random.Random(7)
        for _ in range(10):
            assert valid_on_frame(random_frame(rng, 2, rng.randint(1, 4)), parse("p -> p", 2))

    def test_wd_instance_on_ewd_frame(self):
        source = row_diagonal_morphism().source
        f = wd_instance([parse("[1]p", 2), parse("[2]q", 2)])
        assert valid_on_frame(source, f)

    def test_wd_instance_fails_on_missing_corner(self):
        fr = missing_corner_model().frame
        f = wd_instance([parse("[1]p", 2), parse("[2]q", 2)])
        assert not valid_on_frame(fr, f)

    def test_countermodel_is_verified(self):
        fr = missing_corner_model().frame
        found = find_frame_countermodel(fr, parse(CATACH, 2))
        assert found is not None
        m, w = found
        assert not satisfies(m, w, parse(CATACH, 2))

    def test_no_countermodel_for_valid(self):
        assert find_frame_countermodel(identity_frame(1, 2), parse("[1]p <-> p", 1)) is None

    def test_builds_a_model_only_for_the_witness(self, monkeypatch):
        fr = missing_corner_model().frame
        built = []
        post_init = Model.__post_init__
        monkeypatch.setattr(Model, "__post_init__", lambda m: built.append(post_init(m)))
        assert find_frame_countermodel(fr, parse(CATACH, 2)) is not None
        assert len(built) == 1
        assert find_frame_countermodel(fr, parse("[1]p -> p", 2)) is None
        assert len(built) == 1

    def test_budget(self):
        fr = identity_frame(1, 6)
        f = parse("a1 & a2 & a3 & a4", 1)
        with pytest.raises(BudgetError):
            valid_on_frame(fr, f)
        assert valid_on_frame(fr, f, max_assignments=2**24) is False

    def test_formula_checks_after_budget(self):
        from s5wd.formula import Atom, Box

        fr = Frame(1, ["w0", "w1"], [[("w0", "w1")]])
        for agent in (0, 2):
            with pytest.raises(AgentIndexError):
                find_frame_countermodel(fr, Box(agent, Atom("p")))
        with pytest.raises(ValueError, match="requires an equivalence model"):
            find_frame_countermodel(fr, parse("D p", 1))
        with pytest.raises(BudgetError):
            find_frame_countermodel(fr, Box(2, Atom("p")), max_assignments=2)


class TestFrameProperties:
    def test_identity_frame(self):
        fr = identity_frame(2, 2)
        assert check_equivalence(fr) and check_i(fr) and check_wd(fr)
        assert not check_d(fr)

    def test_total_frame(self):
        fr = total_frame(2, 3)
        assert check_equivalence(fr) and check_d(fr) and check_wd(fr)
        assert not check_i(fr)

    def test_missing_corner(self):
        fr = missing_corner_model().frame
        assert check_equivalence(fr) and check_i(fr)
        assert not check_wd(fr)
        assert not check_d(fr)

    def test_row_diagonal_source_is_edi(self):
        fr = row_diagonal_morphism().source
        assert check_equivalence(fr) and check_d(fr) and check_i(fr) and check_wd(fr)

    def test_not_equivalence(self):
        assert not check_equivalence(Frame(1, ["w0", "w1"], [[("w0", "w1")]]))
        assert not check_equivalence(Frame(1, ["w0"], [[]]))

    def test_directed_implies_weakly_directed(self):
        rng = random.Random(33)
        seen_directed = 0
        for _ in range(200):
            if rng.random() < 0.5:
                fr = random_equivalence_frame(rng, 2, rng.randint(1, 5))
            else:
                fr = random_frame(rng, 2, rng.randint(1, 4), density=0.6)
            if check_d(fr):
                seen_directed += 1
                assert check_wd(fr)
        assert seen_directed > 10

    def test_disjoint_union_of_directed_frames(self):
        a = total_frame(2, 2)
        b = total_frame(2, 3)
        both = disjoint_union(a, b)
        assert not check_d(both)
        assert check_wd(both)

    def test_equivalence_classes(self):
        fr = missing_corner_model().frame
        assert equivalence_classes(fr, 1) == (("w0", "w1"), ("w2",))
        assert equivalence_classes(fr, 2) == (("w0", "w2"), ("w1",))
        with pytest.raises(ValueError):
            equivalence_classes(Frame(1, ["w0", "w1"], [[("w0", "w1")]]), 1)


class TestComponents:
    def test_connected_frame(self):
        fr = total_frame(1, 3)
        pieces = connected_components(fr)
        assert len(pieces) == 1
        assert pieces[0][0] == fr and pieces[0][1] == fr.worlds
        assert is_connected(fr)

    def test_disjoint_union_components(self):
        a = total_frame(2, 2)
        b = identity_frame(2, 1)
        both = disjoint_union(a, b)
        pieces = connected_components(both)
        assert [members for _, members in pieces] == [
            ((0, "w0"), (0, "w1")),
            ((1, "w0"),),
        ]
        assert not is_connected(both)

    def test_symmetric_closure_used(self):
        fr = Frame(1, ["w0", "w1"], [[("w0", "w1")]])
        assert is_connected(fr)

    def test_generated_submodel_preserves_satisfaction(self):
        rng = random.Random(404)
        for _ in range(100):
            a = random_equivalence_frame(rng, 2, rng.randint(1, 3), prefix="a")
            b = random_equivalence_frame(rng, 2, rng.randint(1, 3), prefix="b")
            fr = disjoint_union(a, b)
            m = random_model(rng, fr, ["p", "q"])
            w = rng.choice(fr.worlds)
            sub = generated_submodel(m, w)
            f = random_formula(rng, 2, ["p", "q"], 3)
            assert satisfies(m, w, f) == satisfies(sub, w, f)

    def test_generated_submodel_unknown_world(self):
        with pytest.raises(ValueError):
            generated_submodel(Model(identity_frame(1, 1), {}), "zz")

    def test_disjoint_union_agent_mismatch(self):
        with pytest.raises(ValueError):
            disjoint_union(identity_frame(1, 1), identity_frame(2, 1))


class TestIsomorphism:
    def test_frame_with_itself(self):
        fr = missing_corner_model().frame
        wm = find_isomorphism(fr, fr)
        assert wm is not None
        assert_isomorphism(wm)

    def test_renamed_frame(self):
        rng = random.Random(55)
        for _ in range(40):
            fr = random_frame(rng, 2, rng.randint(1, 6))
            renamed = list(fr.worlds)
            rng.shuffle(renamed)
            name = dict(zip(fr.worlds, renamed))
            other = Frame(
                2,
                sorted(renamed),
                [{(name[w], name[u]) for (w, u) in rel} for rel in fr.relations],
            )
            wm = find_isomorphism(fr, other)
            assert wm is not None
            assert_isomorphism(wm)

    def test_different_cardinality(self):
        assert find_isomorphism(identity_frame(1, 2), identity_frame(1, 3)) is None

    def test_same_size_non_isomorphic(self):
        assert find_isomorphism(identity_frame(1, 2), total_frame(1, 2)) is None

    def test_budget(self):
        with pytest.raises(BudgetError):
            find_isomorphism(identity_frame(1, 13), identity_frame(1, 13))
        wm = find_isomorphism(identity_frame(1, 13), identity_frame(1, 13), max_worlds=13)
        assert wm is not None

    def test_models_respect_valuation(self):
        fr = total_frame(1, 2)
        m1 = Model(fr, {"w0": ("p",)})
        m2 = Model(fr, {"w1": ("p",)})
        m3 = Model(fr, {"w0": ("p", "q")})
        wm = find_isomorphism(m1, m2)
        assert wm is not None and wm("w0") == "w1"
        assert_isomorphism(wm)
        assert find_isomorphism(m1, m3) is None

    def test_mixed_arguments_rejected(self):
        fr = identity_frame(1, 1)
        with pytest.raises(ValueError):
            find_isomorphism(fr, Model(fr, {}))

    def test_agent_count_mismatch(self):
        with pytest.raises(ValueError):
            find_isomorphism(identity_frame(1, 2), identity_frame(2, 2))

    def test_search_depth_is_not_bounded_by_the_recursion_limit(self):
        # a 20 x 20 grid: color refinement leaves all 400 worlds alike, so the
        # search assigns them one by one
        rng = random.Random(7)
        cells = [(x, y) for x in range(20) for y in range(20)]
        frames = []
        for _ in range(2):
            rng.shuffle(cells)
            frames.append(frame_from_labels(2, cells, lambda i, c: c[i - 1]))
        depth = 0
        frame = sys._getframe()
        while frame is not None:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 100)
        try:
            wm = find_isomorphism(*frames, max_worlds=400)
        finally:
            sys.setrecursionlimit(limit)
        assert_isomorphism(wm)

    def test_renamed_40_by_40_hypercube(self):
        # color refinement leaves all 1,600 worlds alike; the search's domains
        # stay a few cells of rows and columns, which it narrows as wholes
        rng = random.Random(40)
        cells = [(x, y) for x in range(40) for y in range(40)]
        rng.shuffle(cells)
        left = frame_from_labels(2, cells, lambda i, c: c[i - 1])
        rng.shuffle(cells)
        cell = {f"v{k}": c for k, c in zip(rng.sample(range(1600), 1600), cells)}
        right = frame_from_labels(2, cell, lambda i, v: cell[v][i - 1])
        wm = find_isomorphism(left, right, max_worlds=1600)
        assert_isomorphism(wm)


class TestPMorphism:
    def test_identity_map(self):
        fr = missing_corner_model().frame
        assert check_p_morphism(WorldMap(fr, fr, {w: w for w in fr.worlds}))

    def test_row_diagonal_projection(self):
        wm = row_diagonal_morphism()
        report = check_p_morphism(wm)
        assert report and report.clause is None
        assert check_i(wm.source) and not check_i(wm.target)

    def test_back_simulation_failure(self):
        source = Frame(1, ["w0", "w1"], [[]])
        target = Frame(1, ["t"], [[("t", "t")]])
        report = check_p_morphism(WorldMap(source, target, {"w0": "t", "w1": "t"}))
        assert not report
        assert report.clause == "back"
        assert report.witness == (1, "w0", "t")

    def test_surjectivity_failure(self):
        source = identity_frame(1, 2)
        target = identity_frame(1, 2)
        report = check_p_morphism(WorldMap(source, target, {"w0": "w0", "w1": "w0"}))
        assert not report
        assert report.clause == "surjectivity"
        assert report.witness == ("w1",)

    def test_forward_failure(self):
        source = total_frame(1, 2)
        target = identity_frame(1, 2)
        report = check_p_morphism(WorldMap(source, target, {"w0": "w0", "w1": "w1"}))
        assert not report
        assert report.clause == "forward"
        assert report.witness == (1, "w0", "w1")

    def test_world_map_validation(self):
        fr = identity_frame(1, 2)
        with pytest.raises(ValueError):
            WorldMap(fr, fr, {"w0": "w0"})
        with pytest.raises(ValueError):
            WorldMap(fr, fr, {"w0": "w0", "w1": "zz"})
        with pytest.raises(ValueError):
            WorldMap(fr, fr, {"w0": "w0", "w1": "w1", "zz": "w0"})

    def test_model_version_checks_atoms(self):
        wm = row_diagonal_morphism()
        rng = random.Random(66)
        target_model = random_model(rng, wm.target, ["p", "q"])
        pulled = Model(wm.source, {w: target_model.atoms_at(wm(w)) for w in wm.source.worlds})
        good = WorldMap(pulled, target_model, wm.as_dict())
        assert check_model_p_morphism(good)
        skewed = Model(
            wm.source,
            {w: (target_model.atoms_at(wm(w)) | {"zz"}) if w == "a0" else target_model.atoms_at(wm(w))
             for w in wm.source.worlds},
        )
        report = check_model_p_morphism(WorldMap(skewed, target_model, wm.as_dict()))
        assert not report and report.clause == "valuation"
        assert report.witness == ("a0", "a")

    def test_model_version_requires_models(self):
        fr = identity_frame(1, 1)
        with pytest.raises(ValueError):
            check_model_p_morphism(WorldMap(fr, fr, {"w0": "w0"}))

    def test_truth_transfer_through_model_p_morphism(self):
        # Verified model p-morphisms preserve satisfaction world by world.
        wm = row_diagonal_morphism()
        rng = random.Random(77)
        for _ in range(150):
            target_model = random_model(rng, wm.target, ["p", "q"])
            pulled = Model(
                wm.source, {w: target_model.atoms_at(wm(w)) for w in wm.source.worlds}
            )
            assert check_model_p_morphism(WorldMap(pulled, target_model, wm.as_dict()))
            f = random_formula(rng, 2, ["p", "q"], 3)
            for w in wm.source.worlds:
                assert satisfies(pulled, w, f) == satisfies(target_model, wm(w), f)

    def test_agent_count_mismatch(self):
        a = identity_frame(1, 1)
        b = identity_frame(2, 1)
        with pytest.raises(ValueError):
            check_p_morphism(WorldMap(a, b, {"w0": "w0"}))


class TestLocalInvariance:
    def test_i_local_constant_on_classes(self):
        rng = random.Random(88)
        for _ in range(80):
            fr = random_equivalence_frame(rng, 2, rng.randint(1, 5))
            m = random_model(rng, fr, ["p", "q"])
            i = rng.randint(1, 2)
            f = random_i_local(rng, 2, i, ["p", "q"], 2)
            holds = extension(m, f)
            for w in fr.worlds:
                for u in fr.succ(i, w):
                    assert (w in holds) == (u in holds)

    def test_validity_transfer_row_diagonal(self):
        # Frame p-morphisms transfer validity; the non-I image inherits every
        # valid depth-two single-atom formula, so no such formula forces I.
        wm = row_diagonal_morphism()
        assert check_p_morphism(wm)
        rng = random.Random(99)
        checked = 0
        for _ in range(200):
            f = random_formula(rng, 2, ["p"], 2)
            if valid_on_frame(wm.source, f):
                checked += 1
                assert valid_on_frame(wm.target, f)
        assert checked > 5


class TestJson:
    def test_frame_round_trip(self):
        fr = missing_corner_model().frame
        data = frame_to_json(fr)
        assert data["worlds"] == ["w0", "w1", "w2"]
        assert frame_from_json(data) == fr

    def test_partitions_form(self):
        data = {
            "n": 2,
            "worlds": ["w0", "w1", "w2"],
            "partitions": {"1": [["w0", "w1"], ["w2"]], "2": [["w0", "w2"], ["w1"]]},
        }
        assert frame_from_json(data) == missing_corner_model().frame

    def test_agent_count_bound(self):
        data = {"worlds": ["a"], "relations": {}}
        assert frame_from_json({"n": kripke.MAX_AGENTS, **data}).n == 1000
        with pytest.raises(ValueError, match="at most 1000"):
            frame_from_json({"n": kripke.MAX_AGENTS + 1, **data})

    def test_every_world_has_its_own_text(self):
        # world-keyed readers and writers go by world_key, which writes no float
        # and gives 1 and "1" the same text
        with pytest.raises(ValueError, match=r"^symbol 1\.5 in 'worlds' is not an integer$"):
            frame_from_json({"n": 1, "worlds": [1.5, "a"], "relations": {"1": [[1.5, 1.5]]}})
        with pytest.raises(ValueError, match=r"^symbol 0\.5 in a block of partition 1 is not"):
            frame_from_json({"n": 1, "worlds": ["a"], "partitions": {"1": [["a", 0.5]]}})
        # the other world is written as in the document; of several texts, the least
        clashes = (([1, "1"], "1"), (["a", None, "null"], "null"), (["true", True], "true"),
                   ([2, "2", "1", 1], "1"))
        for worlds, text in clashes:
            with pytest.raises(ValueError) as err:
                frame_from_json({"n": 1, "worlds": worlds, "relations": {}})
            assert str(err.value) == f"worlds {text} and {text!r} share the text {text!r}"
        loaded = frame_from_json({"n": 1, "worlds": [1, "a", None, False, "2"], "relations": {}})
        assert [world_key(w) for w in loaded.worlds] == ["1", "a", "null", "false", "2"]

    def test_partitions_validation(self):
        base = {"n": 1, "worlds": ["w0", "w1"]}
        with pytest.raises(ValueError):
            frame_from_json({**base, "partitions": {"1": [["w0"]]}})
        with pytest.raises(ValueError):
            frame_from_json({**base, "partitions": {"1": [["w0", "w1"], ["w1"]]}})
        with pytest.raises(ValueError):
            frame_from_json({**base, "partitions": {}})
        with pytest.raises(ValueError):
            frame_from_json(
                {**base, "partitions": {"1": [["w0", "w1"]]}, "relations": {"1": []}}
            )
        with pytest.raises(ValueError):
            frame_from_json(base)
        with pytest.raises(ValueError, match="unknown world 'zz'"):
            frame_from_json({**base, "partitions": {"1": [["w0", "w1"], ["zz"]]}})
        # a duplicate is reported before a missing world, a missing world
        # before an unknown one
        with pytest.raises(ValueError, match="two partition blocks"):
            frame_from_json(
                {"n": 1, "worlds": ["w0", "w1", "w2"], "partitions": {"1": [["w0", "w1"], ["w1"]]}}
            )
        with pytest.raises(ValueError, match="missing from the partition"):
            frame_from_json({**base, "partitions": {"1": [["w0"], ["zz"]]}})

    def test_frame_from_partitions_validation(self):
        worlds = ["w0", "w1"]
        with pytest.raises(ValueError, match="unknown world 'zz'"):
            frame_from_partitions(1, worlds, [[["w0", "w1", "zz"]]])
        with pytest.raises(ValueError, match="two partition blocks"):
            frame_from_partitions(1, worlds, [[["w0", "w1"], ["w0"]]])
        with pytest.raises(ValueError, match="missing from the partition"):
            frame_from_partitions(2, worlds, [[["w0", "w1"]], [["w0"]]])
        with pytest.raises(ValueError, match="expected 2 partitions"):
            frame_from_partitions(2, worlds, [[["w0", "w1"]]])

    def test_model_round_trip(self, monkeypatch):
        m = missing_corner_model()
        # each world is encoded once, for its frame entry and its valuation key both
        encoded = []
        monkeypatch.setattr(kripke, "world_key", lambda w: encoded.append(w) or world_key(w))
        data = model_to_json(m)
        assert encoded == list(m.frame.worlds)
        assert data["valuation"] == {"w0": [], "w1": ["p"], "w2": []}
        assert model_from_json(data) == m

    def test_model_unknown_world(self):
        data = model_to_json(missing_corner_model())
        data["valuation"]["zz"] = ["p"]
        with pytest.raises(ValueError):
            model_from_json(data)

    def test_world_map_round_trip(self):
        wm = row_diagonal_morphism()
        data = world_map_to_json(wm)
        assert data == {"map": {"a0": "a", "b0": "b", "a1": "a", "b1": "b"}}
        again = world_map_from_json(data, wm.source, wm.target)
        assert again.mapping == wm.mapping

    def test_world_map_bad_keys(self):
        wm = row_diagonal_morphism()
        with pytest.raises(ValueError, match="map key 'zz' is not a source world"):
            world_map_from_json({"map": {"zz": "a"}}, wm.source, wm.target)
        for value in ("zz", ["a"], {"a": 0}, 0):
            with pytest.raises(ValueError, match="is not a target world"):
                world_map_from_json({"map": {"a0": value}}, wm.source, wm.target)

    def test_agent_keys_name_agents(self):
        # a key other than "1".."n" was dropped, so agent 1 had no relation
        base = {"n": 1, "worlds": ["a", "b"]}
        for field, table in (("relations", {"01": [["a", "a"], ["b", "b"]]}),
                             ("relations", {"1": [], "2": []}),
                             ("relations", {1: [["a", "a"]]}),
                             ("partitions", {"1": [["a", "b"]], "3": [["a", "b"]]})):
            key = next(k for k in table if k != "1")
            with pytest.raises(ValueError) as err:
                frame_from_json({**base, field: table})
            assert str(err.value) == f"key {key!r} in {field!r} names no agent 1..1"

    def test_tuple_worlds_encode(self):
        both = disjoint_union(total_frame(1, 2), identity_frame(1, 1))
        data = frame_to_json(both)
        assert data["worlds"] == ['[0,"w0"]', '[0,"w1"]', '[1,"w0"]']
        loaded = frame_from_json(data)
        wm = find_isomorphism(both, loaded)
        assert wm is not None
        assert_isomorphism(wm)

    def test_world_key_frozensets(self):
        assert world_key(frozenset({"b", "a"})) == '["a","b"]'
        assert world_key("w0") == "w0"
        assert world_key((1, ("x", frozenset({2, 1})))) == '[1,["x",[1,2]]]'
