"""Tests for frame enumeration and the bounded decision procedure."""

import random

import pytest

from s5wd import decide, formula, kripke
from s5wd.decide import (
    Verdict,
    catach_instance,
    decide_satisfiability,
    decide_validity,
    enumerate_frames,
    frame_in_class,
)
from s5wd.formula import (
    Atom,
    Box,
    Not,
    expand_s,
    parse,
    wd_instance,
)
from s5wd.kripke import (
    AgentIndexError,
    BudgetError,
    Frame,
    check_d,
    check_equivalence,
    check_i,
    check_wd,
    connected_components,
    find_isomorphism,
    is_connected,
    satisfies,
    valid_on_frame,
)
from s5wd.systems import f_map, frame_to_hypercube

from helpers import missing_corner_model, random_formula


class TestEnumerateFrames:
    def test_single_world(self):
        frames = list(enumerate_frames(2, 1))
        assert len(frames) == 1
        assert frames[0].worlds == ("w0",)

    def test_counts_up_to_two_worlds(self):
        counts = {k: len(list(enumerate_frames(2, 2, k))) for k in ("e", "ed", "ewd", "edi")}
        assert counts == {"e": 5, "ed": 4, "ewd": 5, "edi": 3}

    def test_counts_up_to_three_worlds(self):
        counts = {k: len(list(enumerate_frames(2, 3, k))) for k in ("e", "ed", "ewd", "edi")}
        assert counts == {"e": 15, "ed": 9, "ewd": 14, "edi": 5}

    def test_agent_count_bound(self):
        assert len(list(enumerate_frames(kripke.MAX_AGENTS, 1))) == 1
        with pytest.raises(ValueError, match="at most 1000"):
            next(enumerate_frames(kripke.MAX_AGENTS + 1, 1))

    def test_counts_single_agent(self):
        assert len(list(enumerate_frames(1, 2))) == 3

    def test_edi_count_matches_grid_dimensions(self):
        # EDI frames are exactly products of two clusters, so the number of
        # isomorphism classes with <= 6 worlds is the number of dimension
        # pairs (k1, k2) with k1 * k2 <= 6.
        expected = len([(a, b) for a in range(1, 7) for b in range(1, 7) if a * b <= 6])
        frames = list(enumerate_frames(2, 6, "edi"))
        assert len(frames) == expected == 14

    def test_yields_requested_class(self):
        for fr in enumerate_frames(2, 3, "edi"):
            assert check_equivalence(fr) and check_d(fr) and check_i(fr)
        for fr in enumerate_frames(2, 3, "ewd"):
            assert check_wd(fr)

    def test_pairwise_non_isomorphic(self):
        frames = list(enumerate_frames(2, 3, "e"))
        for i, a in enumerate(frames):
            for b in frames[i + 1 :]:
                if len(a.worlds) == len(b.worlds):
                    assert find_isomorphism(a, b, max_worlds=4) is None

    def test_connected_only(self):
        frames = list(enumerate_frames(2, 2, "e", connected_only=True))
        assert len(frames) == 4
        assert all(is_connected(fr) for fr in frames)

    def test_only_non_wd_frame_up_to_three_worlds_is_missing_corner(self):
        bad = [fr for fr in enumerate_frames(2, 3, "e") if not check_wd(fr)]
        assert len(bad) == 1
        assert find_isomorphism(bad[0], missing_corner_model().frame) is not None

    def test_budget(self):
        with pytest.raises(BudgetError):
            list(enumerate_frames(2, 7))

    def test_six_worlds_two_agents(self):
        assert len(list(enumerate_frames(2, 6, "e"))) == 437

    def test_no_isomorphism_search(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_isomorphism called")

        monkeypatch.setattr(kripke, "find_isomorphism", refuse)
        monkeypatch.setattr(decide, "find_isomorphism", refuse, raising=False)
        assert len(list(enumerate_frames(2, 4, "e"))) == 48

    def test_one_frame_per_orbit(self, monkeypatch):
        built = []
        post_init = Frame.__post_init__
        monkeypatch.setattr(Frame, "__post_init__", lambda fr: built.append(post_init(fr)))
        # every orbit of class e is yielded, so orbits = frames yielded
        orbits = len(list(enumerate_frames(2, 4, "e")))
        assert len(built) == orbits
        built.clear()
        list(enumerate_frames(2, 4, "ed", connected_only=True))
        assert len(built) == orbits
        # six worlds, the decide benchmark's T anchor: 437 orbits, 192 connected
        built.clear()
        yielded = len(list(enumerate_frames(2, 6, "e", connected_only=True)))
        assert (len(built), yielded) == (437, 192)

    def test_bad_class(self):
        with pytest.raises(ValueError):
            list(enumerate_frames(2, 2, "reflexive"))
        with pytest.raises(ValueError):
            frame_in_class(missing_corner_model().frame, "s5")

    def test_frame_in_class(self):
        fr = missing_corner_model().frame
        assert frame_in_class(fr, "e")
        assert not frame_in_class(fr, "ewd")
        assert not frame_in_class(fr, "ed")


class TestDecideSatisfiability:
    def test_contradiction_unknown_below_threshold(self):
        v = decide_satisfiability(parse("p & ~p", 1), 1, 4)
        assert v.kind == "unknown"
        assert v.bound == 4
        assert not v.decided

    def test_contradiction_unsat_at_threshold(self):
        # closure of p & ~p has 3 members, so bound 8 is exhaustive
        v = decide_satisfiability(parse("p & ~p", 1), 1, 8)
        assert v.kind == "unsatisfiable"
        assert v.decided

    def test_edi_class_never_claims_unsat(self):
        v = decide_satisfiability(parse("p & ~p", 1), 1, 8, klass="edi")
        assert v.kind == "unknown"

    def test_dist_blocks_unsat_claim(self):
        # ~(D p -> p) is unsatisfiable on equivalence models and its stripped
        # size is 3, but the size bound argument does not cover the D
        # operator, so bound 8 must not claim unsatisfiability
        v = decide_satisfiability(parse("~(D p -> p)", 1), 1, 8)
        assert v.kind == "unknown"

    def test_atom_satisfiable_on_singleton(self):
        v = decide_satisfiability(parse("p", 2), 2, 1)
        assert v.kind == "satisfiable"
        assert len(v.witness_model.frame.worlds) == 1
        assert satisfies(v.witness_model, v.witness_world, parse("p", 2))

    def test_negated_catach_finds_missing_corner(self):
        query = Not(catach_instance())
        v = decide_satisfiability(query, 2, 4, klass="e")
        assert v.kind == "satisfiable"
        assert v.witness_model == missing_corner_model()
        assert v.witness_world == "w0"
        assert satisfies(v.witness_model, v.witness_world, query)

    def test_negated_catach_unsat_search_on_wd_classes(self):
        # every EWD model validates the axiom, so the bound runs out quietly
        for klass in ("ed", "ewd"):
            v = decide_satisfiability(Not(catach_instance()), 2, 4, klass=klass)
            assert v.kind == "unknown"

    def test_some_operator_expanded(self):
        v = decide_satisfiability(parse("S p & ~p", 2), 2, 2)
        assert v.kind == "satisfiable"
        assert satisfies(v.witness_model, v.witness_world, parse("<1>p | <2>p", 2))
        assert not satisfies(v.witness_model, v.witness_world, parse("p", 2))

    def test_agent_out_of_range(self):
        with pytest.raises(AgentIndexError):
            decide_satisfiability(Box(3, Atom("p")), 2, 2)

    def test_formula_checked_once_per_query(self, monkeypatch):
        # the agent check, the D test and the kernel all read the one compiled
        # DAG of the query; S is evaluated directly, not expanded
        queries = [Not(catach_instance()), parse("S p & ~p", 2)]
        expected = [decide_satisfiability(q, 2, 3, klass="e") for q in queries]
        compiled, walks = [], []
        compile_ = formula._compile
        for module in (formula, decide, kripke):
            monkeypatch.setattr(module, "_compile", lambda f: compiled.append(f) or compile_(f))
        for name in ("subformulas", "has_node", "expand_s"):
            for module in (formula, decide, kripke):
                monkeypatch.setattr(
                    module, name, lambda *args, name=name: walks.append(name), raising=False
                )
        for query, verdict in zip(queries, expected):
            compiled.clear()
            assert decide_satisfiability(query, 2, 3, klass="e") == verdict
            assert compiled == [Not(query)] and walks == []

    def test_target_compiled_once_per_query(self, monkeypatch):
        expected = decide_satisfiability(Not(catach_instance()), 2, 3, klass="e")
        compiled, frames = [], []
        compile_, countermodel = kripke._compile, kripke._countermodel
        for module in (decide, kripke):
            monkeypatch.setattr(module, "_compile", lambda f: compiled.append(f) or compile_(f))
        monkeypatch.setattr(
            decide, "_countermodel", lambda fr, *args: frames.append(fr) or countermodel(fr, *args)
        )
        assert decide_satisfiability(Not(catach_instance()), 2, 3, klass="e") == expected
        assert len(compiled) == 1 and len(frames) > 1

    def test_bad_bound(self):
        with pytest.raises(ValueError):
            decide_satisfiability(parse("p", 1), 1, 0)


class TestDecideValidity:
    def test_t_axiom_valid_single_agent(self):
        assert decide_validity(parse("[1]p -> p", 1), 1, 4).kind == "unknown"
        v = decide_validity(parse("[1]p -> p", 1), 1, 8)
        assert v.kind == "valid"
        assert v.bound == 8

    def test_tautology_negation_threshold(self):
        # stripping the outer negation of the query leaves p -> p, size 2
        assert decide_validity(parse("p -> p", 1), 1, 3).kind == "unknown"
        assert decide_validity(parse("p -> p", 1), 1, 4).kind == "valid"

    def test_catach_countermodel_on_widened_class(self):
        v = decide_validity(catach_instance(), 2, 4, klass="e")
        assert v.kind == "countermodel"
        assert v.witness_model == missing_corner_model()
        assert v.witness_world == "w0"
        assert not satisfies(v.witness_model, v.witness_world, catach_instance())

    def test_wd_instance_no_countermodel_on_ewd(self):
        inst = wd_instance([parse("[1]p", 2), parse("[2]q", 2)])
        v = decide_validity(inst, 2, 4, klass="ewd")
        assert v.kind == "unknown"

    def test_atom_countermodel(self):
        v = decide_validity(parse("p", 2), 2, 2)
        assert v.kind == "countermodel"
        assert not satisfies(v.witness_model, v.witness_world, parse("p", 2))

    def test_duality_and_witness_verification(self):
        rng = random.Random(20260825)
        for _ in range(100):
            f = random_formula(rng, 2, ["p", "q"], rng.randint(0, 2), allow_s=True, allow_d=True)
            vv = decide_validity(f, 2, 3)
            vs = decide_satisfiability(Not(f), 2, 3)
            assert (vv.kind == "valid") == (vs.kind == "unsatisfiable")
            assert (vv.kind == "countermodel") == (vs.kind == "satisfiable")
            if vv.kind == "countermodel":
                assert vv.witness_model == vs.witness_model
                assert vv.witness_world == vs.witness_world
                m, w = vv.witness_model, vv.witness_world
                assert not satisfies(m, w, expand_s(f, 2))
                assert frame_in_class(m.frame, "ed")


class TestCorrespondenceSweeps:
    def test_wd_property_matches_wd_instance_validity(self):
        inst = expand_s(wd_instance([parse("[1]p1", 2), parse("[2]p2", 2)]), 2)
        hits = 0
        for fr in enumerate_frames(2, 4, "e"):
            wd = check_wd(fr)
            assert wd == valid_on_frame(fr, inst)
            hits += not wd
        assert hits >= 1

    def test_catach_matches_wd_instance_validity(self):
        inst = expand_s(wd_instance([parse("[1]p1", 2), parse("[2]p2", 2)]), 2)
        catach = catach_instance()
        for fr in enumerate_frames(2, 4, "e"):
            assert valid_on_frame(fr, catach) == valid_on_frame(fr, inst)

    def test_s5_axioms_valid_on_equivalence_frames(self):
        axioms = [
            parse("[1](p -> q) -> ([1]p -> [1]q)", 2),
            parse("[1]p -> p", 2),
            parse("[1]p -> [1][1]p", 2),
            parse("<1>p -> [1]<1>p", 2),
            parse("[2]p -> p", 2),
        ]
        for fr in enumerate_frames(2, 4, "e"):
            for ax in axioms:
                assert valid_on_frame(fr, ax)

    def test_identity_intersection_matches_dist_collapse(self):
        collapse = parse("p <-> D p", 2)
        both = {True: 0, False: 0}
        for fr in enumerate_frames(2, 4, "e"):
            has_i = check_i(fr)
            assert has_i == valid_on_frame(fr, collapse)
            both[has_i] += 1
        assert both[True] >= 1 and both[False] >= 1

    def test_connected_wd_implies_d(self):
        for fr in enumerate_frames(2, 5, "ewd", connected_only=True):
            assert check_d(fr)

    def test_wd_components_are_directed(self):
        for fr in enumerate_frames(2, 4, "ewd"):
            for piece, _ in connected_components(fr):
                assert check_d(piece)

    def test_edi_frames_agree_with_their_hypercube_image(self):
        rng = random.Random(7)
        for fr in enumerate_frames(2, 6, "edi"):
            system, _ = frame_to_hypercube(fr)
            image = f_map(system)
            for _ in range(20):
                f = random_formula(rng, 2, ["p"], rng.randint(0, 2))
                assert valid_on_frame(fr, f) == valid_on_frame(image, f)


class TestVerdict:
    def test_fields(self):
        v = Verdict("unknown", bound=3)
        assert v.witness_model is None
        assert v.witness_world is None
        assert not v.decided
