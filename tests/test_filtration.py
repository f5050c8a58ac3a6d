"""Tests for model filtration and suitability checking."""

import itertools
import random

import pytest

from s5wd import kripke
from s5wd.decide import enumerate_frames
from s5wd.filtration import Filtration, check_suitable, filtrate, world_equivalence
from s5wd.formula import Atom, Box, Diamond, Not, formula_size, parse, subformula_closure
from s5wd.kripke import (
    Frame,
    Model,
    WorldMap,
    check_d,
    check_equivalence,
    check_wd,
    find_isomorphism,
    frame_from_partitions,
    satisfies,
)

from helpers import (
    random_equivalence_frame,
    random_formula,
    random_model,
    random_partition,
    split_pair_model,
    two_block_model,
    with_agent_relation,
)


class TestWorldEquivalence:
    def test_split_by_atom(self):
        m = two_block_model()
        assert world_equivalence(m, [Atom("p")]) == [["w0", "w2"], ["w1", "w3"]]

    def test_agreeing_worlds_collapse(self):
        m = two_block_model()
        assert world_equivalence(m, [Box(1, Atom("p"))]) == [["w0", "w1", "w2", "w3"]]

    def test_class_count_bounded_by_signatures(self):
        rng = random.Random(11)
        f = parse("[1]p -> [2]p", 2)
        for _ in range(20):
            fr = random_equivalence_frame(rng, 2, 6)
            m = random_model(rng, fr, ["p", "q"])
            blocks = world_equivalence(m, subformula_closure(f))
            # the implication's truth is a function of its three parts
            assert len(blocks) <= 8
            assert sorted(w for b in blocks for w in b) == sorted(fr.worlds)


class TestFiltrate:
    def test_single_world(self):
        fr = frame_from_partitions(1, ["w"], [[["w"]]])
        fil = filtrate(Model(fr, {"w": ("p",)}), parse("[1]p", 1))
        assert fil.quotient.frame.worlds == ("w",)
        assert fil.quotient.atoms_at("w") == {"p"}
        assert fil.projection("w") == "w"

    def test_uniform_model_collapses_to_a_point(self):
        fr = frame_from_partitions(
            2, ["a", "b", "c"], [[["a", "b", "c"]], [["a", "b", "c"]]]
        )
        fil = filtrate(Model(fr, {w: ("p",) for w in fr.worlds}), parse("p", 2))
        assert len(fil.quotient.frame.worlds) == 1
        assert fil.quotient.frame.worlds == ("a",)
        assert fil.quotient.frame.relations == (
            frozenset({("a", "a")}),
            frozenset({("a", "a")}),
        )

    def test_two_block_golden(self):
        m = two_block_model()
        fil = filtrate(m, parse("[1]p", 2))
        expected = frame_from_partitions(
            2, ["w0", "w1"], [[["w0", "w1"]], [["w0", "w1"]]]
        )
        assert fil.quotient.frame == expected
        assert fil.quotient.atoms_at("w0") == {"p"}
        assert fil.quotient.atoms_at("w1") == frozenset()
        assert fil.projection.as_dict() == {
            "w0": "w0",
            "w1": "w1",
            "w2": "w0",
            "w3": "w1",
        }

    def test_quotient_drops_foreign_atoms(self):
        m = two_block_model()
        richer = Model(
            m.frame, {"w0": ("p",), "w2": ("p", "q"), "w3": ("q",)}
        )
        fil = filtrate(richer, parse("[1]p", 2))
        for w in fil.quotient.frame.worlds:
            assert "q" not in fil.quotient.atoms_at(w)

    def test_directed_source_gives_directed_quotient(self):
        fr = frame_from_partitions(
            2,
            ["v0", "v1", "v2", "v3", "v4", "v5"],
            [
                [["v0", "v1", "v2", "v3", "v4", "v5"]],
                [["v0", "v1"], ["v2", "v3"], ["v4", "v5"]],
            ],
        )
        assert check_d(fr)
        m = Model(fr, {"v0": ("p",), "v3": ("p",)})
        fil = filtrate(m, parse("~[1]p", 2))
        assert check_equivalence(fil.quotient.frame)
        assert check_d(fil.quotient.frame)

    def test_requires_equivalence_model(self):
        fr = Frame(1, ["a", "b"], [{("a", "b")}])
        with pytest.raises(ValueError, match="equivalence"):
            filtrate(Model(fr, {}), parse("p", 1))

    def test_rejects_s_and_d(self):
        m = two_block_model()
        with pytest.raises(ValueError, match="expanded"):
            filtrate(m, parse("S p", 2))
        with pytest.raises(ValueError, match="not supported"):
            filtrate(m, parse("D p", 2))

    def test_closure_is_of_the_given_formula(self):
        m = two_block_model()
        f = parse("[1]p & p", 2)
        fil = filtrate(m, f)
        assert fil.closure == subformula_closure(f)
        assert fil.source is m


class TestSuitability:
    def test_filtrate_output_is_suitable(self):
        m = two_block_model()
        fil = filtrate(m, parse("[1]p -> [2]p", 2))
        for i in (1, 2):
            report = check_suitable(fil, i)
            assert report
            assert report.clause is None

    def test_deleted_pair_fails_containment(self):
        fil = filtrate(two_block_model(), parse("[1]p", 2))
        corrupt = with_agent_relation(fil, 1, {("w0", "w0"), ("w1", "w1")})
        report = check_suitable(corrupt, 1)
        assert not report
        assert report.clause == "containment"
        assert report.witness == (1, "w0", "w1")
        assert check_suitable(corrupt, 2)

    def test_added_pair_fails_transfer(self):
        fil = filtrate(split_pair_model(), parse("[1]p", 2))
        assert fil.quotient.frame.relations[0] == frozenset(
            {("w0", "w0"), ("w1", "w1")}
        )
        corrupt = with_agent_relation(fil, 1, itertools.product(("w0", "w1"), repeat=2))
        report = check_suitable(corrupt, 1)
        assert not report
        assert report.clause == "transfer"
        assert report.witness == (1, "w0", "w1", Box(1, Atom("p")))

    def test_projection_read_once_per_world(self, monkeypatch):
        # the checks work on masks of source worlds, not on pairs of them
        rng = random.Random(9)
        m = random_model(rng, random_equivalence_frame(rng, 2, 300), ["p", "q"])
        calls = []
        call = WorldMap.__call__
        monkeypatch.setattr(WorldMap, "__call__", lambda wm, w: calls.append(w) or call(wm, w))
        filtrate(m, parse("[1](p -> <2>q) | <1>[2]q", 2))
        assert len(calls) <= len(m.frame.worlds)

    def test_agent_out_of_range(self):
        fil = filtrate(split_pair_model(), parse("p", 2))
        with pytest.raises(Exception):
            check_suitable(fil, 3)


def small_closed_formula(rng):
    while True:
        f = random_formula(rng, 2, ["p", "q"], rng.randint(0, 2))
        if formula_size(f) <= 4:
            return f


class TestInvariantSweep:
    def test_truth_preservation_size_bound_and_directedness(self):
        rng = random.Random(20260825)
        directed_hits = 0
        proper_quotients = 0
        for trial in range(150):
            size = rng.randint(1, 6)
            worlds = [f"w{k}" for k in range(size)]
            if trial % 3 == 0:
                # force a directed source: one agent sees a single cluster
                fr = frame_from_partitions(
                    2, worlds, [[worlds], random_partition(rng, worlds)]
                )
            else:
                fr = random_equivalence_frame(rng, 2, size)
            m = random_model(rng, fr, ["p", "q"])
            f = small_closed_formula(rng)
            fil = filtrate(m, f)
            assert len(fil.quotient.frame.worlds) <= 2 ** formula_size(f)
            for alpha in fil.closure:
                for w in fr.worlds:
                    assert satisfies(m, w, alpha) == satisfies(
                        fil.quotient, fil.projection(w), alpha
                    )
            assert check_equivalence(fil.quotient.frame)
            if check_d(fr):
                directed_hits += 1
                assert check_d(fil.quotient.frame)
            if len(fil.quotient.frame.worlds) < size:
                proper_quotients += 1
        assert directed_hits >= 40
        assert proper_quotients >= 40

    def test_idempotence(self):
        rng = random.Random(4)
        for _ in range(40):
            fr = random_equivalence_frame(rng, 2, rng.randint(1, 6))
            m = random_model(rng, fr, ["p", "q"])
            f = small_closed_formula(rng)
            fil = filtrate(m, f)
            again = filtrate(fil.quotient, f)
            assert again.quotient == fil.quotient
            assert find_isomorphism(again.quotient, fil.quotient) is not None


class TestBoundForDirectedClasses:
    """decide claims "unsatisfiable" on ed and ewd frames through filtration
    of connected D models (decide._may_claim_unsat): a connected WD frame
    is D, and the quotient of a D model is D."""

    def test_d_source_gives_d_quotient(self):
        rng = random.Random(0)
        sources = proper = 0
        while sources < 400:
            n = rng.randint(2, 3)
            size = rng.randint(1, 6)
            fr = random_equivalence_frame(rng, n, size)
            if not check_d(fr):
                continue
            sources += 1
            m = random_model(rng, fr, ["p", "q"])
            fil = filtrate(m, random_formula(rng, n, ["p", "q"], rng.randint(0, 3)))
            assert check_d(fil.quotient.frame)
            proper += len(fil.quotient.frame.worlds) < size
        assert proper > 100

    def test_connected_wd_frames_are_d(self):
        for n, size in ((1, 5), (2, 6), (3, 4)):
            frames = list(enumerate_frames(n, size, "ewd", connected_only=True))
            assert frames and all(check_d(fr) for fr in frames)

    def test_wd_source_can_give_a_quotient_that_is_not_wd(self):
        # why the ewd bound goes through ed: filtrating a WD model that is
        # not connected can lose WD
        fr = frame_from_partitions(
            2,
            ["w0", "w1", "w2", "w3"],
            [[["w0"], ["w1", "w2"], ["w3"]], [["w0", "w1", "w2"], ["w3"]]],
        )
        assert check_wd(fr) and not check_d(fr)
        m = Model(fr, {"w1": ("p",), "w2": ("p",), "w3": ("p",)})
        quotient = filtrate(m, parse("<1>p & [2]p", 2)).quotient.frame
        assert quotient.worlds == ("w0", "w1", "w3")
        assert check_equivalence(quotient)
        assert not check_wd(quotient) and not check_d(quotient)


def nested(wrap, depth: int):
    f = Atom("p")
    for _ in range(depth):
        f = wrap(f)
    return f


class TestOneKernelRun:
    """Every closure member's truth comes from one kernel run over the
    closure's shared DAG, so the number of runs does not grow with the
    closure."""

    def test_runs_do_not_depend_on_closure_size(self, monkeypatch):
        runs = []
        run = kripke._Kernel.run
        monkeypatch.setattr(kripke._Kernel, "run", lambda *args: runs.append(1) or run(*args))
        m = two_block_model()
        counts = []
        for f in (Atom("p"), parse("[1]" * 60 + "<2>" * 60 + "p", 2)):
            runs.clear()
            fil = filtrate(m, f)
            counts.append((len(fil.closure), len(runs)))
            runs.clear()
            world_equivalence(m, fil.closure)
            check_suitable(fil, 1)
            assert len(runs) == 2
        # one run for the classes; the quotient is not re-checked
        assert counts == [(2, 1), (242, 1)]

    @pytest.mark.parametrize("wrap", [lambda g: Box(1, g), lambda g: Diamond(2, g), Not],
                             ids=["box", "diamond", "not"])
    def test_deep_formula_needs_no_recursion(self, wrap):
        f = nested(wrap, 10_000)
        fil = filtrate(split_pair_model(), f)
        assert len(fil.closure) == (10_001 if wrap is Not else 20_002)
        assert fil.quotient.frame.worlds == ("w0", "w1")
