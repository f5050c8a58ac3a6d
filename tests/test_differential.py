"""Fast paths against the simple implementations kept in helpers, on seeded
random inputs.  World order is shuffled where the output has an order (classes
and components come out in first-world order), so order is part of the
comparison; frame sequences and countermodel witnesses must be identical."""

import dataclasses
import itertools
import random

import pytest

from s5wd import kripke
from s5wd.broadcast import (
    EPSILON,
    BroadcastEnvironment,
    generate_frame,
    perfect_recall_state,
    trivial_protocol,
    verify_hypercube_decomposition,
)
from s5wd.decide import CLASS_NAMES, enumerate_frames
from s5wd.filtration import check_suitable, filtrate
from s5wd.kripke import (
    Frame,
    Model,
    WorldMap,
    check_d,
    check_equivalence,
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
    frame_of,
)
from s5wd.systems import (
    f_map,
    frame_to_full_system,
    frame_to_hypercube,
    system_from_states,
)
from s5wd.unpack import cluster_decomposition
from helpers import (
    check_d_by_product,
    check_suitable_by_pairs,
    check_wd_by_neighborhood,
    classes_by_scan,
    components_by_pair_scan,
    countermodel_by_valuation,
    enumerate_frames_pairwise,
    extension_by_sets,
    f_map_by_definition,
    find_isomorphism_by_lists,
    frame_by_label_pairs,
    frame_to_full_system_by_tables,
    frame_to_hypercube_by_product,
    not_full_hole_by_system,
    pairs_from_blocks,
    random_equivalence_frame,
    random_formula,
    random_frame,
    random_full_system,
    random_hypercube,
    random_i_local,
    random_model,
    random_partition,
    union_by_pairs,
)

SEEDS = range(60)


def shuffled_worlds(rng: random.Random, size: int) -> list:
    worlds = [f"w{k}" for k in range(size)]
    rng.shuffle(worlds)
    return worlds


def random_partition_frame(rng: random.Random) -> tuple:
    n = rng.randint(1, 3)
    worlds = shuffled_worlds(rng, rng.randint(1, 9))
    parts = [random_partition(rng, worlds) for _ in range(n)]
    return n, worlds, parts


def assert_same_frame(got: Frame, expected: Frame) -> None:
    """got, built from successor tables, matches expected, built from pairs,
    in equality, hash, relations, successors and equivalence verdict."""
    assert got == expected and hash(got) == hash(expected)
    assert got.relations == expected.relations
    for i in expected.agents:
        assert [got.succ(i, w) for w in got.worlds] == [
            expected.succ(i, w) for w in expected.worlds
        ]
    assert check_equivalence(got) == check_equivalence(expected)


def json_forms(fr: Frame, parts=None) -> list:
    """fr's JSON dict in the relations form, and in the partitions form when
    its blocks per agent are given."""
    rels = {str(i): [[w, u] for w, u in sorted(rel)] for i, rel in enumerate(fr.relations, 1)}
    forms = [{"n": fr.n, "worlds": list(fr.worlds), "relations": rels}]
    if parts is not None:
        blocks = {str(i): blocks for i, blocks in enumerate(parts, 1)}
        forms.append({"n": fr.n, "worlds": list(fr.worlds), "partitions": blocks})
    return forms


def test_frame_from_partitions_matches_block_pairs():
    for seed in SEEDS:
        n, worlds, parts = random_partition_frame(random.Random(seed))
        expected = Frame(n, worlds, [pairs_from_blocks(worlds, blocks) for blocks in parts])
        got = frame_from_partitions(n, worlds, parts)
        assert_same_frame(got, expected)
        for data in json_forms(expected, parts):
            assert_same_frame(frame_from_json(data), expected)


def test_classes_and_clusters_match_scan():
    for seed in SEEDS:
        fr = frame_from_partitions(*random_partition_frame(random.Random(seed)))
        for i in fr.agents:
            expected = classes_by_scan(fr.worlds, lambda w: fr.succ(i, w))
            assert equivalence_classes(fr, i) == expected
        assert cluster_decomposition(fr).clusters == classes_by_scan(fr.worlds, fr.isucc)


def test_f_map_matches_definition():
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        alphabets = [[f"e{k}" for k in range(rng.randint(1, 2))]] + [
            [f"a{i}_{k}" for k in range(rng.randint(1, 3))] for i in range(1, n + 1)
        ]
        product = list(itertools.product(*alphabets))
        states = rng.sample(product, rng.randint(1, len(product)))
        s = system_from_states(n, states)
        assert_same_frame(f_map(s), f_map_by_definition(s))


def test_connected_components_match_pair_scan(monkeypatch):
    scans = []
    scan = kripke._relation_is_equivalence
    monkeypatch.setattr(kripke, "_relation_is_equivalence",
                        lambda fr, i: scans.append(i) or scan(fr, i))
    split = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        worlds = shuffled_worlds(rng, rng.randint(1, 10))
        density = rng.choice((0.05, 0.15, 0.3))
        fr = Frame(
            n,
            worlds,
            [{(w, u) for w in worlds for u in worlds if rng.random() < density} for _ in range(n)],
        )
        labelled = random_equivalence_frame(rng, n, rng.randint(1, 6))
        for data in json_forms(fr):
            assert_same_frame(frame_from_json(data), fr)
        for a, b in ((fr, labelled), (labelled, labelled), (labelled, fr)):
            assert_same_frame(disjoint_union(a, b), union_by_pairs(a, b))
        # a frame from pairs gets its verdict from the scan; a "no" verdict
        # does not pass to its components, whose own verdicts may be "yes"
        mixed = disjoint_union(fr, labelled)
        scans.clear()
        assert check_equivalence(mixed) == check_equivalence(fr)
        assert scans
        for x in (fr, random_model(rng, fr, ["p", "q"]), labelled, mixed):
            got = connected_components(x)
            expected = components_by_pair_scan(x)
            assert got == expected
            for (piece, _), (oracle, _) in zip(got, expected):
                assert_same_frame(frame_of(piece), frame_of(oracle))
        split += len(connected_components(fr)) > 1
    assert split > len(SEEDS) // 4


def test_enumerate_frames_matches_pairwise_search():
    cases = [(1, 8, "e", False), (3, 4, "e", False)]
    cases += [(2, 5, klass, connected) for klass in CLASS_NAMES for connected in (False, True)]
    for n, k, klass, connected in cases:
        got = list(enumerate_frames(n, k, klass, connected_only=connected))
        assert got == list(enumerate_frames_pairwise(n, k, klass, connected_only=connected))


def outcome(fn, *args, **kwargs):
    """fn's result with models as valuations, or the exception it raised."""
    try:
        result = fn(*args, **kwargs)
    except (ValueError, kripke.BudgetError) as exc:
        return type(exc), str(exc)
    if isinstance(result, tuple):
        return result[0].valuation, result[1]
    return result


def search_cases(seed: int):
    rng = random.Random(seed)
    frames = [list(enumerate_frames(1, 5)), list(enumerate_frames(2, 4)),
              list(enumerate_frames(3, 3))]
    for _ in range(100):
        n = rng.randint(1, 3)
        if rng.random() < 0.5:
            fr = rng.choice(frames[n - 1])
        else:
            fr = random_frame(rng, n, rng.randint(1, 5), rng.choice((0.2, 0.5)))
        f = random_formula(rng, n, ["p", "q"], rng.randint(0, 4), allow_s=True, allow_d=True)
        yield fr, f


@pytest.mark.parametrize("batch_bits", [12, 2])
def test_countermodel_matches_per_valuation_search(monkeypatch, batch_bits):
    # two-bit batches put most atom bits above the batch and the witness in
    # a later batch
    monkeypatch.setattr(kripke, "_BATCH_BITS", batch_bits)
    found = raised = 0
    for fr, f in search_cases(batch_bits):
        for budget in (2**3, 2**10):
            got = outcome(find_frame_countermodel, fr, f, max_assignments=budget)
            assert got == outcome(countermodel_by_valuation, fr, f, max_assignments=budget)
            found += isinstance(got, tuple) and got[0] is not kripke.BudgetError
            raised += isinstance(got, tuple) and got[0] is kripke.BudgetError
    assert found > 50 and raised > 50


def test_extension_matches_frozensets():
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        size = rng.randint(1, 8)
        if seed % 2:
            fr = random_equivalence_frame(rng, n, size)
        else:
            fr = random_frame(rng, n, size, rng.choice((0.1, 0.3, 0.6)))
        m = random_model(rng, fr, ["p", "q", "r"])
        for _ in range(5):
            f = random_formula(rng, n, ["p", "q", "r", "s"], rng.randint(0, 5),
                               allow_s=True, allow_d=True)
            assert outcome(extension, m, f) == outcome(extension_by_sets, m, f)


def test_join_tests_match_per_function_products():
    verdicts = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        size = rng.randint(1, 7)
        frames = (
            random_frame(rng, n, size, rng.choice((0.1, 0.3, 0.6))),
            random_equivalence_frame(rng, n, size),
        )
        for fr in frames:
            got = (check_d(fr), check_wd(fr))
            assert got == (check_d_by_product(fr), check_wd_by_neighborhood(fr))
            verdicts.add(got)
    # every combination a frame can have (D implies WD) occurs
    assert verdicts == {(True, True), (False, True), (False, False)}


def shuffled_f_image(rng: random.Random, system) -> Frame:
    """F image of system on worlds named w0.. in a shuffled order."""
    states = list(system.states)
    rng.shuffle(states)
    state_of = {f"w{k}": s for k, s in enumerate(states)}
    worlds = list(state_of)
    rng.shuffle(worlds)
    return frame_from_labels(system.n, worlds, lambda i, w: state_of[w][i])


def test_frame_to_system_matches_class_products():
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        cube = shuffled_f_image(rng, random_hypercube(rng, n))
        assert frame_to_hypercube(cube) == frame_to_hypercube_by_product(cube)
        full = shuffled_f_image(rng, random_full_system(rng, n))
        assert frame_to_full_system(full) == frame_to_full_system_by_tables(full)


def random_depth_one_frame(rng: random.Random) -> Frame:
    """Trace frame of a passive environment whose initial private states are
    a random subset, in random order, of a product of small alphabets."""
    n = rng.randint(1, 3)
    alphabets = [[f"e{k}" for k in range(rng.randint(1, 2))]] + [
        [f"a{i}_{k}" for k in range(rng.randint(1, 4))] for i in range(1, n + 1)
    ]
    product = list(itertools.product(*alphabets))
    blank = (EPSILON,) * (n + 1)
    env = BroadcastEnvironment(
        n,
        external_actions=((EPSILON,),) * (n + 1),
        internal_actions=((EPSILON,),) * (n + 1),
        private_states=tuple(alphabets),
        initial_states=[(blank, s) for s in rng.sample(product, rng.randint(1, len(product)))],
    )
    return generate_frame(env, trivial_protocol(n), 1)


def test_not_full_witness_matches_system_search():
    reasons = []
    for seed in SEEDS:
        fr = random_depth_one_frame(random.Random(seed))
        expected = frame_by_label_pairs(fr.n, fr.worlds, lambda i, tr: perfect_recall_state(tr, i))
        assert_same_frame(fr, expected)
        report = verify_hypercube_decomposition(fr, mode="full")
        for c in report.components:
            hole = not_full_hole_by_system(c.members)
            assert (c.reason == "not-full") == bool(hole)
            if hole:
                assert c.witness == (hole,)
            reasons.append(c.reason)
    assert "not-full" in reasons and None in reasons


def corrupted_filtrations(rng: random.Random):
    """A filtration of a random equivalence model, then copies with its
    quotient relations replaced (repartitioned, pairs dropped, pairs added,
    which breaks equivalence, or all pairs) or its projection replaced by a
    random map."""
    n = rng.randint(1, 3)
    m = random_model(rng, random_equivalence_frame(rng, n, rng.randint(2, 10)), ["p", "q"])
    # several agent-i boxes and diamonds, so that some fail at the same pair
    fil = filtrate(m, random_i_local(rng, n, rng.randint(1, n), ["p", "q"], rng.randint(1, 3)))
    q = fil.quotient.frame
    reps = list(q.worlds)
    yield fil
    density = rng.choice((0.3, 0.6))
    for frame in (
        frame_from_partitions(n, reps, [random_partition(rng, reps) for _ in range(n)]),
        Frame(n, reps, [{p for p in rel if rng.random() < 0.7} for rel in q.relations]),
        Frame(n, reps, [rel | {(w, u) for w in reps for u in reps if rng.random() < density}
                        for rel in q.relations]),
        Frame(n, reps, [list(itertools.product(reps, reps))] * n),
    ):
        yield dataclasses.replace(fil, quotient=Model(frame, dict(fil.quotient.valuation)))
    image = {w: rng.choice(reps) for w in m.frame.worlds}
    yield dataclasses.replace(fil, projection=WorldMap(m.frame, q, image))


def test_check_suitable_matches_pair_scan():
    clauses = []
    for seed in SEEDS:
        for fil in corrupted_filtrations(random.Random(seed)):
            for i in fil.source.frame.agents:
                got = check_suitable(fil, i)
                assert got == check_suitable_by_pairs(fil, i)
                clauses.append(got.clause)
    assert clauses.count("containment") > 100 and clauses.count("transfer") > 50
    assert clauses.count(None) > 300


def renamed_copy(rng: random.Random, x):
    """x on worlds renamed v0.. in a shuffled order; a model keeps its valuation."""
    fr = frame_of(x)
    names = [f"v{k}" for k in range(len(fr.worlds))]
    rng.shuffle(names)
    name = dict(zip(fr.worlds, names))
    rng.shuffle(names)
    copy = Frame(fr.n, names, [{(name[w], name[u]) for w, u in rel} for rel in fr.relations])
    if isinstance(x, Frame):
        return copy
    return Model(copy, {name[w]: x.atoms_at(w) for w in fr.worlds})


def cycles(n: int, lengths) -> Frame:
    """Disjoint directed cycles, the same for every agent: color refinement
    cannot tell cycle lengths apart, so only the search can."""
    worlds, pairs = [], set()
    for c, length in enumerate(lengths):
        ring = [f"c{c}_{k}" for k in range(length)]
        worlds += ring
        pairs |= {(ring[k], ring[(k + 1) % length]) for k in range(length)}
    return Frame(n, worlds, [pairs] * n)


def rewired_pair(rng: random.Random, n: int) -> tuple:
    """A frame where each world has the same number of successors, and a
    copy with a few edges swapped (x->y, u->v become x->v, u->y): degrees are
    kept, so refinement often cannot tell them apart whether or not they are
    isomorphic."""
    worlds = [f"w{k}" for k in range(rng.randint(4, 8))]
    degree = rng.randint(1, 3)
    rels = [{(w, u) for w in worlds for u in rng.sample([x for x in worlds if x != w], degree)}
            for _ in range(n)]
    swapped = []
    for rel in rels:
        rel = set(rel)
        for _ in range(rng.randint(1, 3)):
            (x, y), (u, v) = rng.sample(sorted(rel), 2)
            if len({x, y, u, v}) == 4 and (x, v) not in rel and (u, y) not in rel:
                rel = rel - {(x, y), (u, v)} | {(x, v), (u, y)}
        swapped.append(rel)
    return Frame(n, worlds, rels), Frame(n, worlds, swapped)


def isomorphism_cases(rng: random.Random):
    n = rng.randint(1, 3)
    size = rng.randint(1, 7)
    if rng.random() < 0.5:
        a = random_frame(rng, n, size, rng.choice((0.1, 0.3, 0.6)))
    else:
        a = random_equivalence_frame(rng, n, size)
    if rng.random() < 0.5:
        a = random_model(rng, a, ["p"])
    yield a, renamed_copy(rng, a)
    other = random_frame(rng, n, size, rng.choice((0.1, 0.3, 0.6)))
    yield a, other if isinstance(a, Frame) else random_model(rng, other, ["p"])
    yield cycles(n, [6, 6]), renamed_copy(rng, cycles(n, [3, 3, 6]))
    yield cycles(n, [3, 3, 6]), renamed_copy(rng, cycles(n, [6, 6]))
    yield cycles(n, [4, 4, 4]), renamed_copy(rng, cycles(n, [4, 4, 4]))
    for _ in range(10):
        a, b = rewired_pair(rng, n)
        yield a, renamed_copy(rng, b)


def test_find_isomorphism_matches_list_search():
    outcomes = []
    for seed in SEEDS:
        for a, b in isomorphism_cases(random.Random(seed)):
            for budget in (6, 12):
                got = outcome(find_isomorphism, a, b, max_worlds=budget)
                assert got == outcome(find_isomorphism_by_lists, a, b, max_worlds=budget)
                outcomes.append(type(got).__name__)
    assert outcomes.count("WorldMap") > 100
    assert outcomes.count("NoneType") > 100
    assert outcomes.count("tuple") > 50
