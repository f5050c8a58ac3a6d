"""Fast paths against the simple implementations kept in helpers, on seeded
random inputs.  World order is shuffled where the output has an order (classes
and components come out in first-world order), so order is part of the
comparison; frame sequences and countermodel witnesses must be identical."""

import itertools
import random

import pytest

from s5wd import kripke
from s5wd.broadcast import (
    EPSILON,
    BroadcastEnvironment,
    generate_frame,
    trivial_protocol,
    verify_hypercube_decomposition,
)
from s5wd.decide import CLASS_NAMES, enumerate_frames
from s5wd.kripke import (
    Frame,
    check_d,
    check_wd,
    connected_components,
    equivalence_classes,
    extension,
    find_frame_countermodel,
    frame_from_labels,
    frame_from_partitions,
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
    check_wd_by_neighborhood,
    classes_by_scan,
    components_by_pair_scan,
    countermodel_by_valuation,
    enumerate_frames_pairwise,
    extension_by_sets,
    f_map_by_definition,
    frame_to_full_system_by_tables,
    frame_to_hypercube_by_product,
    not_full_hole_by_system,
    pairs_from_blocks,
    random_equivalence_frame,
    random_formula,
    random_frame,
    random_full_system,
    random_hypercube,
    random_model,
    random_partition,
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


def test_frame_from_partitions_matches_block_pairs():
    for seed in SEEDS:
        n, worlds, parts = random_partition_frame(random.Random(seed))
        expected = Frame(n, worlds, [pairs_from_blocks(worlds, blocks) for blocks in parts])
        assert frame_from_partitions(n, worlds, parts) == expected


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
        assert f_map(s) == f_map_by_definition(s)


def test_connected_components_match_pair_scan():
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
        for x in (fr, random_model(rng, fr, ["p", "q"])):
            got = connected_components(x)
            assert got == components_by_pair_scan(x)
        split += len(got) > 1
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
        report = verify_hypercube_decomposition(
            random_depth_one_frame(random.Random(seed)), mode="full"
        )
        for c in report.components:
            hole = not_full_hole_by_system(c.members)
            assert (c.reason == "not-full") == bool(hole)
            if hole:
                assert c.witness == (hole,)
            reasons.append(c.reason)
    assert "not-full" in reasons and None in reasons
