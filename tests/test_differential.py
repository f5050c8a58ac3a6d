"""Grouped fast paths against the brute-force definitions in helpers, on
seeded random inputs whose world order is shuffled: classes and components
must come out in first-world order, so order is part of the comparison."""

import itertools
import random

from s5wd.kripke import (
    Frame,
    connected_components,
    equivalence_classes,
    frame_from_partitions,
)
from s5wd.systems import f_map, system_from_states
from s5wd.unpack import cluster_decomposition
from helpers import (
    classes_by_scan,
    components_by_pair_scan,
    f_map_by_definition,
    pairs_from_blocks,
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
