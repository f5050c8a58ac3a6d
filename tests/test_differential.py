"""Fast paths against the simple implementations kept in helpers, on seeded
random inputs.  World order is shuffled where the output has an order (classes
and components come out in first-world order), so order is part of the
comparison; frame sequences and countermodel witnesses must be identical."""

import collections
import dataclasses
import itertools
import random

import pytest

from s5wd import broadcast, kripke
from s5wd.broadcast import (
    EPSILON,
    AgentProtocol,
    BroadcastEnvironment,
    JointProtocol,
    build_card_game,
    environment_from_json,
    environment_to_json,
    generate_frame,
    perfect_recall_state,
    protocol_from_json,
    protocol_to_json,
    trivial_protocol,
    verify_hypercube_decomposition,
)
from s5wd.decide import CLASS_NAMES, enumerate_frames
from s5wd.filtration import check_suitable, filtrate, world_equivalence
from s5wd.formula import (
    And,
    Atom,
    Box,
    Diamond,
    Dist,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Some,
    _tokenize,
    atoms,
    expand_s,
    formula_size,
    has_node,
    is_i_local,
    modal_depth,
    parse,
    pretty,
    subformula_closure,
    subformulas,
    wd_instance,
)
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
    valid_on_model,
    world_key,
)
from s5wd.systems import (
    InterpretedSystem,
    f_map,
    frame_to_full_system,
    frame_to_hypercube,
    is_full,
    is_hypercube,
    system_from_states,
)
from s5wd.unpack import cluster_decomposition
from helpers import (
    assert_written_as_tagged,
    build_card_game_by_full_states,
    check_d_by_product,
    check_suitable_by_pairs,
    check_wd_by_neighborhood,
    classes_by_scan,
    components_by_pair_scan,
    countermodel_by_valuation,
    enumerate_frames_by_marking,
    enumerate_frames_pairwise,
    equivalence_by_pairs,
    expand_s_by_recursion,
    extension_by_sets,
    f_map_by_definition,
    filtrate_by_extensions,
    find_isomorphism_by_lists,
    frame_by_label_pairs,
    frame_to_full_system_by_tables,
    frame_to_hypercube_by_product,
    generate_frame_by_traces,
    glued_card_frame,
    homogeneous_by_pools,
    is_full_by_product,
    is_hypercube_by_count,
    is_i_local_by_recursion,
    key_by_json_dumps,
    merged_card_frame,
    modal_depth_by_recursion,
    not_full_hole_by_system,
    pairs_from_blocks,
    parse_by_descent,
    pruned_card_frame,
    pretty_by_recursion,
    random_broadcast_environment,
    random_equivalence_frame,
    random_formula,
    random_frame,
    random_full_system,
    random_hypercube,
    random_i_local,
    random_model,
    random_nested_value,
    random_partition,
    split_pair_model,
    subformula_closure_by_recursion,
    subformulas_by_recursion,
    successor_tables_by_pair_loop,
    tokenize_by_chars,
    two_block_model,
    union_by_pairs,
    valuation_by_loop,
    verify_hypercube_decomposition_by_exits,
    with_agent_relation,
    world_equivalence_by_extensions,
    world_key_by_json_dumps,
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


WorldPair = collections.namedtuple("WorldPair", "w u")

# the ways a relation's pairs may be given; a generator is read only once
RELATION_FORMS = (list, tuple, iter, lambda pairs: (p for p in pairs))


def random_worlds(rng: random.Random) -> list:
    size = rng.randint(1, 7)
    worlds = rng.choice([[f"w{k}" for k in range(size)], list(range(size)),
                         [(k, "x") for k in range(size)]])
    rng.shuffle(worlds)
    return worlds


def random_world_pairs(rng: random.Random, worlds: list) -> list:
    """A relation on worlds in shuffled order with some pairs repeated, each
    pair a list, a tuple or a named tuple."""
    pairs = [(w, u) for w in worlds for u in worlds if rng.random() < 0.4]
    pairs += rng.choices(pairs, k=len(pairs) // 3) if pairs else []
    rng.shuffle(pairs)
    return [rng.choice((list, tuple, WorldPair._make))(p) for p in pairs]


def random_pair_fault(rng: random.Random, worlds: list) -> tuple:
    """(kind, value): a member of a relation that is no pair of its worlds."""
    w = rng.choice(worlds)
    return rng.choice([
        ("string", "ab"),
        ("set", frozenset({w})),
        ("dict", {w: w}),
        ("three", [w, w, w]),
        ("one", (w,)),
        ("unhashable", [w, [w]]),
        ("unhashable", ([w], w)),
        ("unknown", (w, "zz")),
        ("unknown", ["zz", w]),
    ])


def built(n: int, worlds: list, rels: list, forms: list):
    """Frame's successor tables for rels, each given in its form, or the
    text of the ValueError Frame raises."""
    try:
        return Frame(n, worlds, [form(pairs) for form, pairs in zip(forms, rels)])._succ
    except ValueError as err:
        return str(err)


def by_pair_loop(worlds: list, rels: list, forms: list):
    try:
        return successor_tables_by_pair_loop(worlds, [form(p) for form, p in zip(forms, rels)])
    except ValueError as err:
        return str(err)


def test_bulk_pair_checks_match_per_pair_loop():
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        worlds = random_worlds(rng)
        rels = [random_world_pairs(rng, worlds) for _ in range(n)]
        forms = [rng.choice(RELATION_FORMS) for _ in range(n)]
        got = built(n, worlds, rels, forms)
        assert got == by_pair_loop(worlds, rels, forms)
        # equal successor sets are one object
        sets = [s for table in got for s in table.values()]
        assert len(set(map(id, sets))) == len(set(sets))


def test_bulk_pair_checks_report_the_first_fault():
    kinds: dict = {}
    for seed in range(400):
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        worlds = random_worlds(rng)
        rels = [random_world_pairs(rng, worlds) for _ in range(n)]
        forms = [rng.choice(RELATION_FORMS) for _ in range(n)]
        faults = [random_pair_fault(rng, worlds) for _ in range(rng.randint(1, 2))]
        # both faults in one relation, or in two when there are two agents
        targets = rng.sample(range(n), 2) if len(faults) == 2 and n > 1 and seed % 2 else [
            rng.randrange(n)] * len(faults)
        for (kind, value), i in zip(faults, targets):
            rels[i].insert(rng.randint(0, len(rels[i])), value)
        expected = by_pair_loop(worlds, rels, forms)
        assert isinstance(expected, str)
        assert built(n, worlds, rels, forms) == expected
        key = "two" if len({kind for kind, _ in faults}) == 2 else faults[0][0]
        kinds[key] = kinds.get(key, 0) + 1
    # every kind of fault, and two faults of different kinds, occur often
    assert len(kinds) == 8 and min(kinds.values()) > 10, kinds


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


def test_equivalence_scan_matches_pair_definition():
    frames, perturbed = [], []
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        labelled = random_equivalence_frame(rng, n, rng.randint(1, 8))
        frames.append(Frame(n, labelled.worlds, labelled.relations))
        frames.append(random_frame(rng, n, rng.randint(1, 4), rng.choice((0.3, 0.7, 0.95))))
        # one pair dropped or added breaks reflexivity, symmetry or
        # transitivity: two worlds of one class are already related
        rels = [set(rel) for rel in labelled.relations]
        rel = rng.choice(rels)
        pair = (rng.choice(labelled.worlds), rng.choice(labelled.worlds))
        (rel.discard if pair in rel else rel.add)(pair)
        perturbed.append(Frame(n, labelled.worlds, rels))
    # equal successor sets that are distinct objects compare by value
    ab, ab_copy = frozenset("ab"), frozenset(["a", "b"])
    for table, verdict in (({"a": ab, "b": ab_copy}, True),
                           ({"a": ab, "b": frozenset("b")}, False)):
        fr = Frame(1, "abc", kripke._Tables(({**table, "c": frozenset("c")},), None))
        assert check_equivalence(fr) is verdict
        frames.append(fr)
    for fr in frames + perturbed:
        assert check_equivalence(fr) == equivalence_by_pairs(fr)
    assert not any(map(check_equivalence, perturbed))
    assert 0 < sum(map(check_equivalence, frames)) < len(frames)


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


@pytest.mark.parametrize("klass", CLASS_NAMES)
def test_enumerate_frames_matches_digit_marking(klass):
    # (2, 6) reaches six worlds, the bound of the decide benchmark's T anchor,
    # which the pairwise search above is too slow to reach
    for n, k in ((1, 8), (2, 6), (3, 4), (4, 3)):
        for connected in (False, True):
            got = list(enumerate_frames(n, k, klass, connected_only=connected))
            assert got == list(enumerate_frames_by_marking(n, k, klass, connected_only=connected))


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


def test_card_game_matches_full_state_closure():
    # every deck 1..6 and hand 0..deck, but the rich modeling with deck 6 and
    # a hand of 4 or more is left out: with its oracle each such point takes 6-7 s
    grid = [
        (deck, hand, modeling)
        for deck in range(1, 7)
        for hand in range(deck + 1)
        for modeling in ("simple", "rich")
        if modeling == "simple" or deck <= 5 or hand <= 3
    ]
    for deck, hand, modeling in grid:
        env, proto = build_card_game(deck, hand, modeling)
        oracle, oracle_proto = build_card_game_by_full_states(deck, hand, modeling)
        for field in dataclasses.fields(env):
            assert getattr(env, field.name) == getattr(oracle, field.name)
        assert (env, proto) == (oracle, oracle_proto)
        written = environment_to_json(env)
        assert written == environment_to_json(oracle)
        assert_written_as_tagged(env, proto, written, protocol_to_json(proto))


def broken_and_whole_card_frames():
    """Card-game trace frames of both modelings, and the pruned, merged and
    glued frames the broadcast tests build from them."""
    for deck, hand, depth in ((2, 1, 2), (3, 1, 3), (3, 2, 3), (4, 2, 2), (4, 2, 3)):
        for modeling in ("simple", "rich"):
            env, proto = build_card_game(deck, hand, modeling)
            yield generate_frame(env, proto, depth)
    yield pruned_card_frame()[0]
    yield merged_card_frame()[0]
    yield glued_card_frame()


PLAY = (EPSILON, "p", "q")


def _trace(first, *privs) -> tuple:
    """A trace whose first state carries the external action first and every
    later state PLAY, with the private-state tuples privs."""
    return ((first, privs[0]), *((PLAY, priv) for priv in privs[1:]))


def _labelled(traces: list):
    """n = 2 frames on traces whose agents relate by recall states, by private
    states alone, and all at once; a private state missing from a narrow
    state reads None."""
    def recall(i, tr):
        return tuple((s[0], s[1][i] if i < len(s[1]) else None) for s in tr)

    def private(i, tr):
        return tuple(s[1][i] if i < len(s[1]) else None for s in tr)

    for label in (recall, private, lambda i, tr: 0):
        yield frame_from_labels(2, traces, label)


def hand_built_trace_frames():
    """Trace frames no environment generates, on the edges of the recall map."""
    blank, other = (EPSILON,) * 3, ("x", EPSILON, EPSILON)
    ab = list(itertools.product("ab", repeat=2))
    # members alike but for the first state's external action
    twins = [_trace(first, ("e", *p), ("e", *p)) for first in (blank, other) for p in ab]
    for traces in (twins, twins[:-1], twins[1:6], twins[::2]):
        yield from _labelled(traces)
    # later actions equal as values but not in type: a witness keeps the
    # actions of the member it takes each recall state from
    yield from _labelled([((blank, ("e", p, q)), ((EPSILON, act, "q"), ("e", p, q)))
                          for p, q, act in (("a", "x", 1), ("b", "y", True), ("c", "x", 1))])
    # later private-state tuples wider than the first, and (they share the
    # first one's recall tuple) whole traces wider than the first member
    wide = [_trace(blank, ("e", *p), ("e", *p, w)) for p in ab for w in "uv"]
    wider = [_trace(blank, ("e", *p, "z"), ("e", *p, "z")) for p in ab]
    for traces in (wide, wide[::2], wide[:3] + wider, wide[::2] + wider[1:]):
        yield from _labelled(traces)
    # a later state narrower than the first, or a member narrower than the first member
    yield from _labelled([*wide[::2], _trace(blank, ("e", "a", "b"), ("e", "a"))])
    yield from _labelled([*wide[::2], _trace(blank, ("e", "a"), ("e", "a"))])
    # private states of mixed types, with some combinations left out
    values = ("a", 1, None, frozenset({"x"}), frozenset())
    mixed = [_trace(blank, (p0, p1, p2), (p0, p1, p2))
             for p0 in ("e", 0) for p1 in values[:3] for p2 in values[2:]]
    # the holes come first in world_key order, not in the order of values
    holes = [tr for tr in mixed if tr[0][1][1:] not in (("a", None), ("a", frozenset()))]
    for traces in (mixed, holes, [tr[:1] for tr in mixed[1::2]]):
        yield from _labelled(traces)
    # successor tables whose equal sets are distinct objects, whole and
    # with one set cut down
    for deck, hand, depth in ((3, 1, 2), (4, 2, 2)):
        env, proto = build_card_game(deck, hand)
        fr = generate_frame(env, proto, depth)
        succ = tuple({w: frozenset(list(s)) for w, s in table.items()} for table in fr._succ)
        yield Frame(fr.n, fr.worlds, kripke._Tables(succ, True))
        w = next(w for w in fr.worlds if len(succ[1][w]) > 2)
        succ[1][w] = frozenset(list(succ[1][w])[:-1]) | {w}
        yield Frame(fr.n, fr.worlds, kripke._Tables(succ, True))


def _verified(verify, fr: Frame, mode: str) -> tuple:
    """verify's report with each witness's world_key text, or its error."""
    try:
        report = verify(fr, mode=mode)
    except ValueError as err:
        return type(err), str(err)
    return report, [world_key(c.witness) for c in report.components]


def test_decomposition_matches_one_exit_per_check():
    frames = [*broken_and_whole_card_frames(),
              *(random_depth_one_frame(random.Random(seed)) for seed in SEEDS),
              *hand_built_trace_frames()]
    reasons, errors = set(), set()
    for fr in frames:
        for mode in ("hypercube", "full"):
            outcome = _verified(verify_hypercube_decomposition, fr, mode)
            assert outcome == _verified(verify_hypercube_decomposition_by_exits, fr, mode)
            if isinstance(outcome[0], type):
                errors.add(outcome[0].__name__)
            else:
                reasons.update(c.reason for c in outcome[0].components)
    assert reasons == {None, "action-mismatch", "missing-tuple", "not-full", "not-isomorphic"}
    assert errors == {"ValueError", "AgentIndexError"}


def test_generate_frame_matches_per_trace_actions():
    # every other environment gets an agent protocol that enables an unknown
    # action, or none at all, at one observation
    errors = set()
    for seed in range(60):
        env, proto = random_broadcast_environment(random.Random(seed))
        rng = random.Random(2000 + seed)
        if seed % 2:
            agents = list(proto.agents)
            i = rng.randrange(len(agents))
            table = dict(agents[i].table)
            obs = rng.choice(sorted(table, key=world_key))
            if rng.random() < 0.5:
                table[obs] += (("zz", EPSILON),)
            elif len(table) > 1:
                del table[obs]
            agents[i] = AgentProtocol("table", table)
            proto = JointProtocol(tuple(agents))
        for depth in (1, 2, 3):
            try:
                outcome = generate_frame(env, proto, depth)
            except ValueError as err:
                outcome = str(err)
                errors.add(outcome.split(" ")[1])
            try:
                expected = generate_frame_by_traces(env, proto, depth)
            except ValueError as err:
                expected = str(err)
            assert outcome == expected
    assert errors == {"action", "undefined"}


def test_random_environments_decompose():
    homogeneous = 0
    for seed in range(100):
        env, proto = random_broadcast_environment(random.Random(seed))
        rng = random.Random(1000 + seed)  # for the WD instances and their models
        assert env.homogeneous == homogeneous_by_pools(env)
        env_json, proto_json = environment_to_json(env), protocol_to_json(proto)
        assert environment_from_json(env_json) == env
        assert protocol_from_json(proto_json) == proto
        # JSON writes every table in _key text order of its keys
        tables = [env_json["valuation"], env_json["env_protocol"] or {}, *env_json["transitions"],
                  *(agent["table"] for agent in proto_json["agents"])]
        assert all(list(table) == sorted(table) for table in tables)
        assert_written_as_tagged(env, proto, env_json, proto_json)
        homogeneous += env.homogeneous
        for depth in (1, 2, 3):
            fr = generate_frame(env, proto, depth)
            assert check_equivalence(fr)
            for mode in ("hypercube", "full"):
                report = verify_hypercube_decomposition(fr, mode=mode)
                assert report == verify_hypercube_decomposition_by_exits(fr, mode=mode)
                # homogeneous: every component is the F image of a hypercube
                assert report.ok or not env.homogeneous
            if env.homogeneous:
                assert all(check_d(piece) for piece, _ in connected_components(fr))
                # so fr is WD, and every WD instance holds at every world of
                # every model on it
                parts = [random_i_local(rng, env.n, i, ["p", "q"], 2) for i in range(1, env.n + 1)]
                m = random_model(rng, fr, ["p", "q"])
                assert valid_on_model(m, expand_s(wd_instance(parts), env.n))
    assert 0 < homogeneous < 100


def test_product_tests_match_counts_and_products():
    verdicts = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        n = rng.randint(1, 3)
        for system in (random_hypercube(rng, n), random_full_system(rng, n)):
            kept = [s for s in system.states if rng.random() < 0.8] or [system.states[0]]
            for s in (system, system_from_states(n, kept)):
                verdict = (is_hypercube(s), is_full(s))
                assert verdict == (is_hypercube_by_count(s), is_full_by_product(s))
                verdicts.add(verdict)
    # a hypercube is full, so (True, False) cannot occur
    assert verdicts == {(True, True), (False, True), (False, False)}


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


def filtration_cases(rng: random.Random):
    """The two models TestSuitability corrupts, filtrated through [1]p, then
    random equivalence models of 1-8 worlds for n = 2 and 3 with random
    formulas of depth 0-4 over p and q."""
    yield two_block_model(), parse("[1]p", 2)
    yield split_pair_model(), parse("[1]p", 2)
    for _ in range(600):
        n = rng.randint(2, 3)
        m = random_model(rng, random_equivalence_frame(rng, n, rng.randint(1, 8)), ["p", "q"])
        yield m, random_formula(rng, n, ["p", "q"], rng.randint(0, 4))


def test_filtrate_matches_per_member_extensions():
    clauses = []
    for m, f in filtration_cases(random.Random(14)):
        fil = filtrate(m, f)
        expected = filtrate_by_extensions(m, f)
        assert fil.closure == expected.closure
        assert fil.quotient == expected.quotient
        assert fil.projection == expected.projection
        assert world_equivalence(m, fil.closure) == world_equivalence_by_extensions(m, fil.closure)
        # as TestSuitability corrupts them: one agent's quotient relation cut
        # to the identity (pairs deleted) or widened to all pairs (added)
        reps = fil.quotient.frame.worlds
        variants = [(fil, expected)] + [
            (with_agent_relation(fil, i, pairs), with_agent_relation(expected, i, pairs))
            for i in m.frame.agents
            for pairs in ([(r, r) for r in reps], list(itertools.product(reps, repeat=2)))
        ]
        for got, want in variants:
            for i in m.frame.agents:
                report = check_suitable(got, i)
                assert report == check_suitable_by_pairs(want, i)
                # filtrate does not check its own quotient: it is suitable by construction
                assert report.ok or got is not fil
                clauses.append(report.clause)
    assert clauses.count("containment") > 200 and clauses.count("transfer") > 100
    assert clauses.count(None) > 1000


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


def rewired(rng: random.Random, rels) -> list:
    """Each relation with a few edges swapped (x->y, u->v become x->v, u->y):
    every world keeps its in- and out-degrees, so refinement often cannot
    tell the result from the original whether or not they are isomorphic."""
    swapped = []
    for rel in rels:
        rel = set(rel)
        for _ in range(rng.randint(1, 3)):
            (x, y), (u, v) = rng.sample(sorted(rel), 2)
            if len({x, y, u, v}) == 4 and (x, v) not in rel and (u, y) not in rel:
                rel = rel - {(x, y), (u, v)} | {(x, v), (u, y)}
        swapped.append(rel)
    return swapped


def rewired_pair(rng: random.Random, n: int) -> tuple:
    """A frame where each world has the same number of successors, and a
    rewired copy."""
    worlds = [f"w{k}" for k in range(rng.randint(4, 8))]
    degree = rng.randint(1, 3)
    rels = [{(w, u) for w in worlds for u in rng.sample([x for x in worlds if x != w], degree)}
            for _ in range(n)]
    return Frame(n, worlds, rels), Frame(n, worlds, rewired(rng, rels))


def product_frame(rng: random.Random, n: int, sizes: tuple) -> Frame:
    """The product of coordinates of the given sizes, its worlds in a seeded
    order, agent i relating the worlds that agree on coordinate i (modulo
    the coordinate count); a coordinate no agent reads makes clusters."""
    cells = list(itertools.product(*map(range, sizes)))
    rng.shuffle(cells)
    worlds = ["g" + "_".join(map(str, c)) for c in cells]
    return Frame(n, worlds, [
        {(w, u) for w, c in zip(worlds, cells) for u, d in zip(worlds, cells)
         if c[i % len(sizes)] == d[i % len(sizes)]}
        for i in range(n)
    ])


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


def product_isomorphism_cases(rng: random.Random):
    """Grids and products of up to 40 worlds, where the search's domains are
    few and large: renamed copies of a frame and of a model with atoms, a
    rewired copy of that model, and a rewired copy of a product of at most
    16 worlds (larger ones take the list search seconds)."""
    n = rng.choice((2, 3))
    a = product_frame(rng, n, rng.choice(((4, 5), (5, 8), (6, 6), (2, 3, 5), (3, 3, 4), (2, 4, 5))))
    yield a, renamed_copy(rng, a)
    m = random_model(rng, a, rng.choice((["p"], ["p", "q"])))
    yield m, renamed_copy(rng, m)
    b = Frame(n, a.worlds, rewired(rng, a.relations))
    yield m, renamed_copy(rng, Model(b, dict(m.valuation)))
    a = product_frame(rng, n, rng.choice(((3, 4), (2, 6), (2, 2, 3), (4, 4), (2, 7))))
    yield a, renamed_copy(rng, Frame(n, a.worlds, rewired(rng, a.relations)))


def test_find_isomorphism_matches_list_search_on_products():
    outcomes = []
    for seed in SEEDS[:30]:
        for a, b in product_isomorphism_cases(random.Random(seed)):
            got = outcome(find_isomorphism, a, b, max_worlds=40)
            assert got == outcome(find_isomorphism_by_lists, a, b, max_worlds=40)
            outcomes.append(type(got).__name__)
    assert outcomes.count("WorldMap") > 60
    assert outcomes.count("NoneType") > 40


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


def encoded(fn, value):
    """fn's text for value, or TypeError if it raised one."""
    try:
        return fn(value)
    except TypeError:
        return TypeError


def test_canonical_keys_match_json_dumps():
    rng = random.Random(8)
    counts = {"text": 0, TypeError: 0, "set": 0, "list": 0, "escaped": 0}
    for _ in range(2500):
        value = random_nested_value(rng)
        for fn, oracle in ((broadcast._key, key_by_json_dumps),
                           (world_key, world_key_by_json_dumps)):
            got = encoded(fn, value)
            assert got == encoded(oracle, value), value
            counts["text" if isinstance(got, str) else TypeError] += 1
        text = encoded(world_key, value)
        if isinstance(text, str):
            counts["set"] += "{" in str(encoded(broadcast._key, value))
            counts["list"] += isinstance(value, list)
            counts["escaped"] += "\\" in text
    # both outcomes and the interesting shapes occur often
    assert min(counts.values()) > 100, counts


def value_or_error(fn, *args, **kwargs):
    """fn's result, or the type, text and position of the ValueError it raises."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        return type(err), str(err), getattr(err, "position", None)


_TOKENS = ["p", "q", "r1", "x_2", "~", "&", "|", "->", "<->", "[", "]", "<", ">",
           "(", ")", "S", "D", "0", "1", "2", "3", "12", "-", "@", "P", " "]


def random_formula_text(rng: random.Random) -> str:
    """A string of random tokens, or a printed random formula with a few
    tokens inserted, deleted or swapped."""
    if rng.random() < 0.3:
        return "".join(rng.choices(_TOKENS, k=rng.randint(0, 12)))
    text = pretty(random_formula(rng, 3, ["p", "q"], rng.randint(0, 5), allow_s=True, allow_d=True))
    for _ in range(rng.choice([0, 0, 1, 1, 2, 3])):
        k = rng.randint(0, len(text))
        edit = rng.choice(["insert", "delete", "swap"])
        if edit == "insert":
            text = text[:k] + rng.choice(_TOKENS) + text[k:]
        elif edit == "delete":
            text = text[:k] + text[k + 1:]
        elif k + 1 < len(text):
            text = text[:k] + text[k + 1] + text[k] + text[k + 2:]
    return text


def test_parse_matches_recursive_descent():
    rng = random.Random(12)
    counts: dict = {}
    for _ in range(6000):
        text = random_formula_text(rng)
        n, extended = rng.randint(1, 3), rng.random() < 0.8
        got = value_or_error(parse, text, n, extended=extended)
        assert got == value_or_error(parse_by_descent, text, n, extended=extended), text
        kind = "formula" if isinstance(got, Formula) else got[0].__name__
        counts[kind] = counts.get(kind, 0) + 1
    # well-formed text, syntax errors and agent errors all occur often
    assert set(counts) == {"formula", "ParseError", "AgentIndexError"}, counts
    assert min(counts.values()) > 300, counts


# characters the tokenizer treats alike or apart: marks, a lone '-', ASCII and
# other digits and letters, and whitespace that str.isspace takes
_CHARS = "pqz019_~&|-<>[]()SDP@\u00e9\u00b2\u0662 \t\n\x1c\x85\u00a0\u2028\u3000"


def test_tokenize_matches_character_loop():
    rng = random.Random(19)
    texts = [random_formula_text(rng) for _ in range(5000)]
    texts += ["".join(rng.choices(_CHARS, k=rng.randint(0, 10))) for _ in range(20000)]
    texts += ["".join(chr(rng.randrange(0x110000)) for _ in range(3)) for _ in range(2000)]
    # every code point of the basic plane, alone and between two atoms
    single = [chr(c) for c in range(0x10000)]
    texts += single + [f"p{c}q" for c in single]
    counts: dict = {}
    for text in texts:
        got = value_or_error(_tokenize, text)
        assert got == value_or_error(tokenize_by_chars, text), repr(text)
        kind = "tokens" if isinstance(got, list) else got[1].partition(" ")[0]
        counts[kind] = counts.get(kind, 0) + 1
    # token lists and both errors, "expected '->'" and "unexpected character",
    # occur often
    assert min(counts.values()) > 1000 and len(counts) == 3, counts


def test_formula_helpers_match_recursive_walks():
    rng = random.Random(13)
    kinds = (Atom, Not, And, Or, Implies, Iff, Box, Diamond, Some, Dist, Formula, (Box, Dist))
    with_s = 0
    for _ in range(1000):
        n = rng.randint(1, 3)
        f = random_formula(rng, n, ["p", "q", "r"], rng.randint(0, 6), allow_s=True, allow_d=True)
        assert pretty(f) == pretty_by_recursion(f)
        subs = subformulas_by_recursion(f)
        assert subformulas(f) == subs
        assert atoms(f) == tuple(sorted({g.name for g in subs if isinstance(g, Atom)}))
        assert [has_node(f, k) for k in kinds] == [
            any(isinstance(g, k) for g in subs) for k in kinds
        ]
        assert modal_depth(f) == modal_depth_by_recursion(f)
        assert [is_i_local(f, i) for i in range(n + 2)] == [
            is_i_local_by_recursion(f, i) for i in range(n + 2)
        ]
        has_s = any(isinstance(h, Some) for h in subs)
        assert value_or_error(formula_size, f) == (
            (ValueError, "formula contains S; expand_s before taking sizes", None)
            if has_s else len(subs)
        )
        g = expand_s(f, n)
        assert g == expand_s_by_recursion(f, n)
        assert formula_size(g) == len(subformulas_by_recursion(g))
        for h in (f, g):
            assert value_or_error(subformula_closure, h) == value_or_error(
                subformula_closure_by_recursion, h
            )
        with_s += has_s
    assert with_s > 200


def random_atom_list(rng: random.Random):
    """A list, tuple, set or frozenset of atom names with repeats, often
    empty, and now and then an entry no valuation may hold."""
    if rng.random() < 0.06:
        return rng.choice(["pq", "p", 5, None, {"p": 1}, ["p", 1], ["p", ["q"]], ["P"], ("p_",)])
    names = [rng.choice(["p", "q", "r1", "s_t", "z"]) for _ in range(rng.randint(0, 4))]
    return rng.choice([list, tuple, set, frozenset])(names)


def stored_or_error(build, members, valuation):
    """build's stored valuation and the oracle's, or "error" for both when the
    oracle rejects the input, where build must raise a ValueError even if the
    oracle (which sorts before it checks) raised a raw TypeError."""
    try:
        expected = valuation_by_loop(members, valuation)
    except (ValueError, TypeError):
        with pytest.raises(ValueError):
            build()
        return "error", "error"
    return build(), expected


def test_valuations_match_model_loop():
    """Model, InterpretedSystem and BroadcastEnvironment store what the old
    Model loop stored: sorted distinct names in member order, the environment
    a mapping of its nonempty entries, whatever order they are given in."""
    rng = random.Random(15)
    blank = (EPSILON, EPSILON)
    private = tuple(f"p{k}" for k in range(6))
    env_states = [(blank, ("e", p)) for p in private]
    for _ in range(300):
        fr = random_equivalence_frame(rng, rng.randint(1, 2), rng.randint(1, 6))
        chosen = rng.sample(fr.worlds, rng.randint(0, len(fr.worlds)))
        valuation = {w: random_atom_list(rng) for w in chosen}
        got, expected = stored_or_error(
            lambda: Model(fr, valuation).valuation, fr.worlds, valuation
        )
        assert got == expected

        system = random_hypercube(rng, rng.randint(1, 2))
        chosen = rng.sample(system.states, rng.randint(0, len(system.states)))
        valuation = [(s, random_atom_list(rng)) for s in chosen]
        got, expected = stored_or_error(
            lambda: InterpretedSystem(system, valuation).valuation, system.states, valuation
        )
        assert got == expected

        chosen = rng.sample(env_states, rng.randint(0, len(env_states)))
        valuation = {s: random_atom_list(rng) for s in chosen}

        def stored(order=1):
            return BroadcastEnvironment(
                1, external_actions=((EPSILON,), (EPSILON,)),
                internal_actions=((EPSILON,), (EPSILON,)), private_states=(("e",), private),
                initial_private=(("e",), private), valuation=list(valuation.items())[::order],
            ).valuation

        got, expected = stored_or_error(stored, tuple(valuation), valuation)
        if expected != "error":
            expected = {s: atoms for s, atoms in expected if atoms}
            assert got == stored(-1)
        assert got == expected
