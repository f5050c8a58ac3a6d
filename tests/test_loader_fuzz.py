"""Seeded loader fuzz: one JSON node of a valid environment, protocol, frame
or model document is replaced, deleted, duplicated or retyped, and the
command that reads it must exit 0, or exit 1 with an `error:` line, and
never raise."""

import copy
import json
import random

import pytest

from s5wd.broadcast import build_card_game, environment_to_json, protocol_to_json
from s5wd.cli import main
from s5wd.kripke import frame_from_partitions, frame_to_json
from helpers import random_broadcast_environment

RUNS = 100  # per document
VALUES = (None, True, False, 0, 1, -1, 2**70, 1.5, "", "a", "eps", "1", "[]", '["eps"]',
          [], [None], ["eps", "eps"], {}, {"set": []}, {"set": "ab"}, {"x": 1})


def nodes(doc, path=()):
    """Every (path, node) of a JSON document, the root first."""
    yield path, doc
    if isinstance(doc, dict):
        children = doc.items()
    else:
        children = enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def retyped(node, rng):
    if isinstance(node, list):
        return {str(k): v for k, v in enumerate(node)}
    if isinstance(node, dict):
        return rng.choice([list(node.values()), list(node)])
    if isinstance(node, str):
        return rng.choice([list(node), len(node), {node: node}])
    return rng.choice([json.dumps(node), [node]])


def mutated(doc, rng):
    """A copy of doc with one node replaced, deleted, duplicated or retyped."""
    doc = copy.deepcopy(doc)
    path, node = rng.choice(list(nodes(doc)))
    if not path:
        return rng.choice(VALUES + (retyped(doc, rng),))
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    edit = rng.choice(("replace", "delete", "duplicate", "retype"))
    if edit == "replace":
        parent[last] = copy.deepcopy(rng.choice(VALUES))
    elif edit == "delete":
        del parent[last]
    elif edit == "duplicate" and isinstance(parent, list):
        parent.insert(last, copy.deepcopy(node))
    elif edit == "duplicate":
        parent[last + "'"] = copy.deepcopy(node)
    else:
        parent[last] = retyped(node, rng)
    return doc


def cases(tmp_path):
    """(valid document, argv given its file path) for every kind of document;
    a protocol is read together with the environment written beside it."""
    env, proto = random_broadcast_environment(random.Random(3))
    env_path = tmp_path / "env.json"
    env_path.write_text(json.dumps(environment_to_json(env)))
    card, _ = build_card_game(2, 1, "rich")
    frame = frame_from_partitions(2, ["a", "b", 1], [[["a", "b"], [1]], [["a"], ["b", 1]]])
    model = dict(frame_to_json(frame), valuation={"a": ["p"], "1": ["q"]})
    simulate = ["broadcast", "simulate", "--depth", "2"]
    return [
        (environment_to_json(card), lambda f: simulate + ["--env", f]),
        (environment_to_json(env), lambda f: simulate + ["--env", f]),
        (protocol_to_json(proto), lambda f: simulate + ["--env", str(env_path), "--protocol", f]),
        (frame_to_json(frame), lambda f: ["frame-props", "--frame", f]),
        ({"n": 2, "worlds": ["a", "b", 1],
          "partitions": {"1": [["a", "b"], [1]], "2": [["a"], ["b", 1]]}},
         lambda f: ["components", "--frame", f]),
        (model, lambda f: ["check", "--model", f, "--world", "a", "--formula", "[1]p"]),
    ]


@pytest.mark.parametrize("index", range(6))
def test_mutated_documents_fail_cleanly(capsys, tmp_path, index):
    doc, argv = cases(tmp_path)[index]
    path = tmp_path / "doc.json"
    rng = random.Random(index)
    codes = set()
    for _ in range(RUNS):
        text = json.dumps(mutated(doc, rng))
        path.write_text(text)
        code = main(argv(str(path)))
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and err.startswith("error: ")), (text, err)
        codes.add(code)
    assert 1 in codes
