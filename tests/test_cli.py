"""Command line interface: dispatch, formats, exit codes, determinism."""

import gc
import json
import os
import random
import subprocess
import sys

import pytest

import s5wd
from s5wd import broadcast, cli, decide, kripke
from s5wd.broadcast import build_card_game, environment_to_json, protocol_to_json
from s5wd.cli import main
from s5wd.kripke import (
    Model,
    check_p_morphism,
    frame_from_partitions,
    frame_to_json,
    model_from_json,
    model_to_json,
    satisfies,
    world_map_from_json,
)
from s5wd.formula import parse
from s5wd.systems import system_to_json
from helpers import missing_corner_model, random_hypercube


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def corner_files(tmp_path):
    m = missing_corner_model()
    model_path = tmp_path / "m.json"
    model_path.write_text(json.dumps(model_to_json(m)))
    frame_path = tmp_path / "f.json"
    frame_path.write_text(json.dumps(frame_to_json(m.frame)))
    return str(model_path), str(frame_path)


@pytest.fixture()
def ed_pair_files(tmp_path):
    fr = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a"], ["b"]]])
    m = Model(fr, {"a": ("p",)})
    frame_path = tmp_path / "ed.json"
    frame_path.write_text(json.dumps(frame_to_json(fr)))
    model_path = tmp_path / "edm.json"
    model_path.write_text(json.dumps(model_to_json(m)))
    return str(frame_path), str(model_path)


class TestParse:
    def test_text_output(self, capsys):
        code, out, _ = run(
            capsys, ["parse", "--formula", "[1]p -> <2>q", "--n", "2"]
        )
        assert code == 0
        assert "formula: [1]p -> <2>q" in out
        assert "size: 5" in out
        assert "atoms: p q" in out

    def test_expand_s(self, capsys):
        code, out, _ = run(
            capsys,
            ["parse", "--formula", "S p", "--n", "2", "--expand-s", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["expanded"] == "<1>p | <2>p"

    def test_parse_error_exits_one(self, capsys):
        code, _, err = run(capsys, ["parse", "--formula", "(p", "--n", "1"])
        assert code == 1
        assert err.startswith("error:")
        # the token pattern's last alternative: any other character, at its position
        assert run(capsys, ["parse", "--formula", "p @ q", "--n", "1"]) == (
            1, "", "error: unexpected character '@' (at position 2)\n"
        )

    def test_agent_out_of_range(self, capsys):
        code, _, err = run(capsys, ["parse", "--formula", "[3]p", "--n", "2"])
        assert code == 1
        assert "error:" in err


    def test_long_agent_index_exits_one(self, capsys):
        nines = "9" * 5000
        code, out, err = run(capsys, ["parse", "--formula", f"[{nines}]p", "--n", "1"])
        assert (code, out) == (1, "")
        assert err == f"error: agent index {nines} out of range 1..1\n"

    @pytest.mark.parametrize("formula", ["[²]p", "[٢]p", "p٢"])
    def test_non_ascii_digit_exits_one(self, capsys, corner_files, formula):
        # each was an int() error, agent 2 or an atom no model can hold
        model_path, _ = corner_files
        message = f"error: unexpected character {formula[1]!r} (at position 1)\n"
        for argv in (["parse", "--formula", formula, "--n", "2"],
                     ["check", "--model", model_path, "--world", "w0", "--formula", formula]):
            assert run(capsys, argv) == (1, "", message)


class TestCheck:
    def test_true_and_false(self, capsys, corner_files):
        model_path, _ = corner_files
        code, out, _ = run(
            capsys,
            ["check", "--model", model_path, "--world", "w1", "--formula", "p"],
        )
        assert (code, out) == (0, "true\n")
        code, out, _ = run(
            capsys,
            [
                "check",
                "--model",
                model_path,
                "--world",
                "w0",
                "--formula",
                "<1>[2]p -> [2]<1>p",
            ],
        )
        assert (code, out) == (0, "false\n")

    def test_s_formulas_are_expanded(self, capsys, corner_files):
        model_path, _ = corner_files
        code, out, _ = run(
            capsys,
            ["check", "--model", model_path, "--world", "w0", "--formula", "S p"],
        )
        assert (code, out) == (0, "true\n")

    def test_unknown_world(self, capsys, corner_files):
        model_path, _ = corner_files
        code, _, err = run(
            capsys,
            ["check", "--model", model_path, "--world", "w9", "--formula", "p"],
        )
        assert code == 1
        assert "unknown world" in err

    @pytest.mark.parametrize("world, out, err", [
        ("1", "true\n", ""),
        ("2", "false\n", ""),
        ("x", "", "error: unknown world 'x'\n"),
    ])
    def test_world_named_by_its_text(self, capsys, tmp_path, world, out, err):
        # number worlds are read by their JSON text, as valuation keys are
        path = tmp_path / "int.json"
        path.write_text(json.dumps(
            {"n": 1, "worlds": [1, 2], "partitions": {"1": [[1], [2]]}, "valuation": {"1": ["p"]}}
        ))
        argv = ["check", "--model", str(path), "--world", world, "--formula", "p"]
        assert run(capsys, argv) == (1 if err else 0, out, err)

    @pytest.mark.parametrize("worlds, block, message", [
        ([1.5, "a"], [1.5], "symbol 1.5 in 'worlds' is not an integer"),
        ([1, "1"], ["1"], "worlds 1 and '1' share the text '1'"),
        # Python-equal worlds are named before the blocks are read
        ([1, True], [True], "worlds 1 and True in 'worlds' are equal"),
    ])
    @pytest.mark.parametrize("command", ["components", "frame-props", "check"])
    def test_unnamed_world_rejected(self, capsys, tmp_path, worlds, block, message, command):
        # every command refuses a world that no JSON key could name
        path = tmp_path / "m.json"
        path.write_text(json.dumps(
            {"n": 1, "worlds": worlds, "partitions": {"1": [[worlds[0]], block]},
             "valuation": {"1": ["p"]}}
        ))
        flag = "--model" if command == "check" else "--frame"
        argv = [command, flag, str(path)]
        if command == "check":
            argv += ["--world", "1", "--formula", "p"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys,
            ["check", "--model", str(tmp_path / "nope.json"), "--world", "w", "--formula", "p"],
        )
        assert code == 1
        assert "error:" in err

    def test_string_valuation_rejected(self, capsys, tmp_path):
        fr = frame_from_partitions(1, ["a"], [[["a"]]])
        data = frame_to_json(fr)
        data["valuation"] = {"a": "pq"}
        path = tmp_path / "m.json"
        path.write_text(json.dumps(data))
        code, out, err = run(
            capsys, ["check", "--model", str(path), "--world", "a", "--formula", "q"]
        )
        assert (code, out) == (1, "")
        assert err == "error: valuation of world 'a' is not a list of atoms: 'pq'\n"

    def test_list_symbol_rejected(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(
            {"n": 1, "env": ["e"], "locals": [["a0"]], "states": [["e", ["a0"]]]}
        ))
        code, out, err = run(capsys, ["f-map", "--system", str(path)])
        assert (code, out) == (1, "")
        assert err == "error: symbol ['a0'] in state 0 is not a string or number\n"


# one malformed field each, loaded as a frame and as a model
MALFORMED = [
    ({"n": "1"}, "'n' is not an integer: '1'"),
    ({"worlds": [["a"]]}, "symbol ['a'] in 'worlds' is not a string or number"),
    ({"worlds": "ab"}, "'worlds' is not a list: 'ab'"),
    ({"relations": [["a", "a"]]}, "'relations' is not an object: [['a', 'a']]"),
    ({"partitions": [["a"]]}, "'partitions' is not an object: [['a']]"),
    ({"relations": {"1": [["a"]]}}, "['a'] in relation 1 is not a pair of worlds"),
    ({"relations": {"1": [["a", "a", "a"]]}},
     "['a', 'a', 'a'] in relation 1 is not a pair of worlds"),
    ({"valuation": ["a"]}, "'valuation' is not an object: ['a']"),
    ({"relations": {"1": ["aa"]}}, "'aa' in relation 1 is not a pair of worlds"),
    ({"relations": {"1": [["a", ["a"]]]}}, "['a', ['a']] in relation 1 is not a pair of worlds"),
    ({"relations": {"1": 5}}, "relation 1 is not a list: 5"),
    ({"relations": {"01": [["a", "a"]]}}, "key '01' in 'relations' names no agent 1..1"),
    ({"relations": {"1": [["a", "a"]], "2": []}}, "key '2' in 'relations' names no agent 1..1"),
    ({"partitions": {"1": [["a"]], "3": [["a"]]}}, "key '3' in 'partitions' names no agent 1..1"),
    ({"partitions": {" 1": [["a"]]}}, "key ' 1' in 'partitions' names no agent 1..1"),
    ({"worlds": [1, True], "relations": {}}, "worlds 1 and True in 'worlds' are equal"),
    # true, false and 1.0 equal the worlds 1, 0 and 1 but are none of them
    ({"worlds": [1], "relations": {"1": [[True, 1]]}},
     "relation pair (True, 1) references an unknown world"),
    ({"worlds": [1], "relations": {"1": [[1.0, 1]]}},
     "relation pair (1.0, 1) references an unknown world"),
    ({"worlds": [0], "relations": {"1": [[False, 0]]}},
     "relation pair (False, 0) references an unknown world"),
    ({"worlds": [1], "partitions": {"1": [[True]]}},
     "partition block names an unknown world True"),
]


@pytest.mark.parametrize("change, message", MALFORMED)
def test_malformed_frame_json(capsys, tmp_path, change, message):
    data = {"n": 1, "worlds": ["a"], **change}
    if "partitions" not in data:
        data.setdefault("relations", {"1": [["a", "a"]]})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    for argv in (["frame-props", "--frame", str(path)],
                 ["validate-model", "--model", str(path)]):
        code, out, err = run(capsys, argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["frame-props", "--frame", "{doc}"], "frame JSON is not an object: 5"),
    (["components", "--frame", "{doc}"], "frame JSON is not an object: 5"),
    (["iso", "--left", "{doc}", "--right", "{doc}"], "frame JSON is not an object: 5"),
    (["f-map", "--system", "{doc}"], "system JSON is not an object: 5"),
])
def test_document_that_is_not_an_object(capsys, tmp_path, argv, message):
    # checked before the loader looks for a valuation field in it
    path = tmp_path / "five.json"
    path.write_text("5")
    argv = [str(path) if token == "{doc}" else token for token in argv]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


def test_malformed_map_and_system_valuation(capsys, tmp_path):
    frame = tmp_path / "f.json"
    frame.write_text(json.dumps({"n": 1, "worlds": ["a"], "relations": {"1": [["a", "a"]]}}))
    bad_map = tmp_path / "map.json"
    bad_map.write_text(json.dumps({"map": [["a", "a"]]}))
    system = tmp_path / "sys.json"
    system.write_text(json.dumps(
        {"n": 1, "env": ["e"], "locals": [["a"]], "states": [["e", "a"]], "valuation": []}
    ))
    cases = [
        (["pmorph", "--map", str(bad_map), "--source", str(frame), "--target", str(frame)],
         "'map' is not an object: [['a', 'a']]"),
        (["f-map", "--system", str(system)], "'valuation' is not an object: []"),
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (1, "", f"error: {message}\n")


SYSTEM = {"n": 1, "env": ["e"], "locals": [["a"]], "states": [["e", "a"]]}
ENV = {"n": 1, "external_actions": [["eps"], ["eps"]], "internal_actions": [["eps"], ["eps"]],
       "private_states": [["0"], ["0"]], "initial_private": [["0"], ["0"]]}
# one valued document per loader: the argv before the file, and the one key
VALUED = [
    (["validate-model", "--model"], {"n": 1, "worlds": ["a"], "relations": {"1": [["a", "a"]]}},
     "a"),
    (["f-map", "--system"], SYSTEM, '["e","a"]'),
    (["broadcast", "simulate", "--depth", "1", "--env"], ENV, '[["eps","eps"],["0","0"]]'),
]
RAW_ERRORS = ("unhashable", "not supported between", "is not iterable", "Traceback")


@pytest.mark.parametrize("argv, doc, key", VALUED, ids=["model", "system", "environment"])
@pytest.mark.parametrize("atoms", ["pq", 5, {"p": 1}, None, ["p", 1], ["p", ["q"]], ["P"]])
def test_malformed_atom_list(capsys, tmp_path, argv, doc, key, atoms):
    # a string was read as its letters and a dict as its keys, and a list
    # holding a number or a list was sorted before it was checked
    path = tmp_path / "valued.json"
    path.write_text(json.dumps(dict(doc, valuation={key: atoms})))
    code, out, err = run(capsys, argv + [str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(text in err for text in RAW_ERRORS)


@pytest.mark.parametrize("value", [["a"], {"a": 1}, 1, None])
def test_map_value_that_is_not_a_world_key(capsys, tmp_path, value):
    frame, path = tmp_path / "frame.json", tmp_path / "map.json"
    frame.write_text(json.dumps({"n": 1, "worlds": ["a"], "relations": {"1": [["a", "a"]]}}))
    path.write_text(json.dumps({"map": {"a": value}}))
    argv = ["pmorph", "--map", str(path), "--source", str(frame), "--target", str(frame)]
    assert run(capsys, argv) == (1, "", f"error: map value {value!r} is not a target world\n")


@pytest.mark.parametrize("data, message", [
    (dict(SYSTEM, n="1"), "'n' is not an integer: '1'"),
    (dict(SYSTEM, n=True), "'n' is not an integer: True"),
    ([SYSTEM], "system JSON is not an object: [{'n': 1,"),
    (dict(SYSTEM, locals="a"), "'locals' is not a list: 'a'"),
    (dict(SYSTEM, states={"e": "a"}), "'states' is not a list: {'e': 'a'}"),
    # symbols are told apart by their text, column by column
    (dict(SYSTEM, locals=[[1, True]], states=[["e", 1], ["e", True]]),
     "symbols 1 and True in the agent 1 column are equal"),
    (dict(SYSTEM, env=[1, True], locals=[["a", "b"]], states=[[1, "a"], [True, "b"]]),
     "symbols 1 and True in the environment column are equal"),
    (dict(SYSTEM, locals=[[1, "1"]], states=[["e", 1], ["e", "1"]]),
     "symbols 1 and '1' in the agent 1 column share the text '1'"),
])
def test_malformed_system_json(capsys, tmp_path, data, message):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, ["f-map", "--system", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")


@pytest.mark.parametrize("content, reason", [
    (b"", "Expecting value: line 1 column 1 (char 0)"),
    (b'{"n": 1,', "Expecting property name enclosed in double quotes: line 1 column 9 (char 8)"),
    (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["empty", "truncated", "not-utf-8"])
def test_file_that_is_not_json_is_named(capsys, tmp_path, content, reason):
    path = tmp_path / "frame.json"
    path.write_bytes(content)
    assert run(capsys, ["unpack", "--frame", str(path)]) == (
        1, "", f"error: file {str(path)!r} is not UTF-8 JSON: {reason}\n"
    )


FRAME = {"n": 1, "worlds": ["a"], "relations": {"1": [["a", "a"]]}}
CARD_ENV = environment_to_json(build_card_game(2, 1)[0])
SIMULATE = ["broadcast", "simulate", "--depth", "1"]


# one loader each; the file is the last argument, and {frame} a valid frame
@pytest.mark.parametrize("argv, data, message", [
    (["frame-props", "--frame"], {"worlds": ["a"]}, "frame JSON lacks the required field 'n'"),
    (["validate-model", "--model"], {"n": 1, "valuation": {}},
     "frame JSON lacks the required field 'worlds'"),
    (["f-map", "--system"], {k: v for k, v in SYSTEM.items() if k != "states"},
     "system JSON lacks the required field 'states'"),
    (SIMULATE + ["--env"], {k: v for k, v in CARD_ENV.items() if k != "internal_actions"},
     "environment JSON lacks the required field 'internal_actions'"),
    (SIMULATE + ["--card-game", "deck=2,hand=1", "--protocol"], {"agents": [{"table": {}}]},
     "the agent 1 protocol lacks the required field 'kind'"),
    (["pmorph", "--source", "{frame}", "--target", "{frame}", "--map"], {"mapping": {}},
     "world map JSON lacks the required field 'map'"),
])
def test_missing_required_field(capsys, tmp_path, argv, data, message):
    frame, path = tmp_path / "frame.json", tmp_path / "bad.json"
    frame.write_text(json.dumps(FRAME))
    path.write_text(json.dumps(data))
    argv = [str(frame) if token == "{frame}" else token for token in argv] + [str(path)]
    assert run(capsys, argv) == (1, "", f"error: {message}\n")


class TestReports:
    def test_frame_props(self, capsys, corner_files):
        _, frame_path = corner_files
        code, out, _ = run(capsys, ["frame-props", "--frame", frame_path])
        assert code == 0
        assert "E: yes" in out and "WD: no" in out and "D: no" in out
        code, out, _ = run(
            capsys, ["frame-props", "--frame", frame_path, "--format", "json"]
        )
        data = json.loads(out)
        assert data == {
            "e": True,
            "d": False,
            "i": True,
            "wd": False,
            "connected": True,
        }

    def test_validate_model(self, capsys, corner_files):
        model_path, _ = corner_files
        code, out, _ = run(
            capsys, ["validate-model", "--model", model_path, "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data == {"n": 2, "worlds": 3, "atoms": ["p"], "equivalence": True}

    def test_components(self, capsys, tmp_path):
        fr = frame_from_partitions(
            1, ["a", "b", "c"], [[["a", "b"], ["c"]]]
        )
        path = tmp_path / "split.json"
        path.write_text(json.dumps(frame_to_json(fr)))
        code, out, _ = run(
            capsys, ["components", "--frame", str(path), "--format", "json"]
        )
        assert code == 0
        assert json.loads(out) == {"components": [["a", "b"], ["c"]]}


class TestIsoAndPmorph:
    def test_iso_found(self, capsys, corner_files, tmp_path):
        _, frame_path = corner_files
        relabeled = frame_from_partitions(
            2,
            ["x", "y", "z"],
            [[["x", "y"], ["z"]], [["x", "z"], ["y"]]],
        )
        other = tmp_path / "other.json"
        other.write_text(json.dumps(frame_to_json(relabeled)))
        code, out, _ = run(
            capsys, ["iso", "--left", frame_path, "--right", str(other), "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["found"] and data["map"]["w0"] == "x"

    def test_iso_not_found(self, capsys, corner_files, tmp_path):
        _, frame_path = corner_files
        other = frame_from_partitions(
            2,
            ["x", "y", "z"],
            [[["x", "y", "z"]], [["x", "z"], ["y"]]],
        )
        path = tmp_path / "other.json"
        path.write_text(json.dumps(frame_to_json(other)))
        code, out, _ = run(capsys, ["iso", "--left", frame_path, "--right", str(path)])
        assert code == 1
        assert "no isomorphism" in out

    def test_pmorph_ok_and_failing(self, capsys, tmp_path):
        source = frame_from_partitions(
            1, ["a", "b"], [[["a"], ["b"]]]
        )
        target = frame_from_partitions(1, ["t"], [[["t"]]])
        spath = tmp_path / "s.json"
        spath.write_text(json.dumps(frame_to_json(source)))
        tpath = tmp_path / "t.json"
        tpath.write_text(json.dumps(frame_to_json(target)))
        collapse = tmp_path / "collapse.json"
        collapse.write_text(json.dumps({"map": {"a": "t", "b": "t"}}))
        code, out, _ = run(
            capsys,
            ["pmorph", "--map", str(collapse), "--source", str(spath), "--target", str(tpath)],
        )
        assert code == 0
        assert "ok: yes" in out
        # the reverse direction misses a world, so surjectivity fails
        partial = tmp_path / "partial.json"
        partial.write_text(json.dumps({"map": {"t": "a"}}))
        code, out, _ = run(
            capsys,
            [
                "pmorph",
                "--map",
                str(partial),
                "--source",
                str(tpath),
                "--target",
                str(spath),
                "--format",
                "json",
            ],
        )
        assert code == 1
        data = json.loads(out)
        assert not data["ok"]
        assert data["clause"] == "surjectivity"


class TestConversions:
    def test_from_frame_round_trip(self, capsys, ed_pair_files, tmp_path):
        frame_path, _ = ed_pair_files
        code, out, _ = run(
            capsys,
            ["from-frame", "--frame", frame_path, "--mode", "full", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        sys_path = tmp_path / "sys.json"
        sys_path.write_text(json.dumps(data["system"]))
        code, out, _ = run(
            capsys, ["f-map", "--system", str(sys_path), "--format", "json"]
        )
        assert code == 0
        image = json.loads(out)
        assert len(image["worlds"]) == 2

    def test_from_frame_hypercube_requires_edi(self, capsys, tmp_path):
        cluster = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a", "b"]]])
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(frame_to_json(cluster)))
        code, _, err = run(
            capsys, ["from-frame", "--frame", str(path), "--mode", "hypercube"]
        )
        assert code == 1
        assert "identity intersection" in err

    def test_from_frame_hypercube_reads_only_tables(self, capsys, monkeypatch, tmp_path):
        # a 3 x 2 grid in the partitions form: its frames are built from
        # labels, so no relation is scanned and no pair set is built
        worlds = [f"{r}{c}" for r in "abc" for c in "xy"]
        rows = [[w for w in worlds if w[0] == r] for r in "abc"]
        columns = [[w for w in worlds if w[1] == c] for c in "xy"]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(
            {"n": 2, "worlds": worlds, "partitions": {"1": rows, "2": columns}}
        ))

        def refuse(*args):
            raise AssertionError("relations scanned or built")

        monkeypatch.setattr(kripke, "_relation_is_equivalence", refuse)
        monkeypatch.setattr(kripke.Frame, "relations", property(refuse))
        code, out, err = run(
            capsys, ["from-frame", "--frame", str(path), "--mode", "hypercube", "--format", "json"]
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["system"]["states"]) == 6

    def test_unpack_emits_verified_morphism(self, capsys, corner_files, tmp_path):
        _, frame_path = corner_files
        # the missing corner frame is not WD, so unpacking is refused
        code, _, err = run(capsys, ["unpack", "--frame", frame_path])
        assert code == 1
        assert "weakly directed" in err

    def test_unpack_on_cluster(self, capsys, tmp_path):
        fr = frame_from_partitions(2, ["a", "b"], [[["a", "b"]], [["a", "b"]]])
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(frame_to_json(fr)))
        code, out, _ = run(
            capsys, ["unpack", "--frame", str(path), "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert len(data["frame"]["worlds"]) == 4
        # the emitted map re-validates against the emitted frame
        from s5wd.kripke import frame_from_json

        unpacked = frame_from_json(data["frame"])
        wm = world_map_from_json({"map": data["map"]}, unpacked, fr)
        assert check_p_morphism(wm).ok

    def test_filtrate(self, capsys, ed_pair_files, tmp_path):
        _, model_path = ed_pair_files
        code, out, _ = run(
            capsys,
            ["filtrate", "--model", model_path, "--formula", "[1]p", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert set(data["closure"]) == {"p", "[1]p", "~p", "~[1]p"}
        quotient = model_from_json(data["quotient"])
        assert len(quotient.frame.worlds) == 2

    def test_filtrate_expands_s_but_rejects_d(self, capsys, tmp_path):
        path = tmp_path / "two.json"
        path.write_text(json.dumps({
            "n": 2, "worlds": ["w0", "w1"], "valuation": {"w0": ["p"]},
            "partitions": {"1": [["w0"], ["w1"]], "2": [["w0", "w1"]]},
        }))
        code, out, _ = run(capsys, ["filtrate", "--model", str(path), "--formula", "S p"])
        # <1>p | <2>p: four subformulas and their negations
        assert (code, out.splitlines()[0]) == (0, "closure size: 8")
        # one kernel run gives every closure member's truth, however deep the formula
        code, out, _ = run(capsys, ["filtrate", "--model", str(path), "--formula", "[1]" * 300 + "p"])
        assert (code, out.splitlines()[0]) == (0, "closure size: 602")
        code, out, err = run(capsys, ["filtrate", "--model", str(path), "--formula", "D p"])
        assert (code, out, err) == (1, "", "error: the D operator is not supported by filtration\n")


class TestDecide:
    def test_catach_countermodel(self, capsys):
        argv = [
            "decide",
            "--formula",
            "<1>[2]p -> [2]<1>p",
            "--n",
            "2",
            "--mode",
            "valid",
            "--max-worlds",
            "4",
            "--class",
            "e",
            "--format",
            "json",
        ]
        code, out, _ = run(capsys, argv)
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "countermodel"
        assert data["witness_world"] == "w0"
        assert len(data["witness_model"]["worlds"]) == 3
        # the witness re-validates through check
        witness = model_from_json(data["witness_model"])
        f = parse("<1>[2]p -> [2]<1>p", 2)
        assert not satisfies(witness, "w0", f)

    def test_unknown_exits_two(self, capsys):
        code, out, _ = run(
            capsys,
            ["decide", "--formula", "[1]p -> p", "--n", "1", "--mode", "valid", "--max-worlds", "4"],
        )
        assert code == 2
        assert "verdict: unknown" in out

    def test_valid_at_sufficient_bound(self, capsys):
        code, out, _ = run(
            capsys,
            ["decide", "--formula", "[1]p -> p", "--n", "1", "--mode", "valid", "--max-worlds", "8"],
        )
        assert code == 0
        assert "verdict: valid" in out

    def test_sat_mode(self, capsys):
        code, out, _ = run(
            capsys,
            ["decide", "--formula", "p & ~q", "--n", "1", "--mode", "sat", "--max-worlds", "2", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "satisfiable"
        witness = model_from_json(data["witness_model"])
        assert satisfies(witness, data["witness_world"], parse("p & ~q", 1))
        sat = ["decide", "--n", "1", "--mode", "sat", "--max-worlds", "1", "--formula"]
        # nesting deeper than the recursion limit parses and decides, and of a
        # repeated flag the last value wins
        for argv, bound in ((sat + ["p"], 1), (sat + ["~" * 5000 + "p"], 1),
                            (sat + ["p", "--max-worlds", "2"], 2)):
            code, out, _ = run(capsys, argv)
            assert (code, out.splitlines()[:2]) == (0, ["verdict: satisfiable", f"bound: {bound}"])

    def test_huge_bound_refused_after_few_bell_rows(self, capsys, monkeypatch):
        rows = []
        bell_numbers = decide._bell_numbers

        def counted():
            for bell in bell_numbers():
                rows.append(bell)
                # a search that sums every row up to the bound fails here
                assert len(rows) < 100, "Bell rows computed past the budget"
                yield bell

        monkeypatch.setattr(decide, "_bell_numbers", counted)
        argv = ["decide", "--formula", "p", "--n", "2", "--mode", "sat",
                "--max-worlds", "100000000", "--class", "e"]
        assert run(capsys, argv) == (
            1, "", "error: enumeration would scan more than 50000 partition tuples at world "
            "count 7; raise --frame-budget (frame_budget=) or lower --max-worlds\n")
        # 1 + 2^2 + ... + 203^2 = 44,168 tuples fit the budget, and 877^2 more do not
        assert rows == [1, 2, 5, 15, 52, 203, 877]

    def test_valuation_budget_names_its_flag(self, capsys):
        argv = ["decide", "--formula", "p", "--n", "1", "--mode", "sat",
                "--max-worlds", "2", "--max-assignments", "1"]
        assert run(capsys, argv) == (
            1, "", "error: frame validity needs 2^1 valuations, over budget 1; "
            "raise --max-assignments (max_assignments=)\n")

    def test_library_refuses_bounds_below_one(self):
        for name, bound in (("frame_budget", 0), ("max_assignments", -1)):
            for runner in (decide.decide_satisfiability, decide.decide_validity):
                with pytest.raises(ValueError, match=f"^{name} must be at least 1$"):
                    runner(parse("p", 1), 1, 2, **{name: bound})

    def test_bad_class_flag(self, capsys):
        code, _, err = run(
            capsys,
            ["decide", "--formula", "p", "--n", "1", "--mode", "sat", "--max-worlds", "2", "--class", "s5"],
        )
        assert code == 1
        assert "invalid choice" in err


class TestBroadcast:
    def test_card_game_simulation(self, capsys):
        code, out, _ = run(
            capsys,
            [
                "broadcast",
                "simulate",
                "--card-game",
                "deck=2,hand=1",
                "--depth",
                "2",
                "--verify",
                "hypercube",
                "--format",
                "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["worlds"] == 8
        assert data["components"] == 5
        assert data["homogeneous"] is True
        assert data["verify"]["ok"] is True
        assert len(data["verify"]["components"]) == 5
        argv = ["broadcast", "simulate", "--card-game", "deck=6,hand=3", "--depth", "2",
                "--verify", "hypercube"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert "components: 37\nverify (hypercube): ok\n" in out

    def test_env_file_with_protocol(self, capsys, tmp_path):
        env, proto = build_card_game(2, 1, "rich")
        env_path = tmp_path / "env.json"
        env_path.write_text(json.dumps(environment_to_json(env)))
        proto_path = tmp_path / "proto.json"
        proto_path.write_text(json.dumps(protocol_to_json(proto)))
        base = [
            "broadcast",
            "simulate",
            "--env",
            str(env_path),
            "--protocol",
            str(proto_path),
            "--depth",
            "2",
        ]
        code, out, _ = run(capsys, base + ["--verify", "full"])
        assert code == 0
        assert "verify (full): ok" in out
        # the rich modeling is not a product of per-agent recall sets
        code, out, _ = run(capsys, base + ["--verify", "hypercube"])
        assert code == 1
        assert "failed (missing-tuple)" in out

    @pytest.mark.parametrize("change, message", [
        ({"valuation": []}, "'valuation' is not an object: []"),
        ({"env_protocol": []}, "'env_protocol' is not an object: []"),
        ({"transitions": {}}, "'transitions' is not a list: {}"),
        ({"transitions": [[]]}, "transition table 0 is not an object: []"),
        ({"n": "2"}, "'n' is not an integer: '2'"),
        (None, "environment JSON is not an object: [{"),
        ({"external_actions": "abc"}, "'external_actions' is not a list: 'abc'"),
        ({"internal_actions": [["eps"], "eps", ["eps"]]},
         "'internal_actions' entry 1 is not a list: 'eps'"),
        ({"private_states": [None, "xy", ["a"]]}, "'private_states' entry 1 is not a list: 'xy'"),
        ({"initial_private": [["1"], "ab", []]}, "'initial_private' entry 1 is not a list: 'ab'"),
        ({"initial_private": None, "initial_states": ["ab"]},
         "'initial_states' entry 0 is not a list: 'ab'"),
        ({"valuation": {'[["eps","eps","eps"],["1",{"set":["c0"]},{"set":["c0"]}]]': "pq"}},
         'the valuation of state [["eps","eps","eps"],["1",{"set":["c0"]},{"set":["c0"]}]]'
         " is not a list: 'pq'"),
        ({"env_protocol": {'[["eps","eps","eps"],"1"]': "ab"}},
         """the 'env_protocol' actions at [["eps","eps","eps"],"1"] is not a list: 'ab'"""),
        ({"valuation": {"abc": ["p"]}},
         "key 'abc' in 'valuation' is not the JSON text of a value"),
        ({"env_protocol": {"abc": [["eps", "eps"]]}},
         "key 'abc' in 'env_protocol' is not the JSON text of a value"),
        ({"transitions": [{}, {"abc": "1"}, {}]},
         "key 'abc' in transition table 1 is not the JSON text of a value"),
        ({"valuation": {'{"x":1}': ["p"]}},
         """key '{"x":1}' in 'valuation' is not the JSON text of a value"""),
        # read like an agent's table: an empty one is rejected
        ({"env_protocol": {}}, "protocol table is empty"),
        # a transition target outside the agent's private states
        ({"transitions": [{}, {'[["eps","eps","eps"],"eps",{"set":["c0"]}]': "1"}, {}]},
         "unknown private state '1' of agent 1"),
        # a value other than a string is shown by its JSON text
        ({"transitions": [{}, {'[["eps","eps","eps"],"eps",{"set":["c0"]}]': {"set": ["b"]}}, {}]},
         'unknown private state {"set":["b"]} of agent 1'),
    ])
    def test_malformed_env_json(self, capsys, tmp_path, change, message):
        env, _ = build_card_game(2, 1)
        data = environment_to_json(env)
        data = [data] if change is None else dict(data, **change)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(data))
        argv = ["broadcast", "simulate", "--env", str(path), "--depth", "1"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("data, message", [
        ([], "protocol JSON is not an object: []"),
        ({"agents": {}}, "'agents' is not a list: {}"),
        ({"agents": [[]]}, "the agent 1 protocol is not an object: []"),
        ({"agents": [{"kind": "table", "table": []}]}, "the agent 1 table is not an object: []"),
        ({"agents": [{"kind": "table", "table": {'[["eps","eps","eps"],{"set":["c0"]}]': "ab"}}]},
         """the agent 1 table actions at [["eps","eps","eps"],{"set":["c0"]}] is not a list: 'ab'"""),
        ({"agents": [{"kind": "table", "table": {'[["eps","eps","eps"],{"set":[]}]': ["ab"]}}]},
         """action 'ab' in the agent 1 table actions at [["eps","eps","eps"],{"set":[]}]"""
         " is not a pair"),
        ({"agents": [{"kind": "table", "table": {"abc": [["eps", "eps"]]}}]},
         "key 'abc' in the agent 1 table is not the JSON text of a value"),
    ])
    def test_malformed_protocol_json(self, capsys, tmp_path, data, message):
        path = tmp_path / "proto.json"
        path.write_text(json.dumps(data))
        argv = ["broadcast", "simulate", "--card-game", "deck=2,hand=1",
                "--protocol", str(path), "--depth", "1"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("change, message", [
        ({"valuation": {'["eps"]': ["p"]}},
         """key ["eps"] in 'valuation' is not a state [joint action, private states]"""),
        ({"valuation": {"5": ["p"]}},
         "key 5 in 'valuation' is not a state [joint action, private states]"),
        ({"transitions": [{}, {"5": "1"}, {}]},
         "key 5 in transition table 1 is not [joint action, internal action, private state]"),
        ({"env_protocol": {"7": [["eps", "eps"]]}},
         "key 7 in a protocol table is not an observation [joint action, private state]"),
    ], ids=["valuation-list", "valuation-int", "transitions", "env_protocol"])
    def test_env_table_key_of_wrong_shape(self, capsys, tmp_path, change, message):
        env, _ = build_card_game(2, 1)
        path = tmp_path / "env.json"
        path.write_text(json.dumps(dict(environment_to_json(env), **change)))
        argv = ["broadcast", "simulate", "--env", str(path), "--depth", "1"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_protocol_table_key_of_wrong_shape(self, capsys, tmp_path):
        path = tmp_path / "proto.json"
        path.write_text(json.dumps(
            {"agents": [{"kind": "table", "table": {"7": [["eps", "eps"]]}}]}
        ))
        argv = ["broadcast", "simulate", "--card-game", "deck=2,hand=1",
                "--protocol", str(path), "--depth", "1"]
        assert run(capsys, argv) == (
            1, "", "error: key 7 in a protocol table is not an observation"
            " [joint action, private state]\n"
        )

    def test_set_tag_members_must_be_a_list(self, capsys, tmp_path):
        # a string of members is not read as the set of its characters
        path = tmp_path / "env.json"
        path.write_text(json.dumps({
            "n": 1, "external_actions": [["eps"], ["eps"]],
            "internal_actions": [["eps"], ["eps"]], "private_states": [None, None],
            "initial_private": [["0"], [{"set": "ab"}]],
        }))
        emitted = tmp_path / "traces.json"
        argv = ["broadcast", "simulate", "--env", str(path), "--depth", "1",
                "--emit-frame", str(emitted)]
        assert run(capsys, argv) == (1, "", "error: cannot decode value: {'set': 'ab'}\n")
        assert not emitted.exists()

    def test_play_any_card_with_mixed_card_types(self, capsys, tmp_path):
        # a hand's cards are listed in _key order, so 1 and "a" need no common order
        env = tmp_path / "env.json"
        env.write_text(json.dumps({
            "n": 1, "external_actions": [["eps"], ["eps", {"set": [1]}, {"set": ["a"]}]],
            "internal_actions": [["eps"], ["eps"]], "private_states": [None, None],
            "initial_private": [["0"], [{"set": [1, "a"]}]], "transitions": None,
        }))
        proto = tmp_path / "proto.json"
        proto.write_text(json.dumps({"agents": [{"kind": "play-any-card"}]}))
        argv = ["broadcast", "simulate", "--env", str(env), "--protocol", str(proto),
                "--depth", "2"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert "worlds: 3\ncomponents: 3\n" in out

    @pytest.mark.parametrize("verify", [[], ["--verify", "hypercube"], ["--verify", "full"]],
                             ids=["no-verify", "hypercube", "full"])
    def test_components_found_once(self, capsys, monkeypatch, verify):
        # with --verify the component count is read off the report
        calls = []

        def counted(x):
            calls.append(x)
            return kripke.component_members(x)

        monkeypatch.setattr(cli, "component_members", counted)
        monkeypatch.setattr(broadcast, "component_members", counted)
        argv = ["broadcast", "simulate", "--card-game", "deck=3,hand=1", "--depth", "2"]
        code, out, _ = run(capsys, argv + verify)
        assert code == 0
        assert "components: 10\n" in out
        assert len(calls) == 1

    def test_emit_frame_feeds_check(self, capsys, tmp_path):
        emitted = tmp_path / "traces.json"
        code, out, _ = run(
            capsys,
            [
                "broadcast",
                "simulate",
                "--card-game",
                "deck=2,hand=1",
                "--depth",
                "1",
                "--emit-frame",
                str(emitted),
            ],
        )
        assert code == 0
        data = json.loads(emitted.read_text())
        world = data["worlds"][0]
        code, out, _ = run(
            capsys,
            [
                "check",
                "--model",
                str(emitted),
                "--world",
                world,
                "--formula",
                "~face_up_matches",
            ],
        )
        assert (code, out) == (0, "true\n")

    def test_argument_exclusivity(self, capsys, tmp_path):
        code, _, err = run(capsys, ["broadcast", "simulate", "--depth", "1"])
        assert code == 1
        assert "exactly one" in err
        code, _, err = run(
            capsys,
            ["broadcast", "simulate", "--card-game", "deck=2", "--depth", "1"],
        )
        assert code == 1
        assert "card game settings" in err
        code, _, err = run(
            capsys,
            ["broadcast", "simulate", "--card-game", "deck=2,hand=1,suits=4", "--depth", "1"],
        )
        assert code == 1
        assert "unknown card game setting" in err

    @pytest.mark.parametrize("settings, message", [
        ("deck=x,hand=1", "card game setting 'deck' is not a natural number: 'x'"),
        ("deck=3,hand=", "card game setting 'hand' is not a natural number: ''"),
        ("deck=3,hand=-1", "card game setting 'hand' is not a natural number: '-1'"),
        ("deck=\u0663,hand=1", "card game setting 'deck' is not a natural number: '\u0663'"),
        ("deck=1_0,hand=1", "card game setting 'deck' is not a natural number: '1_0'"),
        ("deck=3,hand=1,deck=4", "card game setting 'deck' is given twice"),
        ("modeling=rich,deck=3,hand=1,modeling=rich", "card game setting 'modeling' is given twice"),
    ])
    def test_card_game_settings_read_exactly(self, capsys, settings, message):
        argv = ["broadcast", "simulate", "--card-game", settings, "--depth", "1"]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    def test_card_game_settings_may_be_spaced(self, capsys):
        argv = ["broadcast", "simulate", "--card-game", " deck = 3 , hand = 1 ", "--depth", "1"]
        assert run(capsys, argv) == run(capsys, argv[:3] + ["deck=3,hand=1"] + argv[4:])

    def test_budget_exits_one(self, capsys):
        code, _, err = run(
            capsys,
            [
                "broadcast",
                "simulate",
                "--card-game",
                "deck=4,hand=2",
                "--depth",
                "3",
                "--max-worlds",
                "100",
            ],
        )
        assert code == 1
        assert "error:" in err

    def test_oversized_card_game_refused_unbuilt(self, capsys, monkeypatch):
        # generate_frame refuses a built game with the same message, so count
        # the environments built; deck 142 first, since building deck 2000
        # would take minutes and gigabytes
        built = []
        init = broadcast.BroadcastEnvironment.__post_init__
        monkeypatch.setattr(broadcast.BroadcastEnvironment, "__post_init__",
                            lambda env: built.append(env) or init(env))
        # 141^2 = 19,881 traces fit the default bound, 142^2 = 20,164 do not,
        # and C(2000, 1)^2 = 4,000,000 initial states, each a depth-1 trace
        for deck in ("142", "2000"):
            argv = ["broadcast", "simulate", "--card-game", f"deck={deck},hand=1", "--depth", "1"]
            assert run(capsys, argv) == (1, "", "error: more than 20000 traces at depth 1\n")
            assert built == []
        argv = ["broadcast", "simulate", "--card-game", "deck=3,hand=1", "--depth", "1",
                "--max-worlds", "9"]
        assert run(capsys, argv)[:2] == (0, "n: 2\ndepth: 1\nhomogeneous: True\nworlds: 9\n"
                                             "components: 1\n")
        assert len(built) == 1


DECIDE_P = ["decide", "--formula", "p", "--n", "2", "--mode", "sat", "--max-worlds", "3"]


@pytest.mark.parametrize("argv, flag, value", [
    (DECIDE_P + ["--frame-budget", "-5"], "--frame-budget", -5),
    (DECIDE_P + ["--max-assignments", "0"], "--max-assignments", 0),
    (["iso", "--left", "a.json", "--right", "b.json", "--max-worlds", "-3"], "--max-worlds", -3),
    (["broadcast", "simulate", "--card-game", "deck=2,hand=1", "--depth", "1",
      "--max-worlds", "-2"], "--max-worlds", -2),
], ids=["frame-budget", "max-assignments", "iso-max-worlds", "simulate-max-worlds"])
def test_bound_below_one_names_its_flag(capsys, argv, flag, value):
    # refused as a setting out of range, not reported as an exceeded budget
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"usage: s5wd {argv[0]} ")
    assert err.endswith(f"\nerror: argument {flag}: must be at least 1, got {value}\n")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_commands_run_with_the_collector_paused(capsys, monkeypatch, corner_files, tmp_path,
                                                enabled):
    # the collector is off while a command decodes its documents and builds
    # its frames, and comes back as the caller had it however the command ends
    states = []
    loads = json.loads
    monkeypatch.setattr(cli.json, "loads", lambda text: states.append(gc.isenabled()) or loads(text))
    post_init = kripke.Frame.__post_init__
    monkeypatch.setattr(kripke.Frame, "__post_init__",
                        lambda fr: states.append(gc.isenabled()) or post_init(fr))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    unknown = ["decide", "--formula", "[1]p -> p", "--n", "1", "--mode", "valid",
               "--max-worlds", "4"]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert run(capsys, ["frame-props", "--frame", corner_files[1]])[0] == 0
        assert gc.isenabled() == enabled
        assert states[:2] == [False, False]
        assert run(capsys, ["frame-props", "--frame", str(bad)]) == (
            1, "", f"error: file {str(bad)!r} is not UTF-8 JSON: Expecting property name"
            " enclosed in double quotes: line 1 column 2 (char 1)\n")
        assert gc.isenabled() == enabled
        assert run(capsys, unknown)[0] == 2
        assert gc.isenabled() == enabled
        assert run(capsys, ["frame-props"])[0] == 1
        assert gc.isenabled() == enabled
        monkeypatch.setattr(cli, "check_d", lambda fr: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            main(["frame-props", "--frame", corner_files[1]])
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert len(states) > 3 and not any(states)


def unreachable_after(fn) -> int:
    """The objects that gc.collect() finds unreachable after fn(), with the
    collector kept off from a collected heap until then."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        (gc.enable if was else gc.disable)()


def test_commands_leave_no_cycles(capsys, corner_files, tmp_path):
    # so pausing the collector for a whole command leaves nothing for it; only
    # json.dumps with an indent leaves its encoder's closures, whatever it writes
    model_path, frame_path = corner_files
    system_path = tmp_path / "s.json"
    system_path.write_text(json.dumps(system_to_json(random_hypercube(random.Random(1), 2))))
    emitted = str(tmp_path / "e.json")
    game = ["broadcast", "simulate", "--card-game", "deck=3,hand=1", "--depth", "2"]
    quiet = [
        ["frame-props", "--frame", frame_path],
        ["f-map", "--system", str(system_path)],
        ["iso", "--left", frame_path, "--right", frame_path],
        ["filtrate", "--model", model_path, "--formula", "<1>p -> [2]p"],
        ["decide", "--formula", "[1]p -> p", "--n", "2", "--mode", "valid", "--max-worlds", "4",
         "--class", "e"],
        game + ["--verify", "hypercube"],
    ]
    for argv in quiet:
        assert unreachable_after(lambda: run(capsys, argv)) == 0, argv
    indented = unreachable_after(lambda: json.dumps({"a": [1, {"b": 2}]}, indent=2, **cli._JSON))
    assert indented > 0
    for argv in (["f-map", "--system", str(system_path), "--format", "json"],
                 game + ["--emit-frame", emitted]):
        assert unreachable_after(lambda: run(capsys, argv)) == indented, argv


@pytest.mark.parametrize("argv", [
    ["frame-props", "--frame", "{doc}"],
    ["decide", "--formula", "p", "--n", "100000", "--mode", "sat", "--max-worlds", "1"],
])
def test_agent_count_bound(capsys, tmp_path, argv):
    # rejected before any per-agent work, however small the input
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"n": 100_000, "worlds": ["a"], "relations": {}}))
    argv = [str(path) if arg == "{doc}" else arg for arg in argv]
    assert run(capsys, argv) == (1, "", "error: agent count n must be at most 1000\n")


class TestHarness:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert "invalid choice" in err

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, ["parse", "--n", "1"])
        assert code == 1
        assert "--formula" in err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "decide" in out and "broadcast" in out

    def test_byte_identical_runs(self, capsys, corner_files):
        model_path, frame_path = corner_files
        commands = [
            ["frame-props", "--frame", frame_path, "--format", "json"],
            ["components", "--frame", frame_path, "--format", "json"],
            [
                "decide",
                "--formula",
                "<1>[2]p -> [2]<1>p",
                "--n",
                "2",
                "--mode",
                "valid",
                "--max-worlds",
                "3",
                "--class",
                "e",
                "--format",
                "json",
            ],
        ]
        for argv in commands:
            first = run(capsys, argv)
            second = run(capsys, argv)
            assert first == second


# every command path, the group included
COMMAND_PATHS = [
    [name] for name in (
        "parse", "check", "validate-model", "frame-props", "components", "iso", "pmorph",
        "f-map", "from-frame", "unpack", "filtrate", "decide", "broadcast",
    )
] + [["broadcast", "simulate"]]


def sweep_line(rng: random.Random, path: list) -> list:
    """A command line for path: its required flags and some others with
    fitting values, in random order, then up to two seeded defects of the
    kinds that must be left to argparse."""
    table = cli.COMMANDS
    for name in path:
        _, handler, _, arguments = next(c for c in table if c[0] == name)
        table = arguments
    if handler is None:  # a group alone: borrow its first command's flags
        arguments = arguments[0][3]
    flags = dict((cli._FORMAT, *arguments))

    def value(kwargs):
        if "choices" in kwargs:
            return rng.choice(kwargs["choices"])
        if "type" in kwargs:  # int, or a bound of at least 1
            return rng.choice(["1", "2"])
        return rng.choice(["p", "deck=2,hand=1", "missing.json", "out.json", ""])

    pairs = [
        [flag] if kwargs.get("action") == "store_true" else [flag, value(kwargs)]
        for flag, kwargs in flags.items()
        if kwargs.get("required") or rng.random() < 0.5
    ]
    rng.shuffle(pairs)
    for _ in range(rng.choice((0, 1, 1, 2))):
        defect = rng.randrange(12)
        flag = rng.choice(list(flags))
        held = [k for k, pair in enumerate(pairs) if len(pair) == 2]
        if defect == 0:  # abbreviated flag
            flag = rng.choice([f for f in flags if len(f) > 3])
            pairs.append([flag[:rng.randint(3, len(flag) - 1)], value(flags[flag])])
        elif defect == 1 and held:  # --flag=value
            k = rng.choice(held)
            pairs[k] = ["=".join(pairs[k])]
        elif defect == 2:
            pairs.insert(rng.randint(0, len(pairs)), [rng.choice(("-h", "--help", "--"))])
        elif defect == 3 and held:  # a value that starts with '-'
            rng.choice([pairs[k] for k in held])[1] = rng.choice(("-1", "-p", "--n"))
        elif defect == 4 and held:
            rng.choice([pairs[k] for k in held])[1] = ""
        elif defect == 5 and pairs:  # repeated flag
            pairs.append(list(rng.choice(pairs)))
        elif defect == 6 and held:  # bad int or choice
            rng.choice([pairs[k] for k in held])[1] = rng.choice(("one", "1.5", "cube"))
        elif defect == 7 and pairs:  # a flag dropped, required or not
            pairs.pop(rng.randrange(len(pairs)))
        elif defect == 8 and pairs:  # a missing value at the end
            pairs[-1] = pairs[-1][:1]
        elif defect == 9:  # a value after a store_true flag, or a stray token
            pairs.append(["--expand-s", "yes"] if "--expand-s" in flags else ["stray"])
        elif defect == 10:
            pairs.insert(rng.randint(0, len(pairs)), ["--bogus", "1"])
        elif defect == 11:  # a negative int
            pairs.append([flag, "-2"])
    return path + [token for pair in pairs for token in pair]


class TestParserPerCall:
    """main reads a plain command line with cli._read_plain and leaves every
    other line to the full argparse parser.  Argparse is the oracle: the
    reader's namespace must equal parse_args's, and main's stdout, stderr and
    exit code must equal those of main with the reader switched off, compared
    in one interpreter because argparse's text differs between Python
    versions."""

    CASES = [[], ["--help"], ["-h"], ["frobnicate"], ["Decide"], ["--format", "json"],
             ["broadcast", "frobnicate"]] + [
        path + extra
        for path in COMMAND_PATHS
        for extra in ([], ["--help"], ["--format", "xml"])
    ] + [
        # unrecognized arguments after a complete command line are reported
        # with the top-level usage, which must still name every command
        ["parse", "--formula", "p", "--n", "1", "--bogus"],
        ["decide", "--formula", "p", "--n", "1", "--mode", "sat", "--max-worlds", "1", "x"],
        ["broadcast", "simulate", "--depth", "1", "stray"],
        ["decide", "--formula", "p", "--n", "1", "--mode", "sat", "--max-worlds", "1"],
        ["decide", "--formula", "p", "--n", "1", "--mode", "maybe", "--max-worlds", "1"],
        ["decide", "--formula", "p", "--n", "one", "--mode", "sat", "--max-worlds", "1"],
        ["from-frame", "--frame", "f.json", "--mode", "cube"],
        ["broadcast", "simulate", "--depth", "1", "--verify", "cube"],
    ]

    @staticmethod
    def assert_same_as_full_parser(capsys, monkeypatch, argv) -> bool:
        """Both checks on argv; True when the reader took the line."""
        plain = cli._read_plain(argv)
        if plain is not None:
            assert vars(plain) == vars(cli.build_parser().parse_args(argv))
        got = run(capsys, argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read_plain", lambda argv: None)
            assert got == run(capsys, argv)
        return plain is not None

    @pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no-args")
    def test_same_text_as_full_parser(self, capsys, monkeypatch, argv):
        self.assert_same_as_full_parser(capsys, monkeypatch, argv)

    @pytest.mark.parametrize("path", COMMAND_PATHS, ids=" ".join)
    def test_seeded_sweep(self, capsys, monkeypatch, tmp_path, path):
        monkeypatch.chdir(tmp_path)  # --emit-frame out.json writes here
        rng = random.Random(" ".join(path))
        read = [
            self.assert_same_as_full_parser(capsys, monkeypatch, sweep_line(rng, path))
            for _ in range(40)
        ]
        assert not all(read)
        # a group alone is never a plain line
        assert any(read) == (path != ["broadcast"])

    @pytest.mark.parametrize("argv, parsers", [
        (["decide", "--formula", "p", "--n", "1", "--mode", "sat", "--max-worlds", "1"], 0),
        (["parse", "--help"], 15),
        (["broadcast", "simulate", "--help"], 15),
        (["--help"], 15),
        (["frobnicate"], 15),
        # forms argparse reads its own way are left to it
        (["parse", "--formula=p", "--n", "1"], 15),
        (["parse", "--formula", "p", "--n", "1", "--n", "2"], 15),
    ])
    def test_parsers_built(self, capsys, monkeypatch, argv, parsers):
        built = []
        init = cli._Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting)
        main(argv)
        assert len(built) == parsers


def test_module_invocation(capsys, monkeypatch):
    src = os.path.dirname(os.path.dirname(os.path.abspath(s5wd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    # main(None) reads sys.argv, as the module entry point does
    for argv, head in (
        (["parse", "--formula", "p", "--n", "1"], "formula: p\n"),
        (["parse", "--formula=p", "--n", "1"], "formula: p\n"),
        ([], "usage: s5wd [-h]"),
        (["decide", "--help"], "usage: s5wd decide [-h]"),
        (["parse", "--formula", "p @ q", "--n", "1"], "error: unexpected character '@'"),
    ):
        monkeypatch.setattr(sys, "argv", ["s5wd", *argv])
        expected = run(capsys, None)
        done = subprocess.run(
            [sys.executable, "-m", "s5wd.cli", *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == expected
        assert (done.stdout + done.stderr).startswith(head)
