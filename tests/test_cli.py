"""Command line interface: dispatch, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import s5wd
from s5wd import kripke
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
from helpers import missing_corner_model


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

    def test_agent_out_of_range(self, capsys):
        code, _, err = run(capsys, ["parse", "--formula", "[3]p", "--n", "2"])
        assert code == 1
        assert "error:" in err


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

    def test_filtrate_rejects_s(self, capsys, ed_pair_files):
        _, model_path = ed_pair_files
        code, _, err = run(
            capsys, ["filtrate", "--model", model_path, "--formula", "S p"]
        )
        assert code == 1
        assert "expanded" in err


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


def test_module_invocation(capsys):
    argv = ["parse", "--formula", "p", "--n", "1"]
    expected = run(capsys, argv)
    src = os.path.dirname(os.path.dirname(os.path.abspath(s5wd.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "s5wd.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == expected
    assert done.stdout.startswith("formula: p\n")
