"""Command line interface.

One subcommand per construction: parse, check, validate-model, frame-props,
components, iso, pmorph, f-map, from-frame, unpack, filtrate, decide, and
broadcast simulate.  Inputs are JSON files and inline formula strings; output
goes to standard output as JSON or a plain text report.  Exit codes: 0 for
success or a decided verdict, 2 for an unknown verdict, 1 for input errors
and failed validations.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys

from . import broadcast as bc
from .decide import CLASS_NAMES, decide_satisfiability, decide_validity
from .filtration import filtrate
from .formula import (
    Formula,
    atoms,
    expand_s,
    formula_size,
    modal_depth,
    parse,
    pretty,
)
from .kripke import (
    Model,
    _json_object,
    _world_reader,
    check_d,
    check_equivalence,
    check_i,
    check_model_p_morphism,
    check_p_morphism,
    check_wd,
    component_members,
    find_isomorphism,
    frame_from_json,
    frame_of,
    frame_to_json,
    is_connected,
    model_from_json,
    model_to_json,
    satisfies,
    world_key,
    world_map_from_json,
    world_map_to_json,
)
from .systems import (
    f_map,
    f_map_interpreted,
    frame_to_full_system,
    frame_to_hypercube,
    interpreted_from_json,
    system_from_json,
    system_to_json,
)
from .unpack import unpack_to_edi


# every JSON text written is a tree, so the encoder need not look for cycles
_JSON = {"sort_keys": True, "check_circular": False}


class _Parser(argparse.ArgumentParser):
    # usage errors must exit 1; exit 2 is reserved for unknown verdicts
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _load_json(path: str):
    """The JSON value in the file at path; a file that is not UTF-8 JSON text
    raises a ValueError naming path."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return json.loads(handle.read())
        except ValueError as exc:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"file {path!r} is not UTF-8 JSON: {exc}") from None


def _load_frame_or_model(path: str):
    data = _json_object(_load_json(path), "frame JSON")
    if "valuation" in data:
        return model_from_json(data)
    return frame_from_json(data)


def _emit(args, data: dict, text_lines) -> None:
    if args.format == "json":
        print(json.dumps(data, indent=2, **_JSON))
    else:
        for line in text_lines:
            print(line)


def _witness_part(value):
    if isinstance(value, Formula):
        return pretty(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    return world_key(value)


def _report_dict(report) -> dict:
    return {
        "ok": report.ok,
        "clause": report.clause,
        "witness": [_witness_part(x) for x in report.witness or ()],
    }


def _report_lines(report):
    yield f"ok: {'yes' if report.ok else 'no'}"
    if not report.ok:
        yield f"clause: {report.clause}"
        parts = " ".join(str(_witness_part(x)) for x in report.witness)
        yield f"witness: {parts}"


def _cmd_parse(args) -> int:
    f = parse(args.formula, args.n)
    data = {
        "formula": pretty(f),
        "n": args.n,
        # sizes are defined on the S-free language
        "size": formula_size(expand_s(f, args.n)),
        "modal_depth": modal_depth(f),
        "atoms": list(atoms(f)),
    }
    if args.expand_s:
        data["expanded"] = pretty(expand_s(f, args.n))
    lines = [f"{key}: {data[key]}" for key in ("formula", "n", "size", "modal_depth")]
    lines.append("atoms: " + " ".join(data["atoms"]))
    if args.expand_s:
        lines.append(f"expanded: {data['expanded']}")
    _emit(args, data, lines)
    return 0


def _cmd_check(args) -> int:
    m = model_from_json(_load_json(args.model))
    world = _world_reader(m.frame.worlds, "unknown world %r")(args.world)
    f = expand_s(parse(args.formula, m.frame.n), m.frame.n)
    value = satisfies(m, world, f)
    _emit(
        args,
        {"world": args.world, "formula": args.formula, "value": value},
        ["true" if value else "false"],
    )
    return 0


def _cmd_validate_model(args) -> int:
    m = model_from_json(_load_json(args.model))
    names = sorted({a for _, row in m.valuation for a in row})
    data = {
        "n": m.frame.n,
        "worlds": len(m.frame.worlds),
        "atoms": names,
        "equivalence": check_equivalence(m.frame),
    }
    _emit(
        args,
        data,
        [
            f"n: {data['n']}",
            f"worlds: {data['worlds']}",
            "atoms: " + " ".join(names),
            f"equivalence: {'yes' if data['equivalence'] else 'no'}",
        ],
    )
    return 0


def _cmd_frame_props(args) -> int:
    fr = frame_of(_load_frame_or_model(args.frame))
    data = {
        "e": check_equivalence(fr),
        "d": check_d(fr),
        "i": check_i(fr),
        "wd": check_wd(fr),
        "connected": is_connected(fr),
    }
    lines = [
        f"{name.upper()}: {'yes' if data[name] else 'no'}"
        for name in ("e", "d", "i", "wd", "connected")
    ]
    _emit(args, data, lines)
    return 0


def _cmd_components(args) -> int:
    pieces = component_members(_load_frame_or_model(args.frame))
    data = {"components": [[world_key(w) for w in members] for members in pieces]}
    lines = [
        f"component {idx}: " + " ".join(block)
        for idx, block in enumerate(data["components"], start=1)
    ]
    _emit(args, data, lines)
    return 0


def _cmd_iso(args) -> int:
    left = _load_frame_or_model(args.left)
    right = _load_frame_or_model(args.right)
    if isinstance(left, Model) != isinstance(right, Model):
        left = frame_of(left)
        right = frame_of(right)
    wm = find_isomorphism(left, right, max_worlds=args.max_worlds)
    if wm is None:
        _emit(args, {"found": False}, ["no isomorphism found"])
        return 1
    data = {"found": True}
    data.update(world_map_to_json(wm))
    lines = ["isomorphic"] + [f"{k} -> {v}" for k, v in sorted(data["map"].items())]
    _emit(args, data, lines)
    return 0


def _cmd_pmorph(args) -> int:
    source = _load_frame_or_model(args.source)
    target = _load_frame_or_model(args.target)
    data = _load_json(args.map)
    if isinstance(source, Model) and isinstance(target, Model):
        report = check_model_p_morphism(world_map_from_json(data, source, target))
    else:
        wm = world_map_from_json(data, frame_of(source), frame_of(target))
        report = check_p_morphism(wm)
    _emit(args, _report_dict(report), _report_lines(report))
    return 0 if report.ok else 1


def _cmd_f_map(args) -> int:
    data = _json_object(_load_json(args.system), "system JSON")
    if "valuation" in data:
        doc = model_to_json(f_map_interpreted(interpreted_from_json(data)))
    else:
        doc = frame_to_json(f_map(system_from_json(data)))
    _emit(args, doc, [json.dumps(doc, **_JSON)])
    return 0


def _cmd_from_frame(args) -> int:
    fr = frame_of(_load_frame_or_model(args.frame))
    if args.mode == "full":
        system, wm = frame_to_full_system(fr)
    else:
        system, wm = frame_to_hypercube(fr)
    data = {"system": system_to_json(system)}
    data.update(world_map_to_json(wm))
    _emit(args, data, [json.dumps(data, **_JSON)])
    return 0


def _cmd_unpack(args) -> int:
    fr = frame_of(_load_frame_or_model(args.frame))
    unpacked, wm = unpack_to_edi(fr, args.x_size)
    data = {"frame": frame_to_json(unpacked)}
    data.update(world_map_to_json(wm))
    _emit(
        args,
        data,
        [
            f"worlds: {len(unpacked.worlds)}",
            json.dumps(data, **_JSON),
        ],
    )
    return 0


def _cmd_filtrate(args) -> int:
    m = model_from_json(_load_json(args.model))
    fil = filtrate(m, expand_s(parse(args.formula, m.frame.n), m.frame.n))
    data = {
        "closure": [pretty(g) for g in fil.closure],
        "quotient": model_to_json(fil.quotient),
    }
    data.update(world_map_to_json(fil.projection))
    _emit(
        args,
        data,
        [
            f"closure size: {len(fil.closure)}",
            f"quotient worlds: {len(fil.quotient.frame.worlds)}",
            json.dumps(data, **_JSON),
        ],
    )
    return 0


def _cmd_decide(args) -> int:
    f = parse(args.formula, args.n)
    runner = decide_validity if args.mode == "valid" else decide_satisfiability
    verdict = runner(
        f,
        args.n,
        args.max_worlds,
        klass=getattr(args, "klass"),
        max_assignments=args.max_assignments,
        frame_budget=args.frame_budget,
    )
    data = {
        "verdict": verdict.kind,
        "bound": verdict.bound,
        "witness_world": None,
        "witness_model": None,
    }
    lines = [f"verdict: {verdict.kind}", f"bound: {verdict.bound}"]
    if verdict.witness_model is not None:
        data["witness_world"] = world_key(verdict.witness_world)
        data["witness_model"] = model_to_json(verdict.witness_model)
        lines.append(f"witness world: {data['witness_world']}")
        lines.append(json.dumps(data["witness_model"], **_JSON))
    _emit(args, data, lines)
    return 0 if verdict.decided else 2


def _parse_card_game(text: str, max_worlds: int):
    """The game that comma-separated key=value settings name: deck and hand,
    each an ASCII natural number, and modeling, each at most once."""
    settings = {}
    for part in text.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("deck", "hand", "modeling"):
            raise ValueError(f"unknown card game setting {key!r}")
        if key in settings:
            raise ValueError(f"card game setting {key!r} is given twice")
        settings[key] = value.strip()
    if "deck" not in settings or "hand" not in settings:
        raise ValueError("card game settings need deck=<int>,hand=<int>")
    for key in ("deck", "hand"):
        if not (settings[key].isascii() and settings[key].isdigit()):
            raise ValueError(f"card game setting {key!r} is not a natural number: "
                             f"{settings[key]!r}")
    return bc.build_card_game(int(settings["deck"]), int(settings["hand"]),
                              settings.get("modeling", "simple"), max_worlds=max_worlds)


def _cmd_broadcast_simulate(args) -> int:
    if (args.env is None) == (args.card_game is None):
        raise ValueError("give exactly one of --env or --card-game")
    if args.card_game is not None:
        env, proto = _parse_card_game(args.card_game, args.max_worlds)
    else:
        env = bc.environment_from_json(_load_json(args.env))
        proto = bc.trivial_protocol(env.n)
    if args.protocol is not None:
        proto = bc.protocol_from_json(_load_json(args.protocol))
    fr = bc.generate_frame(env, proto, args.depth, max_worlds=args.max_worlds)
    report = None
    if args.verify is not None:
        report = bc.verify_hypercube_decomposition(fr, mode=args.verify)
    data = {
        "n": env.n,
        "depth": args.depth,
        "homogeneous": env.homogeneous,
        "worlds": len(fr.worlds),
        # one report per component, so the report's count saves a second pass
        "components": len(component_members(fr) if report is None else report.components),
    }
    lines = [f"{key}: {data[key]}" for key in ("n", "depth", "homogeneous", "worlds", "components")]
    code = 0
    # a failed report is falsy, so test for None
    if report is not None:
        data["verify"] = {
            "mode": args.verify,
            "ok": report.ok,
            "components": [
                {
                    "size": len(c.members),
                    "axis_sizes": list(c.axis_sizes),
                    "ok": c.ok,
                    "reason": c.reason,
                }
                for c in report.components
            ],
        }
        lines.append(f"verify ({args.verify}): {'ok' if report.ok else 'failed'}")
        for idx, c in enumerate(report.components, start=1):
            status = "ok" if c.ok else f"failed ({c.reason})"
            axes = "x".join(str(s) for s in c.axis_sizes)
            lines.append(f"component {idx}: size {len(c.members)} axes {axes} {status}")
        if not report.ok:
            code = 1
    if args.emit_frame is not None:
        m = bc.derived_valuation(env, fr)
        with open(args.emit_frame, "w", encoding="utf-8") as handle:
            json.dump(model_to_json(m), handle, indent=2, **_JSON)
            handle.write("\n")
        lines.append(f"frame written to {args.emit_frame}")
        data["emitted"] = args.emit_frame
    _emit(args, data, lines)
    return code


def _at_least_one(text: str) -> int:
    """An int flag value that is a bound, so 0 and below are refused."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_FORMAT = ("--format", {"choices": ("json", "text"), "default": "text"})
_FORMULA = ("--formula", {"required": True})
_MODEL = ("--model", {"required": True})
_FRAME = ("--frame", {"required": True})

# Every command once: (name, handler, help, ((flag, add_argument kwargs), ...)).
# Each command also takes _FORMAT.  A group has handler None and a table of its
# own subcommands in place of arguments.  build_parser and _read_plain both
# read this table, so no flag is described twice.
COMMANDS = (
    ("parse", _cmd_parse, "parse a formula and report its shape", (
        _FORMULA,
        ("--n", {"type": int, "required": True}),
        ("--expand-s", {"action": "store_true"}),
    )),
    ("check", _cmd_check, "evaluate a formula at a world of a model", (
        _MODEL,
        ("--world", {"required": True}),
        _FORMULA,
    )),
    ("validate-model", _cmd_validate_model, "load a model and report its shape", (_MODEL,)),
    ("frame-props", _cmd_frame_props, "report E/D/I/WD/connected for a frame", (_FRAME,)),
    ("components", _cmd_components, "list connected components", (_FRAME,)),
    ("iso", _cmd_iso, "search for an isomorphism between two frames or models", (
        ("--left", {"required": True}),
        ("--right", {"required": True}),
        ("--max-worlds", {"type": _at_least_one, "default": 12}),
    )),
    ("pmorph", _cmd_pmorph, "check that a world map is a p-morphism", (
        ("--map", {"required": True}),
        ("--source", {"required": True}),
        ("--target", {"required": True}),
    )),
    ("f-map", _cmd_f_map, "frame (or model) of a system of global states", (
        ("--system", {"required": True}),
    )),
    ("from-frame", _cmd_from_frame, "reconstruct a system from a frame", (
        _FRAME,
        ("--mode", {"choices": ("full", "hypercube"), "required": True}),
    )),
    ("unpack", _cmd_unpack, "unpack an equivalence frame into an EDI frame", (
        _FRAME,
        ("--x-size", {"type": int, "default": None}),
    )),
    ("filtrate", _cmd_filtrate, "filtrate a model through a formula", (_MODEL, _FORMULA)),
    ("decide", _cmd_decide, "bounded satisfiability or validity search", (
        _FORMULA,
        ("--n", {"type": int, "required": True}),
        ("--mode", {"choices": ("sat", "valid"), "required": True}),
        ("--max-worlds", {"type": int, "required": True}),
        ("--class", {"dest": "klass", "choices": CLASS_NAMES, "default": "ed"}),
        ("--max-assignments", {"type": _at_least_one, "default": 2**20}),
        ("--frame-budget", {"type": _at_least_one, "default": 50_000}),
    )),
    ("broadcast", None, "broadcast environment commands", (
        ("simulate", _cmd_broadcast_simulate, "generate and verify a trace frame", (
            ("--env", {"default": None}),
            ("--card-game", {"default": None}),
            ("--protocol", {"default": None}),
            ("--depth", {"type": int, "required": True}),
            ("--verify", {"choices": ("hypercube", "full"), "default": None}),
            ("--emit-frame", {"default": None}),
            ("--max-worlds", {"type": _at_least_one, "default": 20_000}),
        )),
    )),
)


def _add_commands(parser, dest: str, table) -> None:
    sub = parser.add_subparsers(dest=dest, required=True, parser_class=_Parser)
    for name, handler, help_text, arguments in table:
        p = sub.add_parser(name, help=help_text)
        if handler is None:
            _add_commands(p, f"{name}_command", arguments)
            continue
        p.set_defaults(func=handler)
        for flag, kwargs in (_FORMAT, *arguments):
            p.add_argument(flag, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    """The full s5wd parser; main needs it only for lines _read_plain leaves."""
    parser = _Parser(prog="s5wd", description=__doc__.splitlines()[0])
    _add_commands(parser, "command", COMMANDS)
    return parser


def _read_plain(argv):
    """The namespace build_parser().parse_args(argv) would return, when argv
    is a command path from COMMANDS followed by exact --flag value pairs (a
    store_true flag takes no value), each flag at most once, every value of
    its type and choices, no required flag missing and no token left over.
    Anything else gives None and is left to argparse, which alone writes
    help, usage and error text."""
    args = argparse.Namespace()
    tokens = iter(argv)
    dest, table, handler = "command", COMMANDS, None
    while handler is None:
        name = next(tokens, None)
        entry = next((c for c in table if c[0] == name), None)
        if entry is None:
            return None
        name, handler, _, arguments = entry
        setattr(args, dest, name)
        dest, table = f"{name}_command", arguments
    flags = dict((_FORMAT, *arguments))
    given = {}
    for flag in tokens:
        kwargs = flags.get(flag)
        if kwargs is None or flag in given:
            return None
        if kwargs.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, "-")  # a missing value reads as a flag
        if value.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(value)
        except (ValueError, argparse.ArgumentTypeError):
            return None
        if value not in kwargs.get("choices", (value,)):
            return None
        given[flag] = value
    for flag, kwargs in flags.items():
        if flag not in given and kwargs.get("required"):
            return None
        unset = False if kwargs.get("action") == "store_true" else None
        value = given.get(flag, kwargs.get("default", unset))
        setattr(args, kwargs.get("dest", flag[2:].replace("-", "_")), value)
    args.func = handler
    return args


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_plain(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    # a command builds trees, not cycles, so the cycle collector, which would
    # rescan every container built so far, is paused while it runs
    enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except (ValueError, KeyError, TypeError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry_point()
