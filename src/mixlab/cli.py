"""Command-line front end: reproducible experiments with file outputs.

Every command resolves its parameters into a JSON-serializable config,
writes that config to config.json in the output directory (no other
artifact repeats it, except measure.json), and derives all randomness from
one explicit 64-bit seed.  The config holds the contents of every input
file in place of its path and leaves out the output directory, so
re-running a command from its config reproduces every artifact byte for
byte from any working directory (`mixlab replay CONFIG --out DIR`).  Replay
fills every option the config leaves out with the parser's default, as the
command line does.

Exit codes: 0 success, 2 validation error, 3 capability error (a pattern
the torus kernel cannot step, an oracle that cannot evaluate a request).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

from . import __version__, svg as svgmod
from .algebraic import (
    AlgebraicSystem,
    BernoulliOracle,
    CylinderConstraint,
    LedrappierOracle,
    RelationPattern,
    UnsupportedPatternError,
    bernoulli_cylinder_measure,
    cylinder_measure,
    default_torus_for,
    grid_to_json,
    grid_to_pbm,
    ledrappier_system,
    mc_cylinder_measure,
    sample_configuration,
    torus_kernel,
)
from .correlations import (
    OracleCapabilityError,
    dev_heatmap_svg,
    dev_scan,
    dyadic_family,
    mix_defect_scan,
    mix_rows_to_csv,
    random_separated_shifts,
    scan_rows_to_csv,
)
from .joinings import (
    JoiningTensor,
    chain_check,
    classify,
    limit_joining,
    lower_order,
    markov_from_joining,
    pair_compose,
    parity_tensor,
    raise_order,
    uniform_partition,
)
from .measure import format_fraction
from .percolation import clusters, percolation_sweep, sweep_to_csv
from .rankone import (
    PRESETS,
    RankOneSpec,
    WordOracle,
    generate_word,
    preset_spec,
    tower_heights,
)


class ValidationError(ValueError):
    pass


def _write_text(outdir: str, name: str, text: str) -> str:
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return path


def _write_json(outdir: str, name: str, obj: dict) -> str:
    return _write_text(outdir, name, json.dumps(obj, sort_keys=True, indent=2,
                                                ensure_ascii=False) + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


# Parameters that name an input file.  Resolving a command line replaces each
# path by the file's JSON contents, so a config needs no other file to replay.
INPUT_FILES = ("constellation", "events", "pattern", "spec", "tensor")


def _inline_inputs(params: dict) -> dict:
    """`params` with every input file path replaced by the file's JSON; a
    rank-one preset name stays a name."""
    resolved = dict(params)
    for key in INPUT_FILES:
        path = params.get(key)
        if path is not None and not (key == "spec" and path in PRESETS):
            resolved[key] = _load_json(path)
    return resolved


def _parse_input(params: dict, key: str, parse: Callable):
    """`parse` applied to the inlined input `key`; malformed contents exit 2."""
    try:
        return parse(params[key])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad {key} input: {exc}")


def _events_from_json(obj: dict) -> list[CylinderConstraint]:
    if not isinstance(obj, dict) or "events" not in obj:
        raise ValueError("events file needs an 'events' array")
    return [CylinderConstraint.from_json(e) for e in obj["events"]]


def _load_events(params: dict, expected: int) -> list[CylinderConstraint]:
    events = _parse_input(params, "events", _events_from_json)
    if len(events) != expected:
        raise ValidationError(f"expected {expected} events, found {len(events)}")
    return events


def _pattern_from_json(obj: dict) -> RelationPattern:
    if not isinstance(obj, dict) or "support" not in obj:
        raise ValueError("pattern file needs 'support'")
    return RelationPattern(frozenset((int(p[0]), int(p[1])) for p in obj["support"]))


def _make_system(params: dict) -> AlgebraicSystem:
    if params.get("pattern") is None:
        return ledrappier_system()
    return AlgebraicSystem(_parse_input(params, "pattern", _pattern_from_json))


def _prepare_outdir(params: dict) -> str:
    outdir = params.get("out")
    if not outdir:
        raise ValidationError("--out DIR is required")
    os.makedirs(outdir, exist_ok=True)
    return outdir


def _emit_config(outdir: str, command: str, params: dict) -> dict:
    reproducible = {k: v for k, v in params.items() if k != "out"}
    config = {"command": command, "params": reproducible, "version": __version__}
    _write_json(outdir, "config.json", config)
    return config


# ---------------------------------------------------------------------------
# Commands (each takes a resolved JSON-serializable params dict that holds
# every parser default)

def cmd_measure(params: dict) -> int:
    outdir = _prepare_outdir(params)
    config = _emit_config(outdir, "measure", params)
    system_name = params["system"]
    constraint = _parse_input(params, "constellation", CylinderConstraint.from_json)
    if system_name == "bernoulli":
        result = bernoulli_cylinder_measure(zip(constraint.sites, constraint.bits))
    elif system_name == "ledrappier":
        system = _make_system(params)
        if params.get("mc"):
            kernel = (torus_kernel(system, params["torus"], params["torus"])
                      if params.get("torus") else default_torus_for(system, constraint))
            result = mc_cylinder_measure(kernel, constraint, params["samples"], params["seed"])
        else:
            result = cylinder_measure(system, constraint)
    else:
        raise ValidationError(f"unknown system {system_name!r}")
    # measure.json alone still repeats the config: the benchmark's own tests
    # (mixbench/test_mixbench.py) edit it there.
    _write_json(outdir, "measure.json", {"config": config, "result": result.to_json()})
    return 0


def cmd_scan_dev(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "scan-dev", params)
    epsilon = params["epsilon"]
    h = params["h"]
    system = params["system"]
    if system == "bernoulli":
        oracle = BernoulliOracle()
        if params.get("events") is not None:
            a, b, c = _load_events(params, 3)
        else:
            a = b = c = CylinderConstraint((0,), (0,))
    elif system == "rankone":
        spec = _resolve_rankone_spec(params)
        word = generate_word(spec, params["stage"],
                             params.get("word_length", max(100 * h, 10000)))
        oracle = WordOracle(word, seed=params["seed"])
        a = b = c = frozenset({0})
    else:
        raise ValidationError(f"dev scan does not support system {system!r}")
    result = dev_scan(oracle, a, b, c, epsilon, h)
    _write_text(outdir, "dev.csv", scan_rows_to_csv(result.rows))
    _write_json(outdir, "dev.json", {"result": result.to_json()})
    _write_text(outdir, "dev_heatmap.svg", dev_heatmap_svg(result))
    return 0


def cmd_scan_mix(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "scan-mix", params)
    k = params["order"]
    system = params["system"]
    budget = params["budget"]
    if system == "ledrappier":
        oracle = LedrappierOracle(_make_system(params))
        default_event = CylinderConstraint(((0, 0),), (0,))
        dim = 2
    elif system == "bernoulli":
        oracle = BernoulliOracle()
        default_event = CylinderConstraint((0,), (0,))
        dim = 1
    else:
        raise ValidationError(f"mix scan does not support system {system!r}")
    if params.get("events") is not None:
        events = _load_events(params, k + 1)
    else:
        events = [default_event] * (k + 1)
    family_name = params["family"]
    if family_name == "dyadic":
        lo, hi = params["scales"]
        if dim != 2 or k != 4:
            raise ValidationError("the dyadic family is the 5-point Z^2 family (order 4)")
        family = dyadic_family(range(lo, hi))
    elif family_name == "random":
        family = random_separated_shifts(params["seed"], budget, k, params["min_gap"],
                                         params["box"], dim=dim)
    else:
        raise ValidationError(f"unknown shift family {family_name!r}")
    result = mix_defect_scan(oracle, k, events, family, budget)
    _write_text(outdir, "mix.csv", mix_rows_to_csv(result))
    summary = {
        "order": result.order,
        "scanned": result.scanned,
        "max_abs_defect": format_fraction(result.max_abs_defect)
        if isinstance(result.max_abs_defect, Fraction) else result.max_abs_defect,
        "argmax": result.argmax.to_json() if result.argmax else None,
        "certificate": result.certificate,
    }
    _write_json(outdir, "mix.json", summary)
    return 0


def cmd_joining(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "joining", params)
    if params.get("tensor") is not None:
        tensor = _parse_input(params, "tensor", JoiningTensor.from_json)
    else:
        # Parity pipeline: limiting tensor of the 5-point dyadic family for
        # the 2-cell partition by the origin coordinate.
        oracle = LedrappierOracle(_make_system(params))
        lo, hi = params["scales"]
        cells = [CylinderConstraint(((0, 0),), (b,)) for b in (0, 1)]
        tensor = limit_joining(oracle, uniform_partition(2), cells,
                               dyadic_family(range(lo, hi)),
                               order=params["order"])
    cls = classify(tensor)
    artifacts = {"tensor": tensor.to_json(), "classification": cls.to_json()}
    if params.get("lower_order"):
        lowered, report = lower_order(tensor)
        artifacts["lowered"] = lowered.to_json()
        artifacts["lowered_report"] = report
    if params.get("chain") or params.get("raise_order"):
        base = parity_tensor(3) if tensor.dims == 2 else None
        if base is None:
            raise ValidationError("chain/raise need a 2-cell parity pipeline")
        p2 = markov_from_joining(base)
        if params.get("raise_order"):
            raised, report = raise_order(pair_compose(p2))
            artifacts["raised"] = raised.to_json()
            artifacts["raised_report"] = report
        if params.get("chain"):
            artifacts["chain"] = chain_check(p2).to_json()
    _write_json(outdir, "joining.json", artifacts)
    _write_json(outdir, "tensor.json", artifacts["tensor"])
    _write_json(outdir, "classification.json", artifacts["classification"])
    return 0


def cmd_percolate(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "percolate", params)
    system = _make_system(params)
    rows = percolation_sweep(system, params["sizes"], params["samples"],
                             params["connectivity"], params["seed"])
    _write_text(outdir, "percolation.csv", sweep_to_csv(rows))
    _write_json(outdir, "percolation.json", {"rows": [r.__dict__ for r in rows]})
    return 0


def cmd_render(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "render", params)
    system = _make_system(params)
    size = params["size"]
    seed = params["seed"]
    kernel = torus_kernel(system, size, size)
    grid = sample_configuration(kernel, seed)
    for f in params["format"].split(","):
        if f == "svg":
            if params.get("clusters"):
                rep = clusters(grid, params["connectivity"], params["bit"])
                _write_text(outdir, "grid.svg",
                            svgmod.cluster_svg(grid.tolist(), rep.labels.tolist(),
                                               rep.target_bit,
                                               title=f"clusters size={size} seed={seed}"))
            else:
                _write_text(outdir, "grid.svg",
                            svgmod.grid_svg(grid.tolist(), title=f"size={size} seed={seed}"))
        elif f == "pbm":
            _write_text(outdir, "grid.pbm", grid_to_pbm(grid))
        elif f == "json":
            _write_json(outdir, "grid.json", grid_to_json(grid))
        else:
            raise ValidationError(f"unknown render format {f!r}")
    return 0


def _resolve_rankone_spec(params: dict) -> RankOneSpec:
    spec = params["spec"]
    if isinstance(spec, str):
        return preset_spec(spec, params["stages"])
    return _parse_input(params, "spec", RankOneSpec.from_json)


def cmd_rankone(params: dict) -> int:
    outdir = _prepare_outdir(params)
    _emit_config(outdir, "rankone", params)
    spec = _resolve_rankone_spec(params)
    artifacts: dict = {"spec": spec.to_json(), "heights": tower_heights(spec)}
    if params.get("word_length"):
        word = generate_word(spec, params["stage"], params["word_length"])
        _write_json(outdir, "word.json", word.to_rle_json())
        artifacts["word_length"] = word.length
    _write_json(outdir, "rankone.json", artifacts)
    return 0


def cmd_replay(params: dict) -> int:
    """Re-run a config's command on its own inlined inputs, into --out; an
    option the config leaves out takes the parser's default."""
    config = _load_json(params["config"])
    if not isinstance(config, dict) or "command" not in config or "params" not in config:
        raise ValidationError("config file lacks 'command'/'params'")
    command = config["command"]
    runner = _DISPATCH.get(command) if isinstance(command, str) else None
    if runner is None:
        raise ValidationError(f"unknown command {command!r} in config")
    if not isinstance(config["params"], dict):
        raise ValidationError("config 'params' must be an object")
    replay_params = {**_parser_defaults(command), **config["params"], "out": params["out"]}
    _check_params(command, replay_params)
    return runner(replay_params)


_DISPATCH: dict[str, Callable[[dict], int]] = {
    "measure": cmd_measure,
    "scan-dev": cmd_scan_dev,
    "scan-mix": cmd_scan_mix,
    "joining": cmd_joining,
    "percolate": cmd_percolate,
    "render": cmd_render,
    "rankone": cmd_rankone,
}


# ---------------------------------------------------------------------------
# Argument parsing

def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _scale_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected LO:HI")
    return [int(parts[0]), int(parts[1])]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that; no
    command may mutate the params (or argparse defaults) it is given."""
    parser = argparse.ArgumentParser(
        prog="mixlab",
        description="Computational laboratory for multiple-mixing phenomena",
    )
    parser.add_argument("--version", action="version", version=f"mixlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, out_required: bool = True):
        p.add_argument("--out", required=out_required, help="output directory")
        p.add_argument("--seed", type=int, default=0, help="64-bit experiment seed")
        p.add_argument("--pattern", help="JSON file with a custom relation pattern")

    p = sub.add_parser("measure", help="exact or Monte-Carlo cylinder measure")
    common(p)
    p.add_argument("--system", choices=["ledrappier", "bernoulli"], default="ledrappier")
    p.add_argument("--constellation", required=True, help="JSON constellation file")
    p.add_argument("--mc", action="store_true", help="force the Monte-Carlo estimator")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--torus", type=int, help="torus size for the estimator")

    p = sub.add_parser("scan", help="deviation and mixing-defect scans")
    scan_sub = p.add_subparsers(dest="scan_kind", required=True)

    pd = scan_sub.add_parser("dev", help="dev(h) statistics over the (z,w) grid")
    common(pd)
    pd.add_argument("--system", choices=["bernoulli", "rankone"], default="bernoulli")
    pd.add_argument("--epsilon", type=float, required=True)
    pd.add_argument("--h", type=int, required=True, dest="h")
    pd.add_argument("--events", help="JSON file with the three events")
    pd.add_argument("--spec", default="staircase", help="rank-one preset or spec file")
    pd.add_argument("--stage", type=int, default=1)
    pd.add_argument("--stages", type=int, default=10)
    pd.add_argument("--word-length", type=int, dest="word_length")

    pm = scan_sub.add_parser("mix", help="k-fold mixing defect over shift families")
    common(pm)
    pm.add_argument("--system", choices=["ledrappier", "bernoulli"], default="ledrappier")
    pm.add_argument("--order", type=int, required=True)
    pm.add_argument("--family", choices=["dyadic", "random"], default="random")
    pm.add_argument("--budget", type=int, default=100)
    pm.add_argument("--min-gap", type=int, default=8, dest="min_gap")
    pm.add_argument("--box", type=int, default=128)
    pm.add_argument("--scales", type=_scale_range, default=[1, 8])
    pm.add_argument("--events", help="JSON file with k+1 events")

    p = sub.add_parser("joining", help="limiting joining tensor and operator calculus")
    common(p)
    p.add_argument("--tensor", help="load a tensor JSON instead of the parity pipeline")
    p.add_argument("--order", type=int, default=5)
    p.add_argument("--scales", type=_scale_range, default=[1, 6])
    p.add_argument("--chain", action="store_true", help="run the mean-zero norm chain")
    p.add_argument("--raise", action="store_true", dest="raise_order")
    p.add_argument("--lower", action="store_true", dest="lower_order")

    p = sub.add_parser("percolate", help="cluster/wrap sweep over lattice sizes")
    common(p)
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=4)

    p = sub.add_parser("render", help="sample a configuration and render it")
    common(p)
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--format", default="svg", help="comma list of svg,pbm,json")
    p.add_argument("--clusters", action="store_true", help="tint clusters in the SVG")
    p.add_argument("--connectivity", type=int, choices=[4, 8], default=4)
    p.add_argument("--bit", type=int, choices=[0, 1], default=0)

    p = sub.add_parser("rankone", help="tower heights and symbolic words")
    common(p)
    p.add_argument("--spec", default="staircase")
    p.add_argument("--stages", type=int, default=10)
    p.add_argument("--stage", type=int, default=1)
    p.add_argument("--word-length", type=int, dest="word_length")

    p = sub.add_parser("replay", help="re-run a command from an embedded config")
    p.add_argument("config", help="path to a config.json")
    p.add_argument("--out", required=True, help="output directory")

    return parser


def _params_from_args(args: argparse.Namespace) -> tuple[str, dict]:
    ns = vars(args).copy()
    command = ns.pop("command")
    if command == "scan":
        command = f"scan-{ns.pop('scan_kind')}"
    ns.pop("version", None)
    params = {k: v for k, v in ns.items() if v is not None and v is not False}
    return command, params


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# JSON value check for each argparse `type` (None: a plain string option).
_VALUE_CHECKS: dict[object, Callable[[object], bool]] = {
    None: lambda v: isinstance(v, str),
    int: _is_int,
    float: lambda v: _is_int(v) or isinstance(v, float),
    _int_list: lambda v: isinstance(v, list) and all(map(_is_int, v)),
    _scale_range: lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v)),
}


def _fits(action: argparse.Action, value) -> bool:
    """`value` is one the option behind `action` could have resolved to."""
    if action.dest in INPUT_FILES:
        return isinstance(value, (dict, list)) or (action.dest == "spec" and value in PRESETS)
    if action.nargs == 0:  # a store_true flag; False values are dropped
        return action.const is True and value is True
    return (_VALUE_CHECKS[action.type](value)
            and (action.choices is None or value in action.choices))


def _command_parser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    for word in command.split("-"):  # "scan-mix" is "scan", then "mix"
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    return parser


def _parser_defaults(command: str) -> dict:
    """The defaults the command line would put in `command`'s params (the
    ones `_params_from_args` keeps)."""
    return {a.dest: a.default for a in _command_parser(command)._actions
            if a.default is not None and a.default is not False
            and a.default is not argparse.SUPPRESS}


def _check_params(command: str, params: dict) -> None:
    """Reject params that the command's own parser could not have produced:
    unknown keys, values of the wrong type or choice, missing required
    options."""
    actions = {a.dest: a for a in _command_parser(command)._actions}
    for key, value in params.items():
        if key not in actions or not _fits(actions[key], value):
            raise ValidationError(f"config parameter {key!r} cannot be {value!r}")
    missing = [a.dest for a in actions.values() if a.required and a.dest not in params]
    if missing:
        raise ValidationError(f"config lacks required parameter {missing[0]!r}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command, params = _params_from_args(args)
    try:
        if command == "replay":
            return cmd_replay(params)
        return _DISPATCH[command](_inline_inputs(params))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OracleCapabilityError, UnsupportedPatternError) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
