"""Command-line front end: reproducible experiments with file outputs.

Every command resolves its parameters into a JSON-serializable config.  All
randomness comes from one explicit 64-bit `--seed`, which measure --mc, scan
mix --family random, percolate and render read (scan dev takes it unread).
The config holds what the run read, defaults included, with each input
file's contents in place of its path and without the output directory, so
re-running a command from its config reproduces every artifact byte for byte
from any working directory (`mixlab replay CONFIG --out DIR`).  An option
the run does not read is refused before the run's work, on the command line
and on replay.

Each command yields its artifacts; one runner, shared by the command line
and replay, writes them.  It makes `--out` and writes config.json when the
command yields its first artifact, so a run refused or failed before that
writes nothing.  The files of each command, after config.json (the config;
no other file repeats it, except measure.json):

- measure: measure.json, the exact measure or Monte-Carlo estimate with how
  it was computed, and a copy of the config.
- scan dev: dev.csv, one row per admissible (z, w) pair with its
  correlation, product and defect; dev.json, epsilon, h, the pair count,
  the pairs whose defect exceeds epsilon and dev; dev_heatmap.svg, the
  defect field.
- scan mix: mix.csv, one row per scanned shift tuple; mix.json, the order,
  the tuple count and the largest defect with its tuple and certificate.
- joining: joining.json, the tensor, its class and the lowered, raised and
  chain reports asked for; tensor.json and classification.json, the tensor
  and its class alone.
- percolate: percolation.csv and percolation.json, the same rows, one per
  lattice size and bit.
- render: grid.svg, grid.pbm and grid.json, the sampled configuration in
  each format asked for (the SVG with its clusters tinted under --clusters).
- rankone: word.json, the run-length-encoded word (with --word-length);
  rankone.json, the spec, the tower heights and the word length.

Exit codes: 0 success, 2 validation error (including a shift box too small
for its gap, no fitting torus, a joining family that does not stabilize, an
option the run does not read, and an `--out` that cannot be made a directory
or cannot take an artifact), 3 capability error (a pattern the torus kernel
cannot step, an oracle that cannot evaluate a request).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Callable, Iterator, Optional, Union

from . import __version__, svg as svgmod
from .algebraic import (
    BernoulliOracle,
    CylinderConstraint,
    LEDRAPPIER_PATTERN,
    LedrappierOracle,
    MAX_MC_SAMPLES,
    RelationPattern,
    UnsupportedPatternError,
    bernoulli_cylinder_measure,
    cylinder_measure,
    default_torus_for,
    grid_to_json,
    grid_to_pbm,
    mc_cylinder_measure,
    sample_configuration,
    torus_kernel,
)
from .correlations import (
    MAX_SCAN_ORDER,
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
    NonStabilizingError,
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


def _write_text(outdir: str, name: str, text: str) -> None:
    """Write `text` to the file `name` in `outdir`, the one writer of every
    artifact; a file that cannot be written is a ValidationError naming it
    and --out."""
    try:
        with open(os.path.join(outdir, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {name} in --out directory {outdir!r}: "
                              f"{exc.strerror}")


def _json_line(obj: dict) -> str:
    """`obj` as one line of sorted-key JSON; no indent, so CPython's C encoder runs."""
    return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"


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
    support = obj["support"]
    if not all(isinstance(p, list) and len(p) == 2 and all(type(x) is int for x in p)
               for p in support):
        raise ValueError("pattern offsets must be pairs of JSON integers")
    return RelationPattern(frozenset(map(tuple, support)))


def _pattern(params: dict) -> RelationPattern:
    if params.get("pattern") is None:
        return LEDRAPPIER_PATTERN
    return _parse_input(params, "pattern", _pattern_from_json)


# ---------------------------------------------------------------------------
# Commands: each takes its run's config (resolved params, no --out) and reads
# every option its route takes, taking its default there.  Then, before any
# work, it yields once with no value (a bare `yield`), exactly once and first;
# the runner takes it with next() and refuses an option left unread.  After
# that it yields its artifacts in write order as (file name, text or JSON).

Artifacts = Iterator[tuple[str, Union[str, dict]]]


def cmd_measure(config: dict) -> Artifacts:
    params = config["params"]
    constraint = _parse_input(params, "constellation", CylinderConstraint.from_json)
    if params.setdefault("system", "ledrappier") == "bernoulli":
        yield
        result = bernoulli_cylinder_measure(zip(constraint.sites, constraint.bits))
    elif "mc" in params:
        pattern = _pattern(params)
        samples = params.setdefault("samples", 100000)
        if not 1 <= samples <= MAX_MC_SAMPLES:  # before any kernel is built
            raise ValidationError(f"--samples must lie in 1..{MAX_MC_SAMPLES}")
        torus, seed = params.get("torus"), params.setdefault("seed", 0)
        yield
        kernel = (torus_kernel(pattern, torus, torus) if torus is not None
                  else default_torus_for(pattern, constraint))
        result = mc_cylinder_measure(kernel, constraint, samples, seed)
    else:
        pattern = _pattern(params)
        yield
        result = cylinder_measure(pattern, constraint)
    # measure.json alone still repeats the config: the benchmark's own tests
    # (mixbench/test_mixbench.py) edit it there.
    yield "measure.json", {"config": config, "result": result.to_json()}


def cmd_scan_dev(config: dict) -> Artifacts:
    params = config["params"]
    h, epsilon = params["h"], params["epsilon"]
    params.get("seed")  # taken unread: mixbench/jobs.py passes it to every scan dev job
    if params.setdefault("system", "bernoulli") == "bernoulli":
        if "events" in params:
            a, b, c = _load_events(params, 3)
        else:
            a = b = c = CylinderConstraint((0,), (0,))
        yield
        oracle = BernoulliOracle()
    else:
        spec = _resolve_rankone_spec(params)
        stage = params.setdefault("stage", 1)
        length = params.setdefault("word_length", max(100 * h, 10000))
        yield
        oracle = WordOracle(generate_word(spec, stage, length))
        a = b = c = frozenset({0})
    result = dev_scan(oracle, a, b, c, epsilon, h)
    yield "dev.csv", scan_rows_to_csv(result)
    yield "dev.json", {"result": result.to_json()}
    yield "dev_heatmap.svg", dev_heatmap_svg(result)


def cmd_scan_mix(config: dict) -> Artifacts:
    params = config["params"]
    k = params["order"]
    if not 1 <= k <= MAX_SCAN_ORDER:  # before k + 1 default events are built
        raise ValidationError(f"--order must lie in 1..{MAX_SCAN_ORDER}")
    budget = params.setdefault("budget", 100)
    if params.setdefault("system", "ledrappier") == "ledrappier":
        oracle = LedrappierOracle(_pattern(params))
        default_event = CylinderConstraint(((0, 0),), (0,))
        dim = 2
    else:
        oracle = BernoulliOracle()
        default_event = CylinderConstraint((0,), (0,))
        dim = 1
    if "events" in params:
        events = _load_events(params, k + 1)
    else:
        events = [default_event] * (k + 1)
    if params.setdefault("family", "random") == "dyadic":
        lo, hi = params.setdefault("scales", [1, 8])
        if dim != 2 or k != 4:
            raise ValidationError("the dyadic family is the 5-point Z^2 family (order 4)")
        family = dyadic_family(range(lo, hi))
    else:
        family = random_separated_shifts(params.setdefault("seed", 0), budget, k,
                                         params.setdefault("min_gap", 8),
                                         params.setdefault("box", 128), dim=dim)
    yield
    result = mix_defect_scan(oracle, events, family, budget)
    yield "mix.csv", mix_rows_to_csv(result)
    yield "mix.json", {
        "order": result.order,
        "scanned": result.scanned,
        "max_abs_defect": format_fraction(result.max_abs_defect)
        if isinstance(result.max_abs_defect, Fraction) else result.max_abs_defect,
        "argmax": result.argmax.to_json() if result.argmax else None,
        "certificate": result.certificate,
    }


def cmd_joining(config: dict) -> Artifacts:
    params = config["params"]
    asked = {key for key in ("lower_order", "chain", "raise_order") if key in params}
    if "tensor" in params:
        tensor = _parse_input(params, "tensor", JoiningTensor.from_json)
        yield
    else:
        # Parity pipeline: limiting tensor of the 5-point dyadic family for
        # the 2-cell partition by the origin coordinate.
        oracle = LedrappierOracle(_pattern(params))
        lo, hi = params.setdefault("scales", [1, 6])
        yield
        cells = [CylinderConstraint(((0, 0),), (b,)) for b in (0, 1)]
        tensor = limit_joining(oracle, uniform_partition(2), cells,
                               dyadic_family(range(lo, hi)))
    cls = classify(tensor)
    artifacts = {"tensor": tensor.to_json(), "classification": cls.to_json()}
    if "lower_order" in asked:
        lowered, report = lower_order(tensor)
        artifacts["lowered"] = lowered.to_json()
        artifacts["lowered_report"] = report
    if asked & {"chain", "raise_order"}:
        if tensor.dims != 2:
            raise ValidationError("chain/raise need a 2-cell parity pipeline")
        p2 = markov_from_joining(parity_tensor(3))
        p3 = pair_compose(p2)
        if "raise_order" in asked:
            raised, report = raise_order(p3)
            artifacts["raised"] = raised.to_json()
            artifacts["raised_report"] = report
        if "chain" in asked:
            artifacts["chain"] = chain_check(p2, p3).to_json()
    yield "joining.json", artifacts
    yield "tensor.json", artifacts["tensor"]
    yield "classification.json", artifacts["classification"]


def cmd_percolate(config: dict) -> Artifacts:
    params = config["params"]
    pattern, sizes, samples = _pattern(params), params["sizes"], params.setdefault("samples", 20)
    connectivity, seed = params.setdefault("connectivity", 4), params.setdefault("seed", 0)
    yield
    rows = percolation_sweep(pattern, sizes, samples, connectivity, seed)
    yield "percolation.csv", sweep_to_csv(rows)
    yield "percolation.json", {"rows": [r.__dict__ for r in rows]}


def cmd_render(config: dict) -> Artifacts:
    params = config["params"]
    formats = params.setdefault("format", "svg").split(",")
    for i, f in enumerate(formats):  # before any kernel is built
        if f not in ("svg", "pbm", "json"):
            raise ValidationError(f"unknown render format {f!r}")
        if f in formats[:i]:
            raise ValidationError(f"render format {f!r} given twice")
    size, seed = params.setdefault("size", 32), params.setdefault("seed", 0)
    tint = "svg" in formats and "clusters" in params
    if tint:
        connectivity, bit = params.setdefault("connectivity", 4), params.setdefault("bit", 0)
    else:  # taken unread: mixbench/jobs.py passes both to render jobs without --clusters
        connectivity, bit = params.get("connectivity"), params.get("bit")
    pattern = _pattern(params)
    yield
    kernel = torus_kernel(pattern, size, size)
    grid = sample_configuration(kernel, seed)
    for f in formats:
        if f == "svg" and tint:
            rep = clusters(grid, connectivity)[bit]
            yield "grid.svg", svgmod.cluster_svg(grid, rep.roots, rep.target_bit,
                                                 title=f"clusters size={size} seed={seed}")
        elif f == "svg":
            yield "grid.svg", svgmod.grid_svg(grid, title=f"size={size} seed={seed}")
        elif f == "pbm":
            yield "grid.pbm", grid_to_pbm(grid)
        else:
            yield "grid.json", grid_to_json(grid)


def _resolve_rankone_spec(params: dict) -> RankOneSpec:
    spec = params.setdefault("spec", "staircase")
    if isinstance(spec, str):
        return preset_spec(spec, params.setdefault("stages", 10))
    return _parse_input(params, "spec", RankOneSpec.from_json)


def cmd_rankone(config: dict) -> Artifacts:
    params = config["params"]
    spec = _resolve_rankone_spec(params)
    length = params.get("word_length")
    stage = params.setdefault("stage", 1) if length is not None else None
    yield
    artifacts: dict = {"spec": spec.to_json(), "heights": tower_heights(spec)}
    if length is not None:
        word = generate_word(spec, stage, length)
        yield "word.json", word.to_rle_json()
        artifacts["word_length"] = word.length
    yield "rankone.json", artifacts


_COMMANDS: dict[str, Callable[[dict], Artifacts]] = {
    "measure": cmd_measure,
    "scan-dev": cmd_scan_dev,
    "scan-mix": cmd_scan_mix,
    "joining": cmd_joining,
    "percolate": cmd_percolate,
    "render": cmd_render,
    "rankone": cmd_rankone,
}


class _Params(dict):
    """A run's params, which record in `read` each key read by [], in, get or setdefault."""

    def __init__(self, params: dict):
        super().__init__(params)
        self.read: set = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def setdefault(self, key, default=None):
        self.read.add(key)
        return super().setdefault(key, default)


def _run(command: str, params: dict) -> None:
    """Run `command` and write config.json and each artifact it yields into
    --out.  The command's first yield is its one bare `yield`, which comes
    once its route has read its options and before its work; after it, an
    option the run has not read is refused.  At its first artifact the
    directory is made, so a run refused or failed before that writes
    nothing.  A directory that cannot be made, or a file that cannot be
    written in it, is a ValidationError that names the file and --out."""
    outdir = params["out"]
    params = _Params({k: v for k, v in params.items() if k != "out"})
    config = {"command": command, "params": params, "version": __version__}
    artifacts = _COMMANDS[command](config)
    next(artifacts)  # the bare yield before the command's work
    unread = [key for key in params if key not in params.read]
    if unread:
        raise ValidationError(f"--{unread[0].replace('_', '-')} is not read by this "
                              f"{command.replace('-', ' ')} run")
    made = False
    for name, body in artifacts:
        if not made:
            try:
                os.makedirs(outdir, exist_ok=True)
            except OSError as exc:
                raise ValidationError(f"cannot make --out directory {outdir!r}: {exc.strerror}")
            _write_text(outdir, "config.json", _json_line(config))
            made = True
        _write_text(outdir, name, body if isinstance(body, str) else _json_line(body))
        del body  # no artifact outlives its write while the command builds the next


def _replayed(params: dict) -> tuple[str, dict]:
    """The command of the config at `params["config"]` and its params, with
    `params["out"]` as --out; an option the config leaves out is absent, as
    on the command line."""
    config = _load_json(params["config"])
    if not isinstance(config, dict) or "command" not in config or "params" not in config:
        raise ValidationError("config file lacks 'command'/'params'")
    command = config["command"]
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValidationError(f"unknown command {command!r} in config")
    if not isinstance(config["params"], dict):
        raise ValidationError("config 'params' must be an object")
    replay_params = {**config["params"], "out": params["out"]}
    _check_params(command, replay_params)
    return command, replay_params


# ---------------------------------------------------------------------------
# Argument parsing

def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _scale_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) != 2 or int(parts[0]) >= int(parts[1]):
        raise argparse.ArgumentTypeError(f"expected LO:HI with LO < HI, got {text!r}")
    return [int(parts[0]), int(parts[1])]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that; it sets
    no defaults, as each command takes its own where it reads the option."""
    parser = argparse.ArgumentParser(
        prog="mixlab",
        description="Computational laboratory for multiple-mixing phenomena",
    )
    parser.add_argument("--version", action="version", version=f"mixlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *options: str):
        """--out, and each of "seed" and "pattern" in `options`."""
        p.add_argument("--out", required=True, help="output directory")
        if "seed" in options:
            p.add_argument("--seed", type=int, help="64-bit experiment seed")
        if "pattern" in options:
            p.add_argument("--pattern", help="JSON file with a custom relation pattern")

    p = sub.add_parser("measure", help="exact or Monte-Carlo cylinder measure")
    common(p, "seed", "pattern")
    p.add_argument("--system", choices=["ledrappier", "bernoulli"])
    p.add_argument("--constellation", required=True, help="JSON constellation file")
    p.add_argument("--mc", action="store_true", help="force the Monte-Carlo estimator")
    p.add_argument("--samples", type=int)
    p.add_argument("--torus", type=int, help="torus size for the estimator")

    p = sub.add_parser("scan", help="deviation and mixing-defect scans")
    scan_sub = p.add_subparsers(dest="scan_kind", required=True)

    pd = scan_sub.add_parser("dev", help="dev(h) statistics over the (z,w) grid")
    common(pd, "seed")  # taken unread (see cmd_scan_dev)
    pd.add_argument("--system", choices=["bernoulli", "rankone"])
    pd.add_argument("--epsilon", type=float, required=True)
    pd.add_argument("--h", type=int, required=True, dest="h")
    pd.add_argument("--events", help="JSON file with the three events")
    pd.add_argument("--spec", help="rank-one preset or spec file")
    pd.add_argument("--stage", type=int)
    pd.add_argument("--stages", type=int)
    pd.add_argument("--word-length", type=int, dest="word_length")

    pm = scan_sub.add_parser("mix", help="k-fold mixing defect over shift families")
    common(pm, "seed", "pattern")
    pm.add_argument("--system", choices=["ledrappier", "bernoulli"])
    pm.add_argument("--order", type=int, required=True)
    pm.add_argument("--family", choices=["dyadic", "random"])
    pm.add_argument("--budget", type=int)
    pm.add_argument("--min-gap", type=int, dest="min_gap")
    pm.add_argument("--box", type=int)
    pm.add_argument("--scales", type=_scale_range)
    pm.add_argument("--events", help="JSON file with k+1 events")

    p = sub.add_parser("joining", help="limiting joining tensor and operator calculus")
    common(p, "pattern")
    p.add_argument("--tensor", help="load a tensor JSON instead of the parity pipeline")
    p.add_argument("--scales", type=_scale_range)
    p.add_argument("--chain", action="store_true", help="run the mean-zero norm chain")
    p.add_argument("--raise", action="store_true", dest="raise_order")
    p.add_argument("--lower", action="store_true", dest="lower_order")

    p = sub.add_parser("percolate", help="cluster/wrap sweep over lattice sizes")
    common(p, "seed", "pattern")
    p.add_argument("--sizes", type=_int_list, required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--connectivity", type=int, choices=[4, 8])

    p = sub.add_parser("render", help="sample a configuration and render it")
    common(p, "seed", "pattern")
    p.add_argument("--size", type=int)
    p.add_argument("--format", help="comma list of svg,pbm,json")
    p.add_argument("--clusters", action="store_true", help="tint clusters in the SVG")
    p.add_argument("--connectivity", type=int, choices=[4, 8])
    p.add_argument("--bit", type=int, choices=[0, 1])

    p = sub.add_parser("rankone", help="tower heights and symbolic words")
    common(p)
    p.add_argument("--spec")
    p.add_argument("--stages", type=int)
    p.add_argument("--stage", type=int)
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
    _scale_range: lambda v: (isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))
                             and v[0] < v[1]),
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


def _check_params(command: str, params: dict) -> None:
    """Reject params that the command's own parser could not have produced:
    unknown keys, values of the wrong type or choice, missing required
    options."""
    actions = {a.dest: a for a in _command_parser(command)._actions}
    for key, value in params.items():
        if key not in actions or not _fits(actions[key], value):
            unknown = "" if key in actions else f": {command} has no such option"
            raise ValidationError(f"config parameter {key!r} cannot be {value!r}{unknown}")
    missing = [a.dest for a in actions.values() if a.required and a.dest not in params]
    if missing:
        raise ValidationError(f"config lacks required parameter {missing[0]!r}")


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    command, params = _params_from_args(args)
    try:
        if command == "replay":
            command, params = _replayed(params)
        else:
            params = _inline_inputs(params)
        _run(command, params)
        return 0
    except (OracleCapabilityError, UnsupportedPatternError) as exc:
        print(f"capability error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, NonStabilizingError) as exc:  # ValidationError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
