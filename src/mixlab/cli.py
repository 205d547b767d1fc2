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
  and its class alone.  A --tensor file holds exact fractions, as
  tensor.json writes them; one with "exact": false exits 2.
- percolate: percolation.csv and percolation.json, the same rows, one per
  lattice size and bit.
- render: grid.svg, grid.pbm and grid.json, the sampled configuration in
  each format asked for (the SVG with its clusters tinted under --clusters).
- rankone: word.json, the run-length-encoded word (with --word-length);
  rankone.json, the spec, the tower heights and the word length.

One module-level table, `_TABLE`, lists each command's options in the order
its params are written, with each one's dest, value kind, choices, whether
it is required and its help text.  The command line is parsed and a replayed
config checked through it alone, so the two cannot drift apart.  An option
is written in full, as `--opt value` or `--opt=value`; the word after it is
its value even when it starts with `-`, and a repeated option keeps its last
value.  `-h`/`--help` prints the options of each command the words before it
name (every command at the top level) and exits 0; `--version` prints
`mixlab <version>`.  A bad command line exits 2 with `mixlab <command>:
error: ...` on stderr.  `build_parser` returns the table: it keeps the name
of the parser it replaced because the benchmark's tracer wraps it by name.

Exit codes: 0 success, 2 validation error (including a bad command line, a
shift box too small for its gap, no fitting torus, a joining family that
does not stabilize, an option the run does not read, a rank-one tower too
tall to print, and an `--out` that cannot be made a directory or cannot
take an artifact), 3 capability error (a pattern the torus kernel cannot
step, an oracle that cannot evaluate a request).
"""

from __future__ import annotations

import bisect
import json
import os
import sys
from typing import Callable, Iterator, NamedTuple, Optional, Union

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
    """The JSON in the file at `path`; a file that is missing, cannot be
    read, is not UTF-8 or is not JSON is a ValidationError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"file not found: {path}")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"cannot read {path}: not UTF-8 text ({exc.reason})")
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _inline_inputs(command: str, params: dict) -> dict:
    """`params` with the path of every "file" option replaced by the file's
    JSON, and of a "spec" option too unless it names a rank-one preset, so
    a config needs no other file to replay."""
    resolved = dict(params)
    for option in _TABLE[command].options.values():
        path = params.get(option.dest)
        if path is not None and (option.kind == "file"
                                 or option.kind == "spec" and path not in PRESETS):
            resolved[option.dest] = _load_json(path)
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
        "max_abs_defect": format_fraction(result.max_abs_defect),
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
    heights = tower_heights(spec)
    # 0 digits: no limit.  Heights strictly increase, and one of at most
    # 3 * digits bits is below 10 ** digits, so most runs build no bound.
    digits = sys.get_int_max_str_digits()
    if (digits and heights[-1].bit_length() > 3 * digits
            and (tall := bisect.bisect_left(heights, 10 ** digits)) < len(heights)):
        raise ValidationError(f"the stage-{tall} tower height has more than {digits} digits, "
                              "too many to print")
    artifacts: dict = {"spec": spec.to_json(), "heights": heights}
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
# Options: one table parses the command line and checks a replayed config

def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _sizes(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]  # an empty item is no int
    except ValueError:
        raise ValueError(f"expected comma-separated ints, got {text!r}") from None


def _scales(text: str) -> list[int]:
    try:
        lo, hi = map(int, text.split(":"))
        if lo < hi:
            return [lo, hi]
    except ValueError:
        pass
    raise ValueError(f"expected LO:HI with LO < HI, got {text!r}")


# Each value kind: (the parse of a command-line text, which raises ValueError
# on a bad one; the check that a config value is one the kind resolves to).
# A "file" is a path whose JSON replaces it, a "spec" a rank-one preset name
# or such a path, and a "flag" takes no text and is True when given.
_KINDS: dict[str, tuple[Callable, Callable]] = {
    "str": (str, lambda v: isinstance(v, str)),
    "int": (int, _is_int),
    "float": (float, lambda v: _is_int(v) or isinstance(v, float)),
    "sizes": (_sizes, lambda v: isinstance(v, list) and all(map(_is_int, v))),
    "scales": (_scales, lambda v: isinstance(v, list) and len(v) == 2
               and all(map(_is_int, v)) and v[0] < v[1]),
    "file": (str, lambda v: isinstance(v, (dict, list))),
    "spec": (str, lambda v: isinstance(v, (dict, list)) or v in PRESETS),
    "flag": (lambda text: True, lambda v: v is True),
}


class _Option(NamedTuple):
    dest: str
    kind: str
    help: str
    choices: tuple = ()
    required: bool = False


class _Command(NamedTuple):
    help: str
    options: dict[str, _Option]  # flag, or a positional's name -> option, in params order


_OUT = {"--out": _Option("out", "str", "output directory", required=True)}
_SEED = {"--seed": _Option("seed", "int", "64-bit experiment seed")}
_PATTERN = {"--pattern": _Option("pattern", "file", "JSON file with a custom relation pattern")}
_SCALES = {"--scales": _Option("scales", "scales", "dyadic scales LO:HI")}
_CONNECTIVITY = {"--connectivity": _Option("connectivity", "int", "neighbours", (4, 8))}

_TABLE: dict[str, _Command] = {
    "measure": _Command("exact or Monte-Carlo cylinder measure", {
        **_OUT, **_SEED, **_PATTERN,
        "--system": _Option("system", "str", "dynamical system", ("ledrappier", "bernoulli")),
        "--constellation": _Option("constellation", "file", "JSON constellation file",
                                   required=True),
        "--mc": _Option("mc", "flag", "force the Monte-Carlo estimator"),
        "--samples": _Option("samples", "int", "Monte-Carlo samples"),
        "--torus": _Option("torus", "int", "torus size for the estimator"),
    }),
    "scan-dev": _Command("dev(h) statistics over the (z,w) grid", {
        **_OUT, **_SEED,  # --seed is taken unread (see cmd_scan_dev)
        "--system": _Option("system", "str", "dynamical system", ("bernoulli", "rankone")),
        "--epsilon": _Option("epsilon", "float", "defect threshold", required=True),
        "--h": _Option("h", "int", "grid radius", required=True),
        "--events": _Option("events", "file", "JSON file with the three events"),
        "--spec": _Option("spec", "spec", "rank-one preset or spec file"),
        "--stage": _Option("stage", "int", "stage of the rank-one word"),
        "--stages": _Option("stages", "int", "stages of the rank-one preset"),
        "--word-length": _Option("word_length", "int", "length of the rank-one word"),
    }),
    "scan-mix": _Command("k-fold mixing defect over shift families", {
        **_OUT, **_SEED, **_PATTERN,
        "--system": _Option("system", "str", "dynamical system", ("ledrappier", "bernoulli")),
        "--order": _Option("order", "int", "mixing order k", required=True),
        "--family": _Option("family", "str", "shift family", ("dyadic", "random")),
        "--budget": _Option("budget", "int", "most shift tuples scanned"),
        "--min-gap": _Option("min_gap", "int", "least gap between random shifts"),
        "--box": _Option("box", "int", "box radius of random shifts"),
        **_SCALES,
        "--events": _Option("events", "file", "JSON file with k+1 events"),
    }),
    "joining": _Command("limiting joining tensor and operator calculus", {
        **_OUT, **_PATTERN,
        "--tensor": _Option("tensor", "file", "load a tensor JSON of exact fractions instead "
                            'of the parity pipeline ("exact": false exits 2)'),
        **_SCALES,
        "--chain": _Option("chain", "flag", "run the mean-zero norm chain"),
        "--raise": _Option("raise_order", "flag", "raise the order of the operator"),
        "--lower": _Option("lower_order", "flag", "lower the order of the tensor"),
    }),
    "percolate": _Command("cluster/wrap sweep over lattice sizes", {
        **_OUT, **_SEED, **_PATTERN,
        "--sizes": _Option("sizes", "sizes", "comma list of lattice sizes", required=True),
        "--samples": _Option("samples", "int", "samples per size"),
        **_CONNECTIVITY,
    }),
    "render": _Command("sample a configuration and render it", {
        **_OUT, **_SEED, **_PATTERN,
        "--size": _Option("size", "int", "torus side"),
        "--format": _Option("format", "str", "comma list of svg,pbm,json"),
        "--clusters": _Option("clusters", "flag", "tint clusters in the SVG"),
        **_CONNECTIVITY,
        "--bit": _Option("bit", "int", "bit whose clusters are tinted", (0, 1)),
    }),
    "rankone": _Command("tower heights and symbolic words", {
        **_OUT,
        "--spec": _Option("spec", "spec", "rank-one preset or spec file"),
        "--stages": _Option("stages", "int", "stages of the preset"),
        "--stage": _Option("stage", "int", "stage of the word"),
        "--word-length": _Option("word_length", "int", "length of the word"),
    }),
    "replay": _Command("re-run a command from an embedded config", {
        "config": _Option("config", "str", "path to a config.json", required=True), **_OUT,
    }),
}


def build_parser() -> dict[str, _Command]:
    """The option table (see the module docstring for why it has this name)."""
    return _TABLE


def _under(command: str) -> list[str]:
    """The commands that `command` names: itself, a group's ("scan") or all ("")."""
    return [name for name in _TABLE if f"{name}-".startswith(f"{command}-".lstrip("-"))]


def _exit(command: str, error: str = ""):
    """Exit 2 with `error` on stderr, or without one, 0 with the help of
    every command that `command` names."""
    prog = f"mixlab {command.replace('-', ' ')}".rstrip()
    if error:
        print(f"{prog}: error: {error}", file=sys.stderr)
        raise SystemExit(2)
    print(f"usage: {prog} [-h] ...\nComputational laboratory for multiple-mixing phenomena")
    for name in _under(command):
        print(f"\nmixlab {name.replace('-', ' ')}: {_TABLE[name].help}")
        for flag, o in _TABLE[name].options.items():
            kind = "|".join(map(str, o.choices)) or o.kind
            print(f"  {flag:<15} {kind:<20} {o.help}{' (required)' * o.required}")
    raise SystemExit(0)


def _parse(argv: list[str]) -> tuple[str, dict]:
    """The command `argv` names and its params, in the table's option order."""
    table, args, command = build_parser(), iter(argv), ""
    while command not in table:  # "measure", or "scan" and then "dev"
        word = next(args, None)
        if word == "--version" and not command:
            print(f"mixlab {__version__}")
            raise SystemExit(0)
        if word in ("-h", "--help"):
            _exit(command)
        name = f"{command}-{word}".lstrip("-")
        if word is None or "-" in word or not _under(name):
            _exit(command, f"unknown command {word!r}" if word else "a command is required")
        command = name
    options = table[command].options
    positional = [flag for flag in options if not flag.startswith("-")]
    given: dict = {}
    for arg in args:
        if arg in ("-h", "--help"):
            _exit(command)
        flag, eq, text = arg.partition("=")
        if not arg.startswith("-") and positional:
            flag, text = positional.pop(0), arg
        elif not flag.startswith("--") or flag not in options:
            _exit(command, f"unrecognized argument {arg!r}")
        elif options[flag].kind == "flag" and eq:
            _exit(command, f"argument {flag} takes no value")
        elif options[flag].kind != "flag" and not eq:
            text = next(args, None)
            if text is None:
                _exit(command, f"argument {flag} expects a value")
        option = options[flag]
        try:
            given[option.dest] = value = _KINDS[option.kind][0](text)
        except ValueError as exc:
            _exit(command, f"argument {flag}: {exc}")
        if option.choices and value not in option.choices:
            _exit(command, f"argument {flag}: {value!r} is not one of {option.choices}")
    missing = [flag for flag, o in options.items() if o.required and o.dest not in given]
    if missing:
        _exit(command, f"the following arguments are required: {', '.join(missing)}")
    return command, {o.dest: given[o.dest] for o in options.values() if o.dest in given}


def _check_params(command: str, params: dict) -> None:
    """Reject params that the command's own options could not have resolved
    to: unknown keys, values of the wrong kind or choice, missing required
    options."""
    options = {o.dest: o for o in _TABLE[command].options.values()}
    for key, value in params.items():
        option = options.get(key)
        if option is None or not (_KINDS[option.kind][1](value)
                                  and (not option.choices or value in option.choices)):
            unknown = "" if option else f": {command} has no such option"
            raise ValidationError(f"config parameter {key!r} cannot be {value!r}{unknown}")
    missing = [dest for dest, o in options.items() if o.required and dest not in params]
    if missing:
        raise ValidationError(f"config lacks required parameter {missing[0]!r}")


def main(argv: Optional[list[str]] = None) -> int:
    command, params = _parse(sys.argv[1:] if argv is None else argv)
    try:
        if command == "replay":
            command, params = _replayed(params)
        else:
            params = _inline_inputs(command, params)
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
