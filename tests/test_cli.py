"""Command line run in process: artifacts and the documented exit codes."""

import json
import os
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import bench_module
from mixlab import __version__, algebraic, cli, joinings
from mixlab.algebraic import MAX_MC_SAMPLES, MAX_TORUS_SIDE
from mixlab.correlations import MAX_DYADIC_SCALE, MAX_SCAN_BOX, MAX_SCAN_BUDGET, MAX_SCAN_ORDER
from mixlab.joinings import MAX_JOINING_ENTRIES
from mixlab.percolation import MAX_SWEEP_SAMPLES, MAX_SWEEP_SIZES
from mixlab.rankone import MAX_STAGES, MAX_WORD_LENGTH

NON_PROPAGATING = {"support": [[0, 0], [1, 0], [0, -1]]}


def _write(path, obj):
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _five_point(s):
    return {"sites": [[0, 0], [s, 0], [-s, 0], [0, s], [0, -s]], "bits": [0] * 5}


def test_measure_at_non_dyadic_scale_is_exact(tmp_path):
    c = _write(tmp_path / "c.json", _five_point(3 ** 9))
    out = tmp_path / "out"
    assert cli.main(["measure", "--constellation", c, "--out", str(out)]) == 0
    result = json.loads((out / "measure.json").read_text(encoding="utf-8"))["result"]
    assert result["exact"] == "1/32"
    assert result["meta"] == {"method": "window"}


def test_measure_past_generator_cap_exits_2(tmp_path, capsys):
    c = _write(tmp_path / "c.json", _five_point(1 << 40))
    assert cli.main(["measure", "--constellation", c, "--out", str(tmp_path / "out")]) == 2
    assert "generator cells" in capsys.readouterr().err


def test_measure_with_non_propagating_pattern(tmp_path):
    # The translate of {(0,0),(1,0),(0,-1)} by (0,1) ties sites 0, 2 and 3.
    c = _write(tmp_path / "c.json", {"sites": [[0, 0], [1, 0], [0, 1], [1, 1]],
                                     "bits": [0, 1, 1, 1]})
    p = _write(tmp_path / "p.json", NON_PROPAGATING)
    out = tmp_path / "out"
    assert cli.main(["measure", "--constellation", c, "--pattern", p,
                     "--out", str(out)]) == 0
    result = json.loads((out / "measure.json").read_text(encoding="utf-8"))["result"]
    assert result["exact"] == "1/8"


def test_malformed_constellation_exits_2(tmp_path, capsys):
    c = tmp_path / "c.json"
    c.write_text('{"sites": [[0, 0]], "bits": [0]', encoding="utf-8")
    assert cli.main(["measure", "--constellation", str(c),
                     "--out", str(tmp_path / "out")]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_render_with_non_propagating_pattern_exits_3(tmp_path, capsys):
    p = _write(tmp_path / "p.json", NON_PROPAGATING)
    assert cli.main(["render", "--pattern", p, "--size", "9",
                     "--out", str(tmp_path / "out")]) == 3
    assert "capability error" in capsys.readouterr().err


def test_render_past_torus_cap_exits_2(tmp_path, capsys):
    # A side of 32769 is past the torus side cap (and 2 rows of it past the
    # 2^16-bit state cap); refused before any row is built.
    assert cli.main(["render", "--size", "32769", "--out", str(tmp_path / "out")]) == 2
    assert "exceeds the cap" in capsys.readouterr().err


@pytest.mark.parametrize("size,formats", [("33", "svg,bogus"), ("1023", "bogus")])
def test_unknown_render_format_exits_2_before_any_grid(tmp_path, monkeypatch, capsys,
                                                       size, formats):
    # The format list is checked before the kernel is built, so a known
    # format listed before the unknown one leaves no grid artifact.
    def no_kernel(*args):
        raise AssertionError("kernel built for a refused format")

    monkeypatch.setattr(cli, "torus_kernel", no_kernel)
    out = tmp_path / "out"
    assert cli.main(["render", "--size", size, "--format", formats, "--out", str(out)]) == 2
    assert "unknown render format 'bogus'" in capsys.readouterr().err
    assert not out.exists()


_PAST_SIDE = str(MAX_TORUS_SIDE + 1)


@pytest.mark.parametrize("argv,message", [
    (["render", "--size", _PAST_SIDE], f"exceeds the cap {MAX_TORUS_SIDE}"),
    (["measure", "--mc", "--torus", _PAST_SIDE, "--constellation", "c.json"],
     f"exceeds the cap {MAX_TORUS_SIDE}"),
    (["percolate", "--sizes", f"9,{_PAST_SIDE}"], f"lattice sizes must lie in 8..{MAX_TORUS_SIDE}"),
    (["measure", "--mc", "--samples", str(MAX_MC_SAMPLES + 1), "--constellation", "c.json"],
     f"--samples must lie in 1..{MAX_MC_SAMPLES}"),
    (["percolate", "--sizes", "9", "--samples", str(MAX_SWEEP_SAMPLES + 1)],
     f"samples per size must lie in 1..{MAX_SWEEP_SAMPLES}"),
    (["rankone", "--stages", "12", "--word-length", str(MAX_WORD_LENGTH + 1)],
     f"exceeds the cap {MAX_WORD_LENGTH}"),
    (["scan", "dev", "--system", "rankone", "--h", "8", "--epsilon", "0.1", "--stages", "12",
      "--word-length", str(MAX_WORD_LENGTH + 1)], f"exceeds the cap {MAX_WORD_LENGTH}"),
    (["rankone", "--stages", str(MAX_STAGES + 1)], f"stages must lie in 0..{MAX_STAGES}"),
    (["rankone", "--stages", str(10 ** 9)], f"stages must lie in 0..{MAX_STAGES}"),
    (["scan", "dev", "--system", "rankone", "--h", "8", "--epsilon", "0.1",
      "--stages", str(MAX_STAGES + 1)], f"stages must lie in 0..{MAX_STAGES}"),
    (["scan", "dev", "--system", "rankone", "--h", "8", "--epsilon", "0.1",
      "--stages", str(10 ** 9)], f"stages must lie in 0..{MAX_STAGES}"),
    (["scan", "mix", "--order", "2", "--budget", str(MAX_SCAN_BUDGET + 1)],
     f"budget must lie in 1..{MAX_SCAN_BUDGET}"),
    (["scan", "mix", "--order", "2", "--box", str(MAX_SCAN_BOX + 1)],
     f"box radius must lie in 0..{MAX_SCAN_BOX}"),
    (["scan", "mix", "--order", str(MAX_SCAN_ORDER + 1)],
     f"--order must lie in 1..{MAX_SCAN_ORDER}"),
    (["scan", "mix", "--order", str(10 ** 9)], f"--order must lie in 1..{MAX_SCAN_ORDER}"),
    (["scan", "mix", "--order", "4", "--family", "dyadic",
      "--scales", f"1:{MAX_DYADIC_SCALE + 2}"],
     f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}"),
    (["scan", "mix", "--order", "0"], f"--order must lie in 1..{MAX_SCAN_ORDER}"),
    (["joining", "--scales", f"{10 ** 9}:{10 ** 9 + 3}"],
     f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}"),
    (["joining", "--scales=-1:3"], f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}"),
    (["percolate", "--sizes", ",".join(["9"] * (MAX_SWEEP_SIZES + 1))],
     f"a sweep takes at most {MAX_SWEEP_SIZES} lattice sizes"),
    # A one-entry tensor file cannot have order 5 over three cells, nor be
    # a tensor over one cell; refused before any power or shape.
    (["joining", "--tensor", "order.json"], "entry count does not match dims**order"),
    (["joining", "--tensor", "one-cell.json"], "a tensor needs at least two cells"),
    # Order 30000000 over three cells, or 3^16 entries, pass the entries
    # cap: refused before the power and before any entry is parsed.
    (["joining", "--tensor", "huge.json"],
     f"a joining of 3 cells at order 30000000 has 3^30000000 entries, "
     f"more than the cap {MAX_JOINING_ENTRIES}"),
    (["joining", "--tensor", "cap.json"],
     f"a joining of 3 cells at order 16 has 3^16 entries, more than the cap {MAX_JOINING_ENTRIES}"),
    # Scale 22 would span 2^26 + 2 generator cells: refused at the bound.
    (["scan", "mix", "--order", "4", "--family", "dyadic", "--scales", "22:23"],
     f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}"),
    (["joining", "--scales", "20:23"], f"dyadic scales must lie in 0..{MAX_DYADIC_SCALE}"),
])
def test_size_option_past_its_bound_exits_2_at_once(tmp_path, monkeypatch, capsys, argv, message):
    # Each bound is checked before the work it limits starts, and before the
    # first artifact, so no output directory is made.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "c.json", _five_point(1))
    _write(tmp_path / "order.json", {"order": 5, "dims": 3,
                                     "weights": ["1/3"] * 3, "entries": ["1"]})
    _write(tmp_path / "huge.json", {"order": 30000000, "dims": 3,
                                    "weights": ["1/3"] * 3, "entries": ["1"]})
    _write(tmp_path / "cap.json", {"order": 16, "dims": 3, "weights": ["1/3"] * 3,
                                   "entries": ["not an entry"]})
    _write(tmp_path / "one-cell.json", {"order": 10 ** 9, "dims": 1,
                                        "weights": ["1"], "entries": ["1"]})
    start = time.perf_counter()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_dyadic_scale_at_its_bound_runs(tmp_path):
    # Scale 21 spans 2^25 + 2 generator cells, inside the cap, and carries
    # the 5-point relation as every dyadic scale does.
    out = tmp_path / "out"
    assert cli.main(["scan", "mix", "--order", "4", "--family", "dyadic", "--scales",
                     f"{MAX_DYADIC_SCALE}:{MAX_DYADIC_SCALE + 1}", "--out", str(out)]) == 0
    result = json.loads((out / "mix.json").read_text(encoding="utf-8"))
    s = 1 << MAX_DYADIC_SCALE
    assert result["certificate"] == {"sites": [[0, 0], [s, 0], [-s, 0], [0, s], [0, -s]],
                                     "relations": [[1] * 5]}
    assert result["max_abs_defect"] == "1/32"


THREE_CELL = {"order": 2, "dims": 3, "weights": ["1/3"] * 3, "entries": ["1/9"] * 9}


@pytest.mark.parametrize("argv,message", [
    # No shift in a box of radius 5 is 50 from the origin: refused at once.
    (["scan", "mix", "--order", "2", "--min-gap", "50", "--box", "5", "--budget", "1"],
     "min gap 50 exceeds the box radius 5"),
    # Nine points 5 apart fit in the box only as its 3 x 3 corner grid,
    # which 1000 random draws do not find.
    (["scan", "mix", "--order", "8", "--min-gap", "5", "--box", "5", "--budget", "1"],
     "cannot satisfy separation constraints in the box"),
    # Two members can never give three equal tensors in a row.
    (["joining", "--scales", "1:3"],
     "correlation family did not stabilize (2 consecutive matches, needed 3)"),
    # The chain runs only on 2 cells; a 3-cell tensor fails after it is classified.
    (["joining", "--tensor", "three-cell.json", "--chain"],
     "chain/raise need a 2-cell parity pipeline"),
])
def test_unsatisfiable_request_exits_2_at_once(tmp_path, monkeypatch, capsys, argv, message):
    # Each fails before the first artifact, so no output directory is made.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "three-cell.json", THREE_CELL)
    start = time.perf_counter()
    assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - start < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_no_fitting_default_torus_exits_2(tmp_path, monkeypatch, capsys):
    # With no torus size to try, `default_torus_for` finds none.
    monkeypatch.setattr(algebraic, "_TORUS_TRIES", 0)
    c = _write(tmp_path / "c.json", _five_point(1))
    assert cli.main(["measure", "--mc", "--constellation", c,
                     "--out", str(tmp_path / "out")]) == 2
    assert "no torus up to size 12 matches the plane rank" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# argv -> the error it exits 2 with; the files it names are written by the test.
REFUSED_INPUTS = [
    (["measure", "--constellation", "missing.json"], "file not found: missing.json"),
    (["scan", "mix", "--order", "2", "--events", "no-events.json"],
     "bad events input: events file needs an 'events' array"),
    (["scan", "mix", "--order", "2", "--events", "two-events.json"],
     "expected 3 events, found 2"),
    (["render", "--size", "9", "--pattern", "no-support.json"],
     "bad pattern input: pattern file needs 'support'"),
    (["scan", "mix", "--order", "3", "--family", "dyadic"],
     "the dyadic family is the 5-point Z^2 family (order 4)"),
    (["replay", "bare-config.json"], "config file lacks 'command'/'params'"),
    (["replay", "bogus-config.json"], "unknown command 'bogus' in config"),
    (["measure", "--mc", "--torus", "21", "--constellation", "wraps.json"],
     "constellation does not embed in the torus"),
    (["measure", "--mc", "--torus", "1000", "--pattern", "tall.json",
      "--constellation", "origin.json"], "torus state of 70000 bits exceeds the cap 65536"),
    (["joining", "--tensor", "order-0.json"], "bad tensor input: tensor order must be at least 1"),
    (["joining", "--tensor", "product2.json", "--lower"],
     "lower_order needs a tensor of order at least 3"),
    (["percolate", "--sizes", "9,12,9"], "a sweep takes one or more distinct lattice sizes"),
]


@pytest.mark.parametrize("argv,message", REFUSED_INPUTS)
def test_refused_input_exits_2_with_its_message(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "no-events.json", {"cells": []})
    _write(tmp_path / "two-events.json", {"events": [{"sites": [[0, 0]], "bits": [0]}] * 2})
    _write(tmp_path / "no-support.json", {"offsets": [[0, 0]]})
    _write(tmp_path / "bare-config.json", {"command": "rankone"})
    _write(tmp_path / "bogus-config.json", {"command": "bogus", "params": {}})
    # (21, 0) wraps onto (0, 0) on the 21-torus
    _write(tmp_path / "wraps.json", {"sites": [[0, 0], [21, 0]], "bits": [0, 0]})
    # 70 rows below the top cell of a 1000-wide torus
    _write(tmp_path / "tall.json", {"support": [[0, 0], [0, 70]]})
    _write(tmp_path / "origin.json", {"sites": [[0, 0]], "bits": [0]})
    _write(tmp_path / "order-0.json", dict(PRODUCT2, order=0, entries=["1"]))
    _write(tmp_path / "product2.json", PRODUCT2)
    assert cli.main(argv + ["--out", "out"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("system", ["bernoulli", "rankone"])
def test_dev_scan_past_h_bound_exits_2(tmp_path, capsys, system):
    assert cli.main(["scan", "dev", "--system", system, "--h", "1025", "--epsilon", "0.1",
                     "--out", str(tmp_path / "out")]) == 2
    assert "h must lie in 1..1024" in capsys.readouterr().err


PRODUCT2 = {"order": 2, "dims": 2, "weights": ["1/2", "1/2"], "entries": ["1/4"] * 4}


@pytest.mark.parametrize("argv,name,contents", [
    (["joining", "--tensor"], "t.json", {}),
    (["joining", "--tensor"], "t.json", [1, 2]),
    (["render", "--size", "9", "--pattern"], "p.json", {"support": [1, 2]}),
    (["rankone", "--spec"], "s.json", [[2, 3]]),
    # order and dims must be JSON integers, exact a JSON boolean
    (["joining", "--tensor"], "t.json", dict(PRODUCT2, order=2.9)),
    (["joining", "--tensor"], "t.json", dict(PRODUCT2, order=True, entries=["1/2"] * 2)),
    (["joining", "--tensor"], "t.json", dict(PRODUCT2, dims="2")),
    (["joining", "--tensor"], "t.json", dict(PRODUCT2, exact="false")),
    (["joining", "--tensor"], "t.json", dict(PRODUCT2, exact=0, entries=[0.25] * 4)),
    # sites, bits, pattern offsets, cuts and spacers must be JSON integers,
    # and 2-d sites and pattern offsets pairs of them
    (["measure", "--constellation"], "c.json", {"sites": [[0, 0], [1.9, 0]], "bits": [0, 0]}),
    (["measure", "--constellation"], "c.json", {"sites": [[0, 0], [1, 0]], "bits": [1.7, 0]}),
    (["measure", "--constellation"], "c.json", {"sites": [[0, True]], "bits": [0]}),
    (["measure", "--constellation"], "c.json", {"sites": [[0, 0]], "bits": [True]}),
    (["measure", "--constellation"], "c.json", {"sites": [[0, 0]], "bits": ["1"]}),
    (["render", "--size", "9", "--pattern"], "p.json",
     {"support": [[0, 0], [1, 0], [-1, 0], [0, 1], [0, -1.5]]}),
    (["render", "--size", "9", "--pattern"], "p.json", {"support": [[0, 0], [1]]}),
    (["render", "--size", "9", "--pattern"], "p.json",
     {"support": [[0, 0], [1, 0, 7], [0, 1]]}),
    (["render", "--size", "9", "--pattern"], "p.json", {"support": [[0, 0], ["1", 0]]}),
    (["rankone", "--spec"], "s.json", {"cuts": [2.9, 2], "spacers": [[0, 1.8], [0, 0]]}),
    (["rankone", "--spec"], "s.json", {"cuts": [2], "spacers": [[False, "1"]]}),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, name, contents):
    path = _write(tmp_path / name, contents)
    assert cli.main(argv + [path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines()), err


@pytest.mark.parametrize("command,params", [
    ("scan-dev", {"h": 5, "epsilon": 0.1}),
    ("rankone", {}),
])
def test_pattern_given_to_a_command_that_reads_none_exits_2(tmp_path, capsys, command, params):
    # Only measure, scan mix, joining, percolate and render read --pattern.
    config = {"command": command, "params": dict(params, pattern=NON_PROPAGATING)}
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
    assert "error: config parameter 'pattern' cannot be" in capsys.readouterr().err
    argv = command.split("-") + [x for k, v in params.items() for x in (f"--{k}", str(v))]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--pattern", path, "--out", str(tmp_path / "cli")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command,params,inputs,message", [
    ("measure", {"system": "bernoulli"},
     {"constellation": {"sites": [0, 1], "bits": [0, 1]}},
     "--pattern is not read by this measure run"),
    ("scan-mix", {"system": "bernoulli", "order": 2}, {},
     "--pattern is not read by this scan mix run"),
    ("joining", {}, {"tensor": PRODUCT2}, "--pattern is not read by this joining run"),
])
def test_pattern_on_a_route_that_reads_none_exits_2(tmp_path, capsys, command, params,
                                                    inputs, message):
    # measure --system bernoulli, scan mix --system bernoulli and joining
    # --tensor never parse --pattern, so even a malformed one is refused, at
    # the first artifact, rather than copied into config.json unread.
    pattern = {"support": [[0, 0.5]]}
    out = tmp_path / "out"
    files = dict(params, **{k: _write(tmp_path / f"{k}.json", v) for k, v in inputs.items()},
                 pattern=_write(tmp_path / "p.json", pattern))
    argv = command.split("-") + [x for k, v in files.items() for x in (f"--{k}", str(v))]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    config = {"command": command, "params": dict(params, **inputs, pattern=pattern)}
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def _argv(command, params):
    """The command line that resolves to `params`: a True value is a flag,
    a list the LO:HI of --scales."""
    argv = command.split("-")
    for key, value in params.items():
        text = ":".join(map(str, value)) if isinstance(value, list) else str(value)
        argv += [f"--{key.replace('_', '-')}"] + ([] if value is True else [text])
    return argv


@pytest.mark.parametrize("command,params,inputs,message", [
    # measure without --mc, measure --system bernoulli
    ("measure", {"torus": 21}, {"constellation": _five_point(1)},
     "--torus is not read by this measure run"),
    ("measure", {"system": "bernoulli", "mc": True},
     {"constellation": {"sites": [0, 1], "bits": [0, 1]}},
     "--mc is not read by this measure run"),
    # scan dev --system rankone, scan dev --system bernoulli
    ("scan-dev", {"system": "rankone", "h": 5, "epsilon": 0.1},
     {"events": {"events": [{"sites": [0], "bits": [0]}] * 3}},
     "--events is not read by this scan dev run"),
    ("scan-dev", {"system": "bernoulli", "h": 5, "epsilon": 0.1, "word_length": 5}, {},
     "--word-length is not read by this scan dev run"),
    # render without svg
    ("render", {"size": 9, "format": "pbm,json", "clusters": True}, {},
     "--clusters is not read by this render run"),
    # A given 0 is read, not taken for an absent option.
    ("measure", {"mc": True, "torus": 0}, {"constellation": _five_point(1)},
     "torus dimensions must be at least 3"),
    ("rankone", {"word_length": 0}, {}, "max_length 0 is below the stage height 3"),
    # Options that have a default where another route reads them.
    ("measure", {"samples": 7}, {"constellation": _five_point(1)},
     "--samples is not read by this measure run"),
    ("measure", {"seed": 5}, {"constellation": _five_point(1)},
     "--seed is not read by this measure run"),
    ("scan-mix", {"order": 4, "family": "dyadic", "seed": 3}, {},
     "--seed is not read by this scan mix run"),
    ("scan-mix", {"order": 4, "family": "dyadic", "box": 5}, {},
     "--box is not read by this scan mix run"),
    ("scan-mix", {"order": 2, "budget": 3, "scales": [1, 3]}, {},
     "--scales is not read by this scan mix run"),
    ("scan-dev", {"h": 5, "epsilon": 0.1, "stage": 3}, {},
     "--stage is not read by this scan dev run"),
    ("rankone", {"stage": 2}, {}, "--stage is not read by this rankone run"),
    ("joining", {"scales": [1, 3]}, {"tensor": PRODUCT2},
     "--scales is not read by this joining run"),
])
def test_refused_option_exits_2_on_command_line_and_replay(tmp_path, capsys, command, params,
                                                           inputs, message):
    # An option the run does not read is refused at its first artifact, and
    # a 0 before it, so no output directory is made.
    out = tmp_path / "out"
    files = {k: _write(tmp_path / f"{k}.json", v) for k, v in inputs.items()}
    assert cli.main(_argv(command, dict(params, **files)) + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    path = _write(tmp_path / "config.json", {"command": command, "params": dict(params, **inputs)})
    assert cli.main(["replay", path, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,params,inputs,work,message", [
    ("scan-dev", {"h": 1024, "epsilon": 0.1, "stage": 3}, {}, "dev_scan",
     "--stage is not read by this scan dev run"),
    ("measure", {"samples": 7}, {"constellation": _five_point(1)}, "cylinder_measure",
     "--samples is not read by this measure run"),
    ("measure", {"system": "bernoulli", "seed": 5},
     {"constellation": {"sites": [0, 1], "bits": [0, 1]}}, "bernoulli_cylinder_measure",
     "--seed is not read by this measure run"),
    ("scan-dev", {"system": "rankone", "h": 5, "epsilon": 0.1},
     {"events": {"events": [{"sites": [0], "bits": [0]}] * 3}}, "generate_word",
     "--events is not read by this scan dev run"),
    ("scan-mix", {"order": 4, "family": "dyadic", "seed": 3}, {}, "mix_defect_scan",
     "--seed is not read by this scan mix run"),
    ("joining", {"scales": [1, 3]}, {"tensor": PRODUCT2}, "classify",
     "--scales is not read by this joining run"),
    ("render", {"size": 9, "format": "pbm,json", "clusters": True}, {}, "torus_kernel",
     "--clusters is not read by this render run"),
    ("rankone", {"stage": 2}, {}, "tower_heights", "--stage is not read by this rankone run"),
])
def test_unread_option_is_refused_before_the_work(tmp_path, monkeypatch, capsys, command,
                                                  params, inputs, work, message):
    # The route reads its options and the run is refused before its work
    # starts: the spied function that does the work is never called.
    def spy(*args, **kwargs):
        raise AssertionError(f"{work} was called")

    monkeypatch.setattr(cli, work, spy)
    out = tmp_path / "out"
    files = {k: _write(tmp_path / f"{k}.json", v) for k, v in inputs.items()}
    assert cli.main(_argv(command, dict(params, **files)) + ["--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    path = _write(tmp_path / "config.json", {"command": command, "params": dict(params, **inputs)})
    assert cli.main(["replay", path, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_replay_of_a_config_holding_unread_defaults_exits_2(tmp_path, capsys):
    # Configs of exact measures written while every default was filled in
    # hold "samples" and "seed", which no exact measure reads.
    config = {"command": "measure", "version": "0.1.0",
              "params": {"constellation": _five_point(1), "samples": 100000, "seed": 0,
                         "system": "ledrappier"}}
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
    assert "error: --samples is not read by this measure run" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_empty_scale_range_exits_2(tmp_path, capsys):
    # 5:3 holds no scale: refused as the option is parsed, and in a config.
    for argv in (["scan", "mix", "--order", "4", "--family", "dyadic"], ["joining"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--scales", "5:3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "expected LO:HI with LO < HI, got '5:3'" in capsys.readouterr().err
    for command, params in (("scan-mix", {"order": 4, "family": "dyadic"}), ("joining", {})):
        path = _write(tmp_path / "config.json",
                      {"command": command, "params": dict(params, scales=[5, 3])})
        assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
        assert "error: config parameter 'scales' cannot be [5, 3]" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_size_list_that_is_not_ints_exits_2(tmp_path, capsys):
    # An empty item is no int either, so no list of sizes is empty.
    for text in ("9,x", ",", "9,,9", "9,", ""):
        with pytest.raises(SystemExit) as exc:
            cli.main(["percolate", "--sizes", text, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"expected comma-separated ints, got {text!r}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_render_format_exits_2_before_any_grid(tmp_path, monkeypatch, capsys):
    def no_kernel(*args):
        raise AssertionError("kernel built for a refused format")

    monkeypatch.setattr(cli, "torus_kernel", no_kernel)
    out = tmp_path / "out"
    assert cli.main(["render", "--format", "svg,pbm,svg", "--out", str(out)]) == 2
    assert "error: render format 'svg' given twice" in capsys.readouterr().err
    assert not out.exists()


# --out -> (the path in the way, the error it gives).  "d" and "e" hold a
# directory where rankone writes its first and its last file.
BLOCKED_OUT = {
    "afile": ("afile", "cannot make --out directory 'afile'"),
    "afile/sub": ("afile", "cannot make --out directory 'afile/sub'"),
    "d": ("d/config.json", "cannot write config.json in --out directory 'd'"),
    "e": ("e/rankone.json", "cannot write rankone.json in --out directory 'e'"),
}


@pytest.mark.parametrize("out", sorted(BLOCKED_OUT))
def test_out_that_is_no_directory_exits_2(tmp_path, monkeypatch, capsys, out):
    # An --out that names a file, or a path through one, is refused with its
    # path, on the command line and on replay, and so is an --out that holds
    # a directory in an artifact's place; what is in the way is left as it was.
    monkeypatch.chdir(tmp_path)
    blocker, message = BLOCKED_OUT[out]
    if blocker == "afile":
        (tmp_path / "afile").write_text("kept", encoding="utf-8")
    else:
        (tmp_path / blocker).mkdir(parents=True)
    assert cli.main(["rankone", "--word-length", "10", "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    path = _write(tmp_path / "config.json", {"command": "rankone", "params": {"word_length": 10}})
    assert cli.main(["replay", path, "--out", out]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    if blocker == "afile":
        assert (tmp_path / "afile").read_text(encoding="utf-8") == "kept"
    else:
        assert list((tmp_path / blocker).iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["rankone", "--seed", "1"],
    ["joining", "--seed", "1"],
    ["joining", "--order", "5"],
])
def test_option_no_route_reads_is_refused(tmp_path, argv):
    # rankone and joining draw nothing, and joining takes its order from
    # the dyadic family or the tensor file.
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


def test_scan_dev_still_takes_a_seed(tmp_path):
    assert cli.main(["scan", "dev", "--h", "6", "--epsilon", "0.1", "--seed", "7",
                     "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [
    ["render", "--size", "9", "--bit", "1"],
    ["render", "--size", "9", "--format", "pbm,svg", "--connectivity", "8", "--bit", "1"],
    ["scan", "dev", "--system", "rankone", "--h", "6", "--epsilon", "0.1", "--seed", "7"],
])
def test_options_the_benchmark_pool_passes_unread_are_taken(tmp_path, monkeypatch, argv):
    # mixbench/jobs.py passes --bit and --connectivity to render jobs without
    # --clusters, and --seed to scan dev jobs: each run takes them unread,
    # records them as given, and replays.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "first"]) == 0
    params = json.loads((tmp_path / "first" / "config.json").read_text(encoding="utf-8"))["params"]
    given = {argv[i][2:] for i in range(len(argv)) if argv[i].startswith("--")}
    assert given <= set(params)
    assert cli.main(["replay", "first/config.json", "--out", "again"]) == 0
    assert _artifacts(tmp_path / "again") == _artifacts(tmp_path / "first")


Z_EVENT = {"sites": [0, 1], "bits": [0, 1]}

# (argv, the params its config.json holds): one case per route; the input
# files are c.json (_five_point(1)), z.json (Z_EVENT) and t.json (PRODUCT2).
ROUTE_PARAMS = {
    "measure": (["measure", "--constellation", "c.json"],
                {"constellation": _five_point(1), "system": "ledrappier"}),
    "measure-mc": (["measure", "--mc", "--samples", "1000", "--constellation", "c.json"],
                   {"constellation": _five_point(1), "system": "ledrappier", "mc": True,
                    "samples": 1000, "seed": 0}),
    "measure-bernoulli": (["measure", "--system", "bernoulli", "--constellation", "z.json"],
                          {"constellation": Z_EVENT, "system": "bernoulli"}),
    "scan-dev": (["scan", "dev", "--h", "6", "--epsilon", "0.1"],
                 {"h": 6, "epsilon": 0.1, "system": "bernoulli"}),
    "scan-dev-rankone": (["scan", "dev", "--system", "rankone", "--h", "6", "--epsilon", "0.1"],
                         {"h": 6, "epsilon": 0.1, "system": "rankone", "spec": "staircase",
                          "stages": 10, "stage": 1, "word_length": 10000}),
    "scan-mix": (["scan", "mix", "--order", "2", "--budget", "3"],
                 {"order": 2, "budget": 3, "system": "ledrappier", "family": "random",
                  "seed": 0, "min_gap": 8, "box": 128}),
    "scan-mix-dyadic": (["scan", "mix", "--order", "4", "--family", "dyadic"],
                        {"order": 4, "family": "dyadic", "budget": 100,
                         "system": "ledrappier", "scales": [1, 8]}),
    "joining": (["joining"], {"scales": [1, 6]}),
    "joining-tensor": (["joining", "--tensor", "t.json", "--chain"],
                       {"tensor": PRODUCT2, "chain": True}),
    "percolate": (["percolate", "--sizes", "9", "--samples", "2"],
                  {"sizes": [9], "samples": 2, "connectivity": 4, "seed": 0}),
    "render": (["render", "--size", "9"], {"size": 9, "format": "svg", "seed": 0}),
    # --clusters is read before grid.pbm, the first artifact
    "render-clusters": (["render", "--size", "9", "--format", "pbm,svg", "--clusters"],
                        {"size": 9, "format": "pbm,svg", "seed": 0, "clusters": True,
                         "connectivity": 4, "bit": 0}),
    "rankone": (["rankone"], {"spec": "staircase", "stages": 10}),
    "rankone-word": (["rankone", "--word-length", "100"],
                     {"spec": "staircase", "stages": 10, "word_length": 100, "stage": 1}),
}


@pytest.mark.parametrize("route", sorted(ROUTE_PARAMS))
def test_config_holds_exactly_what_the_run_read(tmp_path, monkeypatch, route):
    # Each default is taken where the command reads it, so config.json holds
    # the given options and the defaults the route read, and nothing else;
    # replaying it gives the same files.
    monkeypatch.chdir(tmp_path)
    for name, obj in (("c.json", _five_point(1)), ("z.json", Z_EVENT), ("t.json", PRODUCT2)):
        _write(tmp_path / name, obj)
    argv, expected = ROUTE_PARAMS[route]
    assert cli.main(argv + ["--out", "first"]) == 0
    config = json.loads((tmp_path / "first" / "config.json").read_text(encoding="utf-8"))
    assert config["params"] == expected
    assert cli.main(["replay", "first/config.json", "--out", "again"]) == 0
    assert _artifacts(tmp_path / "again") == _artifacts(tmp_path / "first")


@pytest.mark.parametrize("command,params,key,value", [
    ("rankone", {"word_length": 10}, "seed", 0),
    ("joining", {"tensor": PRODUCT2}, "seed", 0),
    ("joining", {"scales": [1, 6]}, "order", 5),
])
def test_replay_of_a_removed_option_exits_2(tmp_path, capsys, command, params, key, value):
    # Configs written before rankone and joining lost --seed, and joining
    # --order, hold "seed": 0 and "order": 5.
    config = {"command": command, "params": dict(params, **{key: value})}
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
    assert (f"error: config parameter {key!r} cannot be {value!r}: "
            f"{command} has no such option") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["rankone", "--word-length", "100"],
    ["joining", "--scales", "1:6"],
])
def test_fresh_config_holds_no_removed_option_and_replays(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv + ["--out", "first"]) == 0
    params = json.loads((tmp_path / "first" / "config.json").read_text(encoding="utf-8"))["params"]
    assert "seed" not in params and "order" not in params
    assert cli.main(["replay", "first/config.json", "--out", "again"]) == 0
    assert _artifacts(tmp_path / "again") == _artifacts(tmp_path / "first")


def test_bernoulli_dev_scan_with_plane_events_exits_3(tmp_path, capsys):
    e = _write(tmp_path / "e.json", {"events": [{"sites": [[0, 0]], "bits": [0]}] * 3})
    assert cli.main(["scan", "dev", "--events", e, "--h", "10", "--epsilon", "0.1",
                     "--out", str(tmp_path / "out")]) == 3
    assert "Bernoulli events live on Z sites" in capsys.readouterr().err


def test_plane_scan_with_z_events_exits_2(tmp_path, capsys):
    e = _write(tmp_path / "e.json", {"events": [{"sites": [0, 1], "bits": [0, 1]},
                                                {"sites": [0], "bits": [1]},
                                                {"sites": [2], "bits": [0]}]})
    assert cli.main(["scan", "mix", "--order", "2", "--events", e,
                     "--out", str(tmp_path / "out")]) == 2
    assert "error: algebraic constraints need (i, j) sites" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# One in-process case per command

PARITY3 = {"order": 3, "dims": 2, "weights": ["1/2", "1/2"],
           "entries": ["1/4", "0", "0", "1/4", "0", "1/4", "1/4", "0"]}
PRODUCT3 = {"order": 3, "dims": 2, "weights": ["1/2", "1/2"], "entries": ["1/8"] * 8}
# q = (3/4, 1/4) on the parity of four cells: product 3-marginals, class M(3,4)
GROUP_SUM4 = {"order": 4, "dims": 2, "weights": ["1/2", "1/2"],
              "entries": ["3/32" if bin(i).count("1") % 2 == 0 else "1/32"
                          for i in range(16)]}


def _run(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return out


def _artifacts(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("argv,names", [
    (["scan", "dev", "--system", "bernoulli", "--h", "6", "--epsilon", "0.1"],
     ["dev.csv", "dev.json", "dev_heatmap.svg"]),
    (["scan", "dev", "--system", "rankone", "--h", "6", "--epsilon", "0.1",
      "--word-length", "2000"],
     ["dev.csv", "dev.json", "dev_heatmap.svg"]),
    (["scan", "mix", "--order", "2", "--family", "random", "--budget", "3", "--box", "32"],
     ["mix.csv", "mix.json"]),
    (["scan", "mix", "--order", "4", "--family", "dyadic", "--scales", "1:4"],
     ["mix.csv", "mix.json"]),
    (["joining", "--scales", "1:6"], ["joining.json", "tensor.json", "classification.json"]),
    (["percolate", "--sizes", "9,10", "--samples", "2"],
     ["percolation.csv", "percolation.json"]),
    (["render", "--size", "9", "--format", "svg,pbm,json", "--clusters"],
     ["grid.svg", "grid.pbm", "grid.json"]),
    (["rankone", "--word-length", "100"], ["word.json", "rankone.json"]),
    (["measure", "--constellation", "c.json"], ["measure.json"]),
])
def test_command_writes_its_artifacts(tmp_path, monkeypatch, argv, names):
    # Every file goes through the one writer: config.json first, then the
    # command's artifacts in their order.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "c.json", _five_point(1))
    written = []
    write = cli._write_text
    monkeypatch.setattr(cli, "_write_text",
                        lambda outdir, name, text: (written.append(name), write(outdir, name, text)))
    out = _run(tmp_path, argv)
    assert written == ["config.json"] + names
    artifacts = _artifacts(out)
    assert set(artifacts) == set(written)
    # config.json is the one copy of the config; no other artifact repeats
    # it, except measure.json
    for name in names:
        if name.endswith(".json"):
            assert ("config" in json.loads(artifacts[name])) == (name == "measure.json"), name
    if "measure.json" in artifacts:
        assert (json.loads(artifacts["measure.json"])["config"]
                == json.loads(artifacts["config.json"]))
    # JSON artifacts are one line with sorted keys and no indent
    for name, data in artifacts.items():
        if name.endswith(".json"):
            text = data.decode("utf-8")
            assert text == json.dumps(json.loads(text), sort_keys=True,
                                      ensure_ascii=False) + "\n", name


def test_no_artifact_outlives_its_write(tmp_path, monkeypatch):
    # dev.csv at h = 1024 is 35 MB: it must be freed before the heatmap is built.
    class Artifact(dict):
        pass

    refs, freed = [], []

    def tracked():
        artifact = Artifact(n=len(refs))
        refs.append(weakref.ref(artifact))
        return artifact

    def command(config):
        yield
        yield "a.json", tracked()
        freed.append(refs[-1]() is None)
        yield "b.json", tracked()
        freed.append(refs[-1]() is None)

    monkeypatch.setitem(cli._COMMANDS, "rankone", command)
    out = _run(tmp_path, ["rankone"])
    assert freed == [True, True]
    assert set(_artifacts(out)) == {"config.json", "a.json", "b.json"}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_every_route_yields_once_bare_then_only_artifacts(command):
    # The runner takes a command's first yield with next() and writes every
    # later one, so a route whose first yield were an artifact would lose it.
    # A command with no route in ROUTE_PARAMS fails here.
    routes = [params for route, (_, params) in ROUTE_PARAMS.items()
              if route == command or route.startswith(command + "-")]
    assert routes
    for params in routes:
        yields = list(cli._COMMANDS[command]({"command": command, "params": dict(params)}))
        assert yields[0] is None and len(yields) > 1
        assert all(isinstance(y, tuple) and isinstance(y[0], str) for y in yields[1:])


def test_mc_measure_of_the_empty_constellation_is_one(tmp_path):
    # No site to meet: every sample on the default torus hits.
    c = _write(tmp_path / "c.json", {"sites": [], "bits": []})
    out = _run(tmp_path, ["measure", "--mc", "--constellation", c])
    result = json.loads((out / "measure.json").read_text(encoding="utf-8"))["result"]
    assert result["estimate"] == 1.0 and result["stderr"] == 0.0


def test_dyadic_scan_stops_at_its_budget(tmp_path):
    # Scales 1..8 give eight tuples; a budget of 2 scans the first two.
    out = _run(tmp_path, ["scan", "mix", "--family", "dyadic", "--order", "4",
                          "--budget", "2", "--scales", "1:9"])
    assert json.loads((out / "mix.json").read_text(encoding="utf-8"))["scanned"] == 2
    assert len((out / "mix.csv").read_text(encoding="utf-8").splitlines()) == 3


def _joining(tmp_path, tensor, *flags):
    t = _write(tmp_path / "t.json", tensor)
    out = _run(tmp_path, ["joining", "--tensor", t, *flags])
    assert set(_artifacts(out)) == {"config.json", "joining.json", "tensor.json",
                                    "classification.json"}
    return json.loads((out / "joining.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ["2/8", "0.25", "+1/4", " 1/4 ", "1_0/40", "٢/٨", "2.5e-1"])
def test_entry_strings_read_as_their_fraction(tmp_path, entry):
    # Entries are read as Fraction(entry) reads them; tensor.json writes
    # each value reduced, as for the canonical "1/4".
    assert Fraction(entry) == Fraction(1, 4)
    canonical = _run(tmp_path / "canonical", ["joining", "--tensor",
                                              _write(tmp_path / "c.json", PRODUCT2)])
    variant = dict(PRODUCT2, entries=[entry] * 4)
    out = _run(tmp_path / "variant", ["joining", "--tensor", _write(tmp_path / "v.json", variant)])
    assert (out / "tensor.json").read_bytes() == (canonical / "tensor.json").read_bytes()


@pytest.mark.parametrize("entry", ["1/0", "1/-4", "1 /4", "", "a"])
def test_entry_string_fraction_rejects_exits_2(tmp_path, capsys, entry):
    with pytest.raises((ValueError, ZeroDivisionError)) as exc:
        Fraction(entry)
    t = _write(tmp_path / "t.json", dict(PRODUCT2, entries=["1/4"] * 3 + [entry]))
    assert cli.main(["joining", "--tensor", t, "--out", str(tmp_path / "out")]) == 2
    assert f"error: bad tensor input: {exc.value}" in capsys.readouterr().err


def test_joining_keeps_entries_as_integer_numerators(tmp_path, monkeypatch):
    # From tensor JSON to artifact text no Fraction is built per entry: the
    # 128 entries of an order-7 tensor and the 16 of its lowered tensor stay
    # integer numerators.  Only the cell masses and their sums become
    # Fractions (6 of them; reading every entry would make 150).
    order7 = {"order": 7, "dims": 2, "weights": ["1/2", "1/2"],
              "entries": ["3/256" if bin(i).count("1") % 2 == 0 else "1/256"
                          for i in range(128)]}
    t = _write(tmp_path / "t.json", order7)
    built = 0
    real = Fraction.__new__

    def counting(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    _run(tmp_path, ["joining", "--tensor", t, "--lower"])
    monkeypatch.undo()
    assert built < 10, built


def test_joining_tensor_is_classified(tmp_path):
    assert _joining(tmp_path, PARITY3)["classification"]["class"] == "M(2,3)"


def test_joining_lower(tmp_path):
    result = _joining(tmp_path, GROUP_SUM4, "--lower")
    assert result["classification"]["class"] == "M(3,4)"
    assert result["lowered_report"]["marginals_product"] is True
    assert result["lowered"]["order"] == 4


def test_joining_chain_and_raise(tmp_path):
    # Known defect: --chain and --raise ignore the input tensor and run on
    # parity_tensor(3) whenever it has 2 cells.  The product tensor's
    # operator is 0 on mean-zero functions, yet the report shows the parity
    # norms.  This asserts the output as it is today.
    result = _joining(tmp_path, PRODUCT3, "--chain", "--raise")
    assert result["classification"]["class"] == "product"
    norms = result["chain"]["norms"]
    assert norms["p2"] == pytest.approx(1.0) and norms["p5"] == pytest.approx(1.0)
    assert result["raised_report"]["class"] == "M(5,6)"


def test_chain_and_raise_compose_each_operator_once(tmp_path, monkeypatch):
    # P3 is composed once and serves both --raise and --chain, which
    # composes P5 from it: two compositions per run, not three.
    composed = []
    real = joinings.pair_compose
    spy = lambda p: composed.append(p.source_order) or real(p)  # noqa: E731
    monkeypatch.setattr(joinings, "pair_compose", spy)
    monkeypatch.setattr(cli, "pair_compose", spy)
    result = _joining(tmp_path, GROUP_SUM4, "--chain", "--raise")
    assert composed == [2, 3]
    assert set(result) >= {"chain", "raised", "raised_report"}


def test_main_twice_gives_equal_artifacts(tmp_path):
    # The parser is built once and shared by both runs; the --scales each run
    # takes by default must come back unchanged.
    argv = ["scan", "mix", "--order", "4", "--family", "dyadic"]
    first = _artifacts(_run(tmp_path / "a", argv))
    second = _artifacts(_run(tmp_path / "b", argv))
    assert first == second
    assert cli.build_parser() is cli.build_parser()
    assert json.loads(first["config.json"])["params"]["scales"] == [1, 8]


# ---------------------------------------------------------------------------
# Replay

# (argv, input files): every command that reads input files
REPLAY_CASES = [
    (["measure", "--constellation", "c.json", "--pattern", "p.json"],
     {"c.json": {"sites": [[0, 0], [1, 0], [0, 1], [1, 1]], "bits": [0, 1, 1, 1]},
      "p.json": NON_PROPAGATING}),
    (["scan", "dev", "--events", "e.json", "--h", "5", "--epsilon", "0.1"],
     {"e.json": {"events": [{"sites": [0], "bits": [0]},
                            {"sites": [0, 1], "bits": [1, 0]},
                            {"sites": [2], "bits": [1]}]}}),
    (["joining", "--tensor", "t.json", "--lower"], {"t.json": GROUP_SUM4}),
    (["rankone", "--spec", "s.json", "--word-length", "10"],
     {"s.json": {"cuts": [2, 3], "spacers": [[0, 1], [1, 0, 2]]}}),
]
REPLAY_IDS = ["measure", "scan-dev", "joining", "rankone"]


@pytest.mark.parametrize("argv,inputs", REPLAY_CASES, ids=REPLAY_IDS)
def test_replay_from_same_directory(tmp_path, monkeypatch, argv, inputs):
    monkeypatch.chdir(tmp_path)
    for name, obj in inputs.items():
        _write(tmp_path / name, obj)
    assert cli.main(argv + ["--out", "first"]) == 0
    assert cli.main(["replay", "first/config.json", "--out", "again"]) == 0
    assert _artifacts(tmp_path / "again") == _artifacts(tmp_path / "first")


@pytest.mark.parametrize("argv,inputs", REPLAY_CASES, ids=REPLAY_IDS)
def test_replay_elsewhere_without_inputs(tmp_path, monkeypatch, argv, inputs):
    run_dir, other = tmp_path / "run", tmp_path / "other"
    run_dir.mkdir()
    other.mkdir()
    monkeypatch.chdir(run_dir)
    for name, obj in inputs.items():
        _write(run_dir / name, obj)
    assert cli.main(argv + ["--out", "first"]) == 0
    for name in inputs:
        (run_dir / name).unlink()
    monkeypatch.chdir(other)
    assert cli.main(["replay", str(run_dir / "first" / "config.json"), "--out", "again"]) == 0
    assert _artifacts(other / "again") == _artifacts(run_dir / "first")


def test_replay_fills_parser_defaults(tmp_path, monkeypatch):
    # A config without "family" scans the default family (random) that
    # scan mix takes where it reads it, exactly as the command line without
    # --family does.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["scan", "mix", "--order", "4", "--budget", "2", "--out", "cli"]) == 0
    _write(tmp_path / "config.json",
           {"command": "scan-mix", "params": {"order": 4, "budget": 2}})
    assert cli.main(["replay", "config.json", "--out", "replayed"]) == 0
    assert _artifacts(tmp_path / "replayed") == _artifacts(tmp_path / "cli")


@pytest.mark.parametrize("config", [
    {"command": "measure", "params": [1]},
    {"command": "scan-mix", "params": {"order": "4", "out": "o"}},
    {"command": "scan-mix", "params": {"family": "dyadic"}},
    {"command": "measure", "params": {"constellation": "c.json"}},
    {"command": "percolate", "params": {"sizes": []}},
    {"command": "percolate", "params": {"sizes": [9, 9]}},
])
def test_malformed_replay_config_exits_2(tmp_path, capsys, config):
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:"), err


# ---------------------------------------------------------------------------
# The option table: one parse of the command line, one check of a config

@pytest.mark.parametrize("words", [[], ["scan"]] + [name.split("-") for name in cli._TABLE])
def test_help_names_every_option_below_it_and_exits_0(tmp_path, capsys, words):
    # --help comes after --out and before any required option: it exits
    # before the work and before the check for what is missing.
    command = "-".join(words)
    out = ["--out", str(tmp_path / "out")] if command in cli._TABLE else []
    with pytest.raises(SystemExit) as exc:
        cli.main(words + out + ["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert text.startswith(f"usage: {' '.join(['mixlab', *words])} [-h]")
    named = [name for name in cli._TABLE if name.startswith(command)]
    assert len(named) == {"": len(cli._TABLE), "scan": 2}.get(command, 1)
    for name in named:
        assert f"mixlab {name.replace('-', ' ')}: {cli._TABLE[name].help}" in text
        assert [flag for flag in cli._TABLE[name].options if f"  {flag} " not in text] == []
    assert not (tmp_path / "out").exists()


def test_version_prints_mixlab_and_its_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"mixlab {__version__}\n"


@pytest.mark.parametrize("argv", [
    ["scan", "mix", "--order", "4", "--family", "dyadic", "--scales", "-1:5"],
    ["percolate", "--sizes", "9,12", "--samples", "3", "--connectivity", "8"],
    ["scan", "dev", "--h", "6", "--epsilon", "0.25", "--spec", "s.json"],
    ["replay", "config.json", "--out", "o"],
])
def test_option_equals_value_gives_the_same_params(argv):
    first = next(i for i, arg in enumerate(argv) if arg.startswith("--"))
    joined = argv[:first] + [f"{argv[i]}={argv[i + 1]}" for i in range(first, len(argv), 2)]
    assert cli._parse(joined + ["--out=o"]) == cli._parse(argv + ["--out", "o"])


def test_repeated_option_keeps_its_last_value_and_params_keep_table_order():
    command, params = cli._parse(["render", "--size", "9", "--out", "a", "--clusters",
                                  "--size=11", "--out", "b", "--seed", "-4", "--clusters"])
    assert command == "render"
    assert list(params.items()) == [("out", "b"), ("seed", -4), ("size", 11), ("clusters", True)]


@pytest.mark.parametrize("argv,error", [
    (["render", "--out", "OUT", "--colour", "red"],
     "mixlab render: error: unrecognized argument '--colour'"),
    # An abbreviation is no option: --word is not --word-length.
    (["rankone", "--out", "OUT", "--word", "10"],
     "mixlab rankone: error: unrecognized argument '--word'"),
    (["render", "--out", "OUT", "--size"], "mixlab render: error: argument --size expects a value"),
    (["render", "--out", "OUT", "--size", "nine"],
     "argument --size: invalid literal for int() with base 10: 'nine'"),
    (["scan", "dev", "--out", "OUT", "--h", "6", "--epsilon", "tenth"],
     "mixlab scan dev: error: argument --epsilon: could not convert string to float: 'tenth'"),
    (["render", "--out", "OUT", "--connectivity", "6"],
     "argument --connectivity: 6 is not one of (4, 8)"),
    (["measure", "--out", "OUT", "--constellation", "c.json", "--system", "torus"],
     "argument --system: 'torus' is not one of ('ledrappier', 'bernoulli')"),
    (["render", "--out", "OUT", "--clusters=yes"], "argument --clusters takes no value"),
    (["measure", "--out", "OUT"],
     "mixlab measure: error: the following arguments are required: --constellation"),
    (["scan", "mix", "--seed", "3"], "the following arguments are required: --out, --order"),
    (["replay", "--out", "OUT"],
     "mixlab replay: error: the following arguments are required: config"),
    (["replay", "a.json", "b.json", "--out", "OUT"], "unrecognized argument 'b.json'"),
    (["scan"], "mixlab scan: error: a command is required"),
    ([], "mixlab: error: a command is required"),
    (["bogus", "--out", "OUT"], "mixlab: error: unknown command 'bogus'"),
    (["scan-mix", "--order", "2", "--out", "OUT"], "mixlab: error: unknown command 'scan-mix'"),
    (["scan", "--version"], "mixlab scan: error: unknown command '--version'"),
])
def test_bad_command_line_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv, error):
    # Each is refused while the command line is parsed: no input file is
    # read, no command runs and no --out is made.
    monkeypatch.setattr(cli, "_load_json", None)
    monkeypatch.setattr(cli, "_run", None)
    out = str(tmp_path / "out")
    with pytest.raises(SystemExit) as exc:
        cli.main([out if arg == "OUT" else arg for arg in argv])
    assert exc.value.code == 2
    assert error in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_replay_check_accepts_what_every_pool_command_line_parses_to(tmp_path, monkeypatch):
    # Parsing and replay read one table, so neither can drift from the
    # other: every command line of the benchmark's pools, its input files
    # inlined, is a config that replay accepts as it is.
    jobs = bench_module(monkeypatch, "jobs")
    monkeypatch.chdir(tmp_path)
    checked = 0
    for workload in jobs.WORKLOADS:
        for job in jobs.pool(workload)[0]:
            for name, text in job.inputs.items():
                (tmp_path / name).write_text(text, encoding="utf-8")
            command, params = cli._parse(list(job.argv))
            config = cli._inline_inputs(command, params)
            cli._check_params(command, config)
            assert list(config) == list(params)
            checked += 1
    assert checked == 384


# Command-line texts of each value kind; "t.json" is a file the test writes.
KIND_TEXTS = {"str": ["out", "-"], "int": ["-3", "0"], "float": ["0.25", "-1", "1e-3"],
              "sizes": ["9", "12,9"], "scales": ["-1:3", "1:2"], "flag": [""],
              "file": ["t.json"], "spec": ["staircase", "t.json"]}


def test_each_option_parses_to_a_value_its_replay_check_accepts(tmp_path, monkeypatch):
    # Every option of every command at once, so the required ones are there:
    # each text a kind parses, its file inlined, is a value replay accepts.
    monkeypatch.chdir(tmp_path)
    _write(tmp_path / "t.json", PRODUCT2)
    assert {o.kind for c in cli._TABLE.values() for o in c.options.values()} == set(cli._KINDS)
    for command, entry in cli._TABLE.items():
        for i in range(max(map(len, KIND_TEXTS.values()))):
            params = {}
            for option in entry.options.values():
                texts = [str(c) for c in option.choices] or KIND_TEXTS[option.kind]
                params[option.dest] = cli._KINDS[option.kind][0](texts[i % len(texts)])
            cli._check_params(command, cli._inline_inputs(command, params))


def test_importing_cli_loads_no_argparse_or_gettext():
    # argparse and the gettext it imports would add to every process's
    # import time; the option table needs neither.
    src = Path(cli.__file__).resolve().parent.parent
    code = "import sys, mixlab.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=str(src)), check=True)
    assert result.stdout == "[]\n"
