"""Command line run in process: artifacts and the documented exit codes."""

import json

import pytest

from mixlab import cli

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


@pytest.mark.parametrize("argv,name,contents", [
    (["joining", "--tensor"], "t.json", {}),
    (["joining", "--tensor"], "t.json", [1, 2]),
    (["render", "--size", "9", "--pattern"], "p.json", {"support": [1, 2]}),
    (["rankone", "--spec"], "s.json", [[2, 3]]),
])
def test_malformed_input_file_exits_2(tmp_path, capsys, argv, name, contents):
    path = _write(tmp_path / name, contents)
    assert cli.main(argv + [path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert any(line.startswith("error:") for line in err.splitlines()), err


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
     {"dev.csv", "dev.json", "dev_heatmap.svg"}),
    (["scan", "dev", "--system", "rankone", "--h", "6", "--epsilon", "0.1",
      "--word-length", "2000"],
     {"dev.csv", "dev.json", "dev_heatmap.svg"}),
    (["scan", "mix", "--order", "2", "--family", "random", "--budget", "3", "--box", "32"],
     {"mix.csv", "mix.json"}),
    (["scan", "mix", "--order", "4", "--family", "dyadic", "--scales", "1:4"],
     {"mix.csv", "mix.json"}),
    (["joining", "--scales", "1:6"], {"joining.json", "tensor.json", "classification.json"}),
    (["percolate", "--sizes", "9,10", "--samples", "2"],
     {"percolation.csv", "percolation.json"}),
    (["render", "--size", "9", "--format", "svg,pbm,json", "--clusters"],
     {"grid.svg", "grid.pbm", "grid.json"}),
    (["rankone", "--word-length", "100"], {"rankone.json", "word.json"}),
])
def test_command_writes_its_artifacts(tmp_path, argv, names):
    out = _run(tmp_path, argv)
    artifacts = _artifacts(out)
    assert set(artifacts) == names | {"config.json"}
    # config.json is the one copy of the config; no other artifact repeats it
    for name in names:
        if name.endswith(".json"):
            assert "config" not in json.loads(artifacts[name]), name


def _joining(tmp_path, tensor, *flags):
    t = _write(tmp_path / "t.json", tensor)
    out = _run(tmp_path, ["joining", "--tensor", t, *flags])
    assert set(_artifacts(out)) == {"config.json", "joining.json", "tensor.json",
                                    "classification.json"}
    return json.loads((out / "joining.json").read_text(encoding="utf-8"))


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


def test_main_twice_gives_equal_artifacts(tmp_path):
    # The parser is built once; its default --scales list is shared by both
    # runs and must come back unchanged.
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
    # A config without "family" scans the parser's default family (random),
    # exactly as the command line without --family does.
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
])
def test_malformed_replay_config_exits_2(tmp_path, capsys, config):
    path = _write(tmp_path / "config.json", config)
    assert cli.main(["replay", path, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:"), err
