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
