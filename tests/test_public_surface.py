"""Every public function, class and method in `src/mixlab` is used there,
every function the benchmark's tracer wraps by name exists, and the
tracer's observers read the arguments they count.

A name counts as used when `src/mixlab` mentions it as a name, as an
attribute, or as an identifier-shaped string (as in `getattr(oracle,
"correlation_grid")`).  Test-only helpers belong in `tests/conftest.py`.
"""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from mixlab import cli
from mixlab.algebraic import LEDRAPPIER_PATTERN, _window_masks, relation_space, torus_kernel
from mixlab.rng import mix, random_bits, substream

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixlab"

ALLOWED = {
    "main": "console-script entry point, called from outside the package",
    "solve_affine": "wrapped by name by the benchmark's tracer",
    "mat_pow": "wrapped by name by the benchmark's tracer",
    "rank": "wrapped by name by the benchmark's tracer",
    "marginal": "wrapped by name by the benchmark's tracer",
}


def _surface():
    """(qualified public names defined in src, names mentioned in src)."""
    defined, named = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                defined.update(f"{path.stem}.{node.name}.{n.name}" for n in node.body
                               if isinstance(n, ast.FunctionDef))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                named.add(node.value)
    return {q for q in defined if not q.rpartition(".")[2].startswith("_")}, named


def test_every_public_name_is_used_in_src():
    defined, named = _surface()
    unused = [q for q in sorted(defined) if q.rpartition(".")[2] not in named | set(ALLOWED)]
    assert unused == []


def test_allowlist_names_exist():
    defined, _ = _surface()
    assert set(ALLOWED) <= {q.rpartition(".")[2] for q in defined}


def test_module_level_caches_are_the_known_one():
    # A cache at module level outlives every call and holds on to the inputs
    # a process has seen, so each one is named here: the one exact value per
    # cylinder rank.
    cached = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                dec = dec.func if isinstance(dec, ast.Call) else dec
                name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", None)
                if name in ("lru_cache", "cache"):
                    cached.add(f"{path.stem}.{node.name}")
    assert cached == {"algebraic._window_value"}


def test_joinings_keep_no_float_path():
    # Joinings hold exact rationals only: no float tolerance at module level
    # and no function or method that takes an `exact` flag.
    tree = ast.parse((SRC / "joinings.py").read_text(encoding="utf-8"))
    assert "FLOAT_TOL" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    flagged = [node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
               and "exact" in {a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg)}]
    assert flagged == []


def test_mixing_scans_keep_no_float_path():
    # Mixing scans hold exact rationals only: in `correlations`, only the
    # deviation scan reads a measure as a float.
    tree = ast.parse((SRC / "correlations.py").read_text(encoding="utf-8"))
    readers = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "as_float"}
    assert readers == {"dev_scan"}


def _tracing(monkeypatch):
    """mixbench/tracing.py, loaded read-only by file."""
    spec = importlib.util.spec_from_file_location("mixbench_tracing",
                                                  ROOT / "mixbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    return tracing


def test_tracer_targets_resolve(monkeypatch):
    # mixbench/tracing.py rebinds each target by module and name; a renamed
    # target would only fail a traced benchmark run.
    tracing = _tracing(monkeypatch)
    missing = []
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        cls_name, _, attr = target.attr.rpartition(".")
        found = (attr in vars(getattr(module, cls_name, object)) if cls_name
                 else callable(getattr(module, attr, None)))
        if not found:
            missing.append(target.name)
    assert tracing.TARGETS and missing == []


def test_tracer_observers_read_their_arguments(monkeypatch, tmp_path, small_blocks):
    # The observers read torus_kernel's arguments 1 and 2 (w and h),
    # mc_cylinder_measure's argument 2 (the sample count) and
    # _window_masks' result 1 (the generator count) by position; a moved
    # parameter would miscount a traced run without failing it.  svg.bytes
    # takes len() of each SVG builder's result and cli.write_bytes encodes
    # _write_text's argument 2, so both must stay one str: an export that
    # returned chunks would break them.  Small blocks give every export
    # several.  The exact measure's sites hold the stencil at scale 2, which
    # carries a relation, so they survive the peel and their masks are built.
    tracing = _tracing(monkeypatch)
    c = tmp_path / "c.json"
    c.write_text(json.dumps({"sites": [[0, 0], [1, 0]], "bits": [0, 1]}), encoding="utf-8")
    sites = [(0, 0), (3, 2), (2, 0), (-2, 0), (0, 2), (0, -2), (-1, 5)]
    assert relation_space(LEDRAPPIER_PATTERN, sites) == [0b0111101]
    e = tmp_path / "e.json"
    e.write_text(json.dumps({"sites": [list(s) for s in sites], "bits": [0, 1, 1, 0, 1, 0, 1]}),
                 encoding="utf-8")
    z = tmp_path / "z.json"
    z.write_text(json.dumps({"events": [{"sites": [0, 3], "bits": [0, 1]}] * 3}), encoding="utf-8")
    out = tmp_path / "out"
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert cli.main(["render", "--size", "9", "--out", str(out / "r")]) == 0
        assert cli.main(["measure", "--mc", "--torus", "21", "--samples", "1000",
                         "--constellation", str(c), "--out", str(out / "m")]) == 0
        assert cli.main(["measure", "--constellation", str(e), "--out", str(out / "x")]) == 0
        assert cli.main(["scan", "dev", "--system", "bernoulli", "--events", str(z),
                         "--h", "40", "--epsilon", "0.05", "--out", str(out / "b")]) == 0
        assert cli.main(["scan", "dev", "--system", "rankone", "--h", "50", "--epsilon", "0.1",
                         "--out", str(out / "w")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["algebraic.torus_cells"] == 81 + 441
    assert tracer.counts["algebraic.mc_samples"] == 1000
    assert tracer.counts["algebraic.window_gens"] == _window_masks(LEDRAPPIER_PATTERN, sites)[1]
    written = [p for p in out.rglob("*") if p.is_file()]
    assert {p.name for p in written if p.suffix == ".svg"} == {"grid.svg", "dev_heatmap.svg"}
    assert tracer.counts["svg.bytes"] == sum(p.stat().st_size for p in written
                                             if p.suffix == ".svg")
    assert tracer.counts["cli.write_bytes"] == sum(p.stat().st_size for p in written)


def test_sweep_labels_each_sample_once(monkeypatch, tmp_path):
    # The cluster_cells observer reads clusters' argument 0 (the grid).  A
    # sweep labels one grid per distinct coefficient vector of a size, so
    # size 11 (dimension 0) is labelled once, size 21 (dimension 4) repeats
    # a vector, and sizes 9 and 31 label each of their samples.
    tracing = _tracing(monkeypatch)
    sizes, samples = (9, 11, 21, 31), 3
    distinct = {n: len({random_bits(substream(mix(0, "sweep", n, s), "config"),
                                    torus_kernel(LEDRAPPIER_PATTERN, n, n).dim)
                        for s in range(samples)}) for n in sizes}
    assert distinct == {9: 3, 11: 1, 21: 2, 31: 3}
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        assert cli.main(["percolate", "--sizes", ",".join(map(str, sizes)),
                         "--samples", str(samples), "--out", str(tmp_path / "p")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.counts["percolation.cluster_cells"] == sum(d * n * n for n, d in distinct.items())
    assert sum(span.name == "percolation.clusters" for span in tracer.spans) == \
        sum(distinct.values())
