"""Every public function, class and method in `src/mixlab` is used there,
and every function the benchmark's tracer wraps by name exists.

A name counts as used when `src/mixlab` mentions it as a name, as an
attribute, or as an identifier-shaped string (as in `getattr(oracle,
"correlation_grid")`).  Test-only helpers belong in `tests/conftest.py`.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mixlab"

ALLOWED = {
    "main": "console-script entry point, called from outside the package",
    "solve_affine": "wrapped by name by the benchmark's tracer",
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


def test_tracer_targets_resolve(monkeypatch):
    # mixbench/tracing.py rebinds each target by module and name; a renamed
    # target would only fail a traced benchmark run.
    spec = importlib.util.spec_from_file_location("mixbench_tracing",
                                                  ROOT / "mixbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = []
    for target in tracing.TARGETS:
        module = importlib.import_module(target.module)
        cls_name, _, attr = target.attr.rpartition(".")
        found = (attr in vars(getattr(module, cls_name, object)) if cls_name
                 else callable(getattr(module, attr, None)))
        if not found:
            missing.append(target.name)
    assert tracing.TARGETS and missing == []
