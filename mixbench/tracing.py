"""Span tracing of mixlab layer boundaries, installed from outside.

``Tracer.install`` rebinds every listed function in each ``mixlab`` module
namespace that holds it (and on the owning class for methods) to a wrapper
that records a span: name, start, end, parent span and job id.  Spans stay
in memory until the run ends.  ``uninstall`` puts every original object
back.  With tracing off nothing is installed, so untraced runs execute the
program exactly as shipped.

Spans opened in a worker thread whose own stack is empty take the main
thread's innermost open span as parent, so work that ``percolation_sweep``
hands to its thread pool is charged to it.  Parallel children can overlap;
self time subtracts the union of the child intervals.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable, Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    job: Optional[str]
    error: str = ""


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(s.id, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out


# An observer turns a call's arguments and result into counter increments.
Observer = Callable[[Counter, tuple, dict, object], None]


@dataclass(frozen=True)
class Target:
    module: str          # e.g. "mixlab.gf2"
    attr: str            # "solve_affine" or "WordOracle.correlation_grid"
    span: bool = True    # False: count calls only, no span
    observe: Optional[Observer] = None

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('mixlab.')}.{self.attr}"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._count_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name, observe, counts, lock = target.name, target.observe, self.counts, self._count_lock

        if not target.span:
            @functools.wraps(fn)
            def counting(*args, **kwargs):
                result = fn(*args, **kwargs)
                with lock:
                    counts[name + ".calls"] += 1
                    if observe:
                        observe(counts, args, kwargs, result)
                return result
            return counting

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                main = self._main_stack
                parent = main[-1] if main else None
            sid = next(self._ids)
            stack.append(sid)
            error = ""
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.job, error))
            if observe:
                with lock:  # percolation_sweep calls clusters from pool threads
                    observe(counts, args, kwargs, result)
            return result
        return traced

    def install(self, targets: Iterable[Target]) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "mixlab" or n.startswith("mixlab."))]
        for target in targets:
            owner = sys.modules[target.module]
            cls_name, _, attr = target.attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original, self._wrap(target, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(target, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner: object, attr: str, original: object, wrapper: object) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# What the benchmark traces

def _add(key: str, value: Callable[[tuple, dict, object], float]) -> Observer:
    def observe(counts: Counter, args: tuple, kwargs: dict, result: object) -> None:
        counts[key] += value(args, kwargs, result)
    return observe


TARGETS = [
    # L0 elimination
    Target("mixlab.gf2", "_rref", observe=_add("gf2.elim_cols", lambda a, k, r: a[1])),
    Target("mixlab.gf2", "solve_affine"),
    Target("mixlab.gf2", "rank"),
    Target("mixlab.gf2", "nullspace"),
    Target("mixlab.gf2", "mat_pow"),
    # L1/L2 window method and exact oracle
    Target("mixlab.algebraic", "_window_masks",
           observe=_add("algebraic.window_gens", lambda a, k, r: r[1])),
    Target("mixlab.algebraic", "cylinder_measure"),
    Target("mixlab.algebraic", "relation_space"),
    Target("mixlab.algebraic", "LedrappierOracle.relation_certificate", span=False),
    # L1/L2 torus kernels, sampling and Monte Carlo
    Target("mixlab.algebraic", "torus_kernel",
           observe=_add("algebraic.torus_cells", lambda a, k, r: a[1] * a[2])),
    Target("mixlab.algebraic", "default_torus_for"),
    Target("mixlab.algebraic", "sample_configuration"),
    Target("mixlab.algebraic", "mc_cylinder_measure",
           observe=_add("algebraic.mc_samples", lambda a, k, r: a[2])),
    Target("mixlab.algebraic", "grid_satisfies_pattern"),
    # L3 scans
    Target("mixlab.correlations", "mix_defect_scan",
           observe=_add("correlations.mix_tuples", lambda a, k, r: r.scanned)),
    Target("mixlab.correlations", "dev_scan",
           observe=_add("correlations.dev_pairs", lambda a, k, r: r.q_size)),
    Target("mixlab.correlations", "kfold_correlation", span=False),
    Target("mixlab.correlations", "scan_rows_to_csv"),
    Target("mixlab.correlations", "mix_rows_to_csv"),
    Target("mixlab.correlations", "dev_heatmap_svg"),
    # rank-one words
    Target("mixlab.rankone", "generate_word",
           observe=_add("rankone.word_symbols", lambda a, k, r: r.length)),
    Target("mixlab.rankone", "WordOracle.correlation_grid",
           observe=_add("rankone.grid_symbol_pairs",
                        lambda a, k, r: len(a[2]) * a[0].word.length)),
    Target("mixlab.rankone", "WordOracle.event_measure"),
    Target("mixlab.rankone", "SymbolicWord.to_rle_json"),
    # L3 percolation
    Target("mixlab.percolation", "percolation_sweep"),
    Target("mixlab.percolation", "clusters",
           observe=_add("percolation.cluster_cells", lambda a, k, r: a[0].size)),
    # L3 joining calculus
    Target("mixlab.joinings", "limit_joining"),
    Target("mixlab.joinings", "classify"),
    Target("mixlab.joinings", "marginal"),
    Target("mixlab.joinings", "lower_order"),
    Target("mixlab.joinings", "raise_order"),
    Target("mixlab.joinings", "pair_compose"),
    Target("mixlab.joinings", "chain_check"),
    Target("mixlab.joinings", "JoiningTensor.__post_init__",
           observe=_add("joinings.tensor_entries", lambda a, k, r: len(a[0].entries))),
    # SVG output
    Target("mixlab.svg", "grid_svg", observe=_add("svg.bytes", lambda a, k, r: len(r))),
    Target("mixlab.svg", "cluster_svg", observe=_add("svg.bytes", lambda a, k, r: len(r))),
    Target("mixlab.svg", "heatmap_svg", observe=_add("svg.bytes", lambda a, k, r: len(r))),
    # L4 command line
    Target("mixlab.cli", "main"),
    Target("mixlab.cli", "build_parser"),
    Target("mixlab.cli", "_write_text",
           observe=_add("cli.write_bytes", lambda a, k, r: len(a[2].encode("utf-8")))),
]


def layer_of(span_name: str) -> str:
    """Layer of a span: module name, with algebraic split into window/torus."""
    module, _, func = span_name.partition(".")
    if module == "algebraic":
        window = {"_window_masks", "cylinder_measure", "relation_space"}
        return "algebraic.window" if func in window else "algebraic.torus"
    return module
