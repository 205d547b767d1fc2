"""Per-layer metrics of the traced run and the layer map behind them.

Each metric is derived from the spans and counters of ``tracing.Tracer`` and
reported per completed job, so runs of different length compare directly.
Every row also says which end-to-end metric the layer metric should move,
on which workload, and where it should stay unchanged; that map is what a
performance change states before it is measured.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from tracing import Span, layer_of, self_times


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str            # end-to-end metric(s) it should move
    on: str               # workload where it should move
    unchanged_on: str     # workloads where it should not


# How each metric is computed, keyed by metric name:
#   ("self", span)   self time of the named spans, ms per job
#   ("layer", layer) self time of every span of the layer, ms per job
#   ("calls", span)  calls per job (spans, or a count-only wrapper)
#   ("count", key)   counter total per job
#   ("ratio", num, den) spans named num under a den span, per den span
#   ("errors", span, exc) share of the named spans that raised exc
_ROWS = [
    # gf2 (L0)
    ("gf2.self_ms", "ms/job", ("layer", "gf2"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    ("gf2.solve_affine.calls", "calls/job", ("calls", "gf2.solve_affine"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    ("gf2.rank.calls", "calls/job", ("calls", "gf2.rank"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    ("gf2.nullspace.calls", "calls/job", ("calls", "gf2.nullspace"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    ("gf2.mat_pow.calls", "calls/job", ("calls", "gf2.mat_pow"), "jobs_per_s, job_ms_p90", "torus-lattice", "word-stats"),
    ("gf2.elim_cols", "cols/job", ("count", "gf2.elim_cols"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    ("gf2.elims_per_measure", "ratio", ("ratio", "gf2._rref", "algebraic.cylinder_measure"), "jobs_per_s, job_ms_p90", "plane-exact", "word-stats"),
    # algebraic: window method and exact oracle (L1/L2)
    ("algebraic.window.self_ms", "ms/job", ("layer", "algebraic.window"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic._window_masks.self_ms", "ms/job", ("self", "algebraic._window_masks"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic._window_masks.calls", "calls/job", ("calls", "algebraic._window_masks"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic.window_gens", "gens/job", ("count", "algebraic.window_gens"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic.window_miss_ratio", "ratio", ("errors", "algebraic._window_masks", "WindowCapError"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic.cylinder_measure.calls", "calls/job", ("calls", "algebraic.cylinder_measure"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic.cylinder_measure.self_ms", "ms/job", ("self", "algebraic.cylinder_measure"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    ("algebraic.relation_space.calls", "calls/job", ("calls", "algebraic.relation_space"), "job_ms_p90, job_ms_p50", "plane-exact", "word-stats, joining-calculus"),
    # algebraic: torus kernels (L1/L2)
    ("algebraic.torus.self_ms", "ms/job", ("layer", "algebraic.torus"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.torus_kernel.calls", "calls/job", ("calls", "algebraic.torus_kernel"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.torus_kernel.self_ms", "ms/job", ("self", "algebraic.torus_kernel"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.torus_cells", "cells/job", ("count", "algebraic.torus_cells"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.torus_tries_per_pick", "ratio", ("ratio", "algebraic.torus_kernel", "algebraic.default_torus_for"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.sample_configuration.self_ms", "ms/job", ("self", "algebraic.sample_configuration"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.mc_cylinder_measure.self_ms", "ms/job", ("self", "algebraic.mc_cylinder_measure"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.mc_samples", "samples/job", ("count", "algebraic.mc_samples"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    ("algebraic.grid_satisfies_pattern.self_ms", "ms/job", ("self", "algebraic.grid_satisfies_pattern"), "job_ms_p90, jobs_per_s", "torus-lattice", "plane-exact, word-stats"),
    # correlations (L3)
    ("correlations.self_ms", "ms/job", ("layer", "correlations"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    ("correlations.mix_defect_scan.self_ms", "ms/job", ("self", "correlations.mix_defect_scan"), "jobs_per_s, job_ms_p50", "plane-exact", "torus-lattice"),
    ("correlations.mix_tuples", "tuples/job", ("count", "correlations.mix_tuples"), "jobs_per_s, job_ms_p50", "plane-exact", "torus-lattice"),
    ("correlations.certificates", "calls/job", ("calls", "algebraic.LedrappierOracle.relation_certificate"), "jobs_per_s, job_ms_p50", "plane-exact", "torus-lattice"),
    ("correlations.dev_scan.self_ms", "ms/job", ("self", "correlations.dev_scan"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    ("correlations.dev_pairs", "pairs/job", ("count", "correlations.dev_pairs"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    ("correlations.kfold_correlation.calls", "calls/job", ("calls", "correlations.kfold_correlation"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    ("correlations.scan_rows_to_csv.self_ms", "ms/job", ("self", "correlations.scan_rows_to_csv"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    ("correlations.dev_heatmap_svg.self_ms", "ms/job", ("self", "correlations.dev_heatmap_svg"), "jobs_per_s, job_ms_p50", "word-stats", "torus-lattice"),
    # rankone (L1/L2)
    ("rankone.self_ms", "ms/job", ("layer", "rankone"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.generate_word.self_ms", "ms/job", ("self", "rankone.generate_word"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.word_symbols", "symbols/job", ("count", "rankone.word_symbols"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.correlation_grid.self_ms", "ms/job", ("self", "rankone.WordOracle.correlation_grid"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.grid_symbol_pairs", "pair-syms/job", ("count", "rankone.grid_symbol_pairs"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.event_measure.self_ms", "ms/job", ("self", "rankone.WordOracle.event_measure"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    ("rankone.to_rle_json.self_ms", "ms/job", ("self", "rankone.SymbolicWord.to_rle_json"), "job_ms_p90, jobs_per_s", "word-stats", "plane-exact, torus-lattice, joining-calculus"),
    # percolation (L3)
    ("percolation.self_ms", "ms/job", ("layer", "percolation"), "job_ms_p50", "torus-lattice", "plane-exact, word-stats, joining-calculus"),
    ("percolation.percolation_sweep.self_ms", "ms/job", ("self", "percolation.percolation_sweep"), "job_ms_p50", "torus-lattice", "plane-exact, word-stats, joining-calculus"),
    ("percolation.clusters.calls", "calls/job", ("calls", "percolation.clusters"), "job_ms_p50", "torus-lattice", "plane-exact, word-stats, joining-calculus"),
    ("percolation.clusters.self_ms", "ms/job", ("self", "percolation.clusters"), "job_ms_p50", "torus-lattice", "plane-exact, word-stats, joining-calculus"),
    ("percolation.cluster_cells", "cells/job", ("count", "percolation.cluster_cells"), "job_ms_p50", "torus-lattice", "plane-exact, word-stats, joining-calculus"),
    # joinings (L3)
    ("joinings.self_ms", "ms/job", ("layer", "joinings"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.limit_joining.self_ms", "ms/job", ("self", "joinings.limit_joining"), "jobs_per_s, job_ms_p90", "plane-exact", "torus-lattice, word-stats"),
    ("joinings.members_per_limit", "ratio", ("ratio", "joinings.JoiningTensor.__post_init__", "joinings.limit_joining"), "jobs_per_s, job_ms_p90", "plane-exact", "torus-lattice, word-stats"),
    ("joinings.classify.self_ms", "ms/job", ("self", "joinings.classify"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.marginal.calls", "calls/job", ("calls", "joinings.marginal"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.marginal.self_ms", "ms/job", ("self", "joinings.marginal"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.lower_order.self_ms", "ms/job", ("self", "joinings.lower_order"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.raise_order.self_ms", "ms/job", ("self", "joinings.raise_order"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.pair_compose.self_ms", "ms/job", ("self", "joinings.pair_compose"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.chain_check.self_ms", "ms/job", ("self", "joinings.chain_check"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.tensor_validate_ms", "ms/job", ("self", "joinings.JoiningTensor.__post_init__"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    ("joinings.tensor_entries", "entries/job", ("count", "joinings.tensor_entries"), "jobs_per_s, job_ms_p90", "joining-calculus", "torus-lattice, word-stats"),
    # svg
    ("svg.self_ms", "ms/job", ("layer", "svg"), "job_ms_p50", "torus-lattice, word-stats", "joining-calculus"),
    ("svg.bytes", "bytes/job", ("count", "svg.bytes"), "job_ms_p50", "torus-lattice, word-stats", "joining-calculus"),
    # cli (L4)
    ("cli.self_ms", "ms/job", ("layer", "cli"), "job_ms_p50", "plane-exact", "none; every job pays it"),
    ("cli.build_parser.self_ms", "ms/job", ("self", "cli.build_parser"), "job_ms_p50", "plane-exact", "none; every job pays it"),
    ("cli.write_ms", "ms/job", ("self", "cli._write_text"), "job_ms_p50", "plane-exact", "none; every job pays it"),
    ("cli.write_bytes", "bytes/job", ("count", "cli.write_bytes"), "job_ms_p50", "plane-exact", "none; every job pays it"),
    ("cli.files_written", "files/job", ("calls", "cli._write_text"), "job_ms_p50", "plane-exact", "none; every job pays it"),
]

# Every row measures time or work, so lower is better throughout.
METRICS = [LayerMetric(name, unit, "lower", moves, on, unchanged)
           for name, unit, _, moves, on, unchanged in _ROWS]
_SOURCES = {name: source for name, _, source, *_ in _ROWS}

# Reported by every traced run next to the layer metrics.
OVERHEAD_METRICS = [
    LayerMetric("trace.jobs_per_s_untraced", "jobs/s", "higher", "jobs_per_s", "all", "-"),
    LayerMetric("trace.jobs_per_s_traced", "jobs/s", "higher", "jobs_per_s", "all", "-"),
    LayerMetric("trace.overhead_pct", "%", "lower", "-", "all", "-"),
]


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def derive(spans: list[Span], counts: Counter, jobs: int) -> dict[str, float]:
    """Every layer metric from one traced run of `jobs` jobs."""
    own = self_times(spans)
    self_ms: dict[str, float] = defaultdict(float)
    layer_ms: dict[str, float] = defaultdict(float)
    calls: Counter = Counter(counts)
    for s in spans:
        self_ms[s.name] += own[s.id] * 1e3
        layer_ms[layer_of(s.name)] += own[s.id] * 1e3
        calls[s.name + ".calls"] += 1
    by_id = {s.id: s for s in spans}
    per_job = 1.0 / max(jobs, 1)
    out: dict[str, float] = {}
    for name, source in _SOURCES.items():
        kind, arg = source[0], source[1]
        if kind == "self":
            value = self_ms[arg] * per_job
        elif kind == "layer":
            value = layer_ms[arg] * per_job
        elif kind == "calls":
            value = calls[arg + ".calls"] * per_job
        elif kind == "count":
            value = counts[arg] * per_job
        elif kind == "ratio":
            den = calls[source[2] + ".calls"]
            num = sum(1 for s in spans if s.name == arg and _has_ancestor(s, source[2], by_id))
            value = num / den if den else 0.0
        elif kind == "errors":
            named = [s for s in spans if s.name == arg]
            value = sum(s.error == source[2] for s in named) / len(named) if named else 0.0
        else:
            raise ValueError(f"unknown metric source {source!r}")
        out[name] = value
    return out


def layer_breakdown(spans: list[Span], key=layer_of) -> dict[str, float]:
    """Self time in ms per layer (or per `key` of span name) over the whole run."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[key(s.name)] += own[s.id] * 1e3
    return dict(out)
