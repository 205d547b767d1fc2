"""Seeded job lists for the mixlab benchmark workloads.

A job is one real ``mixlab`` command line plus the input files it reads,
all with paths relative to a fresh working directory.  Each workload owns a
fixed pool of jobs; ``reference.json`` holds the expected digest of every
pool job.  A run with seed ``s`` walks the pool in stratified rounds: every
job kind is cut into bands by the quantile of its main size parameter, and
each round takes one not-yet-used job from every band in a seed-dependent
order.  Every round therefore carries the same spread of sizes, and any
``ROUNDS_PER_POOL`` consecutive rounds run every pool job exactly once: a
pass.  The seed sets the order of the jobs; a run timed over whole passes
measures the same jobs for every seed, which keeps throughput and
percentiles steady across seeds.

Sizes are drawn from continuous ranges inside each band, so percentiles do
not sit on a cliff between job kinds.  Generators emit only inputs the CLI
accepts: windows stay under the 512x512 cap, rank-one specs get enough
stages for the requested word length, and ``--workers`` is never passed.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

# Rounds a run can take before it cycles back to jobs it already ran.
ROUNDS_PER_POOL = 16


@dataclass(frozen=True)
class Job:
    index: int
    kind: str
    argv: tuple[str, ...]
    inputs: dict  # file name -> text, written into the job's working directory

    def key(self) -> str:
        return f"{self.index:05d}"


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def _band(q_lo: float, q_hi: float, rng: random.Random, lo: float, hi: float) -> float:
    """A value from [lo, hi] at a uniform quantile inside [q_lo, q_hi)."""
    return lo + (q_lo + (q_hi - q_lo) * rng.random()) * (hi - lo)


# ---------------------------------------------------------------------------
# plane-exact: exact GF(2) window measures on the Ledrappier plane system

def _mix_random(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    box = round(_band(*q, rng, 16, 192))
    return ["scan", "mix", "--order", str(rng.randint(2, 4)), "--family", "random",
            "--box", str(box), "--budget", str(rng.randint(3, 8)),
            "--seed", str(rng.getrandbits(32)), "--out", "out"], {}


def _measure_exact(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    box = round(_band(*q, rng, 8, 200))
    n = rng.randint(2, 6)
    sites: set[tuple[int, int]] = set()
    while len(sites) < n:
        sites.add((rng.randint(0, box), rng.randint(0, box)))
    ordered = sorted(sites)
    rng.shuffle(ordered)
    constellation = {"sites": [list(s) for s in ordered],
                     "bits": [rng.randint(0, 1) for _ in ordered]}
    return ["measure", "--constellation", "c.json", "--out", "out"], \
        {"c.json": _dump(constellation)}


def _mix_dyadic(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    # Scales past 2^8 exceed the window cap and take the dyadic rescaling.
    lo = min(7, int(_band(*q, rng, 1, 8)))
    hi = rng.randint(9, 14)
    return ["scan", "mix", "--family", "dyadic", "--order", "4",
            "--scales", f"{lo}:{hi}", "--out", "out"], {}


def _joining_parity(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    lo = min(11, int(_band(*q, rng, 8, 12)))
    hi = lo + rng.randint(3, 5)
    return ["joining", "--scales", f"{lo}:{hi}", "--out", "out"], {}


# ---------------------------------------------------------------------------
# torus-lattice: finite-torus kernels, sampling, clusters, Monte Carlo

def _render(rng: random.Random, q: tuple[float, float], clusters: bool = False) -> tuple[list, dict]:
    size = 2 * round(_band(*q, rng, 8, 32)) + 1  # odd sizes 17..65
    formats = rng.sample(["svg", "pbm", "json"], rng.randint(1, 3))
    if clusters and "svg" not in formats:
        formats.append("svg")
    argv = ["render", "--size", str(size), "--format", ",".join(formats),
            "--connectivity", rng.choice(["4", "8"]), "--bit", rng.choice(["0", "1"]),
            "--seed", str(rng.getrandbits(32)), "--out", "out"]
    if clusters:
        argv.append("--clusters")
    return argv, {}


def _render_clusters(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    return _render(rng, q, clusters=True)


def _percolate(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    big = round(_band(*q, rng, 9, 49))
    small = rng.randint(9, big)
    sizes = sorted({small, big})
    return ["percolate", "--sizes", ",".join(map(str, sizes)),
            "--samples", str(rng.randint(2, 6)),
            "--connectivity", rng.choice(["4", "8"]),
            "--seed", str(rng.getrandbits(32)), "--out", "out"], {}


def _measure_mc(rng: random.Random, q: tuple[float, float],
                pick_torus: bool = False) -> tuple[list, dict]:
    samples = round(_band(*q, rng, 20_000, 100_000))
    n = rng.randint(2, 5)
    sites: set[tuple[int, int]] = set()
    while len(sites) < n:
        sites.add((rng.randint(-6, 6), rng.randint(-6, 6)))
    ordered = sorted(sites)
    rng.shuffle(ordered)
    constellation = {"sites": [list(s) for s in ordered],
                     "bits": [rng.randint(0, 1) for _ in ordered]}
    argv = ["measure", "--mc", "--constellation", "c.json",
            "--samples", str(samples), "--seed", str(rng.getrandbits(32)), "--out", "out"]
    if not pick_torus:
        argv[2:2] = ["--torus", str(rng.randint(21, 45))]
    return argv, {"c.json": _dump(constellation)}


def _measure_mc_pick(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    """Monte Carlo on the torus that default_torus_for picks."""
    return _measure_mc(rng, q, pick_torus=True)


# ---------------------------------------------------------------------------
# word-stats: rank-one words and deviation scans, no GF(2) work

# Stages that let each preset reach 100,000 symbols or more.
_RANKONE_STAGES = {"staircase": 10, "chacon": 12, "single_spacer": 17}


def _spec_args(rng: random.Random) -> list:
    spec = rng.choice(sorted(_RANKONE_STAGES))
    return ["--spec", spec, "--stages", str(_RANKONE_STAGES[spec] + rng.randint(0, 2)),
            "--stage", str(rng.randint(1, 3))]


def _epsilon(rng: random.Random) -> str:
    return f"{rng.uniform(0.05, 0.2):.3f}"


def _dev_rankone(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    h = round(_band(*q, rng, 40, 120))
    return ["scan", "dev", "--system", "rankone", *_spec_args(rng),
            "--h", str(h), "--epsilon", _epsilon(rng),
            "--word-length", str(rng.randint(20_000, 100_000)),
            "--seed", str(rng.getrandbits(32)), "--out", "out"], {}


def _rankone_word(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    length = round(_band(*q, rng, 10_000, 30_000))
    return ["rankone", *_spec_args(rng), "--word-length", str(length), "--out", "out"], {}


def _dev_bernoulli(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    h = round(_band(*q, rng, 40, 120))
    events = []
    for _ in range(3):
        sites = rng.sample(range(6), rng.randint(1, 3))
        events.append({"sites": sites, "bits": [rng.randint(0, 1) for _ in sites]})
    return ["scan", "dev", "--system", "bernoulli", "--events", "e.json",
            "--h", str(h), "--epsilon", _epsilon(rng),
            "--seed", str(rng.getrandbits(32)), "--out", "out"], \
        {"e.json": _dump({"events": events})}


# ---------------------------------------------------------------------------
# joining-calculus: exact Fraction tensor arithmetic

# (cells, order) of the group-sum tensors, roughly from cheap to expensive.
_TENSOR_SHAPES = [(2, 4), (2, 5), (3, 4), (2, 6), (4, 4), (2, 7), (3, 5)]


def _group_sum_json(rng: random.Random, d: int, order: int) -> str:
    """nu(i_1..i_k) = q[(i_1+...+i_k) mod d] / d^(k-1) for a random q."""
    weights = [rng.randint(1, 12) for _ in range(d)]
    total = sum(weights)
    q = [Fraction(w, total) for w in weights]
    denom = d ** (order - 1)
    entries = [str(q[sum(idx) % d] / denom)
               for idx in itertools.product(range(d), repeat=order)]
    return _dump({"order": order, "dims": d, "exact": True,
                  "weights": [str(Fraction(1, d))] * d, "entries": entries})


def _joining_lower(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    d, order = _TENSOR_SHAPES[min(len(_TENSOR_SHAPES) - 1,
                                  int(_band(*q, rng, 0, len(_TENSOR_SHAPES))))]
    return ["joining", "--tensor", "t.json", "--lower", "--out", "out"], \
        {"t.json": _group_sum_json(rng, d, order)}


def _joining_chain(rng: random.Random, q: tuple[float, float]) -> tuple[list, dict]:
    order = min(7, int(_band(*q, rng, 3, 8)))
    argv = ["joining", "--tensor", "t.json", "--chain", "--raise", "--out", "out"]
    if order >= 4 and rng.random() < 0.5:
        argv.insert(-2, "--lower")
    return argv, {"t.json": _group_sum_json(rng, 2, order)}


Generator = Callable[[random.Random, tuple[float, float]], tuple[list, dict]]

# workload -> [(kind, generator, jobs of this kind per round)]
WORKLOADS: dict[str, list[tuple[str, Generator, int]]] = {
    "plane-exact": [
        ("mix-random", _mix_random, 4),
        ("measure-exact", _measure_exact, 2),
        ("mix-dyadic", _mix_dyadic, 1),
        ("joining-parity", _joining_parity, 1),
    ],
    "torus-lattice": [
        ("render", _render, 1),
        ("render-clusters", _render_clusters, 1),
        ("percolate", _percolate, 2),
        ("measure-mc", _measure_mc, 1),
        ("measure-mc-pick", _measure_mc_pick, 1),
    ],
    "word-stats": [
        ("dev-rankone", _dev_rankone, 2),
        ("rankone", _rankone_word, 1),
        ("dev-bernoulli", _dev_bernoulli, 2),
    ],
    "joining-calculus": [
        ("joining-lower", _joining_lower, 4),
        ("joining-chain", _joining_chain, 1),
    ],
}


def pool(workload: str) -> tuple[list[Job], list[list[int]]]:
    """Every job of the workload and its bands (lists of job indices).

    The pool depends only on the workload name, so reference digests can be
    recorded once for all seeds.
    """
    jobs: list[Job] = []
    bands: list[list[int]] = []
    for kind, gen, per_round in WORKLOADS[workload]:
        for b in range(per_round):
            q = (b / per_round, (b + 1) / per_round)
            # Members of a band split its quantile range evenly too.
            width = (q[1] - q[0]) / ROUNDS_PER_POOL
            band = []
            for m in range(ROUNDS_PER_POOL):
                sub = (q[0] + m * width, q[0] + (m + 1) * width)
                rng = random.Random(f"mixbench/{workload}/{kind}/{b}/{m}")
                argv, inputs = gen(rng, sub)
                band.append(len(jobs))
                jobs.append(Job(len(jobs), kind, tuple(argv), inputs))
            bands.append(band)
    return jobs, bands


def job_sequence(workload: str, seed: int) -> Iterator[Job]:
    """Endless closed-loop job order for one seed: stratified rounds."""
    jobs, bands = pool(workload)
    rng = random.Random(f"mixbench/{workload}/seed/{seed}")
    orders = [rng.sample(band, len(band)) for band in bands]
    for r in itertools.count():
        batch = [order[r % len(order)] for order in orders]
        rng.shuffle(batch)
        for i in batch:
            yield jobs[i]
