"""Algebraic systems: exact measures vs enumeration, kernels, sampling."""

import functools
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mixlab import algebraic, cli, gf2
from mixlab.algebraic import (
    BernoulliOracle,
    CylinderConstraint,
    LEDRAPPIER_PATTERN,
    MAX_MC_SAMPLES,
    LedrappierOracle,
    RelationPattern,
    TorusKernel,
    bernoulli_cylinder_measure,
    cylinder_measure,
    default_torus_for,
    grid_satisfies_pattern,
    grid_to_json,
    grid_to_pbm,
    mc_cylinder_measure,
    relation_space,
    sample_configuration,
    site_add,
    torus_kernel,
    _frobenius,
    _mc_draw,
    _normal_form,
    _relations,
    _u_power,
    _window_masks,
    _window_value,
)
from mixlab.correlations import ledrappier_dyadic_shifts, random_separated_shifts
from mixlab.joinings import JoiningTensor, classify
from mixlab.measure import MeasureValue
from mixlab.rng import substream

from conftest import (
    enumeration_measure,
    enumeration_relations,
    grid_from_json,
    grid_from_pbm,
    kernel_dimension_bruteforce,
    merge_events,
    merge_site_bits,
    reference_default_torus,
    reference_elimination_torus_basis,
    reference_frobenius,
    reference_grid_to_json,
    reference_grid_to_pbm,
    reference_joining_member,
    reference_mc_hits,
    reference_peel,
    reference_square_free,
    reference_torus_basis,
    reference_transfer,
    reference_u_power,
    reference_window_masks,
    transpose,
)

SYS = LEDRAPPIER_PATTERN
FIVE = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))


class TestCylinderMeasure:
    def test_single_site(self):
        assert cylinder_measure(SYS, CylinderConstraint(((0, 0),), (0,))).exact == Fraction(1, 2)

    def test_five_point_all_zero(self):
        mv = cylinder_measure(SYS, CylinderConstraint(FIVE, (0,) * 5))
        assert mv.exact == Fraction(1, 16)

    def test_five_point_violation(self):
        mv = cylinder_measure(SYS, CylinderConstraint(FIVE, (1, 0, 0, 0, 0)))
        assert mv.exact == 0

    def test_five_point_matches_enumeration(self, ledrappier_support):
        # independent oracle: raw enumeration of window configurations
        sites = list(FIVE)
        for bits in [(0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0)]:
            expected = enumeration_measure(ledrappier_support, sites, bits)
            got = cylinder_measure(SYS, CylinderConstraint(FIVE, bits)).exact
            assert got == expected

    def test_dyadic_reduction_matches_window(self):
        # scales 2^k for k <= 7 run through the window path; compare against
        # the reduction applied by hand
        for k in range(1, 8):
            s = 1 << k
            sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
            mv = cylinder_measure(SYS, CylinderConstraint(sites, (0,) * 5))
            assert mv.exact == Fraction(1, 16)
            assert mv.meta["method"] == "window"

    def test_non_dyadic_scale_3_to_9_exact(self):
        s = 3 ** 9
        sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
        assert relation_space(SYS, sites) == []  # rank 5
        mv = cylinder_measure(SYS, CylinderConstraint(sites, (0,) * 5))
        assert mv.exact == Fraction(1, 32)
        assert mv.meta == {"method": "window"}

    def test_scale_10_to_5_exact(self):
        s = 10 ** 5
        sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
        for bits in [(0,) * 5, (1, 0, 0, 0, 0)]:
            mv = cylinder_measure(SYS, CylinderConstraint(sites, bits))
            assert mv.exact is not None and mv.exact == Fraction(1, 32)

    def test_scale_2_to_20_single_relation(self):
        s = 1 << 20
        sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
        assert relation_space(SYS, sites) == [0b11111]
        assert cylinder_measure(SYS, CylinderConstraint(sites, (1, 0, 0, 0, 0))).exact == 0

    def test_extent_past_generator_cap_refused(self):
        s = 1 << 40
        sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
        with pytest.raises(ValueError, match="generator cells"):
            cylinder_measure(SYS, CylinderConstraint(sites, (0,) * 5))

    @pytest.mark.parametrize("s", [2, 256, 512, 4096])
    def test_squared_pattern_has_no_dyadic_relation(self, s):
        # (1+x+y)^2 = 1+x^2+y^2 replicates at every scale s = 2^k, k >= 1, so
        # the three sites carry one relation.  Rescaling them to (0,0), (1,0),
        # (0,1), where they are free (1/8), is valid only for square-free
        # patterns.
        pattern = RelationPattern(frozenset({(0, 0), (2, 0), (0, 2)}))
        mv = cylinder_measure(pattern, CylinderConstraint(((0, 0), (s, 0), (0, s)), (0, 0, 0)))
        assert mv.exact == Fraction(1, 4)

    def test_empty_constraint_has_full_measure(self):
        assert cylinder_measure(SYS, CylinderConstraint((), ())).exact == 1

    def test_exact_values_are_shared_fractions(self):
        # of_exact keeps a Fraction as it is; ints still become Fractions.
        f = Fraction(3, 8)
        assert MeasureValue.of_exact(f).exact is f
        assert type(MeasureValue.of_exact(1).exact) is Fraction
        # One Fraction per exponent serves every measure.
        c = CylinderConstraint(((0, 0), (5, 3)), (0, 1))
        a, b = cylinder_measure(SYS, c), cylinder_measure(SYS, c)
        assert a.exact == Fraction(1, 4) and a.exact is b.exact

    def test_window_values_are_shared_per_rank(self):
        # 0..300 passes the lru size, so evicted ranks are built again.
        for r in range(301):
            mv = _window_value(r)
            assert mv == MeasureValue.of_exact(Fraction(1, 2 ** r), method="window")
            assert mv.meta == {"method": "window"}
            assert _window_value(r) is mv
        c = CylinderConstraint(((0, 0), (5, 3)), (0, 1))
        assert cylinder_measure(SYS, c) is _window_value(2)
        zero = cylinder_measure(SYS, CylinderConstraint(FIVE, (1, 0, 0, 0, 0)))
        assert zero == MeasureValue.of_exact(0, method="window")
        assert zero.meta == {"method": "window"}
        assert cylinder_measure(SYS, CylinderConstraint(FIVE, (0, 1, 0, 0, 0))) is zero

    def test_contradiction_value_is_shared(self):
        oracle = LedrappierOracle()
        a = CylinderConstraint(((0, 0),), (0,))
        b = CylinderConstraint(((0, 0),), (1,))
        mv = oracle.intersection_measure(((0, 0), (0, 0)), (a, b))
        assert mv == MeasureValue.of_exact(0, contradiction=True)
        assert mv.meta == {"contradiction": True}
        assert oracle.intersection_measure(((3, 1), (3, 1)), (b, a)) is mv
        with pytest.raises(TypeError):
            mv.meta["contradiction"] = False

    def test_shift_invariance(self):
        gen = substream(11, "shift")
        for _ in range(10):
            sites = set()
            while len(sites) < 4:
                sites.add((int(gen.integers(-10, 11)), int(gen.integers(-10, 11))))
            sites = tuple(sorted(sites))
            bits = tuple(int(b) for b in gen.integers(0, 2, size=4))
            base = cylinder_measure(SYS, CylinderConstraint(sites, bits)).exact
            dv = (int(gen.integers(-50, 51)), int(gen.integers(-50, 51)))
            moved = CylinderConstraint(tuple((i + dv[0], j + dv[1]) for i, j in sites), bits)
            assert cylinder_measure(SYS, moved).exact == base

    def test_monotone_under_refinement(self):
        gen = substream(12, "monotone")
        for _ in range(10):
            sites = []
            while len(sites) < 5:
                cand = (int(gen.integers(-8, 9)), int(gen.integers(-8, 9)))
                if cand not in sites:
                    sites.append(cand)
            bits = [int(b) for b in gen.integers(0, 2, size=5)]
            prev = Fraction(1)
            for k in range(1, 6):
                mv = cylinder_measure(SYS, CylinderConstraint(tuple(sites[:k]), tuple(bits[:k])))
                assert mv.exact <= prev
                prev = mv.exact


class TestRelationSpace:
    def test_five_point_single_relation(self, ledrappier_support):
        rels = relation_space(SYS, FIVE)
        assert rels == [0b11111]
        assert enumeration_relations(ledrappier_support, list(FIVE)) == [0b11111]

    def test_generic_pair_no_relations(self):
        assert relation_space(SYS, [(0, 0), (5, 7)]) == []

    def test_single_site_no_relations(self):
        assert relation_space(SYS, [(0, 0)]) == []

    def test_frobenius_identity_all_scales(self):
        # the defining relation replicates at every dyadic scale
        for k in range(0, 8):
            s = 1 << k
            sites = [(0, 0), (s, 0), (-s, 0), (0, s), (0, -s)]
            rels = relation_space(SYS, sites)
            assert rels == [0b11111]

    def test_dyadic_reduction_cross_validation(self):
        # reduction and window method agree for scales up to 128
        for k in range(1, 8):
            s = 1 << k
            sites = [(3, 4), (3 + s, 4), (3 - s, 4), (3, 4 + s), (3, 4 - s), (3 + 2 * s, 4)]
            via_window = relation_space(SYS, sites)
            reduced = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0)]
            via_reduction = relation_space(SYS, reduced)
            assert via_window == via_reduction


def _shapes(points, box):
    """The `points`-point shapes in the box of radius `box`, each once up to
    translation: the origin first, then points - 1 of the box points that
    come after it in lexicographic order."""
    after = [(x, y) for x in range(-box, box + 1) for y in range(-box, box + 1) if (x, y) > (0, 0)]
    return [((0, 0),) + rest for rest in itertools.combinations(after, points - 1)]


class TestRelationCensus:
    """The smallest shapes that carry a relation, from at most one
    elimination per shape."""

    def _carrying(self, pattern, points, box, count):
        shapes = _shapes(points, box)
        assert len(shapes) == count
        return [s for s in shapes if relation_space(pattern, s)]

    def test_corner_pattern_triangles_at_dyadic_scales(self):
        assert self._carrying(CORNER, 3, 8, 10_296) == [
            ((0, 0), (0, 1 << n), (1 << n, 0)) for n in range(4)]

    @pytest.mark.parametrize("points,box,count", [(3, 8, 10_296), (4, 3, 2_024)])
    def test_default_pattern_has_none_below_five_points(self, points, box, count):
        assert self._carrying(SYS, points, box, count) == []

    def test_default_pattern_five_points_only_the_stencil(self):
        assert self._carrying(SYS, 5, 3, 10_626) == [
            ((0, 0), (1, -1), (1, 0), (1, 1), (2, 0))]


class TestLedrappierOracle:
    def test_cached_relations_follow_site_order(self):
        # The oracle keeps relations per site tuple; the same sites in another
        # order must not reuse relations indexed by the first order.
        oracle = LedrappierOracle()
        sites = FIVE + ((5, 7),)
        for order in (sites, sites[::-1]):
            for bits in [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]:
                c = CylinderConstraint(order, bits)
                assert oracle.event_measure(c) == cylinder_measure(SYS, c)

    def test_event_measure_is_a_one_event_plan(self, monkeypatch):
        # The oracle keeps one cache, the relations by normal form; an
        # event's measure is its intersection at the zero shift, so repeats
        # find its relations there and build no mask again.
        c = CylinderConstraint(FIVE + ((5, 7),), (1, 0, 0, 0, 0, 1))
        expected = cylinder_measure(SYS, c)
        built = []
        real = algebraic._window_masks
        monkeypatch.setattr(algebraic, "_window_masks",
                            lambda *a: built.append(tuple(a[1])) or real(*a))
        oracle = LedrappierOracle()
        values = [oracle.event_measure(c) for _ in range(10)]
        assert values[0] == expected and all(v is values[0] for v in values)
        assert oracle.intersection_measure(((0, 0),), (c,)) is values[0]
        assert len(built) == 1
        assert set(vars(oracle)) == {"pattern", "_memo"}
        assert list(oracle._memo.values()) == [relation_space(SYS, c.sites)]


CORNER = RelationPattern(frozenset({(0, 0), (1, 0), (0, 1)}))
KERNEL_PATTERNS = [
    LEDRAPPIER_PATTERN,
    CORNER,
    RelationPattern(frozenset({(0, 0), (2, 0), (-1, 1)})),
    RelationPattern(frozenset({(0, -2), (-2, 0), (1, 0), (0, 1)})),
]


# Patterns without a single topmost cell, which the kernel shears first, and
# the one-cell pattern, on which every coordinate functional is 0.
CROSS_PATTERNS = KERNEL_PATTERNS + [
    RelationPattern(frozenset({(0, 0), (1, 0), (0, -1)})),
    RelationPattern(frozenset({(0, 0), (1, 0)})),
    RelationPattern(frozenset({(0, 0), (2, 0), (1, 1), (0, 1)})),
    RelationPattern(frozenset({(0, 0)})),
]


def _cross_sites(pattern, gen, trial):
    """1-7 distinct sites in a box of side up to 40.  Two trials in three
    start from a set that carries a relation: the support of q*P for a
    random two-term q, or of the pattern dilated by 2^j (its 2^j-th power);
    random sites fill up the rest."""
    box = int(gen.integers(1, 41))
    k = min(int(gen.integers(1, 8)), (box + 1) ** 2)
    support = sorted(pattern.support)
    if trial % 3 == 0:
        seed_cells = []
    elif trial % 3 == 1:
        counts = {}
        for _ in range(2):
            qi, qj = (int(v) for v in gen.integers(-3, 4, size=2))
            for pi, pj in support:
                counts[(qi + pi, qj + pj)] = counts.get((qi + pi, qj + pj), 0) ^ 1
        seed_cells = [c for c, odd in counts.items() if odd]
    else:
        scale = 1 << int(gen.integers(0, 4))
        seed_cells = [(scale * pi, scale * pj) for pi, pj in support]
    seed_cells = seed_cells[:7]
    dx, dy = (int(v) for v in gen.integers(-20, 21, size=2))
    sites = {(dx + i, dy + j) for i, j in seed_cells}
    k = max(k, len(sites))
    while len(sites) < k:
        sites.add((dx + int(gen.integers(0, box + 1)), dy + int(gen.integers(0, box + 1))))
    return sorted(sites, key=lambda _: float(gen.random()))


class TestTransfer:
    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_matches_reference(self, pattern):
        assert pattern.transfer == reference_transfer(pattern)
        assert pattern.transfer is pattern.transfer

    def test_literal_recurrences(self):
        assert SYS.transfer == (0, 2, ((-1, 1), (0, 1), (0, 2), (1, 1)))
        # (0, 0), (1, 0), (0, -1) sheared by 2: (1, 2) is the only topmost cell.
        assert CROSS_PATTERNS[4].transfer == (2, 3, ((-1, 2), (-1, 3)))
        assert CROSS_PATTERNS[7].transfer == (0, 0, ())


class TestWindowMethodCrossCheck:
    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_matches_window_method(self, pattern):
        # Rank, consistency and the relation basis, bit for bit, against the
        # window method.
        gen = substream(404, "window-cross", str(sorted(pattern.support)))
        for trial in range(60):
            sites = _cross_sites(pattern, gen, trial)
            k = len(sites)
            masks, n_gens = reference_window_masks(pattern, sites)
            m = gf2.BitMatrix(k, n_gens, tuple(masks))
            rels = relation_space(pattern, sites)
            assert rels == [v.bits for v in gf2.nullspace(transpose(m))]
            assert k - len(rels) == gf2.rank(m)
            for bits in [(0,) * k, tuple(int(b) for b in gen.integers(0, 2, size=k))]:
                rhs = gf2.BitVector(k, sum(b << i for i, b in enumerate(bits)))
                solvable = gf2.solve_affine(m, rhs) is not None
                expected = Fraction(1, 1 << gf2.rank(m)) if solvable else 0
                c = CylinderConstraint(tuple(sites), bits)
                assert cylinder_measure(pattern, c).exact == expected


SQUARED = RelationPattern(frozenset({(0, 0), (2, 0), (0, 2)}))  # (1+x+y)^2
# Square-free patterns (no factor appears twice) that stay under the
# generator cap when a small constellation is scaled by 2^20.
SQUARE_FREE = KERNEL_PATTERNS[:3]


def _product_sites(pattern, gen):
    """1-7 sites: the support of q*P for a random two-term q with offsets in
    [-1, 1], which carries a relation unless it cancels, plus up to two
    random sites in its bounding box.  Small enough to scale by 2^20."""
    counts = {}
    for _ in range(2):
        qi, qj = (int(v) for v in gen.integers(-1, 2, size=2))
        for pi, pj in pattern.support:
            counts[(qi + pi, qj + pj)] = counts.get((qi + pi, qj + pj), 0) ^ 1
    sites = {c for c, odd in counts.items() if odd} or {(0, 0)}
    xs, ys = [x for x, _ in sites], [y for _, y in sites]
    for _ in range(int(gen.integers(0, 3))):
        sites.add((int(gen.integers(min(xs), max(xs) + 1)),
                   int(gen.integers(min(ys), max(ys) + 1))))
    return sorted(sites, key=lambda _: float(gen.random()))


def _in_span(vectors, basis):
    """Every vector (an int) lies in the GF(2) span of `basis` (dense rank
    test)."""
    n = max([v.bit_length() for v in vectors + basis] + [1])
    rows = tuple(basis)
    return gf2.rank(gf2.BitMatrix(len(rows) + len(vectors), n, rows + tuple(vectors))) \
        == gf2.rank(gf2.BitMatrix(len(rows), n, rows))


class TestPlaneIdentities:
    """Identities of the plane relations that hold at every scale, checked
    up to 2^20, where no enumeration reaches.  Translation: the relations of
    S + v are those of S.  Frobenius: g(x^2, y^2) = g(x, y)^2 over GF(2), so
    the relations of 2S contain those of S, and equal them when the pattern
    is square-free.  `relation_space` relies on both, through its normal
    form, so each side is found by an elimination that takes none: the
    window method on the sites themselves, or the row-transfer masks of the
    scaled sites."""

    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_translation(self, pattern):
        # Against the window method's elimination on the moved sites
        # themselves, which takes no normal form.
        gen = substream(606, "translation", str(sorted(pattern.support)))
        for trial in range(30):
            sites = _cross_sites(pattern, gen, trial)
            vx, vy = (int(v) for v in gen.integers(-(1 << 20), (1 << 20) + 1, size=2))
            moved = [(x + vx, y + vy) for x, y in sites]
            rels = _relations(reference_window_masks(pattern, sites)[0])
            assert _relations(reference_window_masks(pattern, moved)[0]) == rels
            assert relation_space(pattern, moved) == rels

    @pytest.mark.parametrize("pattern", SQUARE_FREE, ids=lambda p: str(sorted(p.support)))
    def test_frobenius_keeps_relations(self, pattern):
        # The window method on the sites, against the row-transfer masks of
        # the scaled sites themselves, which take no normal form; then the
        # normal form, which halves the scaled sites back.
        assert pattern.square_free
        gen = substream(607, "frobenius", str(sorted(pattern.support)))
        with_relations = 0
        for trial in range(16):
            sites = _product_sites(pattern, gen)
            k = 20 if trial % 4 == 0 else int(gen.integers(1, 11))
            rels = _relations(reference_window_masks(pattern, sites)[0])
            scaled = [(x << k, y << k) for x, y in sites]
            assert _relations(_window_masks(pattern, scaled)[0]) == rels
            assert relation_space(pattern, scaled) == rels
            with_relations += bool(rels)
        assert with_relations >= 8

    def test_frobenius_squared_pattern_gains_relations(self):
        shape = [(0, 0), (1, 0), (0, 1)]
        assert relation_space(SQUARED, shape) == []
        for k in (1, 20):
            scaled = [(x << k, y << k) for x, y in shape]
            assert relation_space(SQUARED, scaled) == [0b111]
        gen = substream(608, "frobenius-squared")
        gained = 0
        for trial in range(24):
            sites = _product_sites(SQUARED, gen)
            k = 20 if trial % 4 == 0 else int(gen.integers(1, 11))
            rels = relation_space(SQUARED, sites)
            scaled = relation_space(SQUARED, [(x << k, y << k) for x, y in sites])
            assert _in_span(rels, scaled)
            gained += len(scaled) > len(rels)
        assert gained > 0


VERTICAL = RelationPattern(frozenset({(0, 0), (0, 1), (0, 2)}))
SEGMENT = RelationPattern(frozenset({(0, 0), (1, 1)}))


def _random_support(rng, sheared):
    """3-5 cells in the box [-2, 2]^2; when `sheared`, two or more of them
    in the top row, so that `transfer` shears the support."""
    cells = set()
    while len(cells) < rng.randint(3, 5):
        cells.add((rng.randint(-2, 2), rng.randint(-2, 2)))
    if sheared:
        top = max(j for _, j in cells)
        cells.add((max(i for i, j in cells if j == top) + 1, top))
    return RelationPattern(frozenset(cells))


class TestPeel:
    """Sites that the peel by the edge normals of the pattern's Newton
    polygon empties carry no relation, so no mask is built for them."""

    @pytest.mark.parametrize("support,normals", [
        (SYS.support, {(1, 1), (1, -1), (-1, 1), (-1, -1)}),
        (CORNER.support, {(-1, 0), (0, -1), (1, 1)}),
        ({(0, 0), (1, 1)}, {(1, -1), (-1, 1)}),
        ({(0, 0)}, set()),
        (VERTICAL.support, {(1, 0), (-1, 0)}),
        # A cell inside an edge adds no normal.
        ({(0, 0), (1, 0), (2, 0), (0, 1)}, {(0, -1), (1, 2), (-1, 0)}),
        # Patterns that `transfer` shears keep the normals of their own support.
        ({(0, 0), (1, 0)}, {(0, 1), (0, -1)}),
        ({(0, 0), (1, 0), (0, -1)}, {(1, -1), (0, 1), (-1, 0)}),
    ])
    def test_normals(self, support, normals):
        pattern = RelationPattern(frozenset(support))
        assert set(pattern.normals) == normals and len(pattern.normals) == len(normals)
        assert pattern.normals is pattern.normals
        for a, b in normals:
            values = [a * x + b * y for x, y in support]
            assert values.count(max(values)) >= 2  # outward: an edge attains the maximum

    def test_peel_agrees_with_the_elimination(self):
        # Planted relations: translates of the support dilated by 2^j, the
        # polynomial f^(2^j) in the ideal (f), summed mod 2.  Random sites
        # fill each set up to 2-9 sites.
        rng = random.Random("peel cross-check")
        patterns = [SYS, CORNER, SQUARED, VERTICAL, SEGMENT] + \
            [_random_support(rng, sheared=i % 2) for i in range(6)]
        moves = random.Random("peel copies")
        carrying = peeled = gained = 0
        for pattern in patterns:
            support = sorted(pattern.support)
            for trial in range(160):
                sites = set()
                for _ in range(trial % 3):
                    j, dx, dy = rng.randint(0, 2), rng.randint(-6, 6), rng.randint(-6, 6)
                    sites ^= {(dx + (x << j), dy + (y << j)) for x, y in support}
                k = max(len(sites), rng.randint(2, 9))
                while len(sites) < k:
                    sites.add((rng.randint(-8, 8), rng.randint(-8, 8)))
                sites = sorted(sites)
                rng.shuffle(sites)
                expected = algebraic._relations(_window_masks(pattern, sites)[0])
                assert relation_space(pattern, sites) == expected
                left = algebraic._peel(pattern.normals, sites)
                assert left == reference_peel(pattern.normals, sites)
                carrying += bool(expected)
                peeled += not left
                # A translated and a 2^j-dilated copy, each against the masks
                # of the copy itself: a dilation keeps the relations when the
                # pattern is square-free and may gain some when it is not.
                j, dx, dy = moves.randint(1, 3), moves.randint(-99, 99), moves.randint(-99, 99)
                for copy in ([(x + dx, y + dy) for x, y in sites],
                             [(dx + (x << j), dy + (y << j)) for x, y in sites]):
                    own = algebraic._relations(_window_masks(pattern, copy)[0])
                    assert relation_space(pattern, copy) == own
                    if pattern.square_free:
                        assert own == expected
                    else:
                        gained += own != expected
        assert sum(p.transfer[0] > 0 for p in patterns) == 3
        assert [p.square_free for p in patterns] == [True] * 2 + [False] + [True] * 8
        # Of the 1,760 sets, 1,204 carry a relation, 539 peel empty and 17
        # carry none but survive the peel.  The dilated copy of one of the
        # squared pattern's 160 sets gains a relation.
        assert (carrying, peeled, gained) == (1204, 539, 1)

    def test_only_plans_that_survive_the_peel_build_masks(self, monkeypatch):
        calls = []
        real = algebraic._window_masks
        monkeypatch.setattr(algebraic, "_window_masks",
                            lambda *a: calls.append(a[1]) or real(*a))
        oracle = LedrappierOracle()
        events = [CylinderConstraint(((0, 0),), (0,))] * 5
        separated = next(random_separated_shifts(7, 1, 4, 8, 128))
        assert oracle.intersection_measure(separated, events).exact == Fraction(1, 32)
        assert calls == []
        dyadic = ledrappier_dyadic_shifts(3)
        assert oracle.intersection_measure(dyadic, events).exact == Fraction(1, 16)
        assert calls == [FIVE]  # built on the normal form of the plan's sites


def test_squared_pattern_triangle_relations_at_powers_of_two_only():
    # (1 + x + y)^2 = 1 + x^2 + y^2: the triangle {0, (s, 0), (0, s)} carries
    # a relation at s = 2, 4 and 8, and at no other s up to 8.
    assert [s for s in range(1, 9)
            if relation_space(SQUARED, [(0, 0), (s, 0), (0, s)])] == [2, 4, 8]


class TestSquareFree:
    """The certificate that lets the normal form halve: sound on every
    support of a 3 x 3 box, against trial division."""

    def test_never_certifies_a_support_with_a_square_factor(self):
        cells = [(i, j) for i in range(3) for j in range(3)]
        square_free = missed = 0
        for n in range(1, len(cells) + 1):
            for support in itertools.combinations(cells, n):
                truth = reference_square_free(support)
                certified = RelationPattern(frozenset(support)).square_free
                assert truth or not certified, support
                square_free += truth
                missed += truth and not certified
        # Of the 511 supports, 492 are square-free; the certificate misses none.
        assert (square_free, missed) == (492, 0)

    def test_patterns(self):
        assert SYS.square_free and CORNER.square_free
        assert not SQUARED.square_free and SQUARED.square_free is False
        # 1 + y^2 = (1 + y)^2 in either orientation; y + x^2 is square-free
        # though its derivative in x vanishes.
        assert not RelationPattern(frozenset({(0, 0), (0, 2)})).square_free
        assert RelationPattern(frozenset({(0, 1), (2, 0)})).square_free

    def test_squared_pattern_is_not_halved(self):
        scaled = ((5, 5), (7, 5), (5, 7))
        assert _normal_form(SQUARED, scaled) == ((0, 0), (2, 0), (0, 2))
        assert _normal_form(CORNER, scaled) == ((0, 0), (1, 0), (0, 1))
        assert relation_space(SQUARED, scaled) == [0b111]
        assert relation_space(SQUARED, [(0, 0), (1, 0), (0, 1)]) == []


class TestNormalForm:
    """Relations are found once per normal form: the sites translated by
    their first site and, for a square-free pattern, halved while every
    coordinate difference is even."""

    def test_translation_then_halving(self):
        assert _normal_form(SYS, ((7, -2),)) == ((0, 0),)
        stencil = tuple((3 + 8 * x, 5 + 8 * y) for x, y in FIVE)
        assert _normal_form(SYS, stencil) == FIVE
        # The first site leads: the same sites in another order have another key.
        assert _normal_form(SYS, stencil[::-1]) == tuple((x, y + 1) for x, y in FIVE[::-1])
        # One odd difference stops the halving at once; 6 = 2 * 3 halves once.
        assert _normal_form(SYS, ((0, 0), (8, 0), (8, 1))) == ((0, 0), (8, 0), (8, 1))
        assert _normal_form(SYS, ((1, 1), (7, 1), (1, -11))) == ((0, 0), (3, 0), (0, -6))

    def test_cap_reads_the_sites_as_given(self):
        # Scale 21 is under the cap and scale 22 past it, though both have
        # the stencil as normal form, which the memo already holds.
        memo = {}
        assert relation_space(SYS, FIVE, memo=memo) == [0b11111]
        assert relation_space(SYS, ledrappier_dyadic_shifts(21), memo=memo) == [0b11111]
        with pytest.raises(ValueError, match="generator cells, more than"):
            relation_space(SYS, ledrappier_dyadic_shifts(22), memo=memo)
        assert list(memo) == [FIVE]

    def test_one_memo_serves_measures_certificates_and_members(self, monkeypatch):
        built = []
        real = algebraic._window_masks
        monkeypatch.setattr(algebraic, "_window_masks",
                            lambda *a: built.append(tuple(a[1])) or real(*a))
        oracle = LedrappierOracle()
        events = [CylinderConstraint(((0, 0),), (0,))] * 5
        cells = [CylinderConstraint(((0, 0),), (b,)) for b in (0, 1)]
        for n in range(1, 13):
            shifts = ledrappier_dyadic_shifts(n)
            assert oracle.intersection_measure(shifts, events).exact == Fraction(1, 16)
            assert oracle.relation_certificate(shifts, events)["relations"] == [[1] * 5]
            num, den = oracle.joining_member(shifts, cells)
            assert den == 16 and sum(x == 0 for x in num.tolist()) == 16
        assert built == [FIVE]
        assert oracle._memo == {FIVE: [0b11111]}

    def test_random_scan_stores_no_empty_relations(self, monkeypatch, tmp_path):
        # Every random separated tuple of one-site events peels empty, and
        # so does the event itself: the memo keeps no empty list, so it
        # keeps nothing.
        oracles = []

        class Kept(LedrappierOracle):
            def __init__(self, *args):
                super().__init__(*args)
                oracles.append(self)

        monkeypatch.setattr(cli, "LedrappierOracle", Kept)
        argv = ["scan", "mix", "--family", "random", "--order", "3", "--budget", "40"]
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        (oracle,) = oracles
        assert oracle._memo == {}

    @pytest.mark.parametrize("argv", [
        ["scan", "mix", "--family", "dyadic", "--order", "4", "--scales", "1:12"],
        ["joining", "--scales", "8:13"],
    ], ids=["scan-mix", "joining"])
    def test_dyadic_runs_build_masks_once(self, monkeypatch, tmp_path, argv):
        built = []
        real = algebraic._window_masks
        monkeypatch.setattr(algebraic, "_window_masks",
                            lambda *a: built.append(tuple(a[1])) or real(*a))
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert built == [FIVE]


def _recurrence(pattern):
    """(depth, taps) of the row recurrence `_window_masks` runs for
    `pattern`, sheared first if need be."""
    return pattern.transfer[1], pattern.row_taps[1]


class TestRowPowers:
    """The byte-translate Frobenius and the in-place reduction against the
    numpy table lookup and the copying reduction in `conftest`."""

    def test_frobenius_matches_reference(self):
        rng = random.Random(613)
        lengths = [0, 1, 7, 8, 9, 15, 16, 17, 70000] + [rng.randint(0, 70000) for _ in range(200)]
        for n in lengths:
            p = rng.getrandbits(n) | (1 << n >> 1)  # exactly n bits
            assert p.bit_length() == n
            assert _frobenius(p) == reference_frobenius(p)

    def test_some_cross_pattern_is_sheared(self):
        # Exactly the patterns with two or more topmost cells.
        assert [p.transfer[0] > 0 for p in CROSS_PATTERNS] == [False] * 4 + [True] * 3 + [False]

    def test_sheared_masks_build_no_pattern(self, monkeypatch):
        # The shear moves the sites alone: the pattern is never rebuilt.
        pattern = RelationPattern(frozenset({(0, 0), (1, 0), (0, -1)}))
        built = []
        post_init = RelationPattern.__post_init__
        monkeypatch.setattr(RelationPattern, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for k in range(200):
            _window_masks(pattern, [(0, 0), (k, 1), (-k, k % 7)])
        assert built == []

    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_u_power_matches_reference(self, pattern):
        depth, taps = _recurrence(pattern)
        rng = random.Random(str(sorted(pattern.support)))
        ns = list(range(71)) + [rng.randint(0, 5000) for _ in range(40)] + [1 << j for j in range(1, 21)]
        for n in ns:
            assert _u_power(n, depth, taps, {}) == reference_u_power(n, depth, taps)

    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_prefix_ladder_matches_reference(self, pattern):
        # One cache for every query, in a seeded random order: each power
        # starts from whatever prefix earlier queries left.
        depth, taps = _recurrence(pattern)
        rng = random.Random("ladder" + str(sorted(pattern.support)))
        ns = list(range(71)) + [rng.randint(0, 5000) for _ in range(40)] + [1 << j for j in range(21)]
        rng.shuffle(ns)
        cache = {}
        for n in ns:
            got = _u_power(n, depth, taps, cache)
            assert got == reference_u_power(n, depth, taps)
            assert cache[n] is got
            assert all(n >> k in cache for k in range(n.bit_length() + 1))
        for m, coeffs in cache.items():
            assert coeffs == reference_u_power(m, depth, taps)

    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_dyadic_powers_cost_one_squaring_each(self, pattern, monkeypatch):
        # u^(2^s) starts from the cached u^(2^(s-1)): one Frobenius per
        # coefficient, never a full square-and-multiply.
        depth, taps = _recurrence(pattern)
        calls = []
        monkeypatch.setattr(algebraic, "_frobenius", lambda p: calls.append(p) or _frobenius(p))
        cache = {}
        _u_power(2, depth, taps, cache)
        for s in range(2, 21):
            calls.clear()
            assert _u_power(1 << s, depth, taps, cache) == reference_u_power(1 << s, depth, taps)
            assert len(calls) == depth

    def test_sites_of_one_call_share_prefixes(self, monkeypatch):
        # The sites of one call share a fresh dict: row 2^20 is one
        # squaring past row 2^19, and row 2^19 reuses nothing, squaring
        # once per bit.
        depth, _ = _recurrence(SYS)
        calls = []
        monkeypatch.setattr(algebraic, "_frobenius", lambda p: calls.append(p) or _frobenius(p))
        _window_masks(SYS, [(0, 0), (0, 1 << 19), (0, 1 << 20)])
        assert len(calls) == 21 * depth



def _reference_measure(pattern, shifts, events):
    merged = merge_events(events, shifts)
    if merged is None:
        return MeasureValue.of_exact(0, contradiction=True)
    return cylinder_measure(pattern, merged)


def _reference_certificate(pattern, shifts, events):
    merged = merge_events(events, shifts)
    if merged is None:
        return {"sites": [], "relations": [], "contradiction": True}
    n = len(merged.sites)
    return {"sites": [list(s) for s in merged.sites],
            "relations": [[v >> k & 1 for k in range(n)]
                          for v in relation_space(pattern, merged.sites)]}


_CELLS = [(i, j) for i in range(-1, 2) for j in range(-1, 2)]


class TestIntersectionPlans:
    @pytest.mark.parametrize("pattern", [LEDRAPPIER_PATTERN, CORNER, CROSS_PATTERNS[4]],
                             ids=lambda p: str(sorted(p.support)))
    def test_matches_merged_constraint(self, pattern):
        # Events of 1-3 sites and shifts in [-2, 2]^2, so shifted sites often
        # meet, with equal or with different bits.  One oracle answers every
        # call: each shift tuple is asked with two site layouts, each layout
        # with three bit choices, measure and certificate in either order,
        # each twice.
        oracle = LedrappierOracle(pattern)
        rng = random.Random(str(sorted(pattern.support)))
        evaluated = equal = unequal = 0
        for trial in range(40):
            k = rng.randint(1, 4)
            shifts = ((0, 0),) + tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k))
            for layout in range(2):
                site_sets = [tuple(rng.sample(_CELLS, rng.randint(1, 3))) for _ in range(k + 1)]
                for _ in range(3):
                    events = [CylinderConstraint(ss, tuple(rng.randint(0, 1) for _ in ss))
                              for ss in site_sets]
                    seen = {}
                    for ev, sh in zip(events, shifts):
                        for site, bit in zip(ev.sites, ev.bits):
                            site = (site[0] + sh[0], site[1] + sh[1])
                            if site in seen:
                                equal += seen[site] == bit
                                unequal += seen[site] != bit
                            seen[site] = bit
                    measure = _reference_measure(pattern, shifts, events)
                    certificate = _reference_certificate(pattern, shifts, events)
                    for _ in range(2):
                        if rng.random() < 0.5:
                            assert oracle.intersection_measure(shifts, events) == measure
                            assert oracle.relation_certificate(shifts, events) == certificate
                        else:
                            assert oracle.relation_certificate(shifts, events) == certificate
                            assert oracle.intersection_measure(shifts, events) == measure
                    evaluated += 1
        assert evaluated >= 200 and equal >= 50 and unequal >= 50

    @pytest.mark.parametrize("pattern", [LEDRAPPIER_PATTERN, CORNER],
                             ids=lambda p: str(sorted(p.support)))
    def test_certificate_needs_no_measure_first(self, pattern):
        # An oracle that is only ever asked for certificates: of random small
        # tuples, where shifted sites meet, and of the pattern's own support
        # at a scale 2^s, which carries a relation since every event holds
        # the origin; each is asked twice.
        oracle = LedrappierOracle(pattern)
        rng = random.Random(f"certificates only {sorted(pattern.support)}")
        support = sorted(pattern.support)
        contradictions = carrying = 0
        for trial in range(90):
            if trial % 3 == 0:
                s = 1 << rng.randint(0, 5)
                shifts = tuple((s * x, s * y) for x, y in support)
            else:
                shifts = ((0, 0),) + tuple((rng.randint(-2, 2), rng.randint(-2, 2))
                                           for _ in range(rng.randint(1, 4)))
            events = []
            for _ in shifts:
                ss = ((0, 0),) + rng.choice([(), ((0, 1),), ((1, 0),)])
                events.append(CylinderConstraint(ss, tuple(rng.randint(0, 1) for _ in ss)))
            expected = _reference_certificate(pattern, shifts, events)
            for _ in range(2):
                assert oracle.relation_certificate(shifts, events) == expected
            contradictions += "contradiction" in expected
            carrying += bool(expected["relations"])
        assert contradictions >= 10 and carrying >= 20

    def test_z_sites_rejected_unless_contradictory(self):
        oracle = LedrappierOracle()
        ev0, ev1 = CylinderConstraint((0,), (0,)), CylinderConstraint((0,), (1,))
        with pytest.raises(ValueError, match="need \\(i, j\\) sites"):
            oracle.intersection_measure((0, 1), [ev0, ev1])
        # An event's own measure refuses a Z site before shifting it.
        with pytest.raises(ValueError, match="need \\(i, j\\) sites"):
            oracle.event_measure(ev0)
        assert oracle.intersection_measure((0, 0), [ev0, ev1]) == \
            MeasureValue.of_exact(0, contradiction=True)


def _partition(layout, a, b):
    """(cells, masses) of a partition into cylinders at the sites a and b,
    which carry no relation: two cells over a, four over a and b, or three
    over different sites ({a: 0}, {a: 1, b: 0}, {a: 1, b: 1})."""
    half, quarter = Fraction(1, 2), Fraction(1, 4)
    if layout == "one site":
        return [CylinderConstraint((a,), (v,)) for v in (0, 1)], (half, half)
    if layout == "two sites":
        return ([CylinderConstraint((a, b), (u, v)) for u in (0, 1) for v in (0, 1)],
                (quarter,) * 4)
    return ([CylinderConstraint((a,), (0,))]
            + [CylinderConstraint((a, b), (1, v)) for v in (0, 1)]), (half, quarter, quarter)


class TestJoiningMember:
    @pytest.mark.parametrize("layout", ["one site", "two sites", "different sites"])
    @pytest.mark.parametrize("system", ["ledrappier", "corner", "bernoulli"])
    def test_member_matches_per_entry_reference(self, system, layout):
        # Random shift tuples in a small box, half of them with a repeated
        # shift, so shifted cells often meet with equal or different bits;
        # the plane ones also take dyadic stencils, which carry a relation.
        rng = random.Random(f"member {system} {layout}")
        if system == "bernoulli":
            oracle, a, b = BernoulliOracle(), 0, 1

            def draw():
                return rng.randint(-3, 3)
        else:
            oracle = LedrappierOracle(SYS if system == "ledrappier" else CORNER)
            a, b = (0, 0), (1, 0)

            def draw():
                return rng.randint(-2, 2), rng.randint(-2, 2)
        cells, masses = _partition(layout, a, b)
        contradictions = relation_zeros = 0
        for trial in range(30):
            if system == "bernoulli" or trial % 6:
                k = rng.randint(2, 3 if len(cells) == 4 else 5)
                shifts = [draw() for _ in range(k)]
                if trial % 2:
                    shifts[rng.randrange(1, k)] = shifts[rng.randrange(k)]
                shifts = tuple(shifts)
            else:
                shifts = ledrappier_dyadic_shifts(trial % 3)
            num, den = oracle.joining_member(shifts, cells)
            ref_num, ref_den = reference_joining_member(oracle, shifts, cells)
            assert den == ref_den and num.tolist() == ref_num.tolist()
            tensor = JoiningTensor(len(shifts), masses, scaled=(num, den))
            assert list(tensor.entries) == [Fraction(x, ref_den) for x in ref_num.tolist()]
            for idx, x in zip(itertools.product(range(len(cells)), repeat=len(shifts)),
                              ref_num.tolist()):
                if x == 0 and merge_events([cells[i] for i in idx], shifts) is None:
                    contradictions += 1
                elif x == 0:
                    relation_zeros += 1
        assert contradictions >= 20
        assert relation_zeros >= (0 if system == "bernoulli" else 20)

    @pytest.mark.parametrize("pattern,carrying,keys", [(SYS, 27, 19), (CORNER, 47, 39)],
                             ids=["default", "corner"])
    def test_single_class_members_follow_their_relation_code(self, pattern, carrying, keys):
        # Two cells on one site, at k distinct shifts: `classify` gives
        # product exactly when the shifts carry no relation, and otherwise
        # M(w - 1, k), w the least weight of a nonzero relation.  One oracle
        # measures every member; every other member with room for it holds
        # the pattern's own support first, scaled by 2^s and moved, so that
        # normal forms repeat and the oracle's memo gives their relations.
        rng = random.Random(f"relation code {sorted(pattern.support)}")
        oracle = LedrappierOracle(pattern)
        cells, masses = _partition("one site", (0, 0), None)
        support = sorted(pattern.support)
        with_relation = 0
        for trial in range(90):
            k = 3 + trial % 5
            shifts = []
            if trial % 2 == 0 and k >= len(support):
                s, dx, dy = 1 << rng.randint(0, 6), rng.randint(-3, 3), rng.randint(-3, 3)
                shifts = [(dx + s * x, dy + s * y) for x, y in support]
            while len(shifts) < k:
                site = (rng.randint(-3, 3), rng.randint(-3, 3))
                if site not in shifts:
                    shifts.append(site)
            num, den = oracle.joining_member(shifts, cells)
            cls = classify(JoiningTensor(k, masses, scaled=(num, den)))
            span = {0}
            for v in relation_space(pattern, shifts):
                span |= {u ^ v for u in span}
            w = min((v.bit_count() for v in span if v), default=None)
            assert cls.order == k
            assert cls.is_product == (w is None)
            assert cls.max_product_marginal_order == (k if w is None else w - 1)
            with_relation += w is not None
        # The memo keeps only the normal forms that carry a relation, and the
        # scaled supports share them: fewer keys than members that carry one.
        assert (with_relation, len(oracle._memo)) == (carrying, keys)

    def test_two_class_partition_at_order_8_eliminates_once_per_member(self, monkeypatch):
        # {a: 0}, {a: 1, b: 0}, {a: 1, b: 1}: two site classes, so 2**8 plans
        # per member, whose relations all come from one elimination of the
        # member's shifted site masks, or from none when they peel empty.
        # Each plan restricts those relations with `_relations` on their
        # outside parts, which builds no mask, so the spy counts mask builds.
        oracle = LedrappierOracle(SYS)
        cells, masses = _partition("different sites", (0, 0), (1, 0))
        rng = random.Random("member order 8")
        members = [tuple((rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(8))
                   for _ in range(2)]
        members.append(ledrappier_dyadic_shifts(1) + ledrappier_dyadic_shifts(0)[:3])
        calls = []
        real = algebraic._window_masks
        monkeypatch.setattr(algebraic, "_window_masks",
                            lambda pattern, sites: calls.append(sites) or real(pattern, sites))
        relation_zeros = 0
        eliminations = []
        for shifts in members:
            calls.clear()
            num, den = oracle.joining_member(shifts, cells)
            union = sorted({site_add(s, sh) for sh in shifts for s in [(0, 0), (1, 0)]})
            assert len(calls) == (1 if algebraic._peel(SYS.normals, union) else 0)
            eliminations.append(len(calls))
            ref_num, ref_den = reference_joining_member(oracle, shifts, cells)
            assert den == ref_den and num.tolist() == ref_num.tolist()
            JoiningTensor(8, masses, scaled=(num, den))
            for idx, x in zip(itertools.product(range(3), repeat=8), ref_num.tolist()):
                if x == 0 and merge_events([cells[i] for i in idx], shifts) is not None:
                    relation_zeros += 1
        assert relation_zeros > 0
        assert eliminations == [0, 0, 1]  # only the dyadic member's sites survive the peel


def _basis_grid(kernel, vec):
    """(height, width) 0/1 array of one flattened basis configuration."""
    n = kernel.width * kernel.height
    raw = vec.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:n].reshape(kernel.height, kernel.width)


# Tori on which every one of KERNEL_PATTERNS has a nonzero configuration.
NONTRIVIAL_TORI = [(9, 9), (12, 12), (6, 9), (15, 6)]


class TestTorusKernel:
    @pytest.mark.parametrize("w,h", [(3, 3), (3, 4), (4, 4), (3, 5), (4, 3), (5, 3)])
    def test_dimension_matches_enumeration(self, w, h):
        assert torus_kernel(SYS, w, h).dim == kernel_dimension_bruteforce(SYS, w, h)

    @pytest.mark.parametrize("w,h", [(3, 3), (3, 4), (4, 3), (3, 5)])
    def test_asymmetric_dimension_matches_enumeration(self, w, h):
        assert torus_kernel(CORNER, w, h).dim == kernel_dimension_bruteforce(CORNER, w, h)

    def test_zero_configuration_always_present(self):
        k = torus_kernel(SYS, 6, 9)
        # The zero combination is in the span by construction; basis elements
        # must each satisfy the wrapped relations.
        for vec in k.basis:
            assert grid_satisfies_pattern(SYS, _basis_grid(k, vec))

    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=lambda p: str(sorted(p.support)))
    @pytest.mark.parametrize("w,h", NONTRIVIAL_TORI + [(8, 8), (16, 12), (3, 64), (33, 32),
                                                       (40, 7), (65, 65), (63, 65), (45, 21),
                                                       (8, 5), (9, 5), (9, 10), (10, 4)])
    def test_basis_matches_per_bit_expansion(self, pattern, w, h):
        # Asymmetric taps make a rotation in the wrong direction, or a row
        # read from the wrong depth, show up as a different basis.  Sides
        # with a power-of-two factor, or w != h, often leave a pattern only
        # the zero configuration.  65 is the largest side the benchmark
        # renders, where states have up to 3 x 65 bits.  The last four tori
        # give the depth-3 pattern a small nonzero kernel whose Euclid rows
        # grow to 2-3 x w bits.
        k = torus_kernel(pattern, w, h)
        if (w, h) in NONTRIVIAL_TORI:
            assert k.dim > 0
        assert k.basis == reference_torus_basis(pattern, w, h)
        for vec in k.basis:
            assert grid_satisfies_pattern(pattern, _basis_grid(k, vec))

    @pytest.mark.parametrize("pattern", [LEDRAPPIER_PATTERN, KERNEL_PATTERNS[3]],
                             ids=lambda p: str(sorted(p.support)))
    @pytest.mark.parametrize("side", [129, 257])
    def test_basis_matches_elimination_at_large_sides(self, pattern, side):
        # The dense transfer matrix is too slow at these sides; the unit
        # columns eliminated bit by bit are not.
        k = torus_kernel(pattern, side, side)
        assert k.dim > 0
        assert k.basis == reference_elimination_torus_basis(pattern, side, side)

    def test_dimension_at_side_513(self):
        assert torus_kernel(SYS, 513, 513).dim == 508

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            torus_kernel(SYS, 2, 5)

    @pytest.mark.parametrize("pattern,message", [
        (CROSS_PATTERNS[4], "single topmost cell"),
        (CROSS_PATTERNS[5], "single topmost cell"),
        (CROSS_PATTERNS[7], "at least two rows"),
    ], ids=["sheared", "one row", "one cell"])
    def test_unsupported_patterns_refused(self, pattern, message):
        with pytest.raises(algebraic.UnsupportedPatternError, match=message):
            torus_kernel(pattern, 9, 9)


class TestSampling:
    def test_trivial_kernel_samples_zero_grid(self):
        k = torus_kernel(SYS, 4, 4)  # power-of-two torus: kernel is trivial
        assert k.dim == 0
        assert not sample_configuration(k, 9).any()

    def test_determinism(self):
        k = torus_kernel(SYS, 12, 12)
        a = sample_configuration(k, 1234)
        b = sample_configuration(k, 1234)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_configuration(k, 1235))

    def test_samples_satisfy_relations(self):
        k = torus_kernel(SYS, 12, 12)
        for seed in range(5):
            assert grid_satisfies_pattern(SYS, sample_configuration(k, seed))


class TestMonteCarlo:
    def test_single_site_estimate(self):
        k = torus_kernel(SYS, 12, 12)
        mv = mc_cylinder_measure(k, CylinderConstraint(((0, 0),), (0,)), 100000, 5)
        assert abs(mv.estimate - 0.5) <= 4 * mv.stderr

    def test_five_point_estimate(self):
        c = CylinderConstraint(FIVE, (0,) * 5)
        k = default_torus_for(SYS, c)
        mv = mc_cylinder_measure(k, c, 100000, 6)
        assert abs(mv.estimate - 1 / 16) <= 4 * mv.stderr

    def test_contradiction_is_exactly_zero(self):
        c = CylinderConstraint(FIVE, (1, 0, 0, 0, 0))
        k = default_torus_for(SYS, CylinderConstraint(FIVE, (0,) * 5))
        assert mc_cylinder_measure(k, c, 20000, 7).estimate == 0.0

    def test_empty_constellation_takes_the_smallest_default_torus(self):
        assert default_torus_for(SYS, CylinderConstraint((), ())).width == 12

    def test_default_torus_matches_dense_rank_rule(self):
        # In 11 of these 50 constellations the first candidate torus gives
        # the sites a lower rank than the plane, so the size is bumped.
        gen = substream(515, "default-torus")
        for trial in range(50):
            sites = _cross_sites(LEDRAPPIER_PATTERN, gen, trial)
            c = CylinderConstraint(tuple(sites), (0,) * len(sites))
            assert default_torus_for(SYS, c).width == reference_default_torus(SYS, c)

    @pytest.mark.parametrize("sites,start,first", [(FIVE, 12, 12), (((0, 0), (4, 0)), 16, 17)],
                             ids=["from 12", "from 16"])
    def test_default_torus_tries_only_sizes_that_are_not_powers_of_two(
            self, monkeypatch, sites, start, first):
        # With a plane rank of -1 no torus matches, so every try is used up.
        built = []
        real = algebraic.torus_kernel
        monkeypatch.setattr(algebraic, "torus_kernel",
                            lambda pattern, w, h: built.append(w) or real(pattern, w, h))
        monkeypatch.setattr(algebraic, "relation_space",
                            lambda pattern, sites: [0] * (len(sites) + 1))
        c = CylinderConstraint(sites, (0,) * len(sites))
        with pytest.raises(ValueError) as exc:
            default_torus_for(SYS, c)
        assert len(built) == algebraic._TORUS_TRIES == 24
        assert built == [n for n in range(first, first + 26) if n & (n - 1)][:24]
        assert f"no torus up to size {built[-1]} matches the plane rank" in str(exc.value)
        monkeypatch.setattr(algebraic, "_TORUS_TRIES", 0)
        with pytest.raises(ValueError, match=f"no torus up to size {start} matches"):
            default_torus_for(SYS, c)

    @pytest.mark.parametrize("dim", [0, 1, 7, 64])
    @pytest.mark.parametrize("count", [1, 8191, 8192])
    def test_raw_draw_bits_equal_int8_draws(self, dim, count):
        # mc_cylinder_measure reads the top bit of each raw byte where the
        # reference draws int8 values; a numpy that maps bytes to values
        # differently must fail here, not move artifacts silently.
        for key in [(5, "mc", 0), (2**64 - 1, "mc", 3), (12345, "mc", 17)]:
            draws = _mc_draw(substream(*key), count, dim)
            assert draws.dtype == np.uint8 and draws.shape == (count, dim)
            expected = substream(*key).integers(0, 2, size=(count, dim), dtype=np.int8)
            assert np.array_equal(draws >> 7, expected)

    @staticmethod
    def _assert_hits_match(kernel, c, n, seed):
        mv = mc_cylinder_measure(kernel, c, n, seed)
        assert round(mv.estimate * n) == reference_mc_hits(kernel, c, n, seed)

    @pytest.mark.parametrize("bits", [(0, 0, 0), (0, 1, 0)])
    def test_hits_on_dimension_zero_torus(self, bits):
        kernel = torus_kernel(SYS, 28, 28)
        assert kernel.dim == 0
        c = CylinderConstraint(((0, 0), (3, 1), (-2, 5)), bits)
        self._assert_hits_match(kernel, c, 1000, 3)
        assert mc_cylinder_measure(kernel, c, 1000, 3).estimate == float(not any(bits))

    @pytest.mark.parametrize("sites", [
        ((0, 0), (10, 0), (0, 10), (3, 4)),
        ((0, 0), (12, 5), (1, 12), (6, 6), (2, 1)),
    ])
    def test_hits_on_default_tori_of_dimension_64(self, sites):
        gen = substream(77, "mc-oracle", len(sites))
        c = CylinderConstraint(sites, tuple(int(b) for b in gen.integers(0, 2, size=len(sites))))
        kernel = default_torus_for(SYS, c)
        assert kernel.dim == 64
        for seed in range(3):
            self._assert_hits_match(kernel, c, 20000, seed)

    def test_hits_over_a_partial_last_chunk(self):
        kernel = torus_kernel(SYS, 21, 21)
        c = CylinderConstraint(((0, 0), (1, 0), (0, 1)), (1, 0, 1))
        for n in (1, 8191, 8193, 3 * 8192 + 77):
            self._assert_hits_match(kernel, c, n, 11)

    def test_hits_with_a_site_of_mask_zero(self):
        # No generator touches site (0, 0), so it reads 0 in every sample.
        kernel = TorusKernel(5, 5, (0b110, (1 << 7) | 0b100))
        assert kernel.site_mask((0, 0)) == 0
        for bits in [(0, 1, 1), (1, 1, 0), (0, 0, 0)]:
            c = CylinderConstraint(((0, 0), (1, 0), (2, 0)), bits)
            self._assert_hits_match(kernel, c, 5000, 2)
        one = CylinderConstraint(((0, 0),), (1,))
        assert mc_cylinder_measure(kernel, one, 5000, 2).estimate == 0.0

    @pytest.mark.parametrize("kernel,sites", [
        (torus_kernel(SYS, 28, 28), ((0, 0), (3, 1), (-2, 5))),
        (TorusKernel(5, 5, (0b110, (1 << 7) | 0b100)), ((0, 0), (3, 0), (4, 4))),
    ], ids=["dimension 0", "masks 0"])
    @pytest.mark.parametrize("bits", [(0, 0, 0), (0, 1, 0)])
    def test_no_generator_read_draws_nothing(self, monkeypatch, kernel, sites, bits):
        c = CylinderConstraint(sites, bits)
        assert all(kernel.site_mask(s) == 0 for s in sites)
        expected = reference_mc_hits(kernel, c, 5000, 3) / 5000

        def no_draw(*args):
            raise AssertionError("a chunk was drawn")
        monkeypatch.setattr(algebraic, "substream", no_draw)
        monkeypatch.setattr(algebraic, "_mc_draw", no_draw)
        start = time.perf_counter()
        mv = mc_cylinder_measure(kernel, c, MAX_MC_SAMPLES, 3)
        assert time.perf_counter() - start < 1.0
        assert mv.estimate == expected == float(not any(bits))
        assert mv.stderr == 0.0 and mv.samples == MAX_MC_SAMPLES
        assert mv.meta == {"torus": [kernel.width, kernel.height], "seed": 3}

    def test_hits_when_some_generators_are_unread(self):
        kernel = torus_kernel(SYS, 40, 40)
        assert kernel.dim == 64
        gen = substream(2024, "unread")
        for trial in range(4):
            sites = set()
            while len(sites) < 3:
                sites.add((int(gen.integers(-6, 7)), int(gen.integers(-6, 7))))
            sites = tuple(sorted(sites))
            read = functools.reduce(int.__or__, (kernel.site_mask(s) for s in sites))
            assert 0 < read.bit_count() < kernel.dim
            bits = tuple(int(b) for b in gen.integers(0, 2, size=3))
            self._assert_hits_match(kernel, CylinderConstraint(sites, bits), 2 * 8192 + 77, trial)

    def test_hits_with_a_mask_zero_site_among_unread_generators(self):
        # 64 random generators on a 9 x 9 torus: none is nonzero at (0, 0),
        # and only the first 20 are nonzero at (4, 4) or (7, 2).
        gen = substream(2025, "unread")
        origin = 1 << 0
        late = (1 << 4 * 9 + 4) | (1 << 2 * 9 + 7)  # sites (4, 4) and (7, 2)
        basis = tuple(int.from_bytes(gen.bytes(11), "little") % (1 << 81)
                      & ~(origin | (late if g >= 20 else 0)) for g in range(64))
        kernel = TorusKernel(9, 9, basis)
        sites = ((4, 4), (0, 0), (7, 2))
        assert kernel.site_mask((0, 0)) == 0
        assert (kernel.site_mask((4, 4)) | kernel.site_mask((7, 2))) >> 20 == 0
        for bits in [(0, 0, 1), (1, 0, 0), (1, 1, 1), (0, 0, 0)]:
            self._assert_hits_match(kernel, CylinderConstraint(sites, bits), 2 * 8192 + 77, 5)

    def test_window_and_mc_agree_on_random_constellations(self):
        gen = substream(999, "consistency")
        kernel = None
        for trial in range(20):
            n_sites = int(gen.integers(2, 6))
            sites = set()
            while len(sites) < n_sites:
                sites.add((int(gen.integers(0, 33)), int(gen.integers(0, 33))))
            c = CylinderConstraint(tuple(sorted(sites)),
                                   tuple(int(b) for b in gen.integers(0, 2, size=n_sites)))
            exact = cylinder_measure(SYS, c).exact
            if kernel is None:
                kernel = default_torus_for(SYS, CylinderConstraint(
                    ((0, 0), (32, 0), (0, 32)), (0, 0, 0)))
            est = mc_cylinder_measure(kernel, c, 20000, 100 + trial)
            assert abs(est.estimate - float(exact)) <= 4 * est.stderr + 1e-9


def _ev(sites, bits):
    return CylinderConstraint(tuple(sites), tuple(bits))


def _square(lo, hi):
    return [(z, w) for z in range(lo, hi) for w in range(lo, hi)]


# (events, (z, w) pairs) for the Bernoulli grid's split into near and far pairs.
BERNOULLI_GRIDS = {
    # sites 9 apart, wider than many shifts: near and far pairs, with
    # negative and zero shifts among both
    "wide sites": ([_ev((0, 9), (0, 1)), _ev((-2, 5), (1, 1)), _ev((3,), (0,))], _square(-14, 15)),
    # the reach is 3, and z = 3 makes two sites meet with different bits
    "meet at the reach": ([_ev((0, 3), (0, 1)), _ev((0,), (0,)), _ev((0,), (1,))],
                          _square(-6, 7)),
    # the reach is 3 and every |z| and |w| exceeds it, so events[1] and
    # events[2] meet only where w - z is 2 (bits differ) or -1 (bits agree)
    "meet through w - z": ([_ev((0, 1), (0, 0)), _ev((0, 3), (1, 0)), _ev((1,), (1,))],
                           _square(8, 14)),
    "an empty event": ([_ev((), ()), _ev((0, 2), (1, 0)), _ev((1, 4), (1, 1))], _square(-8, 9)),
    "all empty": ([_ev((), ())] * 3, _square(-2, 3)),
    # the reach is 1, and every |z|, |w| and |w - z| is at least 3
    "no near pair": ([_ev((0, 1), (0, 1)), _ev((0,), (0,)), _ev((1,), (1,))],
                     [(z, w) for z in (5, -7, 20) for w in (-3, 12, 40)]),
}


def _reach(events):
    """The largest difference between the sites of two events, -1 if no
    two events have sites."""
    return max((abs(a - b) for i, x in enumerate(events) for j, y in enumerate(events)
                if i != j for a in x.sites for b in y.sites), default=-1)


class TestBernoulli:
    def test_single_site(self):
        assert bernoulli_cylinder_measure([(0, 0)]).exact == Fraction(1, 2)

    def test_three_distinct_sites(self):
        c = CylinderConstraint((0, 5, 9), (0, 1, 0))
        assert bernoulli_cylinder_measure(zip(c.sites, c.bits)).exact == Fraction(1, 8)

    def test_conflicting_bits_zero(self):
        assert bernoulli_cylinder_measure([(3, 0), (3, 1)]).exact == 0

    def test_duplicate_consistent_bits_merge(self):
        assert bernoulli_cylinder_measure([(3, 1), (3, 1), (7, 0)]).exact == Fraction(1, 4)

    def test_grid_matches_intersection_measure(self):
        # 300 random triples of up to 3 requirements each, all pairs with
        # shifts in [-5, 5]: overlapping shifts merge sites or contradict
        rng = random.Random(9)
        oracle = BernoulliOracle()
        pairs = np.array([(z, w) for z in range(-5, 6) for w in range(-5, 6)])
        zeros = contradictions = 0
        for _ in range(300):
            events = []
            for _ in range(3):
                sites = rng.sample(range(-3, 4), rng.randint(0, 3))
                events.append(CylinderConstraint(tuple(sites),
                                                 tuple(rng.randint(0, 1) for _ in sites)))
            grid = oracle.correlation_grid(events, pairs)
            expected = [oracle.intersection_measure((0, z, w), events).as_float()
                        for z, w in pairs.tolist()]
            assert grid.tolist() == expected
            zeros += expected.count(0.0)
            contradictions += any(v == 0.0 for v in expected)
        assert zeros > 0 and contradictions > 50

    @pytest.mark.parametrize("name", sorted(BERNOULLI_GRIDS))
    def test_grid_matches_intersection_measure_near_and_far(self, name):
        events, pairs = BERNOULLI_GRIDS[name]
        oracle = BernoulliOracle()
        expected = [oracle.intersection_measure((0, z, w), events).as_float() for z, w in pairs]
        assert oracle.correlation_grid(events, np.array(pairs)).tolist() == expected

    def test_grid_matches_intersection_measure_past_the_reach(self):
        # 200 random triples of up to 3 requirements on sites in [-4, 4], all
        # pairs with shifts in [-12, 12]: most pairs are far, and the near
        # ones merge sites or contradict
        rng = random.Random(25)
        oracle = BernoulliOracle()
        pairs = np.array([(z, w) for z in range(-12, 13) for w in range(-12, 13)])
        near = far = 0
        for _ in range(200):
            events = []
            for _ in range(3):
                sites = rng.sample(range(-4, 5), rng.randint(0, 3))
                events.append(CylinderConstraint(tuple(sites),
                                                 tuple(rng.randint(0, 1) for _ in sites)))
            grid = oracle.correlation_grid(events, pairs)
            assert grid.tolist() == [oracle.intersection_measure((0, z, w), events).as_float()
                                     for z, w in pairs.tolist()]
            reach = _reach(events)
            count = sum(min(abs(z), abs(w), abs(w - z)) <= reach for z, w in pairs.tolist())
            near, far = near + count, far + len(pairs) - count
        assert near > 10_000 and far > 10_000

    def test_grid_sorts_only_the_near_pairs_and_one_far_pair(self, monkeypatch):
        seen = []
        sort = algebraic._sorted_grid

        def spy(events, pairs):
            seen.append(pairs.tolist())
            return sort(events, pairs)

        monkeypatch.setattr(algebraic, "_sorted_grid", spy)
        for name, (events, pairs) in sorted(BERNOULLI_GRIDS.items()):
            reach = _reach(events)
            near = [list(p) for p in pairs if min(abs(p[0]), abs(p[1]), abs(p[1] - p[0])) <= reach]
            far = [list(p) for p in pairs if list(p) not in near]
            seen.clear()
            BernoulliOracle().correlation_grid(events, np.array(pairs))
            assert seen == [near + far[:1]], name
            assert (name in ("all empty", "no near pair")) == (near == [])

    def test_grid_with_sites_beyond_int64(self):
        # shifts span 16; sites 100 and 117 sit one more than that apart
        far = 10 ** 30
        events = [CylinderConstraint((0, far), (0, 1)), CylinderConstraint((far - 3, 100), (0, 1)),
                  CylinderConstraint((far - 5, 117), (1, 0))]
        oracle = BernoulliOracle()
        pairs = np.array([(z, w) for z in range(-8, 9) for w in range(-8, 9)])
        expected = [oracle.intersection_measure((0, z, w), events).as_float()
                    for z, w in pairs.tolist()]
        assert oracle.correlation_grid(events, pairs).tolist() == expected
        assert {0.0, 1 / 32, 1 / 64} <= set(expected)

    def test_grid_rejects_plane_sites(self):
        plane = CylinderConstraint(((0, 0),), (0,))
        with pytest.raises(TypeError, match="Bernoulli events live on Z sites"):
            BernoulliOracle().correlation_grid([plane] * 3, np.array([[1, 2]]))


class TestGridIO:
    def test_json_roundtrip(self):
        k = torus_kernel(SYS, 9, 12)
        grid = sample_configuration(k, 3)
        assert np.array_equal(grid_from_json(grid_to_json(grid)), grid)

    def test_pbm_roundtrip_and_color_convention(self):
        k = torus_kernel(SYS, 9, 9)
        grid = sample_configuration(k, 4)
        pbm = grid_to_pbm(grid)
        # bit 0 renders dark: PBM black pixel (1) at zero bits
        first_row = pbm.splitlines()[3].split()
        assert first_row[0] == ("1" if grid[0, 0] == 0 else "0")
        assert np.array_equal(grid_from_pbm(pbm), grid)


GRID_SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (1, 7), (7, 1), (4, 9), (65, 65)]


class TestGridWriters:
    """The array writers write the bytes of the per-cell reference loops."""

    @pytest.mark.parametrize("shape", GRID_SHAPES)
    @pytest.mark.parametrize("fill", ["zeros", "ones", "random"])
    def test_match_cell_loops(self, shape, fill):
        gen = np.random.default_rng(sum(shape))
        grid = {"zeros": np.zeros(shape, dtype=np.uint8),
                "ones": np.ones(shape, dtype=np.uint8),
                "random": gen.integers(0, 2, size=shape, dtype=np.uint8)}[fill]
        assert grid_to_json(grid) == reference_grid_to_json(grid)
        assert grid_to_pbm(grid) == reference_grid_to_pbm(grid)

    def test_sampled_configurations(self):
        for w, h in [(9, 12), (21, 17), (65, 65)]:
            grid = sample_configuration(torus_kernel(SYS, w, h), w * h)
            assert grid_to_json(grid) == reference_grid_to_json(grid)
            assert grid_to_pbm(grid) == reference_grid_to_pbm(grid)


class TestValidation:
    def test_distinct_sites_required(self):
        with pytest.raises(ValueError):
            CylinderConstraint(((0, 0), (0, 0)), (0, 1))

    def test_bit_values_checked(self):
        with pytest.raises(ValueError):
            CylinderConstraint(((0, 0),), (2,))

    def test_merge_detects_contradiction(self):
        assert merge_site_bits([((0, 0), 0), ((0, 0), 1)]) is None

    def test_pattern_needs_support(self):
        with pytest.raises(ValueError):
            RelationPattern(frozenset())

    @pytest.mark.parametrize("sites,bits,message", [
        (((0, 0), (1, 0)), (0,), "sites and bits must have equal length"),
        (((0, 0), (1, 0.5)), (0, 0), r"site \(1, 0.5\) is neither an int nor an \(i, j\) pair"),
        (((0, 0), 1), (0, 0), "sites must share one dimension"),
    ])
    def test_constraint_refusals(self, sites, bits, message):
        with pytest.raises(ValueError, match=message):
            CylinderConstraint(sites, bits)

    @pytest.mark.parametrize("obj", [{"sites": [[0, 0]]}, {"bits": [0]}, [[0, 0]]])
    def test_constraint_json_needs_sites_and_bits(self, obj):
        with pytest.raises(ValueError, match="constellation JSON needs 'sites' and 'bits'"):
            CylinderConstraint.from_json(obj)

    def test_pattern_offsets_are_pairs(self):
        with pytest.raises(ValueError, match=r"pattern offsets must be \(i, j\) pairs"):
            RelationPattern(frozenset({(0, 0), (1, 0, 0)}))

    def test_relation_space_needs_distinct_sites(self):
        with pytest.raises(ValueError, match="sites must be distinct"):
            relation_space(SYS, [(0, 0), (1, 0), (0, 0)])
