"""Algebraic systems: exact measures vs enumeration, kernels, sampling."""

from fractions import Fraction

import numpy as np
import pytest

from mixlab import gf2
from mixlab.algebraic import (
    AlgebraicSystem,
    CylinderConstraint,
    LEDRAPPIER_PATTERN,
    LedrappierOracle,
    RelationPattern,
    bernoulli_cylinder_measure,
    cylinder_measure,
    default_torus_for,
    grid_satisfies_pattern,
    grid_to_json,
    grid_to_pbm,
    ledrappier_system,
    mc_cylinder_measure,
    merge_site_bits,
    relation_space,
    sample_configuration,
    torus_kernel,
    transfer_matrix,
)
from mixlab.rng import substream

from conftest import (
    enumeration_measure,
    enumeration_relations,
    grid_from_json,
    grid_from_pbm,
    kernel_dimension_bruteforce,
    reference_torus_basis,
    reference_transfer_matrix,
    reference_window_masks,
    transpose,
)

SYS = ledrappier_system()
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
            assert mv.is_exact and mv.exact == Fraction(1, 32)

    def test_scale_2_to_20_single_relation(self):
        s = 1 << 20
        sites = ((0, 0), (s, 0), (-s, 0), (0, s), (0, -s))
        assert [v.to_list() for v in relation_space(SYS, sites)] == [[1, 1, 1, 1, 1]]
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
        system = AlgebraicSystem(RelationPattern(frozenset({(0, 0), (2, 0), (0, 2)})))
        mv = cylinder_measure(system, CylinderConstraint(((0, 0), (s, 0), (0, s)), (0, 0, 0)))
        assert mv.exact == Fraction(1, 4)

    def test_empty_constraint_has_full_measure(self):
        assert cylinder_measure(SYS, CylinderConstraint((), ())).exact == 1

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
        assert [v.to_list() for v in rels] == [[1, 1, 1, 1, 1]]
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
            assert [v.to_list() for v in rels] == [[1, 1, 1, 1, 1]]

    def test_dyadic_reduction_cross_validation(self):
        # reduction and window method agree for scales up to 128
        for k in range(1, 8):
            s = 1 << k
            sites = [(3, 4), (3 + s, 4), (3 - s, 4), (3, 4 + s), (3, 4 - s), (3 + 2 * s, 4)]
            via_window = relation_space(SYS, sites)
            reduced = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (2, 0)]
            via_reduction = relation_space(SYS, reduced)
            assert [v.to_list() for v in via_window] == [v.to_list() for v in via_reduction]


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


class TestWindowMethodCrossCheck:
    @pytest.mark.parametrize("pattern", CROSS_PATTERNS, ids=lambda p: str(sorted(p.support)))
    def test_matches_window_method(self, pattern):
        # Rank, consistency and the relation basis, bit for bit, against the
        # window method.
        system = AlgebraicSystem(pattern)
        gen = substream(404, "window-cross", str(sorted(pattern.support)))
        for trial in range(60):
            sites = _cross_sites(pattern, gen, trial)
            k = len(sites)
            masks, n_gens = reference_window_masks(pattern, sites)
            m = gf2.BitMatrix(k, n_gens, tuple(masks))
            rels = relation_space(system, sites)
            assert rels == gf2.nullspace(transpose(m))
            assert k - len(rels) == gf2.rank(m)
            for bits in [(0,) * k, tuple(int(b) for b in gen.integers(0, 2, size=k))]:
                solvable = gf2.solve_affine(m, gf2.BitVector.from_bits(bits)) is not None
                expected = Fraction(1, 1 << gf2.rank(m)) if solvable else 0
                c = CylinderConstraint(tuple(sites), bits)
                assert cylinder_measure(system, c).exact == expected


def _basis_grid(kernel, vec):
    """(height, width) 0/1 array of one flattened basis configuration."""
    n = kernel.width * kernel.height
    raw = vec.bits.to_bytes((n + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, dtype=np.uint8),
                         bitorder="little")[:n].reshape(kernel.height, kernel.width)


class TestTorusKernel:
    @pytest.mark.parametrize("w,h", [(3, 3), (3, 4), (4, 4), (3, 5), (4, 3), (5, 3)])
    def test_dimension_matches_enumeration(self, w, h):
        assert torus_kernel(SYS, w, h).dim == kernel_dimension_bruteforce(SYS, w, h)

    @pytest.mark.parametrize("w,h", [(3, 3), (3, 4), (4, 3), (3, 5)])
    def test_asymmetric_dimension_matches_enumeration(self, w, h):
        system = AlgebraicSystem(CORNER)
        assert torus_kernel(system, w, h).dim == kernel_dimension_bruteforce(system, w, h)

    def test_zero_configuration_always_present(self):
        k = torus_kernel(SYS, 6, 9)
        # The zero combination is in the span by construction; basis elements
        # must each satisfy the wrapped relations.
        for vec in k.basis:
            assert grid_satisfies_pattern(SYS.pattern, _basis_grid(k, vec))

    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=lambda p: str(sorted(p.support)))
    @pytest.mark.parametrize("w,h", [(9, 9), (12, 12), (6, 9), (15, 6)])
    def test_basis_matches_per_bit_expansion(self, pattern, w, h):
        # Asymmetric taps make a rotation in the wrong direction, or a row
        # read from the wrong depth, show up as a different basis.
        k = torus_kernel(AlgebraicSystem(pattern), w, h)
        assert k.dim > 0
        assert k.basis == reference_torus_basis(pattern, w, h)
        for vec in k.basis:
            assert grid_satisfies_pattern(pattern, _basis_grid(k, vec))

    @pytest.mark.parametrize("pattern", KERNEL_PATTERNS, ids=lambda p: str(sorted(p.support)))
    @pytest.mark.parametrize("w", [5, 8])
    def test_transfer_matrix_matches_per_bit_step(self, pattern, w):
        assert transfer_matrix(pattern, w) == reference_transfer_matrix(pattern, w)

    def test_transfer_matrix_size(self):
        t = transfer_matrix(LEDRAPPIER_PATTERN, 7)
        assert t.rows == t.cols == 14

    def test_small_dimensions_rejected(self):
        with pytest.raises(ValueError):
            torus_kernel(SYS, 2, 5)


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
            assert grid_satisfies_pattern(SYS.pattern, sample_configuration(k, seed))


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
