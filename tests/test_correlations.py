"""Correlation scans: frozen examples, Q/Der bookkeeping, oracles."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    BLOCK_ROW_COUNTS,
    SyntheticTripleOracle,
    admissible_pairs,
    reference_correlation_grid,
    reference_dev_heatmap_svg,
    reference_random_separated_shifts,
    reference_scan_rows_to_csv,
)

from mixlab.algebraic import BernoulliOracle, CylinderConstraint, LedrappierOracle
from mixlab.rankone import WordOracle, generate_word, preset_spec
from mixlab.correlations import (
    Constellation,
    DevScan,
    admissible_mask,
    OracleCapabilityError,
    dev_scan,
    dev_heatmap_svg,
    dyadic_family,
    kfold_correlation,
    ledrappier_dyadic_shifts,
    mix_defect_scan,
    mix_rows_to_csv,
    random_separated_shifts,
    scan_rows_to_csv,
)

BERN = BernoulliOracle()
LED = LedrappierOracle()
B0 = CylinderConstraint((0,), (0,))
L0 = CylinderConstraint(((0, 0),), (0,))


class TestKfold:
    def test_bernoulli_triple(self):
        c = Constellation((0, 3, 7), (B0, B0, B0))
        assert kfold_correlation(BERN, c).exact == Fraction(1, 8)

    def test_ledrappier_dyadic_five(self):
        for n in (2, 5):
            c = Constellation(ledrappier_dyadic_shifts(n), (L0,) * 5)
            assert kfold_correlation(LED, c).exact == Fraction(1, 16)

    def test_single_event_reduces_to_event_measure(self):
        c = Constellation((0,), (B0,))
        assert kfold_correlation(BERN, c).exact == Fraction(1, 2)

    def test_prepending_zero_shift_invariance(self):
        double = CylinderConstraint((0, 4), (0, 1))
        base = Constellation((3, 9), (B0, double))
        with_zero = Constellation((0, 3, 9), (CylinderConstraint((), ()), B0, double))
        assert kfold_correlation(BERN, base).exact == kfold_correlation(BERN, with_zero).exact

    def test_global_translation_invariance(self):
        a = Constellation((0, 3, 9), (B0, B0, B0))
        b = Constellation((5, 8, 14), (B0, B0, B0))
        assert kfold_correlation(BERN, a).exact == kfold_correlation(BERN, b).exact

    def test_capability_mismatch(self):
        with pytest.raises(OracleCapabilityError):
            kfold_correlation(BERN, Constellation(((0, 0), (1, 1)), (L0, L0)))


class TestMixDefectScan:
    def test_bernoulli_order2_exact_zero(self):
        res = mix_defect_scan(BERN, [B0] * 3,
                              random_separated_shifts(5, 60, 2, 8, 100, dim=1),
                              budget=60)
        assert res.max_abs_defect == 0
        assert res.scanned == 60

    def test_rows_to_csv_exact_fractions(self):
        # x0 = 0, (x1, x2) = (0, 1) shifted by s, x_t = 0: overlapping
        # shifts tie the events, disjoint ones make them independent
        b1 = CylinderConstraint((0, 1), (0, 1))
        res = mix_defect_scan(BERN, [B0, b1, B0], [(0, 0, 5), (0, 1, 9)], budget=2)
        lines = mix_rows_to_csv(res).splitlines()
        assert lines[0] == "shifts,correlation,product,defect,has_certificate"
        assert lines[1] == '"[0, 0, 5]",1/8,1/16,1/16,0'
        assert lines[2] == '"[0, 1, 9]",1/16,1/16,0,0'

    def test_bernoulli_order1_exact_zero(self):
        res = mix_defect_scan(BERN, [B0] * 2,
                              random_separated_shifts(6, 40, 1, 8, 100, dim=1),
                              budget=40)
        assert res.max_abs_defect == 0

    def test_ledrappier_order4_dyadic_defect(self):
        res = mix_defect_scan(LED, [L0] * 5, dyadic_family(range(1, 8)), budget=7)
        assert res.max_abs_defect == Fraction(1, 32)
        # every scanned scale realizes the defect
        assert all(row.defect == Fraction(1, 32) for row in res.rows)
        assert res.certificate["relations"] == [[1, 1, 1, 1, 1]]

    def test_ledrappier_order3_separated_zero(self):
        res = mix_defect_scan(
            LED, [L0] * 4,
            random_separated_shifts(7, 60, 3, 8, 128, dim=2),
            budget=60)
        assert res.max_abs_defect == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            mix_defect_scan(BERN, [B0], [], budget=1)
        with pytest.raises(ValueError):
            mix_defect_scan(BERN, [B0] * 2, [], budget=0)
        with pytest.raises(ValueError):
            mix_defect_scan(BERN, [B0] * 2, [(0, 1, 2)], budget=1)

    @pytest.mark.parametrize("count", [0, 1, 18])
    def test_order_past_its_bound_is_refused_before_any_measure(self, count):
        # The order is len(events) - 1, checked before any event is measured.
        class SpyOracle:
            def event_measure(self, event):
                raise AssertionError("measured an event")

            def intersection_measure(self, shifts, events):
                raise AssertionError("measured an intersection")

        with pytest.raises(ValueError, match="order k must lie in 1..16"):
            mix_defect_scan(SpyOracle(), [B0] * count, [(0,) * count], budget=1)

    def test_each_distinct_event_measured_once(self):
        # k + 1 default events are one event, measured once; two distinct
        # events, each repeated, are measured once each, in first-seen order.
        class Counting(LedrappierOracle):
            def __init__(self):
                super().__init__()
                self.measured = []

            def event_measure(self, event):
                self.measured.append(event)
                return super().event_measure(event)

        oracle = Counting()
        res = mix_defect_scan(oracle, [L0] * 5, dyadic_family(range(1, 4)), budget=3)
        assert oracle.measured == [L0] and res.max_abs_defect == Fraction(1, 32)
        l1 = CylinderConstraint(((0, 0),), (1,))
        oracle = Counting()
        mix_defect_scan(oracle, [L0, l1, L0, l1], [((0, 0), (9, 1), (0, 18), (27, 3))], budget=1)
        assert oracle.measured == [L0, l1]

    def test_estimate_oracle_is_refused(self):
        # A mixing scan compares exact fractions; an oracle that returns
        # estimates cannot take part in it.
        oracle = SyntheticTripleOracle({B0: 0.5}, {(1, 2): 0.125})
        with pytest.raises(OracleCapabilityError, match="exact"):
            mix_defect_scan(oracle, [B0] * 3, [(0, 1, 2), (0, 5, 9)], budget=2)

    def test_order_comes_from_the_events(self):
        res = mix_defect_scan(BERN, [B0] * 4, [(0, 9, 18, 27)], budget=1)
        assert res.order == 3 and res.scanned == 1


def _drawn(shifts, count):
    """The tuples a shift generator yields before it stops, and the message
    of the ValueError it stops with, if any."""
    out = []
    try:
        for t in shifts:
            out.append(t)
    except ValueError as exc:
        return out, str(exc)
    assert len(out) == count
    return out, None


class TestSeparatedShifts:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("box", [4, 5, 16, 100, 1000, 4096])
    def test_one_draw_per_attempt_is_the_scalar_stream(self, dim, box):
        # An attempt draws its k * dim coordinates in one call; the stream is
        # the one that k * dim scalar calls would draw, in the same order.
        for seed in range(12):
            count = 1 + seed % 3
            args = (seed, count, 1 + seed % 5, (box, box // 2, 1, 0)[seed % 4], box, dim)
            assert _drawn(random_separated_shifts(*args), count) == \
                _drawn(reference_random_separated_shifts(*args), count)

    @pytest.mark.parametrize("dim,k,box", [(1, 3, 6), (2, 9, 2)])
    def test_cannot_satisfy_after_the_same_draws(self, dim, k, box):
        # With gaps of the whole box, shifts fit only at the multiples of
        # the box other than the origin: 2 of them on Z, 8 on Z^2.  So k of
        # them never fit, and both raise after the same draws.
        for seed in range(4):
            args = (seed, 2, k, box, box, dim)
            got = _drawn(random_separated_shifts(*args), 2)
            assert got == ([], "cannot satisfy separation constraints in the box")
            assert got == _drawn(reference_random_separated_shifts(*args), 2)

    @pytest.mark.parametrize("k,min_gap,box", [(3, 4, 6), (2, 2, 3), (2, 4, 4), (4, 3, 7)])
    def test_every_tuple_keeps_its_gap_and_its_box(self, k, min_gap, box):
        # An all-even draw has its last point moved one step before the
        # check, so in a small box the moved point can land too close to
        # another or past the edge; such a draw is drawn again.  Seed 98 of
        # the first case draws (0, 0), (-2, -6), (0, 6), (-4, 2), whose moved
        # last point (-3, 2) is 3 from the origin.
        for seed in range(250):
            for pts in random_separated_shifts(seed, 4, k, min_gap, box):
                assert all(abs(x) <= box for p in pts for x in p), pts
                assert all(max(abs(x - y) for x, y in zip(p, q)) >= min_gap
                           for p, q in itertools.combinations(pts, 2)), pts
                assert any(x % 2 for p in pts for x in p), pts


class TestDevScan:
    def test_product_oracle_empty_der(self):
        oracle = SyntheticTripleOracle({"A": 0.5, "B": 0.25, "C": 0.5})
        scan = dev_scan(oracle, "A", "B", "C", 0.1, 30)
        assert scan.der_pairs == [] and scan.dev == 0

    def test_planted_spike_recovered(self):
        eps, h = 0.05, 40
        spike_at = (10, 20)
        oracle = SyntheticTripleOracle({"A": 0.5, "B": 0.5, "C": 0.5},
                                       {spike_at: 2 * eps})
        scan = dev_scan(oracle, "A", "B", "C", eps, h)
        assert scan.der_pairs == [spike_at]
        assert scan.dev == Fraction(1, h)

    def test_bernoulli_dev_zero(self):
        scan = dev_scan(BERN, B0, B0, B0, 0.05, 100)
        assert scan.dev == 0

    def test_q_membership_by_recomputation(self):
        eps, h = 0.12, 25
        pairs = set(admissible_pairs(eps, h))
        for z in range(h + 1):
            for w in range(h + 1):
                expected = abs(z) > eps * h and abs(w) > eps * h and abs(z - w) > eps * h
                assert ((z, w) in pairs) == expected

    def test_der_subset_of_q_and_count_identity(self):
        eps, h = 0.05, 30
        oracle = SyntheticTripleOracle(
            {"A": 0.5, "B": 0.5, "C": 0.5},
            {(5, 20): 3 * eps, (9, 21): 2 * eps, (2, 3): 10 * eps})  # (2,3) outside Q
        scan = dev_scan(oracle, "A", "B", "C", eps, h)
        q = set(admissible_pairs(eps, h))
        assert set(scan.der_pairs) <= q
        assert scan.dev * h == len(scan.der_pairs)
        assert (2, 3) not in scan.der_pairs

    def test_validation(self):
        with pytest.raises(ValueError):
            dev_scan(BERN, B0, B0, B0, 0.5, 10)
        with pytest.raises(ValueError):
            dev_scan(BERN, B0, B0, B0, 0.05, 0)

    def test_csv_and_heatmap_exports(self):
        oracle = SyntheticTripleOracle({"A": 0.5, "B": 0.5, "C": 0.5}, {(5, 9): 0.2})
        scan = dev_scan(oracle, "A", "B", "C", 0.05, 12)
        csv_text = scan_rows_to_csv(scan)
        assert csv_text.splitlines()[0] == "z,w,correlation,product,defect"
        assert len(csv_text.splitlines()) == scan.q_size + 1
        svg = dev_heatmap_svg(scan)
        assert svg.startswith("<svg") and "</svg>" in svg

    def test_rankone_scan_matches_sliding_counts_and_csv_writer(self):
        eps, h = 0.07, 90
        word = generate_word(preset_spec("chacon", 12), 1, 30000)
        event = frozenset({0})
        scan = dev_scan(WordOracle(word), event, event, event, eps, h)
        pairs = admissible_pairs(eps, h)
        assert [tuple(p) for p in scan.pairs.tolist()] == pairs
        corr = reference_correlation_grid(word, (event,) * 3, pairs)
        assert scan.correlation.tolist() == corr
        p = np.count_nonzero(word.symbols == 0) / word.length
        prod = p * p * p
        rows = [(z, w, c, prod, abs(c - prod)) for (z, w), c in zip(pairs, corr)]
        assert scan.product == prod
        assert len(scan.der_pairs) == 56
        assert scan.der_pairs == [(z, w) for z, w, _, _, d in rows if d > eps]
        # outside the assert: a failed == of long texts is diffed for minutes
        same = scan_rows_to_csv(scan).splitlines(True) == \
            reference_scan_rows_to_csv(rows).splitlines(True)
        assert same

    def test_bernoulli_scan_csv_matches_csv_writer(self):
        eps, h = 0.1, 40
        # sites 8 apart and more: admissible shifts overlap and contradict
        events = (CylinderConstraint((0, 8), (0, 1)), CylinderConstraint((0, 3), (1, 1)),
                  CylinderConstraint((0, 5, 11), (1, 1, 0)))
        scan = dev_scan(BERN, *events, eps, h)
        prod = 1 / 128
        rows = [(z, w, BERN.intersection_measure((0, z, w), events).as_float(), prod)
                for z, w in admissible_pairs(eps, h)]
        rows = [(z, w, c, p, abs(c - p)) for z, w, c, p in rows]
        assert {c for _, _, c, _, _ in rows} == {0.0, 1 / 128, 1 / 64, 1 / 32}
        same = scan_rows_to_csv(scan).splitlines(True) == \
            reference_scan_rows_to_csv(rows).splitlines(True)
        assert same

    @pytest.mark.parametrize("rows", BLOCK_ROW_COUNTS)
    def test_csv_matches_csv_writer_at_block_boundaries(self, small_blocks, rows):
        gen = np.random.default_rng(rows)
        pairs = np.argwhere(admissible_mask(0.1, 12))[:rows]
        corr = gen.choice([0.0, 1 / 8, 1 / 3, 0.5], size=rows)
        prod = 1 / 8
        scan = DevScan(epsilon=0.1, h=12, q_size=rows, der_pairs=[], dev=Fraction(0),
                       dev_h2=Fraction(0), pairs=pairs, correlation=corr, product=prod,
                       defect=np.abs(corr - prod))
        expected = [(z, w, c, prod, abs(c - prod)) for (z, w), c in zip(pairs.tolist(), corr)]
        same = scan_rows_to_csv(scan) == reference_scan_rows_to_csv(expected)
        assert same

    def test_csv_keeps_negative_zero_apart(self):
        # -0.0 and 0.0 compare equal but print as "-0" and "0"
        oracle = SyntheticTripleOracle({"A": -0.0}, {(5, 9): -0.0})
        lines = scan_rows_to_csv(dev_scan(oracle, "A", "A", "A", 0.05, 12)).splitlines()
        assert "5,9,-0,-0,0" in lines and "5,8,0,-0,0" in lines

    def test_each_distinct_event_measured_once(self):
        class Counting(SyntheticTripleOracle):
            calls = 0

            def event_measure(self, event):
                self.calls += 1
                return super().event_measure(event)

        oracle = Counting({"A": 0.5, "B": 0.25})
        dev_scan(oracle, "A", "A", "A", 0.1, 10)
        assert oracle.calls == 1
        dev_scan(oracle, "A", "B", "A", 0.1, 10)
        assert oracle.calls == 3


HEATMAP_EVENTS = (CylinderConstraint((0, 8), (0, 1)), CylinderConstraint((0, 3), (1, 1)),
                  CylinderConstraint((0, 5, 11), (1, 1, 0)))


class TestDevHeatmap:
    """The array heatmap of a deviation scan writes the per-cell loop's bytes."""

    @pytest.mark.parametrize("eps,h", [(0.05, 1), (0.1, 7), (0.13, 40), (0.3, 97)])
    def test_bernoulli(self, eps, h):
        for events in (HEATMAP_EVENTS, (B0, B0, B0)):
            scan = dev_scan(BERN, *events, eps, h)
            same = dev_heatmap_svg(scan) == reference_dev_heatmap_svg(scan)
            assert same

    @pytest.mark.parametrize("name,stages,eps,h", [
        ("staircase", 10, 0.05, 120), ("chacon", 12, 0.11, 64),
        ("single_spacer", 17, 0.2, 33), ("doubling", 15, 0.07, 90),
    ])
    def test_rankone(self, name, stages, eps, h):
        word = generate_word(preset_spec(name, stages), 1, 20000)
        event = frozenset({0})
        scan = dev_scan(WordOracle(word), event, event, event, eps, h)
        same = dev_heatmap_svg(scan) == reference_dev_heatmap_svg(scan)
        assert same

    def test_planted_spikes_and_zero_field(self):
        spiked = SyntheticTripleOracle({"A": 0.5}, {(5, 9): 0.2, (9, 5): 0.2, (11, 3): -0.1})
        flat = SyntheticTripleOracle({"A": 0.5})
        for oracle in (spiked, flat):
            scan = dev_scan(oracle, "A", "A", "A", 0.05, 12)
            same = dev_heatmap_svg(scan) == reference_dev_heatmap_svg(scan)
            assert same


class TestConstellationType:
    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Constellation((0, 1), (B0,))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Constellation((), ())

    def test_monotonicity_checked_during_scan(self):
        class BadOracle:
            def event_measure(self, event):
                from mixlab.measure import MeasureValue
                return MeasureValue.of_exact(Fraction(1, 4))

            def intersection_measure(self, shifts, events):
                from mixlab.measure import MeasureValue
                return MeasureValue.of_exact(Fraction(1, 2))  # exceeds the events

        with pytest.raises(AssertionError):
            mix_defect_scan(BadOracle(), ["a", "b"], [(0, 1)], budget=1)
