"""Joining tensors and the Markov operator calculus."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    PerEntryMember,
    adjoint_maps_mean_zero,
    apply,
    as_array,
    averaging_operator,
    diagonal_tensor,
    group_sum_tensor,
    image,
    pair,
    product_tensor,
    reference_classify,
    reference_joining_error,
    reference_lower_order,
    reference_marginal,
    reference_pair_compose,
    reference_raise_order,
    reference_restricted_norm,
)

from mixlab import joinings
from mixlab.algebraic import BernoulliOracle, CylinderConstraint, LedrappierOracle
from mixlab.correlations import OracleCapabilityError, dyadic_family
from mixlab.joinings import (
    MAX_JOINING_ENTRIES,
    MAX_JOINING_ORDER,
    STABLE_MEMBERS,
    JoiningError,
    JoiningTensor,
    LinearOperator,
    MarkovOperator,
    NonStabilizingError,
    Partition,
    chain_check,
    classify,
    limit_joining,
    lower_order,
    markov_from_joining,
    marginal,
    mean_zero_restricted_norm,
    pair_compose,
    parity_tensor,
    raise_order,
    uniform_partition,
)
from mixlab.measure import MeasureValue, format_fraction
from mixlab.rng import substream

U2 = uniform_partition(2)
SIGN = [Fraction(1), Fraction(-1)]  # mean-zero witness under uniform masses


def _tensor_indices(d, order):
    return itertools.product(range(d), repeat=order)


class TestTensors:
    def test_parity_entries(self):
        t = parity_tensor(5)
        assert as_array(t)[0, 0, 0, 0, 0] == Fraction(1, 16)
        assert as_array(t)[1, 0, 0, 0, 0] == 0
        assert sum(t.entries) == 1

    def test_invariants_enforced(self):
        # marginals off: all mass on the first row
        with pytest.raises(JoiningError):
            JoiningTensor(2, U2.weights, (Fraction(1, 2), Fraction(1, 2),
                                          Fraction(0), Fraction(0)))
        # negative entry
        with pytest.raises(JoiningError):
            JoiningTensor(2, U2.weights, (Fraction(3, 4), Fraction(-1, 4),
                                          Fraction(-1, 4), Fraction(3, 4)))
        # wrong mass
        with pytest.raises(JoiningError):
            JoiningTensor(2, U2.weights, (Fraction(1, 4),) * 3 + (Fraction(1, 2),))
        # tensor JSON whose dims disagrees with its weights: one cell mass
        # for two cells, and two for three
        with pytest.raises(JoiningError, match="one cell mass per cell"):
            JoiningTensor.from_json({"order": 2, "dims": 2, "weights": ["1"],
                                     "entries": ["1/4"] * 4})
        with pytest.raises(JoiningError, match="one cell mass per cell"):
            JoiningTensor.from_json({"order": 2, "dims": 3, "weights": ["1/2", "1/2"],
                                     "entries": ["1/4"] * 4})

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            Partition((Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(ValueError):
            Partition((Fraction(3, 2), Fraction(-1, 2)))
        with pytest.raises(ValueError, match="partition needs at least two cells"):
            Partition((Fraction(1),))

    def test_parity_tensor_needs_order_2(self):
        with pytest.raises(ValueError, match="parity tensor needs order >= 2"):
            parity_tensor(1)


class TestMarginal:
    def test_parity_four_axis_marginal_uniform(self):
        t = parity_tensor(5)
        for axes in itertools.combinations(range(5), 4):
            sub = marginal(t, axes)
            assert set(sub.entries) == {Fraction(1, 16)}

    def test_product_marginal_is_product(self):
        part = Partition((Fraction(1, 4), Fraction(3, 4)))
        t = product_tensor(part, 4)
        sub = marginal(t, (0, 2))
        assert sub.entries == product_tensor(part, 2).entries

    def test_single_axis_returns_weights(self):
        t = parity_tensor(3)
        assert marginal(t, (1,)) == [Fraction(1, 2), Fraction(1, 2)]

    def test_axes_validation(self):
        t = parity_tensor(3)
        with pytest.raises(ValueError):
            marginal(t, ())
        with pytest.raises(ValueError):
            marginal(t, (0, 1, 2))
        for axes in ((1, 1), (0, 3), (-1,)):
            with pytest.raises(ValueError, match="axes must be distinct and in range"):
                marginal(t, axes)


class TestClassify:
    def test_parity5_is_m45(self):
        cls = classify(parity_tensor(5))
        assert not cls.is_product
        assert cls.label == "M(4,5)"

    def test_product_detected(self):
        gen = substream(31, "classify")
        for _ in range(5):
            raw = [int(x) for x in gen.integers(1, 9, size=3)]
            total = sum(raw)
            part = Partition(tuple(Fraction(r, total) for r in raw))
            assert classify(product_tensor(part, 3)).is_product

    def test_perturbed_pairwise_independent_detected(self):
        # product tensor plus a parity-signed perturbation: 2-marginals stay
        # product, the tensor does not
        d = 2
        eps = Fraction(1, 16)
        entries = []
        for idx in _tensor_indices(d, 3):
            sign = 1 if sum(idx) % 2 == 0 else -1
            entries.append(Fraction(1, 8) + sign * eps)
        t = JoiningTensor(3, U2.weights, tuple(entries))
        cls = classify(t)
        assert not cls.is_product
        assert cls.label == "M(2,3)"

    def test_matches_loop_reference(self):
        gen = substream(17, "classify")
        # parity on three axes times a free fourth axis: class M(2,4)
        parity_x_free = JoiningTensor(4, U2.weights, tuple(
            e * w for e in parity_tensor(3).entries for w in U2.weights))
        tensors = [_twisted_group_sum(gen, 3, 4), _graph_mixture(gen, 3, 4),
                   diagonal_tensor(U2, 4), parity_x_free, product_tensor(U2, 4),
                   parity_tensor(5)]
        labels = set()
        for t in tensors:
            cls = classify(t)
            assert (cls.is_product, cls.max_product_marginal_order) == reference_classify(t)
            labels.add(cls.label)
        assert labels == {"M(3,4)", "M(1,4)", "M(2,4)", "product", "M(4,5)"}

    def test_classified_once_per_tensor(self, monkeypatch):
        seen = []
        real = joinings._classify
        monkeypatch.setattr(joinings, "_classify", lambda t: seen.append(t) or real(t))
        t = parity_tensor(5)
        classify(t)
        lowered, _ = lower_order(t)
        classify(t)
        assert seen == [t, lowered]


class TestMarkovFromJoining:
    def test_order_1_tensor_is_refused(self):
        with pytest.raises(ValueError, match="need a tensor of order at least 2"):
            markov_from_joining(JoiningTensor(1, U2.weights, (Fraction(1, 2),) * 2))

    def test_product_gives_averaging(self):
        part = Partition((Fraction(1, 3), Fraction(2, 3)))
        p = markov_from_joining(product_tensor(part, 3))
        assert p.matrix == averaging_operator(part, 2).matrix

    def test_parity_nonzero_on_mean_zero(self):
        p2 = markov_from_joining(parity_tensor(3))
        # sign x sign tensor function
        f = [SIGN[a] * SIGN[b] for a, b in _tensor_indices(2, 2)]
        img = apply(p2, f)
        assert img == SIGN  # the parity pairing sends sign x sign to sign

    def test_diagonal_acts_as_conditional_expectation(self):
        part = Partition((Fraction(1, 4), Fraction(3, 4)))
        p = markov_from_joining(diagonal_tensor(part, 2))
        f = [Fraction(5), Fraction(-2)]
        assert apply(p, f) == f  # P(f x 1) = f on the cell algebra

    def test_mean_zero_adjoint_inclusion(self):
        # holds exactly for tensors with product 2-marginals
        assert adjoint_maps_mean_zero(markov_from_joining(parity_tensor(3)))
        assert adjoint_maps_mean_zero(markov_from_joining(product_tensor(U2, 3)))
        mix_entries = tuple(
            Fraction(1, 2) * a + Fraction(1, 2) * b
            for a, b in zip(parity_tensor(3).entries, product_tensor(U2, 3).entries))
        assert adjoint_maps_mean_zero(
            markov_from_joining(JoiningTensor(3, U2.weights, mix_entries)))

    def test_degenerate_masses_rejected(self):
        # Validation refuses a zero mass, so the broken tensor is a bare
        # instance around the parity tensor's scaled view.
        broken = JoiningTensor.__new__(JoiningTensor)
        broken.order, broken.dims = 3, 2
        broken.weights = (Fraction(0), Fraction(1))
        broken.scaled = parity_tensor(3).scaled
        with pytest.raises(ValueError, match="degenerate cell masses"):
            markov_from_joining(broken)

    @pytest.mark.parametrize("cls", [LinearOperator, MarkovOperator])
    def test_operator_shape_checked(self, cls):
        with pytest.raises(ValueError, match="one row per cell"):
            cls(2, U2.weights, ((Fraction(1, 4),) * 4,))
        with pytest.raises(ValueError, match="one row per cell"):
            cls(1, U2.weights, ((Fraction(1),), (Fraction(1, 2), Fraction(1, 2), Fraction(0))))

    def test_markov_operator_checked(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="nonnegative"):
            MarkovOperator(1, U2.weights, ((Fraction(3, 2), -half), (half, half)))
        with pytest.raises(ValueError, match="preserve constants"):
            MarkovOperator(1, U2.weights, ((half, Fraction(1, 4)), (half, half)))
        LinearOperator(1, U2.weights, ((Fraction(3, 2), -half), (half, Fraction(1, 4))))


class TestPairings:
    def test_averaging_composes_to_averaging(self):
        avg = averaging_operator(U2, 2)
        p3 = pair_compose(avg)
        assert p3.matrix == averaging_operator(U2, 3).matrix
        p5 = pair_compose(p3)
        assert p5.matrix == averaging_operator(U2, 5).matrix

    def test_parity_p3_nonzero_on_mean_zero(self):
        p3 = pair_compose(markov_from_joining(parity_tensor(3)))
        f = [SIGN[a] * SIGN[b] * SIGN[c] for a, b, c in _tensor_indices(2, 3)]
        assert apply(p3, f) == SIGN

    def test_p3_pairing_identity_100_random_quadruples(self):
        p2 = markov_from_joining(parity_tensor(3))
        p3 = pair_compose(p2)
        gen = substream(41, "quadruples")
        for _ in range(100):
            a1, a2, a3, a4 = (int(x) for x in gen.integers(0, 2, size=4))
            lhs = pair(p3, a4, (a1, a2, a3))
            left = image(p2, (a1, a2))
            right = image(p2, (a3, a4))
            rhs = sum(w * x * y for w, x, y in zip(p2.weights, left, right))
            assert lhs == rhs

    def test_p3_p5_pairing_exhaustive_d3(self):
        q = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        p2 = markov_from_joining(group_sum_tensor(3, q))
        p3 = pair_compose(p2)
        p5 = pair_compose(p3)
        d = 3
        for cells in _tensor_indices(d, 4):
            lhs = pair(p3, cells[3], cells[:3])
            left = image(p2, cells[:2])
            right = image(p2, cells[2:])
            rhs = sum(w * x * y for w, x, y in zip(p2.weights, left, right))
            assert lhs == rhs
        gen = substream(42, "d3-p5")
        for _ in range(200):
            cells = tuple(int(x) for x in gen.integers(0, d, size=6))
            lhs = pair(p5, cells[5], cells[:5])
            left = image(p3, cells[:3])
            right = image(p3, cells[3:])
            rhs = sum(w * x * y for w, x, y in zip(p3.weights, left, right))
            assert lhs == rhs

    def test_p5_pairing_random_tuples_d6(self):
        d = 6
        gen = substream(43, "d6")
        raw = [int(x) for x in gen.integers(1, 6, size=d * d * d)]
        # random exact joining-like operator: rows normalized to sum 1
        rows = []
        for i in range(d):
            chunk = raw[i * d * d:(i + 1) * d * d]
            total = sum(chunk)
            rows.append(tuple(Fraction(c, total) for c in chunk))
        p2 = MarkovOperator(2, uniform_partition(d).weights, tuple(rows))
        p3 = pair_compose(p2)
        p5 = pair_compose(p3)
        for _ in range(1000):
            cells = tuple(int(x) for x in gen.integers(0, d, size=6))
            lhs = pair(p5, cells[5], cells[:5])
            left = image(p3, cells[:3])
            right = image(p3, cells[3:])
            rhs = sum(w * x * y for w, x, y in zip(p3.weights, left, right))
            assert lhs == rhs


class TestChain:
    def test_source_orders_checked(self):
        p2 = averaging_operator(U2, 2)
        p3 = pair_compose(p2)
        for a, b in ((p2, p2), (p3, p3), (p3, p2)):
            with pytest.raises(ValueError, match="chain check starts from source-order-2 and -3"):
                chain_check(a, b)
        with pytest.raises(ValueError, match="raise_order needs a source-order-3 operator"):
            raise_order(p2)

    def test_averaging_all_norms_zero(self):
        p2 = averaging_operator(U2, 2)
        rep = chain_check(p2, pair_compose(p2))
        assert rep.norm_p2 == rep.norm_p3 == rep.norm_p5 == 0.0

    def test_parity_norms_positive_and_chain_holds(self):
        p2 = markov_from_joining(parity_tensor(3))
        rep = chain_check(p2, pair_compose(p2))
        assert min(rep.norm_p2, rep.norm_p3, rep.norm_p5) > 0.5
        assert rep.holds_p2() and rep.holds_p3()

    def test_random_stochastic_operators_50_seeds(self):
        for seed in range(50):
            gen = substream(seed, "chain")
            d = int(gen.integers(2, 4))
            raw = gen.integers(1, 9, size=(d, d * d))
            rows = []
            for i in range(d):
                total = int(raw[i].sum())
                rows.append(tuple(Fraction(int(x), total) for x in raw[i]))
            weights_raw = [int(x) for x in gen.integers(1, 5, size=d)]
            wt = sum(weights_raw)
            weights = tuple(Fraction(x, wt) for x in weights_raw)
            p2 = MarkovOperator(2, weights, tuple(rows))
            rep = chain_check(p2, pair_compose(p2))
            assert rep.holds_p2(), f"seed {seed}: {rep.to_json()}"
            assert rep.holds_p3(), f"seed {seed}: {rep.to_json()}"


class TestRaiseLower:
    def test_averaging_raises_to_product(self):
        t, report = raise_order(averaging_operator(U2, 3))
        assert classify(t).is_product
        assert report["normalized"] and report["nonnegative"]

    def test_parity_raises_to_order6_parity(self):
        p3 = pair_compose(markov_from_joining(parity_tensor(3)))
        t, report = raise_order(p3)
        assert t.entries == parity_tensor(6).entries
        assert report["class"] == "M(5,6)"
        assert report["marginals_product"]
        assert sum(t.entries) == 1
        assert mean_zero_restricted_norm(markov_from_joining(t)) > 0.5

    def test_product_lowers_to_product(self):
        t, report = lower_order(product_tensor(U2, 5))
        assert classify(t).is_product

    def test_parity5_lowers_to_parity4(self):
        t, report = lower_order(parity_tensor(5))
        assert t.entries == parity_tensor(4).entries
        assert report["class"] == "M(3,4)"

    def test_lowering_matches_direct_contraction(self):
        # recompute nu2(a1,a2,b1,b2) = sum_B nu(a1,a2,B) nu(b1,b2,B) / w_B
        # with independent loops and compare entry by entry
        t = parity_tensor(5)
        lowered, _ = lower_order(t)
        d = t.dims
        nu, nu2 = as_array(t), as_array(lowered)
        for a1, a2, b1, b2 in itertools.product(range(d), repeat=4):
            acc = Fraction(0)
            for rest in itertools.product(range(d), repeat=3):
                wb = Fraction(1)
                for i in rest:
                    wb *= t.weights[i]
                acc += nu[(a1, a2) + rest] * nu[(b1, b2) + rest] / wb
            assert nu2[a1, a2, b1, b2] == acc

    def test_insufficient_marginals_rejected(self):
        with pytest.raises(JoiningError):
            lower_order(diagonal_tensor(U2, 4))

    def test_non_joining_source_flagged(self):
        # an operator with a negative pairing cell cannot arise from a
        # joining; MarkovOperator would reject its rows, so pass it
        # unvalidated and watch raise_order flag it
        rows = (
            (Fraction(2), Fraction(-1), Fraction(0), Fraction(0),
             Fraction(0), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(0),
             Fraction(0), Fraction(0), Fraction(0), Fraction(1)),
        )
        p3 = LinearOperator(3, U2.weights, rows)
        # <P3(e_000), P3(e_001)> = w_0 * 2 * (-1) = -1
        with pytest.raises(JoiningError, match="nonnegative"):
            raise_order(p3)


class TestLimitJoining:
    def test_one_event_per_cell(self):
        cells = [CylinderConstraint(((0, 0),), (0,))] * 3
        with pytest.raises(ValueError, match="one event per partition cell required"):
            limit_joining(LedrappierOracle(), U2, cells, dyadic_family(range(1, 6)))

    def test_ledrappier_parity_pipeline(self):
        oracle = LedrappierOracle()
        cells = [CylinderConstraint(((0, 0),), (b,)) for b in (0, 1)]
        t = limit_joining(oracle, U2, cells, dyadic_family(range(1, 6)))
        assert t.entries == parity_tensor(5).entries
        assert classify(t).label == "M(4,5)"

    def test_bernoulli_separated_family_gives_product(self):
        from mixlab.algebraic import BernoulliOracle
        oracle = BernoulliOracle()
        cells = [CylinderConstraint((0,), (b,)) for b in (0, 1)]
        family = [(0, 10 * s, 20 * s) for s in range(1, 6)]
        t = limit_joining(oracle, U2, cells, family)
        assert t.entries == product_tensor(U2, 3).entries

    def test_constant_synthetic_oracle_returns_own_tensor(self):
        target = parity_tensor(3)

        class TensorOracle(PerEntryMember):
            def event_measure(self, event):
                return MeasureValue.of_exact(Fraction(1, 2))

            def intersection_measure(self, shifts, events):
                return MeasureValue.of_exact(as_array(target)[tuple(events)])

        cells = [0, 1]
        t = limit_joining(TensorOracle(), U2, cells, [(0, 1, 2)] * 4)
        assert t.entries == target.entries

    def test_non_stabilizing_family_fails_loudly(self):
        class DriftingOracle(PerEntryMember):
            def event_measure(self, event):
                return MeasureValue.of_exact(Fraction(1, 2))

            def intersection_measure(self, shifts, events):
                # a joining at every shift (positive, mass 1, uniform
                # marginals) whose parity-signed part shrinks with the shift
                # scale: no two members agree
                sign = -1 if sum(events) % 2 else 1
                return MeasureValue.of_exact(
                    Fraction(1, 8) + Fraction(sign, 8 * (8 + shifts[1])))

        cells = [0, 1]
        with pytest.raises(NonStabilizingError) as err:
            limit_joining(DriftingOracle(), U2, cells,
                          [(0, s, 2 * s) for s in range(1, 8)])
        assert len(err.value.trace) >= 2

    def test_non_joining_member_rejected(self):
        class MassiveOracle(PerEntryMember):
            def event_measure(self, event):
                return MeasureValue.of_exact(Fraction(1, 2))

            def intersection_measure(self, shifts, events):
                # (0, 0, 0) and (0, 0, 1) carry 1/4, the other six cells
                # 1/8: total mass 5/4, so no member is a measure
                if tuple(events)[:2] == (0, 0):
                    return MeasureValue.of_exact(Fraction(1, 4))
                return MeasureValue.of_exact(Fraction(1, 8))

        cells = [0, 1]
        with pytest.raises(JoiningError, match="mass is 5/4"):
            limit_joining(MassiveOracle(), U2, cells,
                          [(0, s, 2 * s) for s in range(1, 8)])

    def test_order_comes_from_the_first_member(self):
        from mixlab.algebraic import BernoulliOracle
        cells = [CylinderConstraint((0,), (b,)) for b in (0, 1)]
        t = limit_joining(BernoulliOracle(), U2, cells, [(0, 10 * s, 20 * s) for s in range(1, 4)])
        assert t.order == 3 and t.dims == 2
        assert as_array(t).shape == (2, 2, 2)

    def test_member_of_another_length_is_refused(self):
        from mixlab.algebraic import BernoulliOracle
        cells = [CylinderConstraint((0,), (b,)) for b in (0, 1)]
        with pytest.raises(ValueError, match="family member has 4 shifts, need 3"):
            limit_joining(BernoulliOracle(), U2, cells, [(0, 10, 20), (0, 10, 20, 30)])

    @pytest.mark.parametrize("oracle,sites,family,message", [
        (LedrappierOracle(), [0], [(0, 1, 2)], "need \\(i, j\\) sites"),
        (LedrappierOracle(), [0], [((0, 0), (1, 0))], "1-d site shifted by non-integer"),
        (LedrappierOracle(), [(0, 0)], [((0, 0), (1 << 26, 0))], "generator cells"),
        (BernoulliOracle(), [0], [((0, 0), (1, 0))], "Bernoulli shifts are integers"),
        (BernoulliOracle(), [(0, 0)], [(0, 1)], "Bernoulli events live on Z sites"),
    ], ids=["z-sites", "z-sites-plane-shifts", "generator-cap", "plane-shifts", "plane-sites"])
    def test_member_the_oracle_cannot_evaluate_is_a_capability_error(self, oracle, sites,
                                                                     family, message):
        cells = [CylinderConstraint(tuple(sites), (b,)) for b in (0, 1)]
        with pytest.raises(OracleCapabilityError, match=message):
            limit_joining(oracle, U2, cells, family * STABLE_MEMBERS)

    @pytest.mark.parametrize("length", [0, 1, MAX_JOINING_ORDER + 1])
    def test_order_past_its_bound_is_refused_before_any_measure(self, length):
        class SpyOracle(PerEntryMember):
            def event_measure(self, event):
                raise AssertionError("measured an event")

            def intersection_measure(self, shifts, events):
                raise AssertionError("measured an intersection")

        with pytest.raises(ValueError, match=f"joining order must lie in 2..{MAX_JOINING_ORDER}"):
            limit_joining(SpyOracle(), U2, [0, 1], [tuple(range(length))] * STABLE_MEMBERS)

    @pytest.mark.parametrize("cells,order", [(3, 16), (3, 11), (5, 7)])
    def test_entries_past_their_cap_are_refused_before_any_member(self, cells, order):
        class SpyOracle:
            def joining_member(self, shifts, events):
                raise AssertionError("measured a member")

        assert cells ** order > MAX_JOINING_ENTRIES
        with pytest.raises(ValueError, match=f"a joining of {cells} cells at order {order} has "
                           f"{cells}\\^{order} entries, more than the cap {MAX_JOINING_ENTRIES}"):
            limit_joining(SpyOracle(), uniform_partition(cells), list(range(cells)),
                          [tuple(range(order))] * STABLE_MEMBERS)

    @pytest.mark.parametrize("bits,order", [
        ([(0,), (1,)], MAX_JOINING_ORDER),
        ([(0,), (1, 0), (1, 1)], 10),
        ([(0, 0), (0, 1), (1, 0), (1, 1)], 8),
    ])
    def test_entries_at_most_their_cap_are_measured(self, bits, order):
        # Cells of the full shift read bits at sites 0, 1, ...; shifts 10
        # apart make every member the product tensor.
        assert len(bits) ** order <= MAX_JOINING_ENTRIES
        events = [CylinderConstraint(tuple(range(len(b))), b) for b in bits]
        partition = Partition(tuple(Fraction(1, 2 ** len(b)) for b in bits))
        t = limit_joining(BernoulliOracle(), partition, events,
                          [tuple(range(0, 10 * order, 10))] * STABLE_MEMBERS)
        assert (t.order, t.dims) == (order, len(bits)) and classify(t).is_product

    def test_huge_order_is_refused_before_the_power(self):
        # Past the entry count's bit length no order fits: refused at once.
        with pytest.raises(JoiningError, match="entry count does not match dims\\*\\*order"):
            JoiningTensor(30_000_000, uniform_partition(3).weights,
                          scaled=(np.array([1], dtype=object), 1))


def _random_q(gen, d):
    raw = [int(x) for x in gen.integers(1, 13, size=d)]
    return [Fraction(r, sum(raw)) for r in raw]


def _twisted_group_sum(gen, d, order):
    """nu(i) = q[(c . i) mod d] / d^(order-1) for a random probability vector
    q and random units c mod d: every (order-1)-marginal is uniform, and for
    d > 2 the axes are not interchangeable."""
    q = _random_q(gen, d)
    units = [c for c in range(1, d) if math.gcd(c, d) == 1]
    coeffs = [units[int(x)] for x in gen.integers(0, len(units), size=order)]
    entries = tuple(q[sum(c * i for c, i in zip(coeffs, idx)) % d] / d ** (order - 1)
                    for idx in _tensor_indices(d, order))
    return JoiningTensor(order, uniform_partition(d).weights, entries)


def _graph_mixture(gen, d, order):
    """Convex combination of a twisted group-sum tensor and two graph
    joinings {(i, s_1(i), ..., s_{order-1}(i))} of random permutations s:
    uniform marginals, and marginals that depend on the order of the axes."""
    parts = [_twisted_group_sum(gen, d, order).entries]
    for _ in range(2):
        perms = [list(range(d))] + [[int(x) for x in gen.permutation(d)]
                                    for _ in range(order - 1)]
        parts.append(tuple(Fraction(1, d) if all(i == s[idx[0]] for i, s in zip(idx, perms))
                           else Fraction(0) for idx in _tensor_indices(d, order)))
    c1, c2 = (Fraction(int(x), 16) for x in gen.integers(1, 8, size=2))
    entries = tuple((1 - c1 - c2) * a + c1 * b + c2 * c for a, b, c in zip(*parts))
    return JoiningTensor(order, uniform_partition(d).weights, entries)


def _random_stochastic(gen, d):
    """Row-stochastic source-order-2 operator with random cell masses."""
    raw = gen.integers(1, 9, size=(d, d * d))
    rows = tuple(tuple(Fraction(int(x), int(row.sum())) for x in row) for row in raw)
    masses = [int(x) for x in gen.integers(1, 5, size=d)]
    return MarkovOperator(2, tuple(Fraction(m, sum(masses)) for m in masses), rows)


SHAPES = [(d, order) for d in (2, 3, 4) for order in (3, 4, 5, 6)]


class TestContractionsMatchLoops:
    """Each contraction equals its index-loop oracle exactly."""

    @pytest.mark.parametrize("d,order", SHAPES)
    def test_marginal_every_axes_tuple(self, d, order):
        t = _graph_mixture(substream(d * 10 + order, "marginal"), d, order)
        if order < 6:
            tuples = [axes for m in range(1, order)
                      for axes in itertools.permutations(range(order), m)]
        else:
            # every axes set, ascending and descending, keeps order 6 fast
            combos = [c for m in range(1, order) for c in itertools.combinations(range(order), m)]
            tuples = combos + [c[::-1] for c in combos if len(c) > 1]
        for axes in tuples:
            got = marginal(t, axes)
            assert (got if len(axes) == 1 else list(got.entries)) == reference_marginal(t, axes), axes

    @pytest.mark.parametrize("d,order", SHAPES)
    def test_lower_order_group_sum(self, d, order):
        t = _twisted_group_sum(substream(d * 10 + order, "lower"), d, order)
        lowered, _ = lower_order(t)
        assert lowered.entries == tuple(reference_lower_order(t))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_pair_compose_random_stochastic(self, d):
        gen = substream(d, "pair-compose")
        for _ in range(3):
            p2 = _random_stochastic(gen, d)
            p3 = pair_compose(p2)
            assert p3.matrix == reference_pair_compose(p2)
            assert pair_compose(p3).matrix == reference_pair_compose(p3)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_raise_order_from_joining(self, d):
        p3 = pair_compose(markov_from_joining(_graph_mixture(substream(d, "raise"), d, 3)))
        raised, _ = raise_order(p3)
        assert raised.entries == tuple(reference_raise_order(p3))


# den * wden**order against 2**63 for the order-3 tensors of `_near_bound`
# (weights 1/2, 1/2, so wden**order = 8): just below, at and just above.
NEAR_BOUND = {"below": (1 << 60) - 4, "at": 1 << 60, "above": (1 << 60) + 4}


def _near_bound(den, move=0):
    """Order-3 tensor over 1/2, 1/2 with den exactly `den` (divisible by 4):
    1/den at even parity, 1/4 - 1/den at odd parity, so every 2-marginal is
    product and the tensor is not (class M(2,3)).  `move` numerator units
    go from entry (0, 0, 1) to (0, 0, 0): only axis 2's marginal changes."""
    num = [1 if sum(idx) % 2 == 0 else den // 4 - 1 for idx in _tensor_indices(2, 3)]
    num[0] += move
    num[1] -= move
    return num


def _checked_dtypes(monkeypatch):
    """The dtypes `_fixed_width` returns, in call order."""
    seen = []
    real = joinings._fixed_width
    monkeypatch.setattr(joinings, "_fixed_width",
                        lambda num, bound: seen.append((out := real(num, bound)).dtype) or out)
    return seen


class TestFixedWidthChecks:
    """Validation and classification run on int64 copies exactly when
    den * wden**order < 2**63, and agree with the Python-int loops on
    either side of that bound."""

    @pytest.mark.parametrize("side", sorted(NEAR_BOUND))
    def test_near_bound_agrees_with_python_ints(self, side, monkeypatch):
        den = NEAR_BOUND[side]
        num = _near_bound(den)
        dtypes = _checked_dtypes(monkeypatch)
        t = JoiningTensor(3, U2.weights, scaled=(np.array(num, dtype=object), den))
        assert t.scaled[1] == den and (den * 8 < 1 << 63) == (side == "below")
        assert dtypes == [np.int64 if side == "below" else object] * 2  # entries, masses
        assert reference_joining_error(3, U2.weights, list(t.entries)) is None
        cls = classify(t)
        assert (cls.is_product, cls.max_product_marginal_order) == reference_classify(t)
        assert cls.label == "M(2,3)"
        assert all(x == y for x, y in zip(t.scaled[0].ravel().tolist(), num))

    @pytest.mark.parametrize("side", sorted(NEAR_BOUND))
    def test_one_bad_marginal_names_it_as_python_ints_do(self, side):
        den = NEAR_BOUND[side]
        num = _near_bound(den, move=1)
        want = reference_joining_error(3, U2.weights, [Fraction(x, den) for x in num])
        assert want.startswith("axis 2 marginal ")
        with pytest.raises(JoiningError) as err:
            JoiningTensor(3, U2.weights, scaled=(np.array(num, dtype=object), den))
        assert str(err.value) == want

    @pytest.mark.parametrize("scale", [1, 1 << 62])
    def test_first_bad_axis_then_cell_is_named(self, scale):
        # One unit moves from (1, 0) to (2, 1) of a uniform 3 x 3 tensor: axis 0
        # is off at cells 1 and 2, axis 1 at cells 0 and 1, so the first in
        # axis order is (0, 1) and the first in cell order would be (1, 0).
        # scale 2**62 puts den * wden**2 past 2**63.
        den = 18 * scale
        num = [2 * scale] * 9
        num[3] -= 1
        num[7] += 1
        weights = uniform_partition(3).weights
        want = reference_joining_error(2, weights, [Fraction(x, den) for x in num])
        assert want == f"axis 0 marginal {Fraction(6 * scale - 1, den)} != weight 1/3"
        with pytest.raises(JoiningError) as err:
            JoiningTensor(2, weights, scaled=(np.array(num, dtype=object), den))
        assert str(err.value) == want

    def test_no_int64_past_the_bound_where_it_would_wrap(self):
        # Masses 1/q, (q-1)/q with q = 2**10 and den = q**2 * K: the numerators
        # fit in int64, but each entry times q**2 differs from its mass product
        # times den by exactly +-2**64, so int64 products would call this
        # tensor product.
        q, k = 1 << 10, (1 << 42) + 1
        den, step = q * q * k, 1 << 44
        num = [k + step, (q - 1) * k - step, (q - 1) * k - step, (q - 1) ** 2 * k + step]
        weights = (Fraction(1, q), Fraction(q - 1, q))
        assert max(num) < 1 << 63 <= den * q ** 2
        t = JoiningTensor(2, weights, scaled=(np.array(num, dtype=object), den))
        assert reference_joining_error(2, weights, list(t.entries)) is None
        assert reference_classify(t) == (False, 1)
        assert not classify(t).is_product

    def test_masses_outside_unit_interval_count_in_the_bound(self):
        # Masses 1000 and -999 over wden = 1, order 1: den * wden < 2**63 but
        # 1000 * den is not, and wraps in int64 to exactly the first entry,
        # and -999 * den to the second.  Python ints refuse the tensor.
        den = 18446744073709553
        num = [1000 * den % (1 << 64), den - 1000 * den % (1 << 64)]
        assert 0 < num[0] < den and math.gcd(den, num[0]) == 1
        weights = (Fraction(1000), Fraction(-999))
        want = reference_joining_error(1, weights, [Fraction(x, den) for x in num])
        assert want == f"axis 0 marginal {Fraction(num[0], den)} != weight 1000"
        with pytest.raises(JoiningError) as err:
            JoiningTensor(1, weights, scaled=(np.array(num, dtype=object), den))
        assert str(err.value) == want

    @pytest.mark.parametrize("den,fixed", [((1 << 31) - 4, True), (1 << 31, False),
                                           (1 << 40, False)])
    def test_lower_order_int64_only_under_its_bound(self, den, fixed, monkeypatch):
        # lower_order's bound is den**2 * max(inverse mass)**p = 2 * den**2 here.
        t = JoiningTensor(3, U2.weights, scaled=(np.array(_near_bound(den), dtype=object), den))
        dtypes = _checked_dtypes(monkeypatch)
        lowered, _ = lower_order(t)
        assert dtypes[:2] == [np.int64 if fixed else object] * 2
        assert lowered.entries == tuple(reference_lower_order(t))
        assert lowered.scaled[0].dtype == object


class TestChainBases:
    """The Kronecker powers built by broadcasting give the np.kron norms
    bit for bit."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("masses", ["uniform", "nonuniform"])
    def test_norms_equal_kron_reference(self, d, masses):
        gen = substream(d, f"kron {masses}")
        if masses == "uniform":
            p2 = markov_from_joining(_graph_mixture(gen, d, 3))
        else:
            raw = gen.integers(1, 9, size=(d, d * d))
            rows = tuple(tuple(Fraction(int(x), int(r.sum())) for x in r) for r in raw)
            p2 = MarkovOperator(2, tuple(Fraction(2 * i + 2, d * (d + 1)) for i in range(d)),
                                rows)
        p3 = pair_compose(p2)
        p5 = pair_compose(p3)
        for p in (p2, p3, p5):
            assert mean_zero_restricted_norm(p) == reference_restricted_norm(p)
        rep = chain_check(p2, p3)
        assert (rep.norm_p2, rep.norm_p3, rep.norm_p5) == tuple(
            reference_restricted_norm(p) for p in (p2, p3, p5))


def test_reductions_make_no_fraction_additions(monkeypatch):
    """Exact reductions and contractions run on integer numerators: the
    calculus on a d=4, order-6 tensor adds Fractions only to validate cell
    masses, never inside an array reduction."""
    q = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8))
    t = group_sum_tensor(4, q, order=6)
    p2 = markov_from_joining(group_sum_tensor(4, q, order=3))
    additions = 0

    def counting(add):
        def counted(a, b):
            nonlocal additions
            additions += 1
            return add(a, b)
        return counted

    monkeypatch.setattr(Fraction, "__add__", counting(Fraction.__add__))
    monkeypatch.setattr(Fraction, "__radd__", counting(Fraction.__radd__))
    assert classify(t).label == "M(5,6)"
    for axes in [(0,), (5, 1), (0, 2, 4), (3, 2, 1, 0), (0, 1, 2, 3, 4)]:
        marginal(t, axes)
    lower_order(t)
    p3 = pair_compose(p2)
    pair_compose(p3)
    raise_order(p3)
    assert additions < 100


def test_each_tensor_and_markov_operator_validated_once(monkeypatch):
    t = group_sum_tensor(2, (Fraction(3, 4), Fraction(1, 4)), order=4)
    seen = []
    for cls in (JoiningTensor, MarkovOperator):
        monkeypatch.setattr(cls, "__post_init__", lambda self, real=cls.__post_init__:
                            seen.append(type(self).__name__) or real(self))
    t = JoiningTensor.from_json(t.to_json())
    lower_order(t)
    marginal(t, (0, 1))
    p2 = markov_from_joining(marginal(t, (0, 1, 2)))
    raise_order(pair_compose(p2))  # pair_compose validates nothing
    assert seen == ["JoiningTensor"] * 4 + ["MarkovOperator", "JoiningTensor"]


def test_first_bad_entry_is_reported():
    obj = dict(parity_tensor(3).to_json(), entries=[f"x{i}" for i in range(64)])
    with pytest.raises(ValueError, match="'x0'"):
        JoiningTensor.from_json(obj)


def test_results_over_least_common_denominator():
    # Entries written as 12/256 and 4/256 (for 3/64 and 1/64), and the result
    # of every operation, carry (num, den) reduced as far as the values allow.
    obj = group_sum_tensor(2, (Fraction(3, 4), Fraction(1, 4)), order=5).to_json()
    t = JoiningTensor.from_json(dict(obj, entries=[f"{4 * Fraction(e).numerator}/"
                                                   f"{4 * Fraction(e).denominator}"
                                                   for e in obj["entries"]]))
    p2 = markov_from_joining(marginal(t, (0, 1, 2)))
    results = [t, lower_order(t)[0], marginal(t, (3, 1)), p2, pair_compose(p2),
               raise_order(pair_compose(p2))[0]]
    for x in results:
        values = x.entries if isinstance(x, JoiningTensor) else [v for r in x.matrix for v in r]
        assert x.scaled[1] == math.lcm(*(v.denominator for v in values))


def test_entry_text_is_format_fraction():
    gen = substream(12, "entry-text")
    for den in [1, 2, 6, 2 ** 70, 3 ** 40 * 7]:
        xs = [0, den, -den, 2 * den, 1, -1] + [int(x) for x in gen.integers(-10 ** 6, 10 ** 6, 50)]
        num = np.array(xs * 2, dtype=object)
        assert joinings._format(num, den) == [format_fraction(Fraction(x, den)) for x in xs * 2]
