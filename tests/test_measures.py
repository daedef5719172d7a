import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unithood import (
    EvidenceSet,
    Thresholds,
    UndefinedEvidenceError,
    decision_rule,
    independence,
    independence_ratio,
    unithood,
    weight,
)
from unithood.measures import THRESHOLD_DEFAULTS_DOC, THRESHOLD_NAMES, decision_masks

E_INV = math.exp(-1.0)

# Decision rows with known published score values and verdicts.
REFERENCE_ROWS = [
    # (mi, id_x, id_y, idr, merged)
    (1.5466, 1.6989, 7.3765, 0.2303, True),
    (0.7289, 5.9029, 2.7481, 2.1479, False),
    (0.1932, 4.0583, 5.9370, 0.6835, False),
    (0.0021, 6.0488, 8.2041, 0.7372, False),
    (0.1529, 8.9216, 5.6280, 1.5852, False),
]


class TestWeight:
    def test_zero_count(self):
        assert weight(0, 10) == 0.0

    def test_full_share_is_inverse_e(self):
        assert weight(10, 10) == pytest.approx(E_INV, abs=1e-12)

    def test_partial_share(self):
        # (100/2100) * exp(-100/2100), checked by independent arithmetic
        assert weight(100, 2100) == pytest.approx(0.0454046, abs=1e-7)

    def test_zero_total_is_undefined(self):
        with pytest.raises(UndefinedEvidenceError):
            weight(0, 0)

    def test_count_above_total_rejected(self):
        with pytest.raises(ValueError):
            weight(11, 10)

    def test_bounded_by_inverse_e(self):
        rng = random.Random(5)
        for _ in range(2000):
            total = rng.randint(1, 10**9)
            n = rng.randint(0, total)
            value = weight(n, total)
            assert 0.0 <= value <= E_INV + 1e-12

    def test_shares_sum_to_one_exactly(self):
        rng = random.Random(6)
        for _ in range(500):
            counts = [rng.randint(0, 10**8) for _ in range(3)]
            if sum(counts) == 0:
                counts[0] = 1
            total = sum(counts)
            assert sum(Fraction(c, total) for c in counts) == 1


def mi(evidence):
    return unithood(evidence, Thresholds()).mi


class TestMutualInformation:
    def test_zero_unit_count(self):
        assert mi(EvidenceSet(0, 10, 10)) == 0.0

    def test_known_value(self):
        # computed ahead of time from the weight arithmetic
        assert mi(EvidenceSet(100, 1000, 1000)) == pytest.approx(
            0.5189821, abs=1e-6
        )

    def test_can_exceed_one(self):
        assert mi(EvidenceSet(5, 5, 5)) == pytest.approx(
            4.1868373, abs=1e-6
        )

    def test_degenerate_side_gives_zero(self):
        assert mi(EvidenceSet(10, 0, 10)) == 0.0
        assert mi(EvidenceSet(10, 10, 0)) == 0.0

    def test_all_zero_undefined(self):
        with pytest.raises(UndefinedEvidenceError):
            mi(EvidenceSet(0, 0, 0))

    def test_zero_iff_unit_unseen(self):
        rng = random.Random(11)
        for _ in range(500):
            n_s = rng.randint(0, 1000)
            evidence = EvidenceSet(n_s, rng.randint(1, 10**6), rng.randint(1, 10**6))
            value = mi(evidence)
            assert (value == 0.0) == (n_s == 0)


class TestIndependence:
    def test_power_of_ten(self):
        assert independence(10_000_001, 1) == pytest.approx(7.0, abs=1e-12)

    def test_side_not_above_unit(self):
        assert independence(5, 5) == 0.0
        assert independence(4, 5) == 0.0

    def test_boundary_difference_of_one(self):
        assert independence(6, 5) == 0.0

    def test_monotone_in_side_count(self):
        rng = random.Random(13)
        for _ in range(500):
            n_s = rng.randint(0, 10**6)
            a = rng.randint(0, 10**7)
            b = a + rng.randint(0, 10**6)
            assert independence(b, n_s) >= independence(a, n_s)

    def test_antitone_in_unit_count(self):
        rng = random.Random(14)
        for _ in range(500):
            n_a = rng.randint(0, 10**7)
            s1 = rng.randint(0, 10**6)
            s2 = s1 + rng.randint(0, 10**6)
            assert independence(n_a, s2) <= independence(n_a, s1)

    @pytest.mark.parametrize("n_a, n_s", [(-1, 5), (5, -1)])
    def test_negative_count_rejected(self, n_a, n_s):
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            independence(n_a, n_s)

    def test_ratio_undefined_when_denominator_zero(self):
        assert independence_ratio(3.0, 0.0) is None
        assert independence_ratio(3.0, 2.0) == 1.5


class TestThresholds:
    def test_defaults(self):
        t = Thresholds()
        assert (t.mi_plus, t.mi_minus, t.id_t, t.idr_plus, t.idr_minus) == (
            0.9,
            0.02,
            6.0,
            1.35,
            0.93,
        )

    def test_defaults_doc_lists_names_and_defaults_in_field_order(self):
        assert THRESHOLD_NAMES == ("mi_plus", "mi_minus", "id_t", "idr_plus", "idr_minus")
        assert THRESHOLD_DEFAULTS_DOC == (
            "mi_plus=0.9 mi_minus=0.02 id_t=6 idr_plus=1.35 idr_minus=0.93"
        )

    def test_mi_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            Thresholds(mi_plus=0.02, mi_minus=0.9)

    def test_idr_band_must_be_ordered(self):
        with pytest.raises(ValueError):
            Thresholds(idr_plus=0.5, idr_minus=0.9)

    def test_id_t_non_negative(self):
        with pytest.raises(ValueError):
            Thresholds(id_t=-1)

    def test_finite(self):
        with pytest.raises(ValueError):
            Thresholds(mi_plus=float("inf"))


class TestDecisionRule:
    @pytest.mark.parametrize("mi,id_x,id_y,idr,merged", REFERENCE_ROWS)
    def test_reference_rows(self, mi, id_x, id_y, idr, merged):
        assert decision_rule(mi, id_x, id_y, idr, Thresholds()) is merged

    def test_band_boundaries_inclusive(self):
        t = Thresholds()
        assert decision_rule(t.mi_plus, 7, 7, 1.0, t) is True
        assert decision_rule(t.mi_minus, 7, 7, 1.0, t) is True
        assert decision_rule(t.mi_minus - 1e-9, 7, 7, 1.0, t) is False

    def test_upper_mi_strict(self):
        t = Thresholds()
        # at exactly mi_plus the first branch does not fire; the second does
        assert decision_rule(t.mi_plus, 0, 0, None, t) is False
        assert decision_rule(math.nextafter(t.mi_plus, 2.0), 0, 0, None, t) is True

    def test_id_threshold_inclusive(self):
        t = Thresholds()
        assert decision_rule(0.5, 6.0, 6.0, 1.0, t) is True
        assert decision_rule(0.5, 5.9999, 6.0, 1.0, t) is False

    def test_idr_band_inclusive(self):
        t = Thresholds()
        assert decision_rule(0.5, 7, 7, 1.35, t) is True
        assert decision_rule(0.5, 7, 7, 0.93, t) is True
        assert decision_rule(0.5, 7, 7, 1.351, t) is False
        assert decision_rule(0.5, 7, 7, 0.9299, t) is False

    def test_undefined_ratio_fails_quietly(self):
        assert decision_rule(0.5, 7, 0, None, Thresholds()) is False


class TestUnithood:
    def test_scores_for_plain_evidence(self):
        scores = unithood(EvidenceSet(1_300_000, 2_100_000, 14_000_000), Thresholds())
        assert scores.mi == pytest.approx(1.8011305, abs=1e-6)
        assert scores.id_x == pytest.approx(math.log10(800_000), abs=1e-12)
        assert scores.id_y == pytest.approx(math.log10(12_700_000), abs=1e-12)
        assert scores.idr == pytest.approx(0.8309759, abs=1e-6)
        assert scores.uh is True
        assert scores.degenerate is False

    def test_equal_counts_merge_only_on_high_mi(self):
        evidence = EvidenceSet(7, 7, 7)
        scores = unithood(evidence, Thresholds())
        assert scores.id_x == 0.0 and scores.id_y == 0.0
        assert scores.idr is None
        assert scores.uh is True  # first branch: mi about 4.19 > 0.9
        raised = unithood(evidence, Thresholds(mi_plus=5.0))
        assert raised.uh is False

    def test_all_zero_counts_error(self):
        with pytest.raises(UndefinedEvidenceError):
            unithood(EvidenceSet(0, 0, 0), Thresholds())

    def test_degenerate_side_never_merges(self):
        # even thresholds that would otherwise accept everything
        permissive = Thresholds(
            mi_plus=-0.5, mi_minus=-1.0, id_t=0.0, idr_plus=10.0, idr_minus=-10.0
        )
        scores = unithood(EvidenceSet(10, 0, 10), permissive)
        assert scores.degenerate is True
        assert scores.mi == 0.0
        assert decision_rule(scores.mi, scores.id_x, scores.id_y, scores.idr, permissive)
        assert scores.uh is False

    def test_scores_invariants_randomized(self):
        rng = random.Random(21)
        t = Thresholds()
        for _ in range(2000):
            evidence = EvidenceSet(
                rng.randint(0, 10**6), rng.randint(0, 10**6), rng.randint(0, 10**6)
            )
            if evidence.total == 0:
                continue
            scores = unithood(evidence, t)
            for p in (scores.p_s, scores.p_ax, scores.p_ay):
                assert 0.0 <= p <= E_INV + 1e-12
            if evidence.n_ax <= evidence.n_s:
                assert scores.id_x == 0.0
            if evidence.n_ay <= evidence.n_s:
                assert scores.id_y == 0.0
            assert (scores.idr is not None) == (scores.id_y > 0)


@settings(max_examples=500, deadline=None)
@given(
    st.tuples(*[st.integers(0, 10**12)] * 3).filter(any),
    st.sampled_from([Thresholds(), Thresholds(mi_plus=1e9, mi_minus=-1e9, id_t=0.0)]),
)
def test_unithood_mi_is_mutual_information(counts, thresholds):
    """MI against the formula written out: p(s) / (p(a_x) * p(a_y)), 0 if any count is 0."""
    evidence = EvidenceSet(*counts)
    total = sum(counts)
    if 0 in counts:
        expected = 0.0
    else:
        expected = weight(counts[0], total) / (weight(counts[1], total) * weight(counts[2], total))
    assert unithood(evidence, thresholds).mi == expected


COUNTS = st.integers(0, 10**9)  # IDs up to 9


def _row(n_s, n_ax, n_ay):
    """None stands for a side seen exactly as often as the unit (ID 0)."""
    evidence = EvidenceSet(n_s, n_s if n_ax is None else n_ax, n_s if n_ay is None else n_ay)
    return evidence if evidence.total else EvidenceSet(1, 0, 0)


# Degenerate rows (a side count of 0) and rows whose IDR is undefined
# (n_ay == n_s, so ID_y is 0) are drawn on purpose.
MASK_ROW = st.tuples(COUNTS, st.none() | COUNTS, st.none() | COUNTS).map(lambda c: _row(*c))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_decision_masks_match_unithood_bit_by_bit(data):
    """The mask form of the rule against ``unithood(...).uh``, row by row,
    at widths of several machine words.  Thresholds are drawn from the
    rows' own scores, so some sit exactly on a score, and from ranges
    reaching below zero."""
    n = data.draw(st.integers(0, 200))  # a list strategy would seldom pass one word
    rows = data.draw(st.lists(MASK_ROW, min_size=n, max_size=n))
    scored = [unithood(evidence, Thresholds()) for evidence in rows]

    def pool(values, low):
        ties = sorted({v for v in values if v is not None})
        floats = st.floats(low, 10.0)
        return st.sampled_from(ties) | floats if ties else floats

    mi = pool([s.mi for s in scored], -2.0)
    ids = pool([s.id_x for s in scored] + [s.id_y for s in scored], 0.0)
    idr = pool([s.idr for s in scored], -2.0)
    merged = decision_masks(scored)
    for _ in range(data.draw(st.integers(1, 6))):  # several points share the memo
        mi_minus, mi_plus = sorted(data.draw(st.lists(mi, min_size=2, max_size=2, unique=True)))
        idr_minus, idr_plus = sorted(data.draw(st.lists(idr, min_size=2, max_size=2, unique=True)))
        t = Thresholds(mi_plus, mi_minus, data.draw(ids), idr_plus, idr_minus)
        mask = merged(t)
        assert mask >> len(rows) == 0
        assert [bool(mask >> i & 1) for i in range(len(rows))] == [
            unithood(evidence, t).uh for evidence in rows
        ]


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.sampled_from([0, 1, 2, 2**53 - 1, 2**53]) | st.integers(0, 2**53)] * 3)
       .filter(any))
def test_scores_are_finite_for_every_count_up_to_2_53(counts):
    """EvidenceSet refuses a count above 2**53, so no share underflows and MI stays finite."""
    score = unithood(EvidenceSet(*counts), Thresholds())
    assert all(math.isfinite(v) for v in (score.mi, score.id_x, score.id_y, score.idr or 0.0))
