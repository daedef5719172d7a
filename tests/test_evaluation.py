import itertools
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unithood import (
    ContingencyTable,
    EvaluationError,
    EvidenceSet,
    SweepPoint,
    Thresholds,
    compute_metrics,
    score,
    sweep,
    unithood,
)
from unithood.evaluation import METRIC_NAMES
from unithood.measures import THRESHOLD_NAMES

# The published evaluation table: 1005 pairs.
TABLE = ContingencyTable(tp=449, fp=6, fn=40, tn=510)


def labelled(n_true, n_false, prefix):
    out = {}
    for i in range(n_true):
        out["%s-t%d" % (prefix, i)] = True
    for i in range(n_false):
        out["%s-f%d" % (prefix, i)] = False
    return out


def table_as_maps(table):
    decisions = {}
    gold = {}
    for i in range(table.tp):
        decisions["tp%d" % i], gold["tp%d" % i] = True, True
    for i in range(table.fp):
        decisions["fp%d" % i], gold["fp%d" % i] = True, False
    for i in range(table.fn):
        decisions["fn%d" % i], gold["fn%d" % i] = False, True
    for i in range(table.tn):
        decisions["tn%d" % i], gold["tn%d" % i] = False, False
    return decisions, gold


class TestScore:
    def test_perfect_agreement(self):
        decisions = labelled(4, 6, "p")
        table = score(decisions, dict(decisions))
        assert (table.tp, table.fp, table.fn, table.tn) == (4, 0, 0, 6)

    def test_complement(self):
        decisions = labelled(4, 6, "p")
        gold = {k: not v for k, v in decisions.items()}
        table = score(decisions, gold)
        assert table.tp == 0 and table.tn == 0
        assert (table.fp, table.fn) == (4, 6)

    def test_reference_cells(self):
        decisions, gold = table_as_maps(TABLE)
        table = score(decisions, gold)
        assert table == TABLE
        assert table.total == 1005

    def test_order_insensitive(self):
        decisions, gold = table_as_maps(ContingencyTable(3, 2, 4, 5))
        rng = random.Random(3)
        items = list(decisions.items())
        rng.shuffle(items)
        assert score(dict(items), gold) == score(decisions, gold)

    def test_decided_pair_without_gold_raises(self):
        with pytest.raises(EvaluationError) as err:
            score({"a": True, "b": False}, {"a": True})
        assert err.value.orphans == ["b"]

    def test_extra_gold_warns(self):
        with pytest.warns(UserWarning):
            table = score({"a": True}, {"a": True, "b": False})
        assert table.tp == 1

    def test_empty_decisions_raise(self):
        with pytest.raises(EvaluationError):
            score({}, {"a": True})


class TestComputeMetrics:
    def test_reference_percentages(self):
        m = compute_metrics(TABLE)
        assert m.precision * 100 == pytest.approx(98.68, abs=0.01)
        assert m.recall * 100 == pytest.approx(91.82, abs=0.01)
        assert m.accuracy * 100 == pytest.approx(95.42, abs=0.01)

    def test_f_variants(self):
        m = compute_metrics(TABLE)
        # harmonic mean of P and R
        assert m.f_score * 100 == pytest.approx(95.13, abs=0.01)
        # the product P*R, reported for comparability
        assert m.paper_f * 100 == pytest.approx(90.61, abs=0.01)

    def test_absent_metrics(self):
        m = compute_metrics(ContingencyTable(0, 0, 0, 5))
        assert m.precision is None
        assert m.recall is None
        assert m.f_score is None
        assert m.paper_f is None
        assert m.accuracy == 1.0

    def test_self_agreement_is_perfect(self):
        decisions = labelled(3, 2, "x")
        m = compute_metrics(score(decisions, dict(decisions)))
        assert m.precision == m.recall == m.accuracy == 1.0

    def test_zero_precision_recall_leaves_f_absent(self):
        m = compute_metrics(ContingencyTable(0, 3, 4, 5))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f_score is None
        assert m.paper_f == 0.0

    def test_negative_cells_rejected(self):
        with pytest.raises(ValueError):
            ContingencyTable(-1, 0, 0, 0)


def random_rows(rng, n=40):
    rows = []
    for i in range(n):
        n_s = rng.randint(0, 10**6)
        rows.append(
            (
                "p%d" % i,
                EvidenceSet(
                    n_s,
                    n_s + rng.randint(0, 10**7),
                    n_s + rng.randint(0, 10**7),
                ),
            )
        )
    return rows


class TestSweep:
    def test_single_point_matches_direct_run(self):
        rng = random.Random(17)
        rows = random_rows(rng)
        t = Thresholds()
        gold = {pid: unithood(ev).merges(t) for pid, ev in rows}
        points = sweep(rows, gold, {"id_t": [6.0]})
        assert len(points) == 1
        direct = score(
            {pid: unithood(ev).merges(t) for pid, ev in rows}, gold
        )
        assert points[0].table == direct
        assert points[0].metrics.accuracy == 1.0

    def test_recall_monotone_in_id_t(self):
        rng = random.Random(18)
        rows = random_rows(rng, n=60)
        gold = {pid: rng.random() < 0.5 for pid, _ in rows}
        points = sweep(rows, gold, {"id_t": [3.0, 6.0, 9.0]})
        by_id_t = {p.thresholds.id_t: p.metrics.recall for p in points}
        recalls = [by_id_t[v] for v in (3.0, 6.0, 9.0) if by_id_t[v] is not None]
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))

    def test_invalid_combination_skipped_with_note(self):
        rng = random.Random(19)
        rows = random_rows(rng, n=10)
        gold = {pid: True for pid, _ in rows}
        with pytest.warns(UserWarning, match="skipping grid point"):
            points = sweep(rows, gold, {"mi_plus": [0.9, 0.01], "mi_minus": [0.02]})
        assert len(points) == 1

    def test_all_invalid_raises(self):
        rows = random_rows(random.Random(20), n=5)
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(ValueError):
            with pytest.warns(UserWarning):
                sweep(rows, gold, {"mi_plus": [0.01], "mi_minus": [0.02]})

    def test_empty_rows_rejected(self):
        with pytest.raises(EvaluationError):
            sweep([], {}, {"id_t": [6.0]})

    def test_empty_axis_rejected(self):
        rows = random_rows(random.Random(21), n=5)
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(ValueError):
            sweep(rows, gold, {"id_t": []})

    @pytest.mark.parametrize("values", [5, 6.0, None, {"a": 1}, "36"],
                             ids=["int", "float", "null", "object", "string"])
    def test_axis_that_is_not_a_list_rejected(self, values):
        """The grid's shape is checked here, for a library call as for the CLI."""
        rows = random_rows(random.Random(21), n=5)
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(ValueError) as err:
            sweep(rows, gold, {"mi_plus": [0.9], "id_t": values})
        assert str(err.value) == "grid axis 'id_t' must be a list of numbers"

    def test_axis_may_be_a_tuple(self):
        rows = random_rows(random.Random(21), n=5)
        gold = {pid: True for pid, _ in rows}
        assert sweep(rows, gold, {"id_t": (3.0, 6.0)}) == sweep(rows, gold, {"id_t": [3.0, 6.0]})

    def test_unknown_threshold_rejected(self):
        rows = random_rows(random.Random(22), n=5)
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(ValueError):
            sweep(rows, gold, {"frobnication": [1.0]})

    def test_missing_gold_label_rejected(self):
        rows = random_rows(random.Random(23), n=5)
        with pytest.raises(EvaluationError):
            sweep(rows, {"p0": True}, {"id_t": [6.0]})

    def test_sorted_by_selected_key(self):
        rng = random.Random(24)
        rows = random_rows(rng, n=60)
        gold = {pid: rng.random() < 0.5 for pid, _ in rows}
        points = sweep(rows, gold, {"id_t": [0.0, 3.0, 6.0, 9.0]}, sort_key="recall")
        recalls = [p.metrics.recall for p in points if p.metrics.recall is not None]
        assert recalls == sorted(recalls, reverse=True)

    def test_bad_sort_key_rejected(self):
        rows = random_rows(random.Random(25), n=5)
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(ValueError):
            sweep(rows, gold, {"id_t": [6.0]}, sort_key="vibes")

    def test_duplicate_pair_id_rejected(self):
        rows = random_rows(random.Random(26), n=5)
        rows.append(("p3", EvidenceSet(1, 2, 3)))
        gold = {pid: True for pid, _ in rows}
        with pytest.raises(EvaluationError, match="'p3'"):
            sweep(rows, gold, {"id_t": [6.0]})

    def test_all_invalid_grid_wins_over_zero_count_row(self):
        rows = [("z", EvidenceSet(0, 0, 0))]
        with pytest.raises(ValueError, match="every grid point was invalid"):
            with pytest.warns(UserWarning, match="skipping grid point"):
                sweep(rows, {"z": True}, {"mi_plus": [0.01], "mi_minus": [0.02]})


def brute_force_sweep(rows, gold, grid, sort_key):
    """Decide every row afresh at every valid grid point, then score."""
    axes = [grid.get(name, [getattr(Thresholds(), name)]) for name in THRESHOLD_NAMES]
    points = []
    for index, combo in enumerate(itertools.product(*axes)):
        try:
            t = Thresholds(*combo)
        except ValueError:
            continue
        table = score({pid: unithood(ev).merges(t) for pid, ev in rows}, gold)
        points.append(SweepPoint(index, t, table, compute_metrics(table)))
    defined = [p for p in points if getattr(p.metrics, sort_key) is not None]
    undefined = [p for p in points if getattr(p.metrics, sort_key) is None]
    # sorted() is stable under reverse=True, so ties keep grid order
    return sorted(defined, key=lambda p: getattr(p.metrics, sort_key), reverse=True) + undefined


MAGNITUDES = st.builds(lambda m, e: m * 10**e, st.integers(1, 9), st.integers(0, 8))


@st.composite
def evidence_sets(draw):
    n_s = draw(st.just(0) | MAGNITUDES)
    sides = st.sampled_from(["zero", "equal", "above", "any"])

    def side(kind):
        if kind == "zero":
            return 0  # degenerate evidence
        if kind == "equal":
            return n_s  # ID 0, so IDR is undefined on the right
        extra = draw(MAGNITUDES)
        return n_s + extra if kind == "above" else extra

    evidence = EvidenceSet(n_s, side(draw(sides)), side(draw(sides)))
    if evidence.total == 0:
        evidence = EvidenceSet(1, 0, 0)
    return evidence


AXIS_VALUES = {
    "mi_plus": [-1.0, -0.1, 0.0, 0.02, 0.9, 2.0, 5.0],
    "mi_minus": [-2.0, -0.5, 0.0, 0.02, 0.5, 3.0],
    "id_t": [-1.0, 0.0, 3.0, 6.0, 8.0],  # negative is invalid
    "idr_plus": [0.5, 0.93, 1.0, 1.35, 3.0],
    "idr_minus": [0.0, 0.5, 0.93, 1.2, 3.0],
}


@st.composite
def grids(draw):
    grid = {}
    for name in THRESHOLD_NAMES:
        axis = st.lists(st.sampled_from(AXIS_VALUES[name]), min_size=1, max_size=3)
        values = draw(st.none() | axis)
        if values is not None:
            grid[name] = values
    return grid


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(evidence_sets(), st.booleans()), min_size=1, max_size=12),
    grids(),
    st.sampled_from(METRIC_NAMES),
)
def test_sweep_matches_brute_force(labelled_evidence, grid, sort_key):
    rows = [("p%d" % i, ev) for i, (ev, _) in enumerate(labelled_evidence)]
    gold = {pid: label for (pid, _), (_, label) in zip(rows, labelled_evidence)}
    expected = brute_force_sweep(rows, gold, grid, sort_key)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if not expected:
            with pytest.raises(ValueError, match="every grid point was invalid"):
                sweep(rows, gold, grid, sort_key)
            return
        assert sweep(rows, gold, grid, sort_key) == expected
