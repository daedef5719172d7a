"""Scoring merge decisions against gold labels, plus threshold sweeps."""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

from .evidence import EvidenceSet
from .measures import (THRESHOLD_NAMES, Thresholds, UndefinedEvidenceError,
                       decision_masks, threshold_value, unithood)

METRIC_NAMES = ("precision", "recall", "f_score", "paper_f", "accuracy")


class EvaluationError(ValueError):
    """Decision/gold ids do not line up; carries the orphaned ids."""

    def __init__(self, message: str, orphans: Sequence[str] = ()):
        super().__init__(message)
        self.orphans = list(orphans)


@dataclass(frozen=True)
class ContingencyTable:
    """Actual vs ideal merge decisions: tp, fp, fn, tn."""

    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("cells must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class Metrics:
    """Precision/recall/accuracy plus two F variants.

    ``f_score`` is the balanced harmonic mean 2PR/(P+R); ``paper_f`` is
    the product P*R, reported alongside for comparability.  A metric
    whose denominator is zero is None, not 0.
    """

    precision: float | None
    recall: float | None
    f_score: float | None
    paper_f: float | None
    accuracy: float | None


def _check_ids(pair_ids: Sequence[str], gold: Mapping[str, bool]) -> None:
    """Pair ids must be present, unique and gold-labelled; unused gold labels only warn."""
    if not pair_ids:
        raise EvaluationError("no pairs to evaluate")
    unique = set(pair_ids)
    if len(unique) < len(pair_ids):
        repeated = Counter(pair_ids).most_common(1)[0][0]
        raise EvaluationError("pair id %r occurs more than once" % repeated)
    orphans = sorted(unique - set(gold))
    if orphans:
        raise EvaluationError(
            "%d pair(s) have no gold label: %s" % (len(orphans), ", ".join(orphans[:10])),
            orphans,
        )
    if len(gold) > len(unique):
        warnings.warn("%d gold label(s) have no pair and are ignored" % (len(gold) - len(unique)))


def score(decisions: Mapping[str, bool], gold: Mapping[str, bool]) -> ContingencyTable:
    """Tabulate actual decisions against ideal labels.

    Every decided pair must carry a gold label; decided ids without one
    raise EvaluationError.  Gold labels without a decision are ignored
    with a warning.
    """
    _check_ids(list(decisions), gold)
    cells = Counter((bool(actual), bool(gold[pair_id])) for pair_id, actual in decisions.items())
    return ContingencyTable(
        cells[True, True], cells[True, False], cells[False, True], cells[False, False]
    )


def compute_metrics(table: ContingencyTable) -> Metrics:
    precision = table.tp / (table.tp + table.fp) if table.tp + table.fp > 0 else None
    recall = table.tp / (table.tp + table.fn) if table.tp + table.fn > 0 else None
    accuracy = (table.tp + table.tn) / table.total if table.total > 0 else None
    f_score = None
    paper_f = None
    if precision is not None and recall is not None:
        if precision + recall > 0:
            f_score = 2 * precision * recall / (precision + recall)
        paper_f = precision * recall
    return Metrics(precision, recall, f_score, paper_f, accuracy)


@dataclass(frozen=True)
class SweepPoint:
    grid_index: int
    thresholds: Thresholds
    table: ContingencyTable
    metrics: Metrics


def sweep(
    rows: Sequence[tuple[str, EvidenceSet]],
    gold: Mapping[str, bool],
    grid: Mapping[str, Sequence[float]],
    sort_key: str = "f_score",
) -> list[SweepPoint]:
    """Evaluate every grid point over fixed evidence.

    Each row is a ``(pair_id, EvidenceSet)`` tuple, as
    ``pipeline.read_decorated_file`` returns; pair ids must be unique.
    ``grid`` maps threshold names to non-empty lists (or tuples) of values for
    ``measures.threshold_value``; omitted names use the default thresholds.
    Combinations violating the threshold invariants are skipped with a warning.
    Each row is scored once, since MI, ID and IDR do not depend on the
    thresholds; each grid point then decides every row at once with bit
    masks (``measures.decision_masks``) and counts tp and fp by popcount.
    Results are sorted by the chosen metric, best first, ties kept in
    grid order.
    """
    _check_ids([pair_id for pair_id, _ in rows], gold)
    if sort_key not in METRIC_NAMES:
        raise ValueError("sort_key must be one of %s" % (METRIC_NAMES,))
    for name, values in grid.items():
        if not isinstance(values, (list, tuple)):
            raise ValueError("grid axis %r must be a list of numbers" % name)
        if not values:
            threshold_value(name, 0.0)  # no value checks this name; an unknown one fails here
            raise ValueError("grid axis %r is empty" % name)
    grid = {name: [threshold_value(name, v, "grid axis") for v in grid[name]] for name in grid}
    defaults = Thresholds()
    axes = [grid.get(name, [getattr(defaults, name)]) for name in THRESHOLD_NAMES]

    valid: list[tuple[int, Thresholds]] = []
    for index, combo in enumerate(itertools.product(*axes)):
        try:
            valid.append((index, Thresholds(*combo)))
        except ValueError as exc:
            warnings.warn(
                "skipping grid point %s: %s" % (dict(zip(THRESHOLD_NAMES, combo)), exc)
            )
    if not valid:
        raise ValueError("every grid point was invalid")

    # Score each row once; the thresholds passed do not change the scores.
    scores, positive = [], 0  # bit i of a mask stands for row i
    for i, (pair_id, evidence) in enumerate(rows):
        try:
            scores.append(unithood(evidence, valid[0][1]))
        except UndefinedEvidenceError as exc:
            raise UndefinedEvidenceError("pair %s: %s" % (pair_id, exc)) from None
        if gold[pair_id]:
            positive |= 1 << i
    n_positive = positive.bit_count()
    merged_rows = decision_masks(scores)

    points: list[SweepPoint] = []
    for index, thresholds in valid:
        merged = merged_rows(thresholds)
        tp = (merged & positive).bit_count()
        fp = merged.bit_count() - tp
        table = ContingencyTable(tp, fp, n_positive - tp, len(rows) - n_positive - fp)
        points.append(SweepPoint(index, thresholds, table, compute_metrics(table)))

    def order(point: SweepPoint):
        value = getattr(point.metrics, sort_key)
        return (0, -value, point.grid_index) if value is not None else (1, 0.0, point.grid_index)

    return sorted(points, key=order)
