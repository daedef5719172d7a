"""Statistical unithood measures.

Given document counts for a merged unit s and its two sides a_x and
a_y, each count is turned into a dampened share of the evidence,

    p(w) = share * exp(-share),   share = n_w / (n_s + n_ax + n_ay),

which lies in [0, 1/e].  Mutual information is the ratio form
MI = p(s) / (p(a_x) * p(a_y)); independence of a side from the unit is
ID = log10(n_side - n_s) when the side is seen more often than the unit,
else 0.  The merge decision accepts a pair outright on high MI, or on
mediocre MI when both sides are highly independent and about equally so
(the ratio of their independences falls inside a band).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Sequence

from .evidence import EvidenceSet


class UndefinedEvidenceError(ValueError):
    """All counts are zero; no measure can be computed."""


@dataclass(frozen=True)
class Thresholds:
    """The five decision thresholds.

    ``mi_plus`` accepts on its own; ``mi_minus``..``mi_plus`` is the
    mediocre band in which the independence tests apply; ``id_t`` is the
    minimum independence for each side; ``idr_minus``..``idr_plus``
    bounds the ratio of the two independences.
    """

    mi_plus: float = 0.9
    mi_minus: float = 0.02
    id_t: float = 6.0
    idr_plus: float = 1.35
    idr_minus: float = 0.93

    def __post_init__(self):
        values = (self.mi_plus, self.mi_minus, self.id_t, self.idr_plus, self.idr_minus)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("thresholds must be finite")
        if self.mi_plus <= self.mi_minus:
            raise ValueError("mi_plus must exceed mi_minus")
        if self.idr_plus <= self.idr_minus:
            raise ValueError("idr_plus must exceed idr_minus")
        if self.id_t < 0:
            raise ValueError("id_t must be non-negative")


THRESHOLD_NAMES = tuple(f.name for f in fields(Thresholds))
THRESHOLD_DEFAULTS_DOC = " ".join("%s=%g" % (f.name, f.default) for f in fields(Thresholds))


def threshold_value(name: str, value: Any, where: str = "threshold", text: bool = False) -> float:
    """Threshold ``name``'s value as a finite float; errors name ``where`` and ``name``.

    A JSON value must be a number, not a bool, a string or null; ``text``,
    as in ``--threshold mi_plus=0.5``, goes through ``float()``.
    """
    if name not in THRESHOLD_NAMES:
        raise ValueError("unknown threshold %r" % name)
    number = text or (isinstance(value, (int, float)) and not isinstance(value, bool))
    try:
        if number and math.isfinite(float(value)):
            return float(value)
    except (ValueError, OverflowError):  # OverflowError: an int too large for a float
        pass
    reason = "not a finite number" if number else "not a number"
    raise ValueError("%s %r holds %s, %s" % (where, name, json.dumps(value), reason))


@dataclass(frozen=True, slots=True)
class Score:
    """One pair's scores, MI, the two independences and their ratio, as ``unithood``
    computes them; ``merges(thresholds)`` is the merge decision under ``thresholds``.

    ``idr`` is None when the right side's independence is zero.
    ``degenerate`` flags evidence where a side was never seen on its own
    (n_ax or n_ay is 0); such pairs are never merged.  A score read from
    a scores file is never degenerate.
    """

    mi: float
    id_x: float
    id_y: float
    idr: float | None
    degenerate: bool = False

    def merges(self, thresholds: Thresholds) -> bool:
        return _rule(lambda name, value: _PASSES[name](self, value), thresholds)


def weight(n_w: int, total: int) -> float:
    """Dampened evidence share of one count: share * exp(-share)."""
    if total <= 0:
        raise UndefinedEvidenceError("total page count is zero")
    if n_w < 0 or n_w > total:
        raise ValueError("count %r outside [0, %r]" % (n_w, total))
    share = n_w / total
    return share * math.exp(-share)


def independence(n_a: int, n_s: int) -> float:
    """How often a side occurs beyond the unit, on a log10 scale.

    Zero when the side is not seen more often than the unit, i.e. the
    side is never witnessed without it.
    """
    if n_a < 0 or n_s < 0:
        raise ValueError("counts must be non-negative")
    if n_a > n_s:
        return math.log10(n_a - n_s)
    return 0.0


def independence_ratio(id_x: float, id_y: float) -> float | None:
    return id_x / id_y if id_y > 0 else None


# The rule's tests of one score at a value: one per threshold, and "live", the degenerate veto.
_PASSES = {
    "mi_plus": lambda s, v: s.mi > v,
    "mi_minus": lambda s, v: s.mi >= v,
    "id_t": lambda s, v: s.id_x >= v and s.id_y >= v,
    "idr_plus": lambda s, v: s.idr is not None and s.idr <= v,
    "idr_minus": lambda s, v: s.idr is not None and s.idr >= v,
    "live": lambda s, v: not s.degenerate,
}


def _rule(passing: Callable[[str, float | None], Any], t: Thresholds) -> Any:
    """The merge decision from ``passing(test, value)``: a bool for one score, or an
    int whose bit i is set when score i passes.  A pair merges when MI clears mi_plus
    outright, or when MI falls in the mediocre band while both independences reach
    id_t and their ratio lies inside the idr band; an undefined ratio fails the band.
    """
    above = passing("mi_plus", t.mi_plus)
    # The band's bound mi <= mi_plus needs no test: `above` takes every score it drops.
    band = passing("mi_minus", t.mi_minus) & passing("id_t", t.id_t)
    band &= passing("idr_plus", t.idr_plus) & passing("idr_minus", t.idr_minus)
    return passing("live", None) & (above | band)


def decision_masks(scores: Sequence[Score]) -> Callable[[Thresholds], int]:
    """The merge decision for many scores at once, as bitsets.

    Returns a function from thresholds to the int whose bit i is set
    exactly when score i merges.  Each test's mask of passing scores is
    built once per distinct value, so a grid point costs a few ANDs and ORs.
    """
    @functools.cache
    def passing(name: str, value: float | None) -> int:
        return sum(1 << i for i, s in enumerate(scores) if _PASSES[name](s, value))

    return functools.partial(_rule, passing)


def unithood(evidence: EvidenceSet) -> Score:
    """One pair's Score from its counts, which no threshold changes; ``.merges`` decides it."""
    total = evidence.total
    if total == 0:
        raise UndefinedEvidenceError("all counts are zero")
    degenerate = evidence.n_ax == 0 or evidence.n_ay == 0
    p_s = weight(evidence.n_s, total)
    p_ax = weight(evidence.n_ax, total)
    p_ay = weight(evidence.n_ay, total)
    mi = 0.0 if degenerate else p_s / (p_ax * p_ay)
    id_x = independence(evidence.n_ax, evidence.n_s)
    id_y = independence(evidence.n_ay, evidence.n_s)
    return Score(mi, id_x, id_y, independence_ratio(id_x, id_y), degenerate)
