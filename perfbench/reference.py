"""Reference outputs the benchmark checks the program against.

Written from the README's decision rule and file formats, without
importing the package under test: the MI/ID/IDR rule, the merge loop
(leftmost accepted pair wins, re-pair until nothing merges, at most
three passes), evaluation, the threshold sweep, and a brute-force
n-gram oracle for document counts.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from gen import SWEEP_GRID, Sentence

THRESHOLD_NAMES = ("mi_plus", "mi_minus", "id_t", "idr_plus", "idr_minus")
DEFAULT_THRESHOLDS = (0.9, 0.02, 6.0, 1.35, 0.93)
MAX_PASSES = 3


def _weight(n: int, total: int) -> float:
    share = n / total
    return share * math.exp(-share)


def scores(n_s: int, n_ax: int, n_ay: int) -> tuple[float, float, float, float | None, bool]:
    """(mi, id_x, id_y, idr, degenerate) for one pair's counts."""
    total = n_s + n_ax + n_ay
    if total == 0:
        raise ValueError("all counts are zero")
    if n_s and n_ax and n_ay:
        mi = _weight(n_s, total) / (_weight(n_ax, total) * _weight(n_ay, total))
    else:
        mi = 0.0
    id_x = math.log10(n_ax - n_s) if n_ax > n_s else 0.0
    id_y = math.log10(n_ay - n_s) if n_ay > n_s else 0.0
    idr = id_x / id_y if id_y > 0 else None
    return mi, id_x, id_y, idr, n_ax == 0 or n_ay == 0


def merges(score: tuple, thresholds: Sequence[float]) -> bool:
    mi, id_x, id_y, idr, degenerate = score
    mi_plus, mi_minus, id_t, idr_plus, idr_minus = thresholds
    if degenerate:
        return False
    if mi > mi_plus:
        return True
    return (mi_plus >= mi >= mi_minus and id_x >= id_t and id_y >= id_t
            and idr is not None and idr_plus >= idr >= idr_minus)


def _fmt(value: float | None) -> str:
    return "NA" if value is None else "%.4f" % value


def _span(span: Iterable[int]) -> str:
    return ",".join(str(o) for o in span)


def chain_phrases(sentence: Sentence) -> set[str]:
    """Every phrase a decide run may look up: each contiguous run of chain parts."""
    phrases = set()
    for spans, connectors in sentence.chains:
        for i in range(len(spans)):
            for j in range(i, len(spans)):
                phrases.add(sentence.surface(range(spans[i][0], spans[j][-1] + 1)))
    return phrases


def oracle_counts(docs: Iterable[str], phrases: Iterable[str]) -> dict[str, int]:
    """Document frequency of each phrase, by scanning every document.

    A phrase counts once per document that holds it as a contiguous run
    of whitespace tokens, compared case-insensitively.
    """
    phrases = list(phrases)
    trie: dict = {}
    for phrase in phrases:
        node = trie
        for token in phrase.lower().split():
            node = node.setdefault(token, {})
        node[None] = phrase
    counts = dict.fromkeys(phrases, 0)
    for doc in docs:
        tokens = doc.lower().split()
        found = set()
        for i in range(len(tokens)):
            node = trie
            for token in tokens[i:]:
                node = node.get(token)
                if node is None:
                    break
                if None in node:
                    found.add(node[None])
        for phrase in found:
            counts[phrase] += 1
    return counts


def candidates_file(sentences: Sequence[Sentence]) -> str:
    lines = ["# sentence_id\tspan\tsurface\n"]
    for s in sentences:
        for span in sorted(s.candidates):
            lines.append("%s\t%s\t%s\n" % (s.sentence_id, _span(span), s.surface(span)))
    return "".join(lines)


def pairs_file(sentences: Sequence[Sentence]) -> str:
    lines = ["# sentence_id\tspan\tsurface\tax_span\tax_surface\tb\tay_span\tay_surface\n"]
    for s in sentences:
        for spans, connectors in s.chains:
            for left, b, right in zip(spans, connectors, spans[1:]):
                merged = range(left[0], right[-1] + 1)
                lines.append("%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n" % (
                    s.sentence_id, _span(merged), s.surface(merged), _span(left),
                    s.surface(left), b, _span(right), s.surface(right)))
    return "".join(lines)


CountFn = Callable[[str, str, str], tuple[int, int, int]]


def decide(sentences: Sequence[Sentence], count: CountFn, units: set[str]) -> list[tuple]:
    """Decision records in the order the decide loop emits them.

    Each record is (a_x, b, a_y, s, n_s, n_ax, n_ay, score, merged, gold).
    Candidates are (span, surface); a merged candidate spans both sides
    and the connector, and carries the pair's merged surface.
    """
    records = []
    for sentence in sentences:
        if not any(len(spans) > 1 for spans, _ in sentence.chains):
            continue
        connectors = {}
        candidates = []
        for spans, conns in sentence.chains:
            if len(spans) > 1:
                candidates.extend((span, sentence.surface(span)) for span in spans)
                for left, b in zip(spans, conns):
                    if b:
                        connectors[left[-1] + 1] = b
        candidates.sort()
        decided: dict = {}
        for _ in range(MAX_PASSES):
            by_start = {span[0]: (span, surface) for span, surface in candidates}
            current = []
            for left in candidates:
                end = left[0][-1]
                if end + 1 in by_start:
                    current.append((left, "", by_start[end + 1]))
                if end + 2 in by_start and end + 1 in connectors:
                    current.append((left, connectors[end + 1], by_start[end + 2]))
            accepted = []
            for left, b, right in current:
                key = (left[0], right[0])
                s = " ".join(p for p in (left[1], b, right[1]) if p)
                if key not in decided:
                    n = count(s, left[1], right[1])
                    score = scores(*n)
                    merged = merges(score, DEFAULT_THRESHOLDS)
                    records.append((left[1], b, right[1], s) + n + (score, merged, s in units))
                    decided[key] = merged
                if decided[key]:
                    accepted.append((left, b, right, s))
            replaced, consumed = {}, set()
            for left, b, right, s in sorted(accepted, key=lambda p: (p[0][0][0], p[2][0][0])):
                if left in consumed or right in consumed:
                    continue
                middle = (left[0][-1] + 1,) if b else ()
                replaced[left] = (left[0] + middle + right[0], s)
                consumed.update((left, right))
            result = [replaced.get(c, c) for c in candidates if c in replaced or c not in consumed]
            if len(result) == len(candidates):
                break
            candidates = result
    return records


def decisions_file(records: Sequence[tuple]) -> str:
    lines = ["# pair_id\ta_x\tb\ta_y\tid_x\tid_y\tidr\tmi\tdecision\ts\n"]
    for number, (a_x, b, a_y, s, _, _, _, score, merged, _) in enumerate(records, start=1):
        mi, id_x, id_y, idr, _ = score
        lines.append("%d\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\n" % (
            number, a_x, b, a_y, _fmt(id_x), _fmt(id_y), _fmt(idr), _fmt(mi),
            "MERGED" if merged else "NOTMERGED", s))
    return "".join(lines)


def decorated_file(records: Sequence[tuple]) -> str:
    lines = ["# pair_id\ta_x\tb\ta_y\ts\tn_s\tn_ax\tn_ay\n"]
    for number, (a_x, b, a_y, s, n_s, n_ax, n_ay, _, _, _) in enumerate(records, start=1):
        lines.append("%d\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n" % (number, a_x, b, a_y, s, n_s, n_ax, n_ay))
    return "".join(lines)


def _table(decided: Iterable[bool], gold: Iterable[bool]) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for actual, ideal in zip(decided, gold):
        if actual and ideal:
            tp += 1
        elif actual:
            fp += 1
        elif ideal:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def _metrics(tp: int, fp: int, fn: int, tn: int) -> tuple:
    precision = tp / (tp + fp) if tp + fp else None
    recall = tp / (tp + fn) if tp + fn else None
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total if total else None
    f_score = paper_f = None
    if precision is not None and recall is not None:
        if precision + recall > 0:
            f_score = 2 * precision * recall / (precision + recall)
        paper_f = precision * recall
    return precision, recall, f_score, paper_f, accuracy


def eval_output(decided: Sequence[bool], gold: Sequence[bool]) -> str:
    """What ``unithood eval`` prints on stdout."""
    table = _table(decided, gold)
    lines = ["%s\t%d" % (name, v) for name, v in zip(("tp", "fp", "fn", "tn"), table)]
    lines.append("total\t%d" % sum(table))
    for name, v in zip(("precision", "recall", "f1", "paper_f", "accuracy"), _metrics(*table)):
        lines.append("%s\t%s" % (name, "NA" if v is None else "%.2f%%" % (v * 100.0)))
    return "\n".join(lines) + "\n"


def grid_points() -> list[tuple[float, ...]]:
    points = [()]
    for name in THRESHOLD_NAMES:
        points = [p + (float(v),) for p in points for v in SWEEP_GRID[name]]
    return points


def sweep_file(counts: Sequence[tuple[int, int, int]], gold: Sequence[bool]) -> str:
    """The sweep report: every grid point, best F first, ties in grid order."""
    row_scores = [scores(*n) for n in counts]
    ranked = []
    for index, thresholds in enumerate(grid_points()):
        table = _table((merges(sc, thresholds) for sc in row_scores), gold)
        m = _metrics(*table)
        key = (0, -m[2], index) if m[2] is not None else (1, 0.0, index)
        ranked.append((key, thresholds, table, m))
    ranked.sort(key=lambda r: r[0])
    lines = ["# mi_plus\tmi_minus\tid_t\tidr_plus\tidr_minus\ttp\tfp\tfn\ttn"
             "\tprecision\trecall\tf1\tpaper_f\taccuracy\n"]
    for _, thresholds, table, m in ranked:
        lines.append("\t".join(["%g" % v for v in thresholds] + ["%d" % v for v in table]
                               + ["NA" if v is None else "%.4f" % v for v in m]) + "\n")
    return "".join(lines)
