"""Acceptance suite.

Each test covers one acceptance criterion and prints a single
pass/fail line (visible with ``pytest -s`` or in captured output).
Run with:  pytest tests/test_acceptance.py -v -s
"""

import contextlib
import math
import random
from fractions import Fraction

from unithood import (
    ContingencyTable,
    EvidenceSet,
    LocalIndexProvider,
    Score,
    Thresholds,
    compute_metrics,
    extract_candidates,
    unithood,
    weight,
)
from unithood.cli import main

E_INV = math.exp(-1.0)

REFERENCE_ROWS = [
    # (mi, id_x, id_y, idr, merged)
    (1.5466, 1.6989, 7.3765, 0.2303, True),
    (0.7289, 5.9029, 2.7481, 2.1479, False),
    (0.1932, 4.0583, 5.9370, 0.6835, False),
    (0.0021, 6.0488, 8.2041, 0.7372, False),
    (0.1529, 8.9216, 5.6280, 1.5852, False),
]


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print("[acceptance] criterion %d (%s): FAIL" % (number, name))
        raise
    print("[acceptance] criterion %d (%s): PASS" % (number, name))


def within_pp(value, expected_percent, tolerance_pp=0.01):
    assert value is not None
    assert abs(value * 100.0 - expected_percent) <= tolerance_pp, (
        "%.4f%% vs %.2f%%" % (value * 100.0, expected_percent)
    )


def test_criterion_1_contingency_metrics():
    with criterion(1, "contingency table metrics"):
        table = ContingencyTable(tp=449, fp=6, fn=40, tn=510)
        assert table.total == 1005
        metrics = compute_metrics(table)
        within_pp(metrics.precision, 98.68)
        within_pp(metrics.recall, 91.82)
        within_pp(metrics.accuracy, 95.42)
        within_pp(metrics.f_score, 95.13)
        within_pp(metrics.paper_f, 90.61)


def test_criterion_2_reference_decisions():
    with criterion(2, "reference decision rows"):
        defaults = Thresholds()
        assert (
            defaults.mi_plus,
            defaults.mi_minus,
            defaults.id_t,
            defaults.idr_plus,
            defaults.idr_minus,
        ) == (0.9, 0.02, 6.0, 1.35, 0.93)
        verdicts = [
            Score(mi, id_x, id_y, idr).merges(defaults)
            for mi, id_x, id_y, idr, _ in REFERENCE_ROWS
        ]
        expected = [merged for *_, merged in REFERENCE_ROWS]
        assert verdicts == expected, "expected exact 5/5 agreement"


def test_criterion_3_sample_extraction(sample_sentence):
    with criterion(3, "sample sentence extraction"):
        candidates = extract_candidates(sample_sentence)
        multi = {c.surface for c in candidates if len(c.span) > 1}
        assert multi == {"Mental Health", "National Institute", "Kathy Kopnisky"}
        for candidate in candidates:
            words = candidate.surface.split()
            assert "NIH's" not in words
            assert "of" not in words


def test_criterion_4_weight_properties():
    with criterion(4, "weight properties over 10^4 evidence sets"):
        rng = random.Random(0xC0FFEE)
        for _ in range(10_000):
            counts = [rng.randint(0, 10 ** rng.randint(1, 9)) for _ in range(3)]
            if sum(counts) == 0:
                counts[rng.randrange(3)] = rng.randint(1, 100)
            total = sum(counts)
            assert sum(Fraction(n, total) for n in counts) == 1
            for n in counts:
                p = weight(n, total)
                assert 0.0 <= p <= E_INV + 1e-12
                assert (p == 0.0) == (n == 0)


def _random_evidence(rng):
    def count():
        if rng.random() < 0.12:
            return 0
        return rng.randint(1, 10 ** rng.randint(1, 9))

    n_s, n_ax, n_ay = count(), count(), count()
    if rng.random() < 0.15:
        n_ax = n_s  # boundary: side seen exactly as often as the unit
    if n_s + n_ax + n_ay == 0:
        n_ay = 1
    return EvidenceSet(n_s, n_ax, n_ay)


def _random_thresholds(rng):
    mi_minus = rng.uniform(-0.5, 1.5)
    mi_plus = mi_minus + rng.uniform(1e-3, 4.0)
    idr_minus = rng.uniform(-1.0, 1.5)
    idr_plus = idr_minus + rng.uniform(1e-3, 2.0)
    return Thresholds(mi_plus, mi_minus, rng.uniform(0.0, 10.0), idr_plus, idr_minus)


def _oracle_decision(n_s, n_ax, n_ay, t):
    # Deliberately re-derived from scratch: plain arithmetic, no calls
    # into the production measure code.
    total = n_s + n_ax + n_ay
    if n_ax == 0 or n_ay == 0:
        return False

    def p(n):
        share = n / total
        return share * math.exp(-share)

    mi = 0.0 if n_s == 0 else p(n_s) / (p(n_ax) * p(n_ay))
    id_x = math.log10(n_ax - n_s) if n_ax > n_s else 0.0
    id_y = math.log10(n_ay - n_s) if n_ay > n_s else 0.0
    if mi > t.mi_plus:
        return True
    if not (t.mi_plus >= mi >= t.mi_minus):
        return False
    if not (id_x >= t.id_t and id_y >= t.id_t):
        return False
    if id_y == 0:
        return False
    idr = id_x / id_y
    return t.idr_plus >= idr >= t.idr_minus


def test_criterion_5_decision_oracle_agreement():
    with criterion(5, "decision oracle agreement on 10^4 instances"):
        rng = random.Random(70042)
        disagreements = 0
        for _ in range(10_000):
            evidence = _random_evidence(rng)
            thresholds = _random_thresholds(rng)
            production = unithood(evidence).merges(thresholds)
            expected = _oracle_decision(
                evidence.n_s, evidence.n_ax, evidence.n_ay, thresholds
            )
            disagreements += production is not expected
        assert disagreements == 0, "%d/10000 disagreements" % disagreements


def test_criterion_6_threshold_monotonicity():
    with criterion(6, "threshold relaxations never shrink the merged set"):
        rng = random.Random(0x5EED)
        violations = 0
        for _ in range(1_000):
            batch = [_random_evidence(rng) for _ in range(25)]
            base = _random_thresholds(rng)
            kind = rng.randrange(4)
            if kind == 0:  # lower id_t
                relaxed = Thresholds(
                    base.mi_plus, base.mi_minus, base.id_t * rng.random(),
                    base.idr_plus, base.idr_minus,
                )
            elif kind == 1:  # lower mi_plus, staying above mi_minus
                new_plus = base.mi_minus + (base.mi_plus - base.mi_minus) * max(
                    rng.random(), 1e-6
                )
                relaxed = Thresholds(
                    new_plus, base.mi_minus, base.id_t, base.idr_plus, base.idr_minus
                )
            elif kind == 2:  # lower mi_minus
                relaxed = Thresholds(
                    base.mi_plus, base.mi_minus - rng.uniform(0.0, 2.0),
                    base.id_t, base.idr_plus, base.idr_minus,
                )
            else:  # widen the idr band on both ends
                relaxed = Thresholds(
                    base.mi_plus, base.mi_minus, base.id_t,
                    base.idr_plus + rng.uniform(0.0, 2.0),
                    base.idr_minus - rng.uniform(0.0, 2.0),
                )
            merged_base = {
                i for i, ev in enumerate(batch) if unithood(ev).merges(base)
            }
            merged_relaxed = {
                i for i, ev in enumerate(batch) if unithood(ev).merges(relaxed)
            }
            violations += not merged_base <= merged_relaxed
        assert violations == 0, "%d/1000 shrinking relaxations" % violations


def test_criterion_7_local_index_oracle():
    with criterion(7, "local index matches the naive scan"):
        rng = random.Random(40117)
        vocabulary = ["a", "b", "c", "d", "e", "f"]
        documents = [
            [rng.choice(vocabulary) for _ in range(rng.randint(3, 40))]
            for _ in range(100)
        ]
        provider = LocalIndexProvider(documents)
        phrases = set()
        for tokens in documents:
            for n in range(1, 5):
                for start in range(len(tokens) - n + 1):
                    phrases.add(tuple(tokens[start : start + n]))
        for _ in range(100):
            phrases.add(
                tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 4)))
            )
        mismatches = 0
        for phrase in sorted(phrases):
            n = len(phrase)
            expected = sum(
                any(
                    tokens[i : i + n] == list(phrase)
                    for i in range(len(tokens) - n + 1)
                )
                for tokens in documents
            )
            mismatches += provider.count(" ".join(phrase)) != expected
        assert mismatches == 0, "%d mismatching phrases" % mismatches


def _run_pipeline(run_dir, fixtures_dir, cache_path, capsys):
    run_dir.mkdir()
    candidates = run_dir / "candidates.tsv"
    pairs = run_dir / "pairs.tsv"
    decisions = run_dir / "decisions.tsv"
    decorated = run_dir / "decorated.tsv"
    assert main([
        "extract", str(fixtures_dir / "sample_parse.tsv"), str(candidates), str(pairs)
    ]) == 0
    capsys.readouterr()
    assert main([
        "--config", str(fixtures_dir / "config.json"), "--cache", str(cache_path),
        "decide", str(pairs), "--out", str(decisions), "--decorated-out", str(decorated),
    ]) == 0
    capsys.readouterr()
    assert main(["eval", str(decisions), str(fixtures_dir / "gold.tsv")]) == 0
    report = capsys.readouterr().out
    (run_dir / "eval.txt").write_text(report, encoding="utf-8")
    return [candidates, pairs, decisions, decorated, run_dir / "eval.txt"]


def test_criterion_8_end_to_end_determinism(tmp_path, fixtures_dir, capsys):
    with criterion(8, "end-to-end determinism with a warm cache"):
        cache_path = tmp_path / "cache.tsv"
        assert main([
            "--config", str(fixtures_dir / "config.json"), "--cache", str(cache_path),
            "extract", str(fixtures_dir / "sample_parse.tsv"),
            str(tmp_path / "warm_c.tsv"), str(tmp_path / "warm_p.tsv"),
        ]) == 0
        assert main([
            "--config", str(fixtures_dir / "config.json"), "--cache", str(cache_path),
            "counts", "warm", str(tmp_path / "warm_p.tsv"),
        ]) == 0
        capsys.readouterr()
        cache_before = cache_path.read_bytes()

        first = _run_pipeline(tmp_path / "run1", fixtures_dir, cache_path, capsys)
        second = _run_pipeline(tmp_path / "run2", fixtures_dir, cache_path, capsys)
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes(), "%s differs" % a.name
        assert cache_path.read_bytes() == cache_before, "warm cache was rewritten"
        report = first[-1].read_text(encoding="utf-8")
        assert "accuracy\t100.00%" in report
