"""Pipeline orchestration: configuration, file formats, the one decide loop (``decide``).

Every file format is TSV, UTF-8 and LF, read by ``parse_ingest.read_rows`` and
written by ``parse_ingest.tsv_line``; the *_COLUMNS tuples below declare each
one's columns.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import MISSING, dataclass, field, fields
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence, TextIO

from .evidence import (
    CountCache,
    CountProvider,
    EvidenceSet,
    FixtureProvider,
    RemoteClientConfig,
    RemoteCountClient,
    load_corpus_file,
    lookup_key,
)
from .evaluation import METRIC_NAMES, ContingencyTable, SweepPoint, compute_metrics
from .extractor import Candidate, CandidatePair, closure, form_pairs, merge_pass
from .measures import THRESHOLD_NAMES, Score, Thresholds, threshold_value, unithood
from .parse_ingest import (check_setting, parse_whole, read_json_object, read_rows, tsv_line,
                           write_rows)

MERGED = "MERGED"
NOTMERGED = "NOTMERGED"


class ConfigError(ValueError):
    pass


# Each count-provider kind: the type of its spec in PipelineConfig.provider, and its builder.
PROVIDERS: dict[str, tuple[type, Callable[[Any, Any], CountProvider]]] = {
    "fixture": (str, lambda path, sentences: FixtureProvider.from_file(path)),
    "corpus": (str, lambda path, sentences: load_corpus_file(
        path, None if sentences is None else {p for s in sentences for p in closure(*s)})),
    "remote": (RemoteClientConfig, lambda settings, sentences: RemoteCountClient(settings)),
}


@dataclass(frozen=True)
class PipelineConfig:
    """One serializable configuration for a full run.

    ``provider`` names at most one count provider as (kind, spec): ``("fixture", path)`` to
    a JSON or TSV count table, ``("corpus", path)`` to one document per line, or
    ``("remote", RemoteClientConfig)``.  Each path is a non-empty string.  ``cache_path``
    persists the counts, memoized per run anyway, and is required with the remote provider.
    """

    thresholds: Thresholds = field(default_factory=Thresholds)
    provider: tuple[str, str | RemoteClientConfig] | None = None
    cache_path: str | None = None
    missing_count_policy: str = "error"
    max_merge_passes: int = 3

    def __post_init__(self):
        if self.provider is not None and not (
                isinstance(self.provider, tuple) and len(self.provider) == 2):
            raise ConfigError("provider must be a (kind, spec) tuple, got %r" % (self.provider,))
        kind, spec = self.provider or (None, None)
        if kind is not None and not (isinstance(kind, str) and kind in PROVIDERS):
            raise ConfigError("unknown provider kind(s): %s" % kind)
        spec_type = PROVIDERS[kind][0] if kind is not None else None
        if spec_type not in (None, str) and not isinstance(spec, spec_type):
            raise ConfigError("%s must be a %s, got %s"
                              % (kind, spec_type.__name__, type(spec).__name__))
        paths = [(kind, spec)] if spec_type is str else []
        paths += [("cache_path", self.cache_path)] if self.cache_path is not None else []
        for name, value in paths:
            if not isinstance(value, str) or not value:
                raise ConfigError("%s must be a non-empty string" % name)
        if self.missing_count_policy not in ("error", "zero"):
            raise ConfigError("missing_count_policy must be 'error' or 'zero'")
        check_setting("max_merge_passes", self.max_merge_passes, 1, ConfigError)
        if kind == "remote" and self.cache_path is None:
            raise ConfigError("the remote provider requires a cache_path")


def _config_object(value: object, name: str, noun: str, keys: Iterable[str] | None = None,
                   required: Iterable[str] = ()) -> dict[str, Any]:
    """Return ``value``, a JSON object that holds only ``keys`` (None: any) and all ``required``."""
    if not isinstance(value, dict):
        raise ConfigError("%s must be a JSON object" % name)
    for problem, names in (("unknown %s(s)" % noun, sorted(set(value) - set(keys or value))),
                           ("%s lacks key(s)" % name, [k for k in required if k not in value])):
        if names:
            raise ConfigError("%s: %s" % (problem, ", ".join(names)))
    return value


def load_config(path: str | Path, cache_path: str | None = None) -> PipelineConfig:
    """Load a JSON config file; relative paths resolve against its directory.  ``cache_path``,
    if given, replaces the file's before the config is checked; a null ``cache_path`` means
    no cache.  Every object in the file refuses a key that its dataclass does not declare."""
    path = Path(path)
    try:
        raw = read_json_object(path.read_bytes(), "config %s" % path, ConfigError)
    except OSError as exc:
        raise ConfigError("cannot read config %s: %s" % (path, exc)) from exc
    _config_object(raw, "config", "config key", [f.name for f in fields(PipelineConfig)])
    provider = _config_object(raw.get("provider", {}), "provider", "provider kind", PROVIDERS)
    values = _config_object(raw.get("thresholds", {}), "thresholds", "threshold")
    if len(provider) != 1:
        raise ConfigError("config must name exactly one count provider")
    [(kind, spec)] = provider.items()
    spec_type = PROVIDERS[kind][0]
    if spec_type is not str:
        spec = _config_object(spec, kind, kind + " key", [f.name for f in fields(spec_type)],
                              [f.name for f in fields(spec_type) if f.default is MISSING])
    spec, file_cache = (str(path.parent / p) if isinstance(p, str) and p else p
                        for p in (spec, raw.get("cache_path")))
    try:
        return PipelineConfig(**dict(
            raw, thresholds=Thresholds(**{n: threshold_value(n, v) for n, v in values.items()}),
            provider=(kind, spec if spec_type is str else spec_type(**spec)),
            cache_path=file_cache if cache_path is None else cache_path))
    except (TypeError, ValueError) as exc:  # ConfigError is a ValueError too
        raise ConfigError("invalid config %s: %s" % (path, exc)) from exc


def build_provider(config: PipelineConfig, sentences: Iterable[
        tuple[Sequence[Candidate], Mapping[int, str]]] | None = None) -> CountCache:
    """The config's provider in a CountCache.  Only a corpus reads each sentence's (candidates,
    connectors), and counts just their closure, every phrase a decide on them can ask; else all."""
    if config.provider is None:
        raise ConfigError("no count provider configured")
    kind, spec = config.provider
    return CountCache(PROVIDERS[kind][1](spec, sentences), config.cache_path,
                      config.missing_count_policy)


# ---------------------------------------------------------------------------
# File formats: each one's columns, the "# " header of every file written here

CANDIDATE_COLUMNS = ("sentence_id", "span", "surface")  # span: comma-joined offsets
# A pairs row starts with the would-be merged unit, described as a candidate;
# the rest carry the decomposition the decide step needs.
PAIR_COLUMNS = CANDIDATE_COLUMNS + ("ax_span", "ax_surface", "b", "ay_span", "ay_surface")
# Reals with 4 decimals; decision is MERGED or NOTMERGED.
DECISION_COLUMNS = ("pair_id", "a_x", "b", "a_y", "id_x", "id_y", "idr", "mi", "decision", "s")
_SCORE_CELLS = attrgetter(*DECISION_COLUMNS[4:8])  # a decisions row's cells from its Score
_SURFACES = attrgetter("a_x.surface", "b", "a_y.surface")  # its surface cells from its pair
# Raw counts, so a sweep can decide each pair again under other thresholds.
DECORATED_COLUMNS = ("pair_id", "a_x", "b", "a_y", "s", "n_s", "n_ax", "n_ay")
GOLD_COLUMNS = ("pair_id", "label")  # label is MERGED or NOTMERGED
# Externally supplied scores keyed by the pair's surfaces, used instead of
# count evidence when raw counts are unavailable; idr may be NA.
SCORE_COLUMNS = ("a_x", "b", "a_y", "mi", "id_x", "id_y", "idr")
_CELLS = ("tp", "fp", "fn", "tn")  # a ContingencyTable's fields
_METRICS = ("precision", "recall", "f1", "paper_f", "accuracy")  # METRIC_NAMES in reports
SWEEP_COLUMNS = THRESHOLD_NAMES + _CELLS + _METRICS


def _span_str(span: Sequence[int]) -> str:
    return ",".join(map(str, span))


def _parse_span(text: str) -> tuple[int, ...]:
    return tuple(parse_whole(v, "span offset") for v in text.split(","))


# Pair-id rows are (pair_id, value) tuples; a read_rows key and its message.
_PAIR_ID_KEY = (itemgetter(0), "duplicate pair id %r")


def write_candidates_file(candidates: Iterable[Candidate], stream: TextIO) -> None:
    write_rows(stream, CANDIDATE_COLUMNS,
               ((c.sentence_id, _span_str(c.span), c.surface) for c in candidates))


def _pair_row(p: CandidatePair) -> list[str]:
    return [
        p.sentence_id, _span_str(p.merged_span()), p.s,
        _span_str(p.a_x.span), p.a_x.surface, p.b, _span_str(p.a_y.span), p.a_y.surface,
    ]


def write_pairs_file(pairs: Iterable[CandidatePair], stream: TextIO) -> None:
    write_rows(stream, PAIR_COLUMNS, map(_pair_row, pairs))


def _hold(table: dict[int, Candidate | str], pair: CandidatePair) -> None:
    """Record the pair's candidates and connector by offset; ValueError on a second holder."""
    holders = [pair.a_x] * len(pair.a_x.span) + [pair.b] * bool(pair.b)
    for offset, held in zip(pair.merged_span(), holders + [pair.a_y] * len(pair.a_y.span)):
        if (first := table.setdefault(offset, held)) is not held and first != held:
            raise ValueError("offset %d holds %s here but %s in an earlier pair" % (
                offset, *("connector %r" % h if isinstance(h, str) else
                          "candidate %r at %s" % (h.surface, _span_str(h.span))
                          for h in (held, first))))


def read_pairs_file(stream: Iterable[bytes | str]) -> list[CandidatePair]:
    tables: dict[str, dict[int, Candidate | str]] = {}

    def candidate(table: dict[int, Candidate | str], sentence_id: str, span: str,
                  surface: str) -> Candidate:
        offsets = _parse_span(span)
        held = table.get(offsets[0])
        if isinstance(held, Candidate) and held.span == offsets and held.surface == surface:
            return held  # an earlier row's: checked once, and held once
        return Candidate(sentence_id, offsets, surface)

    def pair(columns: list[str]) -> CandidatePair:
        sentence_id, span, surface, ax_span, ax_surface, b, ay_span, ay_surface = columns
        sentence_id = sys.intern(sentence_id)  # one string for all the sentence's candidates
        table = tables.setdefault(sentence_id, {})
        built = CandidatePair(candidate(table, sentence_id, ax_span, ax_surface), sys.intern(b),
                              candidate(table, sentence_id, ay_span, ay_surface))
        if (cells := [span, surface]) != (merged := [_span_str(built.merged_span()), built.s]):
            raise ValueError("span and surface %r do not match the pair's %r" % (cells, merged))
        _hold(table, built)
        return built

    return list(read_rows(stream, len(PAIR_COLUMNS), "pairs file", pair))


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One decided pair, in the order it was evaluated."""

    pair_id: str
    pair: CandidatePair
    score: Score
    merged: bool
    evidence: EvidenceSet | None = None


def _fmt(value: float | None) -> str:
    return "NA" if value is None else "%.4f" % value


def write_records(records: Iterable[DecisionRecord], decisions: TextIO | None,
                  decorated: TextIO | None = None) -> tuple[int, int, int]:
    """Write each record's rows as it arrives, skipping a None stream; a decorated file skips,
    with a warning, each record without counts.  Returns how many came, merged, lacked counts."""
    for stream, columns in ((decisions, DECISION_COLUMNS), (decorated, DECORATED_COLUMNS)):
        if stream is not None:
            write_rows(stream, columns, ())
    decided = merged = uncounted = 0
    for r in records:
        if decisions is not None:
            decisions.write(tsv_line([r.pair_id, *_SURFACES(r.pair), *map(
                _fmt, _SCORE_CELLS(r.score)), MERGED if r.merged else NOTMERGED, r.pair.s]))
        if decorated is not None and r.evidence is not None:
            decorated.write(tsv_line([r.pair_id, *_SURFACES(r.pair), r.pair.s, *(
                "%d" % n for n in (r.evidence.n_s, r.evidence.n_ax, r.evidence.n_ay))]))
        decided, merged, uncounted = (
            decided + 1, merged + r.merged, uncounted + (r.evidence is None))
    if decorated is not None and uncounted:
        warnings.warn("%d pair(s) decided from injected scores carry no raw counts and were left "
                      "out of the decorated file" % uncounted)
    return decided, merged, uncounted


def write_decisions_file(records: Iterable[DecisionRecord], stream: TextIO) -> None:
    write_records(records, stream)


def _read_verdicts(
    stream: Iterable[bytes | str], columns: Sequence[str], name: str, kind: str, what: str
) -> dict[str, bool]:
    column = columns.index(name)

    def verdict(row: list[str]) -> tuple[str, bool]:
        pair_id, text = row[0], row[column]
        if text not in (MERGED, NOTMERGED):
            raise ValueError("unknown %s %r for pair %s" % (what, text, pair_id))
        return pair_id, text == MERGED

    return dict(read_rows(stream, len(columns), kind, verdict, *_PAIR_ID_KEY))


def read_decisions_file(stream: Iterable[bytes | str]) -> dict[str, bool]:
    return _read_verdicts(stream, DECISION_COLUMNS, "decision", "decisions file", "decision")


def read_gold_file(stream: Iterable[bytes | str]) -> dict[str, bool]:
    return _read_verdicts(stream, GOLD_COLUMNS, "label", "gold file", "gold label")


def read_decorated_file(stream: Iterable[bytes | str]) -> list[tuple[str, EvidenceSet]]:
    first = DECORATED_COLUMNS.index("n_s")
    counts = DECORATED_COLUMNS[first:]

    def row(columns: list[str]) -> tuple[str, EvidenceSet]:
        return columns[0], EvidenceSet(*map(parse_whole, columns[first:], counts))

    return list(read_rows(stream, len(DECORATED_COLUMNS), "decorated pairs file", row,
                          *_PAIR_ID_KEY))


def write_sweep_file(points: Iterable[SweepPoint], stream: TextIO) -> None:
    write_rows(stream, SWEEP_COLUMNS, (
        ["%g" % getattr(p.thresholds, name) for name in THRESHOLD_NAMES]
        + ["%d" % getattr(p.table, name) for name in _CELLS]
        + [_fmt(getattr(p.metrics, name)) for name in METRIC_NAMES]
        for p in points))


def write_eval_report(table: ContingencyTable, stream: TextIO) -> None:
    """eval's report, with no header: a name<TAB>value line each, the metrics in percent."""
    rows = [(name, "%d" % getattr(table, name)) for name in _CELLS + ("total",)]
    for name, value in zip(_METRICS, attrgetter(*METRIC_NAMES)(compute_metrics(table))):
        rows.append((name, "NA" if value is None else "%.2f%%" % (value * 100.0)))
    stream.writelines(map(tsv_line, rows))


def read_scores_file(stream: Iterable[bytes | str]) -> dict[tuple[str, ...], Score]:
    """Map each surface triple (a_x, b, a_y) to its Score."""
    first = SCORE_COLUMNS.index("mi")

    def row(columns: list[str]) -> tuple[tuple[str, ...], Score]:
        mi, id_x, id_y, idr = columns[first:]
        scores = (float(mi), float(id_x), float(id_y), None if idr == "NA" else float(idr))
        if not all(math.isfinite(v) for v in scores if v is not None):
            raise ValueError("scores must be finite, got %s" % ", ".join(columns[first:]))
        return tuple(columns[:first]), Score(*scores)

    return dict(read_rows(stream, len(SCORE_COLUMNS), "scores file", row, itemgetter(0),
                          "duplicate surface triple (%r, %r, %r)"))


# ---------------------------------------------------------------------------
# The decide loop


def decide_pairs(
    pairs: Sequence[CandidatePair],
    thresholds: Thresholds,
    provider: CountProvider | None = None,
    injected: Mapping[tuple[str, ...], Score] | None = None,
    max_passes: int = 3,
) -> list[DecisionRecord]:
    """decide's records as a list, over the sentences that the pairs seed (sentences_of)."""
    return list(decide(sentences_of(pairs), thresholds, provider, injected, max_passes))


def sentences_of(pairs: Iterable[CandidatePair]) -> Iterator[tuple[list[Candidate], dict[int, str]]]:
    """Yield each sentence's candidates in offset order and connectors by offset, as _hold holds
    them: an offset holds one candidate or one connector, else ValueError.  The first next()
    builds, and checks, every sentence's table; a caller that reads them twice takes a list."""
    tables: dict[str, dict[int, Candidate | str]] = {}
    for pair in pairs:
        _hold(tables.setdefault(pair.sentence_id, {}), pair)
    for table in tables.values():
        yield ([c for at, c in sorted(table.items()) if not isinstance(c, str) and at == c.start],
               {at: b for at, b in table.items() if isinstance(b, str)})


def decide(sentences: Iterable[tuple[list[Candidate], dict[int, str]]], thresholds: Thresholds,
           provider: CountProvider | None = None,
           injected: Mapping[tuple[str, ...], Score] | None = None,
           max_passes: int = 3) -> Iterator[DecisionRecord]:
    """Decide every pair of each sentence's (candidates, connectors), merging accepted ones
    and re-pairing to fixpoint, and yield each record as soon as it is decided.

    After a pass applies merges, newly adjacent candidates are paired and decided too, up
    to ``max_passes`` rounds; a bad ``max_passes`` raises ValueError at the first ``next()``,
    which decide_pairs and the CLI make at once.  Scores injected by surface triple take
    precedence over count evidence; pairs without them need a provider.
    """
    check_setting("max_passes", max_passes, 1)
    injected = injected or {}
    n_records = 0
    for candidates, connectors in sentences:
        decided: dict[tuple[tuple[int, ...], tuple[int, ...]], bool] = {}
        for _ in range(max_passes):
            current = form_pairs(candidates, connectors)
            for pair in current:
                if pair.key() not in decided:
                    n_records += 1
                    record = _decide_one(str(n_records), pair, thresholds, provider, injected)
                    decided[pair.key()] = record.merged
                    yield record
            merged = merge_pass([p for p in current if decided[p.key()]], candidates)
            if len(merged) == len(candidates):
                break
            candidates = merged


def _decide_one(
    pair_id: str,
    pair: CandidatePair,
    thresholds: Thresholds,
    provider: CountProvider | None,
    injected: Mapping[tuple[str, ...], Score],
) -> DecisionRecord:
    score = injected.get((pair.a_x.surface, pair.b, pair.a_y.surface))
    evidence = None
    if score is None:
        if provider is None:
            raise ConfigError(
                "no count provider configured and no injected scores for %r" % pair.s)
        counts = list(map(provider.count, (pair.s, pair.a_x.surface, pair.a_y.surface)))
        try:
            evidence = EvidenceSet(*counts)
            score = unithood(evidence)
        except ValueError as exc:  # UndefinedEvidenceError, or a count above 2**53
            raise type(exc)("pair %s (%r): %s" % (pair_id, pair.s, exc)) from None
    return DecisionRecord(pair_id, pair, score, score.merges(thresholds), evidence)


def warm_counts(pairs: Sequence[CandidatePair], provider: CountProvider) -> int:
    """Look up each phrase a decide run needs once per count key; returns the lookups."""
    phrases: dict[str, str] = {}
    for pair in pairs:
        for phrase in (pair.s, pair.a_x.surface, pair.a_y.surface):
            phrases.setdefault(lookup_key(phrase), phrase)
    for phrase in phrases.values():
        provider.count(phrase)
    return len(phrases)
