"""Head-driven left-right candidate filter and candidate pairing.

The filter grows every noun of a dependency-parsed sentence, except
possessives, into a maximal noun-phrase segment by absorbing contiguous
modifiers (left side first, then right), and emits the largest segments
that share no token as term candidates.  Growing every noun is the
paper's head-driven filter: a noun that fails its head test has no noun,
adjective or foreign-word dependent, so it grows only to itself, the
singleton the filter would keep for it anyway.  Adjacent candidates, or
candidates separated by exactly one preposition or the conjunction
"and", are then paired for the merge decision; accepted merges produce
new candidates that can be paired again on the next pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .parse_ingest import NOUN_TAGS, ParsedSentence, ParseToken, check_field

# POS tags a candidate member may carry: nouns, adjectives, foreign words.
MEMBER_TAGS = NOUN_TAGS | {"JJ", "FW"}

PREPOSITION_TAG = "IN"
CONJUNCTION_TAG = "CC"
CONJUNCTION_LEMMA = "and"


@dataclass(frozen=True, slots=True)
class Candidate:
    """A term candidate: a span of token offsets within one sentence.

    ``surface`` is the member lemmas joined by single spaces in offset
    order.  These three fields are all the candidates and pairs files
    carry, so a candidate read back from a file equals the extracted one.
    """

    sentence_id: str
    span: tuple[int, ...]
    surface: str

    def __post_init__(self):
        if not self.span:
            raise ValueError("candidate span must be non-empty")
        if any(b <= a for a, b in zip(self.span, self.span[1:])):
            raise ValueError("candidate span must be strictly ascending")
        check_field("candidate sentence_id", self.sentence_id)
        check_field("candidate surface", self.surface, allow_empty=False)

    @property
    def start(self) -> int:
        return self.span[0]

    @property
    def end(self) -> int:
        return self.span[-1]


@dataclass(frozen=True, slots=True)
class CandidatePair:
    """Two candidates eligible for merging, with their connector.

    ``b`` is the empty string when the candidates are offset-adjacent,
    otherwise the lemma of the single preposition or "and" between them.
    ``s``, computed here, is the would-be merged surface: the sides' surfaces
    and any connector joined by single spaces.
    """

    a_x: Candidate
    b: str
    a_y: Candidate
    s: str = field(init=False)

    def __post_init__(self):
        check_field("pair connector", self.b)
        if self.a_x.sentence_id != self.a_y.sentence_id:
            raise ValueError("paired candidates must come from one sentence")
        gap = 1 if self.b == "" else 2
        if self.a_y.start != self.a_x.end + gap:
            raise ValueError(
                "candidates at %r..%r are not adjacent through connector %r"
                % (self.a_x.span, self.a_y.span, self.b)
            )
        parts = (self.a_x.surface, self.b, self.a_y.surface)  # b is "" when adjacent
        object.__setattr__(self, "s", " ".join(filter(None, parts)))

    @property
    def sentence_id(self) -> str:
        return self.a_x.sentence_id

    def merged_span(self) -> tuple[int, ...]:
        middle = (self.a_x.end + 1,) if self.b else ()
        return self.a_x.span + middle + self.a_y.span

    def key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.a_x.span, self.a_y.span)


def _absorbable(token: ParseToken, members: set[int]) -> bool:
    # A member must modify the growing candidate, carry an allowed POS and not be a possessive.
    return (
        token.head_offset in members
        and token.pos in MEMBER_TAGS
        and token.dep_rel != "poss"
    )


def _grow(head: int, by_offset: Mapping[int, ParseToken]) -> tuple[int, ...]:
    members = {head}
    for step in (-1, 1):  # the left side first
        cursor = head + step
        while cursor in by_offset and _absorbable(by_offset[cursor], members):
            members.add(cursor)
            cursor += step
    return tuple(sorted(members))


def extract_candidates(sentence: ParsedSentence) -> list[Candidate]:
    """Run the head-driven filter over one sentence.

    Every noun but a possessive grows a candidate; one that fails the
    paper's head test grows only to itself.  Growths are kept largest
    first, leftmost among equals, and one that shares an offset with a
    kept growth is dropped.  The result is ordered by span start and
    candidates never share offsets.
    """
    by_offset = sentence.by_offset()
    grown = [_grow(t.offset, by_offset) for t in sentence.tokens
             if t.is_noun and t.dep_rel != "poss"]

    candidates: list[Candidate] = []
    covered: set[int] = set()
    for span in sorted(grown, key=lambda g: (-len(g), g[0])):
        # Skip a span inside a kept one, or overlapping one.
        if covered.isdisjoint(span):
            surface = " ".join(by_offset[offset].lemma for offset in span)
            candidates.append(Candidate(sentence.sentence_id, span, surface))
            covered.update(span)
    candidates.sort(key=lambda c: c.start)
    return candidates


def sentence_connectors(sentence: ParsedSentence) -> dict[int, str]:
    """Map the offset of each preposition or "and" in a sentence to its lemma."""
    return {
        t.offset: t.lemma
        for t in sentence.tokens
        if t.pos == PREPOSITION_TAG or (t.pos == CONJUNCTION_TAG and t.lemma == CONJUNCTION_LEMMA)
    }


def form_pairs(
    candidates: Sequence[Candidate], connectors: Mapping[int, str]
) -> list[CandidatePair]:
    """Pair candidates that sit next to each other in a sentence.

    A pair is emitted when the right candidate starts one offset after
    the left one ends, or two offsets after with a connector in between:
    ``connectors`` maps the offset of each preposition or "and" to its
    lemma (see ``sentence_connectors``).  Pairs come out in left-to-right
    order of the left candidate.
    """
    by_start = {c.start: c for c in candidates}
    pairs: list[CandidatePair] = []
    for left in sorted(candidates, key=lambda c: c.start):
        right = by_start.get(left.end + 1)
        if right is not None:
            pairs.append(CandidatePair(left, "", right))
        right = by_start.get(left.end + 2)
        if right is not None and left.end + 1 in connectors:
            pairs.append(CandidatePair(left, connectors[left.end + 1], right))
    return pairs


def closure(candidates: Sequence[Candidate], connectors: Mapping[int, str]) -> set[str]:
    """The surface of every run of candidates that form_pairs links one to the next.

    A merge makes a pair's run one candidate, linked as its sides were, so these are all
    the phrases a decide on the candidates can ask, under any thresholds and merge passes.
    """
    runs = {c.start: [c.surface] for c in candidates}  # the runs that end at each candidate
    for pair in form_pairs(candidates, connectors):  # a run reaches a_x before a_y
        tail = pair.s[len(pair.a_x.surface):]
        runs[pair.a_y.start] += [run + tail for run in runs[pair.a_x.start]]
    return {run for ending in runs.values() for run in ending}


def merge_pass(
    accepted: Sequence[CandidatePair], candidates: Sequence[Candidate]
) -> list[Candidate]:
    """Apply one round of merges to the candidate list.

    Each pair in ``accepted``, whatever their order, is replaced by a
    single candidate covering both sides plus the connector token.  When
    a candidate appears in two accepted pairs, the leftmost pair wins and
    the other is deferred to a later pass.  With nothing accepted the
    candidates are returned in span order.
    """
    replacement: dict[Candidate, Candidate] = {}
    consumed: set[Candidate] = set()
    for pair in sorted(accepted, key=lambda p: (p.a_x.start, p.a_y.start)):
        if pair.a_x in consumed or pair.a_y in consumed:
            continue
        merged = Candidate(pair.sentence_id, pair.merged_span(), pair.s)
        replacement[pair.a_x] = merged
        consumed.update((pair.a_x, pair.a_y))
    result: list[Candidate] = []
    for candidate in sorted(candidates, key=lambda c: c.start):
        if candidate in replacement:
            result.append(replacement[candidate])
        elif candidate not in consumed:
            result.append(candidate)
    return result
