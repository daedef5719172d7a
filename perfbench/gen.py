"""Seeded workload generator for the unithood benchmark.

Everything is drawn from ``random.Random`` streams keyed by the seed, so
one seed always gives byte-identical files.  The generator keeps its own
record of which phrases are true units; gold labels, the fixture count
table and the planted corpus all come from that record, never from the
code under test.

Sentences are chains of noun-phrase terms joined by a preposition, "and"
or nothing (adjacent terms), separated by a verb or a comma.  About 30%
of chains have a third part, so later merge passes fire.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
CONNECTORS = ["of", "in", "for", "with", "on", "and", ""]
CONNECTOR_WEIGHTS = [30, 15, 10, 8, 7, 15, 15]
FILLER_FUNCTION_WORDS = ["the", "of", "in", "and", "a", "to", "for", "with", "on", "is"]

# 5 * 3 * 4 * 3 * 2 = 360 grid points, all of them valid thresholds.
SWEEP_GRID = {
    "mi_plus": [0.5, 0.7, 0.9, 1.1, 1.3],
    "mi_minus": [0.01, 0.02, 0.05],
    "id_t": [3, 4, 5, 6],
    "idr_plus": [1.2, 1.35, 1.5],
    "idr_minus": [0.8, 0.93],
}


def _stream(seed: int, name: str) -> random.Random:
    return random.Random("%d/%s" % (seed, name))


def _zipf_cum(n: int, exponent: float = 1.07, offset: int = 10) -> list[float]:
    """Cumulative Zipf-Mandelbrot weights 1 / (rank + offset) ** exponent.

    The offset flattens the head, so that no single word sits in most
    documents of the corpus.
    """
    return list(itertools.accumulate(1.0 / ((rank + offset) ** exponent) for rank in range(1, n + 1)))


def _words(rng: random.Random, n: int, taken: set[str]) -> list[str]:
    words = []
    while len(words) < n:
        word = "".join(rng.choice(SYLLABLES) for _ in range(rng.choice((2, 3, 3))))
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


class Stratified:
    """Weighted draws with far less sampling noise than independent draws.

    Items come from a shuffled pool that holds each item about in
    proportion to its weight (systematic sampling with one random
    offset).  When the pool runs out, a fresh one is drawn.  This keeps
    the mix of popular and rare items, and so the cost of the work they
    cause, close to the same from seed to seed.
    """

    def __init__(self, rng: random.Random, population, cum_weights, pool: int):
        self.rng, self.population, self.cum, self.size = rng, population, cum_weights, pool
        self.pool: list = []

    def draw(self):
        if not self.pool:
            offset, total = self.rng.random(), self.cum[-1]
            self.pool = [
                self.population[bisect.bisect(self.cum, (i + offset) / self.size * total)]
                for i in range(self.size)
            ]
            self.rng.shuffle(self.pool)
        return self.pool.pop()


@dataclass(frozen=True)
class Term:
    """A noun-phrase term: modifier (lemma, pos) pairs followed by a head noun."""

    modifiers: tuple[tuple[str, str], ...]
    head: str

    @property
    def surface(self) -> str:
        return " ".join([m for m, _ in self.modifiers] + [self.head])


@dataclass
class Sentence:
    """One generated sentence: parse tokens plus the chains it was built from.

    ``tokens`` rows are (lemma, pos, dep_rel, head_offset), offsets being
    list position + 1.  ``chains`` hold, for each chain, its candidate
    spans and the connector lemmas between them.  ``candidates`` is every
    term span in the sentence, chained or not.
    """

    sentence_id: str
    tokens: list[list] = field(default_factory=list)
    chains: list[tuple[list[tuple[int, ...]], list[str]]] = field(default_factory=list)
    candidates: list[tuple[int, ...]] = field(default_factory=list)

    def surface(self, span) -> str:
        return " ".join(self.tokens[o - 1][0] for o in span)

    def text(self) -> str:
        return " ".join(t[0] for t in self.tokens)


@dataclass
class Inventory:
    """The seed's vocabulary, term inventory and record of true units."""

    nouns: list[str]
    adjectives: list[str]
    verbs: list[str]
    terms: list[Term]
    unit_links: list[tuple[int, str, int]]
    units: set[str]

    def link_surface(self, link: tuple[int, str, int]) -> str:
        left, b, right = link
        parts = [self.terms[left].surface, b, self.terms[right].surface]
        return " ".join(p for p in parts if p)


def make_inventory(seed: int, n_terms: int = 3000, n_unit_links: int = 1500) -> Inventory:
    rng = _stream(seed, "inventory")
    taken = set(FILLER_FUNCTION_WORDS) | set(CONNECTORS)
    nouns = _words(rng, 3000, taken)
    adjectives = _words(rng, 600, taken)
    verbs = _words(rng, 60, taken)
    noun_cum, adj_cum = _zipf_cum(len(nouns)), _zipf_cum(len(adjectives))
    terms: list[Term] = []
    seen = set()
    while len(terms) < n_terms:
        n_mod = rng.choices((0, 1, 2), weights=(40, 45, 15))[0]
        modifiers = []
        for _ in range(n_mod):
            if rng.random() < 0.6:
                modifiers.append((rng.choices(adjectives, cum_weights=adj_cum)[0], "JJ"))
            else:
                modifiers.append((rng.choices(nouns, cum_weights=noun_cum)[0], "NN"))
        term = Term(tuple(modifiers), rng.choices(nouns, cum_weights=noun_cum)[0])
        if term.surface not in seen:
            seen.add(term.surface)
            terms.append(term)
    term_cum = _zipf_cum(n_terms)
    links = []
    units = set()
    inventory = Inventory(nouns, adjectives, verbs, terms, links, units)
    while len(links) < n_unit_links:
        left, right = rng.choices(range(n_terms), cum_weights=term_cum, k=2)
        link = (left, rng.choices(CONNECTORS, weights=CONNECTOR_WEIGHTS)[0], right)
        surface = inventory.link_surface(link)
        if left != right and surface not in units:
            units.add(surface)
            links.append(link)
    return inventory


def make_sentences(seed: int, inventory: Inventory, n_sentences: int) -> list[Sentence]:
    """Sentences of 2 to 4 chains; each link is a planted unit about 35% of the time.

    A three-part chain whose two links are both units is itself recorded
    as a unit, so the phrase a second merge pass forms has a gold label.
    """
    rng = _stream(seed, "sentences")
    terms = inventory.terms
    term_draws = Stratified(rng, range(len(terms)), _zipf_cum(len(terms)), 5 * n_sentences)
    link_draws = Stratified(rng, inventory.unit_links, _zipf_cum(len(inventory.unit_links)),
                            n_sentences)
    connector_draws = Stratified(rng, CONNECTORS, list(itertools.accumulate(CONNECTOR_WEIGHTS)),
                                 2 * n_sentences)
    chain_counts = Stratified(rng, (2, 3, 4), [1, 3, 4], n_sentences)

    def flags(share: float, pool: int) -> Stratified:
        return Stratified(rng, (True, False), [share, 1.0], pool)

    planted, third_part, follow_unit, object_term = (
        flags(0.35, 3 * n_sentences), flags(0.3, 3 * n_sentences),
        flags(0.5, n_sentences), flags(0.5, n_sentences))
    links_by_left: dict[int, list[tuple[int, str, int]]] = {}
    for link in inventory.unit_links:
        links_by_left.setdefault(link[0], []).append(link)

    def random_link(left: int | None = None) -> tuple[int, str, int]:
        if left is None:
            left = term_draws.draw()
        return (left, connector_draws.draw(), term_draws.draw())

    sentences = []
    for number in range(1, n_sentences + 1):
        sentence = Sentence("s%06d" % number)
        tokens = sentence.tokens

        def add(lemma: str, pos: str, dep: str, head) -> int:
            tokens.append([lemma, pos, dep, head])
            return len(tokens)

        def add_term(term: Term, dep: str, head) -> tuple[int, ...]:
            first = len(tokens) + 1
            head_offset = first + len(term.modifiers)
            for lemma, pos in term.modifiers:
                add(lemma, pos, "amod" if pos == "JJ" else "nn", head_offset)
            add(term.head, "NN", dep, head)
            span = tuple(range(first, head_offset + 1))
            sentence.candidates.append(span)
            return span

        root = "ROOT"  # resolved to the verb's offset once it exists
        for index in range(chain_counts.draw()):
            link = link_draws.draw() if planted.draw() else random_link()
            parts = [link]
            if third_part.draw():
                follow = links_by_left.get(link[2])
                parts.append(rng.choice(follow) if follow and follow_unit.draw() else random_link(link[2]))
                if all(inventory.link_surface(p) in inventory.units for p in parts):
                    inventory.units.add(
                        " ".join(x for x in (inventory.link_surface(parts[0]), parts[1][1],
                                             terms[parts[1][2]].surface) if x)
                    )
            add("the", "DT", "det", None)
            det = len(tokens)
            spans = [add_term(terms[link[0]], "nsubj" if index == 0 else "dobj", root)]
            tokens[det - 1][3] = spans[0][-1]
            connectors = []
            for _, b, right in parts:
                if b == "and":
                    conn = add(b, "CC", "cc", spans[-1][-1])
                    spans.append(add_term(terms[right], "conj", spans[-1][-1]))
                elif b:
                    conn = add(b, "IN", "prep", spans[-1][-1])
                    spans.append(add_term(terms[right], "pobj", conn))
                else:
                    spans.append(add_term(terms[right], "dep", root))
                connectors.append(b)
            sentence.chains.append((spans, connectors))
            if index == 0:
                root = add(rng.choice(inventory.verbs), "VBZ", "root", 0)
            else:
                add(",", ",", "punct", root)
        if object_term.draw():
            det = add("the", "DT", "det", None)
            span = add_term(terms[term_draws.draw()], "dobj", root)
            tokens[det - 1][3] = span[-1]
        add(".", ".", "punct", root)
        for token in tokens:
            if token[3] == "ROOT":
                token[3] = root
        sentences.append(sentence)
    return sentences


def write_parse_file(sentences: list[Sentence], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("# sentence_id\toffset\tlemma\tpos\tdep_rel\thead_offset\n")
        for s in sentences:
            for offset, (lemma, pos, dep, head) in enumerate(s.tokens, start=1):
                handle.write("%s\t%d\t%s\t%s\t%s\t%d\n" % (s.sentence_id, offset, lemma, pos, dep, head))


def make_corpus(seed: int, inventory: Inventory, sentences: list[Sentence], n_docs: int) -> list[str]:
    """A Zipf corpus: filler words, standalone terms and planted unit phrases.

    Planted units occur as whole phrases, so their merged count is high
    against their sides; non-unit links mostly occur only in the parsed
    sentences, which the corpus contains as documents of their own.
    """
    rng = _stream(seed, "corpus")
    filler = FILLER_FUNCTION_WORDS + inventory.verbs + inventory.adjectives + inventory.nouns
    filler_cum = _zipf_cum(len(filler), 1.0)
    terms = [t.surface for t in inventory.terms]
    term_cum = _zipf_cum(len(terms))
    units = sorted(inventory.units)
    rng.shuffle(units)
    unit_cum = _zipf_cum(len(units))
    sizes = [rng.randint(8, 30) for _ in range(n_docs)]
    total = sum(sizes)
    kinds = rng.choices((0, 1, 2), weights=(55, 30, 15), k=total)
    draws = tuple(
        iter(rng.choices(population, cum_weights=cum, k=kinds.count(kind)))
        for kind, (population, cum) in enumerate(
            ((filler, filler_cum), (terms, term_cum), (units, unit_cum)))
    )
    segments = [next(draws[kind]) for kind in kinds]
    docs = []
    at = 0
    for size in sizes:
        docs.append(" ".join(segments[at:at + size]))
        at += size
    docs.extend(s.text() for s in sentences)
    return docs


def link_counts(rng: random.Random, is_unit: bool, n_ax: int, n_ay: int) -> int:
    """A merged-phrase count: a large share of the rarer side for units, tiny otherwise.

    One phrase in ten gets the other kind's count, so the decision rule
    makes mistakes that the evaluation can see.
    """
    if rng.random() < 0.1:
        is_unit = not is_unit
    low = min(n_ax, n_ay)
    if is_unit:
        return max(1, int(low * rng.uniform(0.2, 0.9)))
    return int(low * 10 ** rng.uniform(-4.0, -1.5))


class FixtureCounts:
    """Phrase counts for the fixture provider, drawn per phrase from the seed.

    A single term gets a log-uniform count; a linked phrase gets its count
    from ``link_counts`` given its sides, the first time it is asked for.
    """

    def __init__(self, seed: int, units: set[str]):
        self.seed = seed
        self.units = units
        self.table: dict[str, int] = {}

    def term(self, phrase: str) -> int:
        if phrase not in self.table:
            rng = _stream(self.seed, "count/" + phrase)
            self.table[phrase] = int(10 ** rng.uniform(2.0, 7.5))
        return self.table[phrase]

    def linked(self, s: str, n_ax: int, n_ay: int) -> int:
        if s not in self.table:
            rng = _stream(self.seed, "count/" + s)
            self.table[s] = link_counts(rng, s in self.units, n_ax, n_ay)
        return self.table[s]


@dataclass(frozen=True)
class DecoratedRow:
    pair_id: str
    a_x: str
    b: str
    a_y: str
    n_s: int
    n_ax: int
    n_ay: int
    gold: bool

    @property
    def s(self) -> str:
        return " ".join(p for p in (self.a_x, self.b, self.a_y) if p)


def make_decorated(seed: int, inventory: Inventory, n_rows: int) -> list[DecoratedRow]:
    """Rows with log-uniform side counts; 40% are units with a large merged count."""
    rng = _stream(seed, "decorated")
    terms = [t.surface for t in inventory.terms]
    rows = []
    for number in range(1, n_rows + 1):
        n_ax = int(10 ** rng.uniform(1.0, 7.5))
        n_ay = 0 if rng.random() < 0.02 else int(10 ** rng.uniform(1.0, 7.5))
        gold = rng.random() < 0.4
        n_s = link_counts(rng, gold, n_ax, max(n_ay, 1))
        b = rng.choices(CONNECTORS, weights=CONNECTOR_WEIGHTS)[0]
        rows.append(DecoratedRow(str(number), rng.choice(terms), b, rng.choice(terms),
                                 n_s, n_ax, n_ay, gold))
    return rows


def write_decorated(rows: list[DecoratedRow], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("# pair_id\ta_x\tb\ta_y\ts\tn_s\tn_ax\tn_ay\n")
        for r in rows:
            handle.write("%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\n"
                         % (r.pair_id, r.a_x, r.b, r.a_y, r.s, r.n_s, r.n_ax, r.n_ay))


def write_gold(labels: list[tuple[str, bool]], path: Path) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as handle:
        handle.write("# pair_id\tlabel\n")
        for pair_id, merged in labels:
            handle.write("%s\t%s\n" % (pair_id, "MERGED" if merged else "NOTMERGED"))


def write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")
