import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unithood import (
    Candidate,
    CandidatePair,
    ParsedSentence,
    ParseToken,
    extract_candidates,
    form_pairs,
    merge_pass,
    sentence_connectors,
)


def sentence_from(rows, sentence_id="t"):
    tokens = tuple(ParseToken(*row) for row in rows)
    return ParsedSentence(sentence_id, tokens)


class TestExtractCandidates:
    def test_sample_multi_token_candidates(self, sample_sentence):
        candidates = extract_candidates(sample_sentence)
        multi = {c.surface for c in candidates if len(c.span) > 1}
        assert multi == {"Mental Health", "National Institute", "Kathy Kopnisky"}

    def test_sample_singletons(self, sample_sentence):
        candidates = extract_candidates(sample_sentence)
        singles = {c.surface for c in candidates if len(c.span) == 1}
        assert singles == {"HIV", "brain", "neuroAIDS"}

    def test_possessive_and_preposition_absent(self, sample_sentence):
        for candidate in extract_candidates(sample_sentence):
            words = candidate.surface.split()
            assert "NIH's" not in words
            assert "of" not in words

    def test_preposition_blocks_growth(self, sample_sentence):
        by_surface = {c.surface: c for c in extract_candidates(sample_sentence)}
        assert by_surface["Mental Health"].span == (23, 24)
        assert by_surface["National Institute"].span == (20, 21)

    def test_contained_candidate_dropped(self):
        # "science" heads "computer" but is itself absorbed by "department".
        sentence = sentence_from(
            [
                (1, "computer", "NN", "nn", 2),
                (2, "science", "NN", "nn", 3),
                (3, "department", "NN", "pobj", 0),
            ]
        )
        candidates = extract_candidates(sentence)
        assert [c.surface for c in candidates] == ["computer science department"]

    def test_leftover_noun_without_head_status(self):
        # "press" hangs inside a noun phrase (nn) and nothing modifies it, so
        # it fails the head test; its governor is verb-tagged, so nothing
        # absorbs it either, and it grows only to itself.
        sentence = sentence_from(
            [
                (1, "press", "NN", "nn", 2),
                (2, "release", "VBG", "root", 0),
            ]
        )
        candidates = extract_candidates(sentence)
        assert [c.surface for c in candidates] == ["press"]


class TestFormPairs:
    def test_sample_single_pair(self, sample_sentence):
        candidates = extract_candidates(sample_sentence)
        pairs = form_pairs(candidates, sentence_connectors(sample_sentence))
        assert len(pairs) == 1
        pair = pairs[0]
        assert pair.a_x.surface == "National Institute"
        assert pair.b == "of"
        assert pair.a_y.surface == "Mental Health"
        assert pair.s == "National Institute of Mental Health"

    def test_determiner_blocks_pairing(self, sample_sentence):
        # "Kathy Kopnisky of the ..." has two tokens between the
        # candidates, so no pair forms to its right.
        pairs = form_pairs(
            extract_candidates(sample_sentence), sentence_connectors(sample_sentence)
        )
        assert all(p.a_x.surface != "Kathy Kopnisky" for p in pairs)

    def test_adjacent_candidates_pair_with_empty_connector(self):
        sentence = sentence_from(
            [
                (1, "bird", "NN", "nn", 2),
                (2, "flu", "NN", "nn", 3),
                (3, "virus", "NN", "dobj", 0),
            ]
        )
        # force two candidates: split the compound by hand
        left = Candidate("t", (1, 2), "bird flu")
        right = Candidate("t", (3,), "virus")
        pairs = form_pairs([left, right], sentence_connectors(sentence))
        assert len(pairs) == 1
        assert pairs[0].b == ""
        assert pairs[0].s == "bird flu virus"

    def test_conjunction_and_pairs(self):
        sentence = sentence_from(
            [
                (1, "Allergy", "NNP", "pobj", 0),
                (2, "and", "CC", "cc", 1),
                (3, "Diseases", "NNPS", "conj", 1),
            ]
        )
        pairs = form_pairs(extract_candidates(sentence), sentence_connectors(sentence))
        assert [p.s for p in pairs] == ["Allergy and Diseases"]

    def test_other_conjunction_does_not_pair(self):
        sentence = sentence_from(
            [
                (1, "Allergy", "NNP", "pobj", 0),
                (2, "or", "CC", "cc", 1),
                (3, "Diseases", "NNPS", "conj", 1),
            ]
        )
        assert form_pairs(extract_candidates(sentence), sentence_connectors(sentence)) == []

    def test_verb_separated_candidates_do_not_pair(self):
        sentence = sentence_from(
            [
                (1, "dog", "NN", "nsubj", 2),
                (2, "bite", "VBZ", "root", 0),
                (3, "man", "NN", "dobj", 2),
            ]
        )
        assert form_pairs(extract_candidates(sentence), sentence_connectors(sentence)) == []

    def test_pair_order_is_left_to_right(self):
        sentence = sentence_from(
            [
                (1, "a", "NN", "nsubj", 0),
                (2, "b", "NN", "dobj", 1),
                (3, "of", "IN", "prep", 2),
                (4, "c", "NN", "pobj", 3),
            ]
        )
        candidates = [
            Candidate("t", (1,), "a"),
            Candidate("t", (2,), "b"),
            Candidate("t", (4,), "c"),
        ]
        pairs = form_pairs(candidates, sentence_connectors(sentence))
        assert [(p.a_x.surface, p.a_y.surface) for p in pairs] == [("a", "b"), ("b", "c")]


class TestCandidatePairInvariants:
    def test_rejects_wrong_gap(self):
        left = Candidate("t", (1,), "a")
        right = Candidate("t", (5,), "b")
        with pytest.raises(ValueError):
            CandidatePair(left, "of", right)

    def test_rejects_cross_sentence(self):
        left = Candidate("t1", (1,), "a")
        right = Candidate("t2", (2,), "b")
        with pytest.raises(ValueError):
            CandidatePair(left, "", right)

    @pytest.mark.parametrize("span, message", [
        ((), "candidate span must be non-empty"),
        ((2, 1), "candidate span must be strictly ascending"),
        ((1, 1), "candidate span must be strictly ascending"),
    ], ids=["empty", "descending", "repeated"])
    def test_rejects_span_not_strictly_ascending(self, span, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            Candidate("t", span, "a")

    @pytest.mark.parametrize("blank", ["", " ", "\u00a0 "])
    def test_rejects_blank_candidate_surface(self, blank):
        # A blank surface has no count key, so no pair holding it could be decided.
        with pytest.raises(ValueError, match="candidate surface must not be blank"):
            Candidate("t", (1,), blank)

    @pytest.mark.parametrize("breaker", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("name", ["sentence_id", "surface"])
    def test_rejects_tab_or_line_break_in_candidate_field(self, name, breaker):
        # Such a field would split the pairs-file row, and the pairs reader would refuse it.
        fields = {"sentence_id": "t", "span": (1,), "surface": "a"}
        fields[name] = "a%sx" % breaker
        with pytest.raises(ValueError,
                           match="^candidate %s must not contain tabs or line breaks$" % name):
            Candidate(**fields)

    @pytest.mark.parametrize("breaker", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    def test_rejects_tab_or_line_break_in_connector(self, breaker):
        left, right = Candidate("t", (1,), "a"), Candidate("t", (3,), "b")
        with pytest.raises(ValueError,
                           match="^pair connector must not contain tabs or line breaks$"):
            CandidatePair(left, "o%sf" % breaker, right)

    def test_merged_surface_is_computed_not_given(self):
        # A given surface could disagree with the sides, and the pairs reader would refuse it.
        left, right = Candidate("t", (1, 2), "a b"), Candidate("t", (4,), "c")
        assert CandidatePair(left, "of", right).s == "a b of c"
        assert CandidatePair(left, "", Candidate("t", (3,), "c")).s == "a b c"
        with pytest.raises(TypeError):
            CandidatePair(left, "of", right, "zzz")

    def test_merged_span_includes_connector(self):
        pair = CandidatePair(Candidate("t", (1, 2), "a b"), "of", Candidate("t", (4,), "c"))
        assert pair.merged_span() == (1, 2, 3, 4)


class TestMergePass:
    def pair_chain(self):
        c1 = Candidate("t", (1,), "a")
        c2 = Candidate("t", (3,), "b")
        c3 = Candidate("t", (5,), "c")
        p12 = CandidatePair(c1, "of", c2)
        p23 = CandidatePair(c2, "of", c3)
        return [c1, c2, c3], [p12, p23]

    def test_all_false_is_identity(self):
        candidates, pairs = self.pair_chain()
        out = merge_pass([], candidates)
        assert out == candidates

    def test_single_merge(self):
        candidates, pairs = self.pair_chain()
        out = merge_pass([pairs[0]], candidates)
        assert [c.surface for c in out] == ["a of b", "c"]
        assert out[0].span == (1, 2, 3)

    def test_chain_leftmost_wins(self):
        candidates, pairs = self.pair_chain()
        out = merge_pass(pairs, candidates)
        assert [c.surface for c in out] == ["a of b", "c"]

    def test_candidate_count_drops_by_applied_merges(self):
        candidates, pairs = self.pair_chain()
        out = merge_pass([pairs[0]], candidates)
        assert len(out) == len(candidates) - 1

    def test_unpaired_candidates_survive(self):
        candidates, pairs = self.pair_chain()
        extra = Candidate("t", (9,), "z")
        out = merge_pass(pairs, candidates + [extra])
        assert extra in out

    def test_merged_output_never_overlaps(self):
        candidates, pairs = self.pair_chain()
        out = merge_pass(pairs, candidates)
        seen = set()
        for candidate in out:
            assert not (set(candidate.span) & seen)
            seen |= set(candidate.span)


POS_CHOICES = ["NN", "NNS", "NNP", "NNPS", "JJ", "FW", "IN", "DT", "CC", "VBG", "RB", "CD"]
REL_CHOICES = ["nn", "amod", "poss", "det", "prep", "pobj", "nsubj", "dobj", "conj", "cc"]
LEMMAS = ["alpha", "beta", "gamma", "delta", "and", "of", "on", "the", "run"]


def random_sentence(rng: random.Random) -> ParsedSentence:
    length = rng.randint(1, 14)
    offset = 0
    rows = []
    offsets = []
    for _ in range(length):
        offset += rng.choice([1, 1, 1, 2])
        offsets.append(offset)
    for position in offsets:
        head = rng.choice([0] + [o for o in offsets if o != position])
        rows.append(
            (
                position,
                rng.choice(LEMMAS),
                rng.choice(POS_CHOICES),
                rng.choice(REL_CHOICES),
                head,
            )
        )
    return sentence_from(rows, sentence_id="r")


@st.composite
def chained_candidates(draw):
    """Candidates left to right, each right after the last or one connector later,
    with a random subset of the pairs they form as the accepted ones."""
    candidates, connectors, end = [], {}, 0
    for width in draw(st.lists(st.integers(1, 3), max_size=8)):
        if draw(st.booleans()):
            end += 1
            connectors[end] = draw(st.sampled_from(["of", "and"]))
        span = tuple(range(end + 1, end + 1 + width))
        candidates.append(Candidate("h", span, " ".join("w%d" % o for o in span)))
        end = span[-1]
    pairs = form_pairs(candidates, connectors)
    return candidates, [p for p in pairs if draw(st.booleans())]


def head_rule_spans(sentence: ParsedSentence) -> list[tuple[int, ...]]:
    """The filter with its head test: grow the head nouns alone, keep the largest growths
    that share no offset, then make every noun left uncovered a singleton.

    A head is a noun, not a possessive, with an nn/amod/poss dependent or a noun, adjective
    or foreign-word dependent, or whose own relation is not nn/amod/poss.  A growth absorbs,
    left side first and then right, each next token that is a noun, adjective or foreign
    word, not a possessive, and governed by a member."""
    inside, members_pos = {"nn", "amod", "poss"}, {"NN", "NNS", "NNP", "NNPS", "JJ", "FW"}
    tokens = sentence.by_offset()

    def grow(head):
        members = {head}
        for step in (-1, 1):
            cursor = head + step
            while (cursor in tokens and tokens[cursor].head_offset in members
                   and tokens[cursor].pos in members_pos and tokens[cursor].dep_rel != "poss"):
                members.add(cursor)
                cursor += step
        return tuple(sorted(members))

    nouns = [t for t in sentence.tokens if t.pos in members_pos - {"JJ", "FW"}
             and t.dep_rel != "poss"]
    heads = [t.offset for t in nouns if t.dep_rel not in inside or any(
        d.head_offset == t.offset and (d.dep_rel in inside or d.pos in members_pos)
        for d in sentence.tokens)]
    kept, covered = [], set()
    for span in sorted(map(grow, heads), key=lambda g: (-len(g), g[0])):
        if covered.isdisjoint(span):
            kept.append(span)
            covered.update(span)
    return sorted(kept + [(t.offset,) for t in nouns if t.offset not in covered])


@st.composite
def dense_sentences(draw):
    """Runs of nouns and adjectives with possessives among them, gaps between offsets, and
    governors next door, anywhere in the sentence, outside it, or the root."""
    offsets, offset = [], 0
    for gap in draw(st.lists(st.sampled_from([1, 1, 1, 2]), min_size=1, max_size=8)):
        offset += gap
        offsets.append(offset)
    rows = []
    for position in offsets:
        near = [h for h in (position - 2, position - 1, position + 1, position + 2) if h > 0]
        head = draw(st.sampled_from(near * 4 + [0, offset + 3, *offsets]).filter(
            lambda h: h != position))
        pos = draw(st.sampled_from(["NN", "NN", "NNS", "NNP", "JJ", "JJ", "FW", "IN"]))
        rel = draw(st.sampled_from(["nn", "nn", "amod", "poss", "pobj", "nsubj", "dobj"]))
        rows.append((position, "w%d" % position, pos, rel, head))
    return sentence_from(rows)


class TestRandomizedInvariants:
    def test_candidates_never_share_offsets(self):
        rng = random.Random(20240811)
        for _ in range(300):
            sentence = random_sentence(rng)
            seen = set()
            for candidate in extract_candidates(sentence):
                overlap = set(candidate.span) & seen
                assert not overlap, (sentence, candidate)
                seen |= set(candidate.span)

    def test_surfaces_match_member_lemmas(self):
        rng = random.Random(7)
        for _ in range(300):
            sentence = random_sentence(rng)
            by_offset = sentence.by_offset()
            for candidate in extract_candidates(sentence):
                expected = " ".join(by_offset[o].lemma for o in candidate.span)
                assert candidate.surface == expected

    # Left side first, "b" cannot take "a": its governor "c" joins only on the right.
    @example(sentence_from([(1, "a", "JJ", "amod", 3), (2, "b", "NN", "nsubj", 0),
                            (3, "c", "NN", "nn", 2)]))
    @settings(max_examples=300, deadline=None)
    @given(dense_sentences())
    def test_growing_every_noun_matches_the_head_rule(self, sentence):
        # A noun that fails the head test has no member dependent, so grows only to itself.
        candidates = extract_candidates(sentence)
        assert [c.span for c in candidates] == head_rule_spans(sentence)
        by_offset = sentence.by_offset()
        assert [c.surface for c in candidates] == [
            " ".join(by_offset[o].lemma for o in c.span) for c in candidates]

    def test_pair_gap_is_zero_or_one_qualifying_token(self):
        rng = random.Random(4242)
        for _ in range(300):
            sentence = random_sentence(rng)
            by_offset = sentence.by_offset()
            candidates = extract_candidates(sentence)
            for pair in form_pairs(candidates, sentence_connectors(sentence)):
                assert pair.a_x.end < pair.a_y.start
                gap = pair.a_y.start - pair.a_x.end - 1
                assert gap in (0, 1)
                if gap == 1:
                    between = by_offset[pair.a_x.end + 1]
                    assert between.pos == "IN" or (
                        between.pos == "CC" and between.lemma == "and"
                    )
                    assert pair.b == between.lemma
                else:
                    assert pair.b == ""

    def test_merge_pass_counts_and_disjointness(self):
        rng = random.Random(31337)
        for _ in range(300):
            sentence = random_sentence(rng)
            candidates = extract_candidates(sentence)
            pairs = form_pairs(candidates, sentence_connectors(sentence))
            out = merge_pass([p for p in pairs if rng.random() < 0.5], candidates)
            assert len(out) <= len(candidates)
            seen = set()
            for candidate in out:
                assert not (set(candidate.span) & seen)
                seen |= set(candidate.span)

    @settings(max_examples=200, deadline=None)
    @given(chained_candidates(), st.data())
    def test_merge_pass_ignores_input_order(self, chain, data):
        candidates, accepted = chain
        out = merge_pass(accepted, candidates)
        shuffled = merge_pass(
            data.draw(st.permutations(accepted)), data.draw(st.permutations(candidates))
        )
        assert shuffled == out
        offsets = [o for c in out for o in c.span]
        assert len(offsets) == len(set(offsets))
