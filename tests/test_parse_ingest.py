import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unithood import (
    ParsedSentence,
    ParseFileError,
    ParseToken,
    read_parse_file,
)
from unithood.parse_ingest import write_rows


def read_text(text: str):
    return read_parse_file(io.StringIO(text))


def write_text(sentences) -> str:
    """The parse file format: a header comment, then one row per token."""
    out = io.StringIO()
    write_rows(out, ("sentence_id", "offset", "lemma", "pos", "dep_rel", "head_offset"), (
        (s.sentence_id, "%d" % t.offset, t.lemma, t.pos, t.dep_rel, "%d" % t.head_offset)
        for s in sentences for t in s.tokens))
    return out.getvalue()


class TestReadParseFile:
    def test_single_row(self):
        sentences = read_text("s1\t21\tInstitute\tNNP\tpobj\t16\n")
        assert len(sentences) == 1
        token = sentences[0].tokens[0]
        assert token.offset == 21
        assert token.lemma == "Institute"
        assert token.pos == "NNP"
        assert token.dep_rel == "pobj"
        assert token.head_offset == 16

    def test_empty_stream(self):
        assert read_text("") == []

    def test_comments_and_blank_lines_skipped(self):
        text = "# a comment\n\ns1\t1\tdog\tNN\tnsubj\t0\n"
        sentences = read_text(text)
        assert len(sentences) == 1
        assert sentences[0].tokens[0].lemma == "dog"

    def test_sample_file(self, sample_sentence):
        assert sample_sentence.sentence_id == "s1"
        offsets = [t.offset for t in sample_sentence.tokens]
        assert len(offsets) == 24
        assert offsets[0] == 2
        assert offsets[-1] == 32
        assert offsets == sorted(offsets)
        # gaps where the source elided tokens
        assert 5 not in offsets
        assert 13 not in offsets
        assert 19 not in offsets

    def test_tokens_sorted_even_if_file_is_not(self):
        text = "s1\t5\tb\tNN\tnn\t3\ns1\t3\ta\tNN\tpobj\t0\n"
        (sentence,) = read_text(text)
        assert [t.offset for t in sentence.tokens] == [3, 5]

    def test_sentences_in_first_appearance_order(self):
        text = (
            "b\t1\tx\tNN\tpobj\t0\n"
            "a\t1\ty\tNN\tpobj\t0\n"
            "b\t2\tz\tNN\tnn\t1\n"
        )
        sentences = read_text(text)
        assert [s.sentence_id for s in sentences] == ["b", "a"]
        assert len(sentences[0].tokens) == 2

    def test_wrong_column_count(self):
        with pytest.raises(ParseFileError) as err:
            read_text("s1\t1\tdog\tNN\tnsubj\n")
        assert err.value.line_number == 1
        assert "6" in str(err.value)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("s1\tone\tdog\tNN\tnsubj\t0", "offset must be a whole, non-negative number, got one"),
            ("s1\t+1\tdog\tNN\tnsubj\t0", "offset must be a whole, non-negative number, got +1"),
            ("s1\t2\tcat\tNN\tdobj\t1_0",
             "head_offset must be a whole, non-negative number, got 1_0"),
        ],
        ids=["word", "plus-sign", "underscore-head"],
    )
    def test_non_integer_offset(self, row, message):
        with pytest.raises(ParseFileError) as err:
            read_text("# header\n%s\n" % row)
        assert err.value.line_number == 2
        assert str(err.value) == "parse file line 2: " + message

    def test_duplicate_offset(self):
        text = "s1\t1\tdog\tNN\tnsubj\t0\ns1\t1\tcat\tNN\tdobj\t0\n"
        with pytest.raises(ParseFileError) as err:
            read_text(text)
        assert err.value.line_number == 2
        assert "duplicate" in str(err.value)

    def test_self_dependency_rejected(self):
        with pytest.raises(ParseFileError):
            read_text("s1\t2\tdog\tNN\tnsubj\t2\n")

    def test_zero_offset_rejected(self):
        with pytest.raises(ParseFileError):
            read_text("s1\t0\tdog\tNN\tnsubj\t1\n")

    def test_crlf_tolerated(self):
        (sentence,) = read_text("s1\t1\tdog\tNN\tnsubj\t0\r\n")
        assert sentence.tokens[0].lemma == "dog"

    @pytest.mark.parametrize("field, row", [
        ("sentence_id", b"s\r1\t1\tdog\tNN\tnsubj\t0\n"),
        ("lemma", b"s1\t1\td\rog\tNN\tnsubj\t0\n"),
    ], ids=["sentence-id", "lemma"])
    def test_lone_cr_is_cell_data_and_named_on_its_line(self, field, row):
        """A lone CR ends no row: it stays in its cell, which refuses line breaks, so the
        error names the row's line, from a binary file's lines as from text."""
        for lines in (io.BytesIO(b"s0\t1\tcat\tNN\troot\t0\n" + row),
                      io.StringIO((b"s0\t1\tcat\tNN\troot\t0\n" + row).decode())):
            with pytest.raises(ParseFileError) as err:
                read_parse_file(lines)
            assert str(err.value) == (
                "parse file line 2: %s must not contain tabs or line breaks" % field)


class TestTokenInvariants:
    def test_empty_lemma(self):
        with pytest.raises(ValueError):
            ParseToken(1, "", "NN", "nsubj", 0)

    @pytest.mark.parametrize("blank", [" ", "\u00a0 "])
    def test_whitespace_lemma(self, blank):
        # A blank lemma would put a blank member into a candidate's surface.
        with pytest.raises(ValueError, match="lemma must not be blank"):
            ParseToken(1, blank, "NN", "nsubj", 0)

    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"])
    def test_lemma_control_characters(self, bad):
        with pytest.raises(ValueError):
            ParseToken(1, bad, "NN", "nsubj", 0)

    def test_negative_head(self):
        with pytest.raises(ValueError):
            ParseToken(1, "dog", "NN", "nsubj", -1)

    def test_sentence_requires_tokens(self):
        with pytest.raises(ValueError):
            ParsedSentence("s1", ())

    def test_sentence_offsets_strictly_increasing(self):
        tokens = (
            ParseToken(2, "a", "NN", "nn", 3),
            ParseToken(2, "b", "NN", "pobj", 0),
        )
        with pytest.raises(ValueError):
            ParsedSentence("s1", tokens)

    def test_dangling_head_tolerated(self):
        token = ParseToken(4, "live", "VBG", "ccomp", 13)
        sentence = ParsedSentence("s1", (token,))
        assert sentence.tokens[0].head_offset == 13


class TestWriteParseFile:
    """Sentences written out as a parse file in the test read back unchanged."""

    def test_round_trip_sample(self, sample_sentence):
        again = read_text(write_text([sample_sentence]))
        assert again == [sample_sentence]


def _token_text():
    return st.text(
        st.characters(blacklist_characters="\t\n\r", blacklist_categories=("Cs",)),
        min_size=1,
        max_size=8,
    )


@st.composite
def _sentences(draw):
    sentence_id = draw(_token_text())
    gaps = draw(st.lists(st.integers(1, 3), min_size=1, max_size=8))
    offsets = []
    position = 0
    for gap in gaps:
        position += gap
        offsets.append(position)
    tokens = []
    for offset in offsets:
        head = draw(
            st.integers(0, max(offsets) + 2).filter(lambda h, o=offset: h != o)
        )
        tokens.append(
            ParseToken(
                offset,
                draw(_token_text().filter(str.strip)),  # a lemma is never blank
                draw(st.sampled_from(["NN", "NNP", "JJ", "IN", "DT", "VBG", "CC"])),
                draw(st.sampled_from(["nn", "amod", "poss", "det", "prep", "pobj", "nsubj"])),
                head,
            )
        )
    return ParsedSentence(sentence_id, tuple(tokens))


@settings(max_examples=100, deadline=None)
@given(st.lists(_sentences(), max_size=4, unique_by=lambda s: s.sentence_id))
def test_round_trip_property(sentences):
    assert read_text(write_text(sentences)) == sentences
