"""Reader for the tab-separated dependency-parse format.

One token per line, six tab-separated columns:

    sentence_id<TAB>offset<TAB>lemma<TAB>pos<TAB>dep_rel<TAB>head_offset

Lines starting with ``#`` are comments and are skipped, as are blank
lines; ``read_rows`` reads every TSV the package reads, this one too, and
``tsv_line`` writes every row the package writes.  Offsets are the
parser's 1-based word positions within a sentence and may have gaps
(elided tokens).  ``head_offset`` 0 marks the sentence root; a
head_offset pointing at an offset that is not present in the sentence is
tolerated and treated downstream as "head outside scope".  Files are
UTF-8 with LF line endings.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Sequence, TextIO, TypeVar

NOUN_TAGS = frozenset({"NN", "NNS", "NNP", "NNPS"})

T = TypeVar("T")


class ParseFileError(ValueError):
    """A malformed input file, TSV or corpus; carries the 1-based offending line number."""

    def __init__(self, message: str, line_number: int, kind: str = "parse file"):
        super().__init__("%s line %d: %s" % (kind, line_number, message))
        self.line_number = line_number


def read_rows(
    stream: Iterable[bytes | str],
    n_columns: int,
    kind: str,
    convert: Callable[[list[str]], T],
    key: Callable[[T], Hashable] | None = None,
    repeated: str = "",
) -> Iterator[T]:
    """Yield ``convert(columns)`` for each data row of a stream of lines, bytes or text.

    A line of bytes is decoded as UTF-8 alone.  LF or CRLF ends a line; a lone CR is
    part of its cell.  Blank lines and lines starting with ``#`` are skipped, and a
    line of spaces then ``#`` loses the one space ``tsv_line`` put there.  A line that
    is not UTF-8, a row with the wrong column count, one whose conversion raises
    ValueError, or one whose ``key(row)`` an earlier row had (message
    ``repeated % key(row)``) raises ParseFileError naming ``kind`` and the line.
    """
    first_line: dict[Hashable, int] = {}
    for line_number, raw in enumerate(stream, start=1):
        try:  # UnicodeDecodeError is a ValueError
            line = raw if isinstance(raw, str) else raw.decode("utf-8")
            line = line.rstrip("\n").removesuffix("\r")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith(" ") and line.lstrip(" ").startswith("#"):
                line = line[1:]
            columns = line.split("\t")
            if len(columns) != n_columns:
                raise ValueError(
                    "expected %d tab-separated columns, got %d" % (n_columns, len(columns))
                )
            row = convert(columns)
            if key is not None and first_line.setdefault(key(row), line_number) != line_number:
                raise ValueError(repeated % key(row))
        except ValueError as exc:
            raise ParseFileError(str(exc), line_number, kind) from None
        yield row


def tsv_line(row: Sequence[str]) -> str:
    """One row as one line; a first cell of spaces then "#" gets one more space before it."""
    escape = " " if row[0].lstrip(" ").startswith("#") else ""
    return escape + "\t".join(row) + "\n"


def write_rows(stream: TextIO, columns: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    """A "# " header line of the column names, then each row's line."""
    stream.write("# %s\n" % "\t".join(columns))
    stream.writelines(map(tsv_line, rows))


def read_json_object(data: bytes, source: str,
                     error: type[ValueError] = ValueError) -> dict[str, Any]:
    """Parse UTF-8 bytes as one JSON object, rejecting a key repeated in any object; errors
    name ``source`` and are ``error``s."""

    def unique(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            repeated = Counter(key for key, _ in pairs).most_common(1)[0][0]
            raise error("%s repeats key %r" % (source, repeated))
        return obj

    try:
        value = json.loads(data.decode("utf-8"), object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error("%s is not valid JSON: %s" % (source, exc)) from None
    if not isinstance(value, dict):
        raise error("%s must be a JSON object" % source)
    return value


def parse_whole(text: str, what: str, *args: Any) -> int:
    """``text`` as ASCII digits only, so no sign, '_' or space; errors name ``what % args``."""
    if text.isascii() and text.isdigit():
        return int(text)
    raise ValueError("%s must be a whole, non-negative number, got %s" % (what % args, text))


def check_setting(name: str, value: Any, low: int, error: type[ValueError] = ValueError) -> None:
    if type(value) is not int or value < low:  # refuses a bool, though bool is an int
        raise error("%s must be an integer >= %d" % (name, low))


def _check_field(name: str, value: str, allow_empty: bool = True) -> None:
    if not allow_empty and not value.strip():
        raise ValueError("%s must not be blank" % name)
    if "\t" in value or "\n" in value or "\r" in value:
        raise ValueError("%s must not contain tabs or line breaks" % name)


@dataclass(frozen=True, slots=True)
class ParseToken:
    """One parsed word: its offset, lemma, POS tag and dependency edge."""

    offset: int
    lemma: str
    pos: str
    dep_rel: str
    head_offset: int

    def __post_init__(self):
        if self.offset < 1:
            raise ValueError("offset must be >= 1, got %r" % (self.offset,))
        if self.head_offset < 0:
            raise ValueError("head_offset must be >= 0, got %r" % (self.head_offset,))
        if self.head_offset == self.offset:
            raise ValueError("token at offset %d depends on itself" % self.offset)
        _check_field("lemma", self.lemma, allow_empty=False)
        _check_field("pos", self.pos)
        _check_field("dep_rel", self.dep_rel)

    @property
    def is_noun(self) -> bool:
        return self.pos in NOUN_TAGS


@dataclass(frozen=True, slots=True)
class ParsedSentence:
    """A parsed sentence: an id plus tokens in strictly ascending offset order."""

    sentence_id: str
    tokens: tuple[ParseToken, ...]

    def __post_init__(self):
        _check_field("sentence_id", self.sentence_id)
        if not self.tokens:
            raise ValueError("sentence %r has no tokens" % self.sentence_id)
        offsets = [t.offset for t in self.tokens]
        if any(b <= a for a, b in zip(offsets, offsets[1:])):
            raise ValueError(
                "sentence %r offsets must be strictly increasing" % self.sentence_id
            )

    def by_offset(self) -> dict[int, ParseToken]:
        return {t.offset: t for t in self.tokens}


def read_parse_file(stream: Iterable[bytes | str]) -> list[ParsedSentence]:
    """Parse a stream of lines, a binary file's or text's, into sentences.

    Sentences are returned in order of first appearance of their id;
    tokens are sorted by offset.  Raises ParseFileError for rows with
    the wrong column count, an offset that is not ASCII digits, invalid
    sentence ids or token fields, or an offset that repeats in a sentence.
    """
    grouped: dict[str, dict[int, ParseToken]] = {}

    def add_token(columns: list[str]) -> None:
        sentence_id, offset, lemma, pos, dep_rel, head_offset = columns
        token = ParseToken(parse_whole(offset, "offset"), sys.intern(lemma),
                           sys.intern(pos), sys.intern(dep_rel),  # repeats held once
                           parse_whole(head_offset, "head_offset"))
        if (table := grouped.get(sentence_id)) is None:  # a sentence's id is checked once
            _check_field("sentence_id", sentence_id)
            table = grouped[sentence_id] = {}
        # The sentence's own table finds a repeat: no key per row outlives the read.
        if table.setdefault(token.offset, token) is not token:
            raise ValueError("duplicate offset %d in sentence %r" % (token.offset, sentence_id))

    for _ in read_rows(stream, 6, "parse file", add_token):
        pass
    return [ParsedSentence(sid, tuple(tokens[offset] for offset in sorted(tokens)))
            for sid, tokens in grouped.items()]
