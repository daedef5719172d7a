import http.client
import itertools
import json
import os
import random
import re
import subprocess
import time
import urllib.error
import warnings
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unithood import (
    CountCache,
    EvidenceSet,
    FixtureProvider,
    LocalIndexProvider,
    MissingCountError,
    ParseFileError,
    RemoteClientConfig,
    RemoteCountClient,
    TransportError,
    normalize_phrase,
)
from unithood import evidence
from unithood.evidence import PhraseCounts, load_corpus_file
from unithood.extractor import Candidate
from unithood.pipeline import PipelineConfig, build_provider


class TestNormalizePhrase:
    def test_collapses_whitespace(self):
        assert normalize_phrase("  mental \t health ") == "mental health"

    def test_preserves_case(self):
        assert normalize_phrase("Mental Health") == "Mental Health"


class TestEvidenceSet:
    def test_total(self):
        assert EvidenceSet(1, 2, 3).total == 6

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EvidenceSet(-1, 0, 0)

    @pytest.mark.parametrize("at", range(3))
    def test_rejects_a_count_above_2_53(self, at):
        assert EvidenceSet(2**53, 2**53, 2**53).total == 3 * 2**53
        counts = [1, 1, 1]
        counts[at] = 2**53 + 1
        with pytest.raises(ValueError, match=r"^counts must be at most 2\*\*53$"):
            EvidenceSet(*counts)


class TestFixtureProvider:
    def test_lookup(self):
        provider = FixtureProvider({"mental health": 42})
        assert provider.count("mental health") == 42

    def test_case_insensitive(self):
        provider = FixtureProvider({"Mental Health": 42})
        assert provider.count("mental health") == 42
        assert provider.count("MENTAL HEALTH") == 42

    def test_whitespace_normalized(self):
        provider = FixtureProvider({"mental health": 42})
        assert provider.count("  mental   health ") == 42

    def test_missing_is_error_by_default(self):
        provider = FixtureProvider({"mental health": 42})
        with pytest.raises(MissingCountError) as err:
            provider.count("public health")
        assert err.value.phrase == "public health"

    def test_missing_zero_policy(self):
        provider = CountCache(FixtureProvider({}), missing_policy="zero")
        assert provider.count("anything at all") == 0

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            CountCache(FixtureProvider({}), missing_policy="guess")

    def test_empty_phrase_rejected(self):
        provider = CountCache(FixtureProvider({}), missing_policy="zero")
        with pytest.raises(ValueError):
            provider.count("   ")

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"a b": 7}), encoding="utf-8")
        assert FixtureProvider.from_file(path).count("a b") == 7

    def test_from_tsv_file(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("# phrase\tcount\na b\t7\nc\t0\n", encoding="utf-8")
        provider = FixtureProvider.from_file(path)
        assert provider.count("a b") == 7
        assert provider.count("c") == 0

    def test_format_follows_the_extension_alone(self, tmp_path):
        """A TSV whose first phrase starts with "{" is a TSV, and a JSON object under
        another name fails at line 1 as one."""
        (tmp_path / "brace.tsv").write_text("{a\t5\n", encoding="utf-8")
        assert FixtureProvider.from_file(tmp_path / "brace.tsv").count("{a") == 5
        path = tmp_path / "counts.txt"
        path.write_text('{"a b": 7}', encoding="utf-8")
        with pytest.raises(ParseFileError) as err:
            FixtureProvider.from_file(path)
        assert str(err.value) == (
            "count table %s line 1: expected 2 tab-separated columns, got 1" % path)

    def test_json_list_names_file(self, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text('[["a b", 7]]', encoding="utf-8")
        with pytest.raises(ValueError) as err:
            FixtureProvider.from_file(path)
        assert str(err.value) == "count table %s must be a JSON object" % path

    @pytest.mark.parametrize("count", ["null", '"many"', "1.5", "-1", "true"])
    def test_json_bad_count_names_file_and_phrase(self, tmp_path, count):
        path = tmp_path / "counts.json"
        path.write_text('{"c": 1, "a b": %s}' % count, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            FixtureProvider.from_file(path)
        assert str(err.value) == (
            "count table %s: count for 'a b' must be a whole, non-negative number, got %s"
            % (path, count)
        )

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("counts.tsv", "a b\t1\nA  b\t2\n", ": phrases 'a b' and 'A  b' normalize to one key"),
            ("counts.tsv", "a b\t1\na b\t2\n", ": phrases 'a b' and 'a b' normalize to one key"),
            ("counts.json", '{"a b": 1, "A  b": 2}',
             ": phrases 'a b' and 'A  b' normalize to one key"),
            ("counts.json", '{"a b": 1, "a b": 2}', " repeats key 'a b'"),
            ("counts.json", '{"a b": 1,}', " is not valid JSON: Expecting property name"),
            ("counts.tsv", "a b\t1\n\t5\n", ": phrase is empty after normalization"),
            ("counts.json", '{"a b": 1, "": 5}', ": phrase is empty after normalization"),
        ],
        ids=["tsv-normalized", "tsv-repeated", "json-normalized", "json-repeated", "json-malformed",
             "tsv-empty-phrase", "json-empty-phrase"],
    )
    def test_rejected_table_names_file(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            FixtureProvider.from_file(path)
        assert str(err.value).startswith("count table %s%s" % (path, message))

    def test_json_integer_with_too_many_digits_names_file(self, tmp_path, too_many_digits):
        digits, message = too_many_digits
        path = tmp_path / "counts.json"
        path.write_text('{"a b": %s}' % digits, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            FixtureProvider.from_file(path)
        assert str(err.value) == "count table %s: %s" % (path, message)

    def test_constructor_rejects_phrases_sharing_a_key(self):
        with pytest.raises(ValueError) as err:
            FixtureProvider({"a b": 1, "A  b": 2})
        assert str(err.value) == "phrases 'a b' and 'A  b' normalize to one key"

    @pytest.mark.parametrize(
        "count, shown",
        [(1.5, "1.5"), (-1, "-1"), (True, "true"), (None, "null"), ("3", '"3"')],
        ids=["float", "negative", "bool", "none", "text"],
    )
    def test_constructor_rejects_a_count_that_is_not_a_whole_number(self, count, shown):
        with pytest.raises(ValueError) as err:
            FixtureProvider([("a", 1), ("b c", count)])
        assert str(err.value) == (
            "count for 'b c' must be a whole, non-negative number, got %s" % shown)

    @pytest.mark.parametrize("breaker", ["\r", "\x85", "\u2028", "\x0c"],
                             ids=["cr", "nel", "ls", "ff"])
    def test_tsv_row_is_one_line_whatever_str_splitlines_splits(self, tmp_path, breaker):
        """Only LF ends a row, as in every TSV the package reads; the phrase's break is
        whitespace, so the row counts the phrase that a JSON table with it counts."""
        path = tmp_path / "counts.tsv"
        path.write_text("a%sb\t5\nc\t1\n" % breaker, encoding="utf-8")
        provider = FixtureProvider.from_file(path)
        assert provider.count("a b") == 5 == FixtureProvider({"a%sb" % breaker: 5}).count("a b")
        assert provider.count("c") == 1

    def test_tsv_bad_count_names_line(self, tmp_path):
        path = tmp_path / "counts.tsv"
        for count in ("many", "-3", "1.5", "-5", "+5", "1_0", "\u0663"):
            path.write_text("# phrase\tcount\na b\t7\nc d\t%s\n" % count, encoding="utf-8")
            with pytest.raises(ParseFileError) as err:
                FixtureProvider.from_file(path)
            assert str(err.value) == (
                "count table %s line 3: count for 'c d' must be a whole, non-negative number,"
                " got %s" % (path, count)
            )


def naive_document_frequency(documents, phrase_tokens):
    n = len(phrase_tokens)
    hits = 0
    for tokens in documents:
        found = False
        for start in range(len(tokens) - n + 1):
            if tokens[start : start + n] == phrase_tokens:
                found = True
                break
        hits += found
    return hits


class TestLocalIndex:
    def test_document_frequency_not_occurrences(self):
        provider = LocalIndexProvider(["a b a b", "a b"])
        assert provider.count("a b") == 2

    def test_two_of_three_documents(self):
        corpus = [
            "the food poisoning outbreak",
            "cases of food poisoning rose",
            "food safety and poisoning prevention",
        ]
        assert LocalIndexProvider(corpus).count("food poisoning") == 2

    def test_empty_corpus(self):
        provider = LocalIndexProvider([])
        assert provider.count("anything") == 0

    def test_phrase_longer_than_documents(self):
        provider = LocalIndexProvider(["a b", "c"])
        assert provider.count("a b c d") == 0

    def test_case_insensitive(self):
        provider = LocalIndexProvider(["Food Poisoning case"])
        assert provider.count("food poisoning") == 1

    def test_token_lists_accepted(self):
        provider = LocalIndexProvider([["a", "b"], ["b", "a"]])
        assert provider.count("a b") == 1

    def test_tokens_must_be_contiguous(self):
        provider = LocalIndexProvider(["a x b"])
        assert provider.count("a b") == 0

    def test_no_partial_token_matches(self):
        provider = LocalIndexProvider(["ab b", "a bb"])
        assert provider.count("a b") == 0

    def test_matches_naive_scan_on_random_corpus(self):
        rng = random.Random(1234)
        vocabulary = ["a", "b", "c", "d", "e"]
        documents = [
            [rng.choice(vocabulary) for _ in range(rng.randint(1, 20))]
            for _ in range(40)
        ]
        provider = LocalIndexProvider(documents)
        phrases = set()
        for tokens in documents:
            for n in range(1, 5):
                for start in range(len(tokens) - n + 1):
                    phrases.add(tuple(tokens[start : start + n]))
        for _ in range(30):
            phrases.add(tuple(rng.choice(vocabulary) for _ in range(rng.randint(1, 4))))
        for phrase in sorted(phrases):
            expected = naive_document_frequency(documents, list(phrase))
            assert provider.count(" ".join(phrase)) == expected


def fixture_cache(path=None):
    return CountCache(FixtureProvider({}), path)


class TestCountCache:
    def test_round_trip(self, tmp_path):
        with fixture_cache(tmp_path / "cache.tsv") as cache:
            assert cache.get("a b") is None
            cache.put("a b", 12)
            assert cache.get("a b") == 12

    def test_persisted_and_reloaded(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            cache.put("a b", 12)
        assert fixture_cache(path).get("a b") == 12

    def test_last_entry_wins(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            cache.put("a b", 12)
            cache.put("a b", 15)
        assert fixture_cache(path).get("a b") == 15
        assert len(path.read_text(encoding="utf-8").splitlines()) == 2

    def test_keyed_by_provider(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            cache.put("a", 1)
        assert CountCache(LocalIndexProvider([]), path).get("a") is None

    def test_case_insensitive_lookup(self, tmp_path):
        with fixture_cache(tmp_path / "cache.tsv") as cache:
            cache.put("Mental Health", 9)
            assert cache.get("mental health") == 9

    def test_file_format(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            cache.put("a  b", 3)
        line = path.read_text(encoding="utf-8").splitlines()[0]
        phrase, count, provider_id, fetched_at = line.split("\t")
        assert phrase == "a b"
        assert count == "3"
        assert provider_id == "fixture"
        assert fetched_at.endswith("Z")

    def test_phrase_starting_with_hash_reads_back(self, tmp_path):
        """A phrase starting with '#' is written so that its row does not read back
        as a comment: reopening the cache finds the count, and the provider is not
        asked again."""
        path = tmp_path / "cache.tsv"
        with CountCache(FixtureProvider({"#1 hit": 3}), path) as cache:
            assert cache.count("#1  hit") == 3
        assert path.read_text(encoding="utf-8").startswith(" #1 hit\t3\tfixture\t")
        reopened = CountCache(CountingProvider({}), path)
        assert len(reopened) == 1
        assert reopened.count("#1 HIT") == 3
        assert reopened.inner.calls == 0

    def test_put_rejects_empty_phrase_before_writing(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            with pytest.raises(ValueError, match="phrase is empty after normalization"):
                cache.put("  ", 3)
        assert not path.exists()

    def test_malformed_line_names_line(self, tmp_path):
        path = tmp_path / "cache.tsv"
        with fixture_cache(path) as cache:
            cache.put("a b", 3)
            with path.open("a", encoding="utf-8") as handle:
                handle.write("c d\t4\tfix\n")
            cache.put("e f", 5)
        with pytest.raises(ParseFileError) as err:
            fixture_cache(path)
        assert str(err.value).startswith("count cache %s line 2: expected 4" % path)

    @pytest.mark.parametrize("provider_id", ["fixture", "local-index"])
    @pytest.mark.parametrize(
        "phrase, count, message",
        [("a b", text, "count for 'a b' must be a whole, non-negative number, got %s" % text)
         for text in ("-5", "+5", "1_0", "1.5", "\u0663")]
        + [(" ", "4", "phrase is empty after normalization")],
        ids=["negative", "plus-sign", "underscore", "point", "arabic-digit", "empty-phrase"],
    )
    def test_bad_row_names_line(self, tmp_path, phrase, count, message, provider_id):
        # Rows of another provider are not kept in memory, but are checked all the same.
        path = tmp_path / "cache.tsv"
        path.write_text("c d\t3\tfixture\tT\n%s\t%s\t%s\tT\n" % (phrase, count, provider_id),
                        encoding="utf-8")
        with pytest.raises(ParseFileError) as err:
            fixture_cache(path)
        assert str(err.value) == "count cache %s line 2: %s" % (path, message)

    @pytest.mark.parametrize("breaker", ["\r", "\x85", "\u2028", "\x0c"],
                             ids=["cr", "nel", "ls", "ff"])
    def test_row_is_one_line_whatever_str_splitlines_splits(self, tmp_path, capsys, breaker):
        # A torn last line is still named by its number in the file.
        path = tmp_path / "cache.tsv"
        path.write_bytes(("a%sb\t3\tfixture\tT\nc\t1\tfixture\tT\ntorn" % breaker).encode())
        with pytest.warns(UserWarning, match="^%s line 3: skipped a torn last line$"
                          % re.escape(str(path))):
            cache = fixture_cache(path)
        with cache:
            assert capsys.readouterr().err == ""
            assert (len(cache), cache.get("a b"), cache.get("c")) == (2, 3, 1)

    def test_malformed_terminated_last_line_fails(self, tmp_path):
        path = tmp_path / "cache.tsv"
        path.write_text("a b\t3\tfixture\tT\nc d\t4\tfix\n", encoding="utf-8")
        with pytest.raises(ParseFileError) as err:
            fixture_cache(path)
        assert str(err.value).startswith("count cache %s line 2: expected 4" % path)

    @pytest.mark.parametrize(
        "torn",
        [b"c d\t4\tfix", "c d\t4\tfixture\tcaf\u00e9".encode("utf-8")[:-1],
         b"c d\t-4\tfixture\tT", b" \t4\tfixture\tT", b"c \xff\t4\tfixture\tT"],
        ids=["short-row", "split-character", "negative-count", "empty-phrase", "bad-byte"],
    )
    def test_torn_last_line_skipped_and_cut(self, tmp_path, capsys, torn):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"a b\t3\tfixture\tT\n" + torn)
        with pytest.warns(UserWarning, match="^%s line 2: skipped a torn last line$"
                          % re.escape(str(path))):
            cache = fixture_cache(path)
        with cache:
            assert capsys.readouterr().err == ""
            assert cache.get("a b") == 3
            assert cache.get("c d") is None
            cache.put("e f", 5)
        for reloaded in (cache, fixture_cache(path)):
            assert (reloaded.get("a b"), reloaded.get("c d"), reloaded.get("e f")) == (3, None, 5)
        assert capsys.readouterr().err == ""
        assert [line.split("\t")[0] for line in path.read_text(encoding="utf-8").splitlines()] == [
            "a b",
            "e f",
        ]

    def test_torn_line_is_reported_through_warnings_alone(self, tmp_path, capsys):
        """The library prints nothing: the skipped line is one UserWarning, shown by the caller."""
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"a b\t3\tfixture\tT\nc d\t4")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fixture_cache(path).close()
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, "%s line 2: skipped a torn last line" % path)]
        assert capsys.readouterr() == ("", "")

    def test_unterminated_valid_last_line_kept(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        path.write_text("a b\t3\tfixture\tT", encoding="utf-8")
        with fixture_cache(path) as cache:
            cache.put("c d", 4)
        reloaded = fixture_cache(path)
        assert (reloaded.get("a b"), reloaded.get("c d")) == (3, 4)
        assert capsys.readouterr().err == ""


@pytest.fixture
def opened(monkeypatch):
    """Record (path, mode, file object) for every Path.open call."""
    calls = []
    original = Path.open

    def recording(self, mode="r", *args, **kwargs):
        handle = original(self, mode, *args, **kwargs)
        calls.append((self, mode, handle))
        return handle

    monkeypatch.setattr(Path, "open", recording)
    return calls


def appends(opened):
    return [path for path, mode, _ in opened if "a" in mode]


class TestCacheLifecycle:
    def test_misses_open_the_file_once_with_one_stamp(self, tmp_path, opened, monkeypatch):
        ticks, gmtime = iter(range(0, 10**6, 3600)), time.gmtime
        monkeypatch.setattr(time, "gmtime", lambda: gmtime(next(ticks)))  # an hour per call
        path = tmp_path / "sub" / "cache.tsv"
        phrases = ["p%d" % i for i in range(20)]
        with CountCache(FixtureProvider(dict.fromkeys(phrases, 4)), path) as cache:
            for phrase in phrases:
                assert cache.count(phrase) == 4
        assert appends(opened) == [path]
        rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]
        assert [row[0] for row in rows] == phrases
        assert {row[3] for row in rows} == {"1970-01-01T00:00:00Z"}

    def test_each_miss_visible_before_close(self, tmp_path, capsys):
        path = tmp_path / "cache.tsv"
        phrases = ["a", "b  c", "D"]
        with CountCache(FixtureProvider(dict.fromkeys(phrases, 7)), path) as cache:
            for n, phrase in enumerate(phrases, start=1):
                cache.count(phrase)
                reader = fixture_cache(path)
                assert len(reader) == n
                assert [reader.get(p) for p in phrases[:n]] == [7] * n
        assert capsys.readouterr().err == ""

    def test_all_hits_leave_the_file_alone(self, tmp_path, opened):
        path = tmp_path / "cache.tsv"
        path.write_text("a\t1\tfixture\tT\nb c\t2\tfixture\tT\n", encoding="utf-8")
        before = path.read_bytes()
        with fixture_cache(path) as cache:
            assert [cache.count("a"), cache.count("B  c"), cache.count("a")] == [1, 2, 1]
        assert appends(opened) == []
        assert path.read_bytes() == before

    def test_no_miss_creates_no_file(self, tmp_path):
        with fixture_cache(tmp_path / "sub" / "cache.tsv") as cache:
            assert cache.get("a") is None
            with pytest.raises(MissingCountError):
                cache.count("a")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "tail, kept",
        [(b"c d\t4\tfix", ["a b"]), (b"c d\t4\tfixture\tT", ["a b", "c d"])],
        ids=["torn", "unterminated"],
    )
    def test_repair_before_appends_through_the_held_handle(
        self, tmp_path, opened, capsys, tail, kept
    ):
        path = tmp_path / "cache.tsv"
        path.write_bytes(b"a b\t3\tfixture\tT\n" + tail)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with CountCache(FixtureProvider({"e f": 5, "g h": 6}), path) as cache:
                assert [cache.count("e f"), cache.count("g h")] == [5, 6]
        # Only the torn line, which does not parse, is skipped, and with a warning.
        assert [str(w.message) for w in caught] == (
            [] if "c d" in kept else ["%s line 2: skipped a torn last line" % path])
        assert capsys.readouterr().err == ""
        assert appends(opened) == [path]
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line.split("\t")[0] for line in lines] == kept + ["e f", "g h"]
        reloaded = fixture_cache(path)
        assert [reloaded.get(p) for p in ("a b", "c d", "e f", "g h")] == [
            3, 4 if "c d" in kept else None, 5, 6
        ]
        assert capsys.readouterr().err == ""

    def test_with_closes_the_handle(self, tmp_path, opened):
        cache = CountCache(FixtureProvider({"a": 1}), tmp_path / "cache.tsv")
        with cache as entered:
            assert entered is cache
            cache.count("a")
            ((_, _, handle),) = opened
            assert not handle.closed
        assert handle.closed
        cache.close()  # closing again is harmless

    @pytest.mark.parametrize("misses_before_close", [["a"], []], ids=["opened", "never-opened"])
    def test_append_after_close_raises(self, tmp_path, opened, misses_before_close):
        path = tmp_path / "cache.tsv"
        with CountCache(FixtureProvider({"a": 1, "b": 2}), path) as cache:
            for phrase in misses_before_close:
                cache.count(phrase)
        with pytest.raises(ValueError) as err:
            cache.count("b")
        assert str(err.value) == "count cache %s is closed" % path
        assert appends(opened) == [path] * len(misses_before_close)
        assert fixture_cache(path).get("b") is None

    def test_zero_policy_neither_memoizes_nor_appends_a_missing_count(self, tmp_path, opened):
        path = tmp_path / "cache.tsv"
        inner = FixtureProvider({"a b": 5})
        with CountCache(inner, path, missing_policy="zero") as cache:
            assert [cache.count("a b"), cache.count("c"), cache.count("C")] == [5, 0, 0]
            assert cache.get("c") is None and len(cache) == 1
        assert [line.split("\t")[0] for line in path.read_text().splitlines()] == ["a b"]
        with CountCache(inner, path) as cache:
            assert cache.count("a b") == 5
            with pytest.raises(MissingCountError):
                cache.count("c")
        assert appends(opened) == [path]

    def test_memo_without_file_outlives_close(self):
        cache = CountCache(FixtureProvider({"a": 1}))
        cache.close()
        assert [cache.count("a"), cache.count("a")] == [1, 1]


class TestCountMemo:
    def test_inner_called_once_per_normalized_phrase(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        inner = CountingProvider({"A  b": 5, "a b": 5})
        memo = CountCache(inner)
        assert [memo.count(p) for p in ("A  b", "a b", " a   B ")] == [5, 5, 5]
        assert inner.calls == 1
        assert memo.path is None
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [MissingCountError("a"), TransportError("down")])
    def test_failure_not_memoized(self, error):
        class Failing:
            provider_id = "fixture"
            calls = 0

            def count(self, phrase):
                self.calls += 1
                raise error

        inner = Failing()
        memo = CountCache(inner)
        for _ in range(2):
            with pytest.raises(type(error)):
                memo.count("a")
        assert inner.calls == 2
        assert len(memo) == 0


class CountingProvider:
    provider_id = "fixture"

    def __init__(self, counts):
        self.counts = counts
        self.calls = 0

    def count(self, phrase):
        self.calls += 1
        return self.counts[phrase]


class TestCachedProvider:
    def test_transparent_values(self, tmp_path):
        inner = FixtureProvider({"a": 3, "b c": 4})
        with CountCache(inner, tmp_path / "cache.tsv") as cached:
            for phrase in ("a", "b c", "a"):
                assert cached.count(phrase) == inner.count(phrase)

    def test_inner_called_once_per_phrase(self, tmp_path):
        inner = CountingProvider({"a": 3})
        with CountCache(inner, tmp_path / "cache.tsv") as cached:
            assert cached.count("a") == 3
            assert cached.count("a") == 3
        assert inner.calls == 1


def remote_config(**overrides):
    settings = dict(
        endpoint_template="https://api.example/search?q={query}",
        count_path="search.total",
        min_delay_ms=100,
        max_retries=2,
        timeout_ms=1000,
    )
    settings.update(overrides)
    return RemoteClientConfig(**settings)


class TestRemoteCountClient:
    def test_template_requires_placeholder(self):
        with pytest.raises(ValueError):
            remote_config(endpoint_template="https://api.example/search")

    def test_build_url_quotes_exact_phrase(self):
        client = RemoteCountClient(remote_config(), fetch=lambda url: "{}")
        url = client.build_url("mental health")
        assert url == "https://api.example/search?q=%22mental+health%22"

    def test_extract_count_json_path(self):
        client = RemoteCountClient(remote_config(), fetch=lambda url: "")
        body = json.dumps({"search": {"total": 1234}})
        assert client.extract_count(body) == 1234

    def test_extract_count_string_value_with_commas(self):
        client = RemoteCountClient(
            remote_config(count_path="searchInformation.totalResults"),
            fetch=lambda url: "",
        )
        body = json.dumps({"searchInformation": {"totalResults": "1,234,567"}})
        assert client.extract_count(body) == 1234567

    def test_extract_count_list_index(self):
        client = RemoteCountClient(
            remote_config(count_path="results.0.count"), fetch=lambda url: ""
        )
        body = json.dumps({"results": [{"count": 55}]})
        assert client.extract_count(body) == 55

    def test_extract_count_regex(self):
        client = RemoteCountClient(
            remote_config(count_path=r"regex:about ([\d,]+) results"),
            fetch=lambda url: "",
        )
        assert client.extract_count("about 12,300 results found") == 12300

    def test_count_through_fixture_response(self):
        body = json.dumps({"search": {"total": 1234}})
        client = RemoteCountClient(
            remote_config(min_delay_ms=0), fetch=lambda url: body
        )
        assert client.count("mental health") == 1234

    def test_failure_raises_never_zero(self):
        def failing(url):
            raise ValueError("boom")

        client = RemoteCountClient(
            remote_config(min_delay_ms=0), fetch=failing, sleep=lambda s: None
        )
        with pytest.raises(TransportError):
            client.count("mental health")

    def test_retries_then_succeeds(self):
        attempts = []
        body = json.dumps({"search": {"total": 7}})

        def flaky(url):
            attempts.append(url)
            if len(attempts) < 2:
                raise ValueError("first try fails")
            return body

        client = RemoteCountClient(
            remote_config(min_delay_ms=0, max_retries=3),
            fetch=flaky,
            sleep=lambda s: None,
        )
        assert client.count("a") == 7
        assert len(attempts) == 2

    def test_rate_limit_spacing(self):
        clock = {"now": 0.0}
        sleeps = []

        def fake_clock():
            return clock["now"]

        def fake_sleep(seconds):
            sleeps.append(seconds)
            clock["now"] += seconds

        body = json.dumps({"search": {"total": 1}})
        client = RemoteCountClient(
            remote_config(min_delay_ms=400),
            fetch=lambda url: body,
            sleep=fake_sleep,
            clock=fake_clock,
        )
        client.count("a")
        client.count("b")
        assert sleeps and sleeps[0] == pytest.approx(0.4)

    def test_cached_phrase_skips_network(self, tmp_path):
        calls = []
        body = json.dumps({"search": {"total": 9}})

        def fetch(url):
            calls.append(url)
            return body

        client = RemoteCountClient(remote_config(min_delay_ms=0), fetch=fetch)
        with CountCache(client, tmp_path / "cache.tsv") as cached:
            assert cached.count("a") == 9
            assert cached.count("a") == 9
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "status, attempts", [(400, 1), (404, 1), (429, 3), (500, 3), (503, 3)]
    )
    def test_http_status_retry_policy(self, status, attempts):
        calls = []

        def fetch(url):
            calls.append(url)
            raise urllib.error.HTTPError(url, status, "status %d" % status, {}, None)

        client = RemoteCountClient(
            remote_config(min_delay_ms=0, max_retries=3), fetch=fetch, sleep=lambda s: None
        )
        with pytest.raises(TransportError):
            client.count("a")
        assert len(calls) == attempts

    @pytest.mark.parametrize(
        "failure",
        [urllib.error.URLError("refused"), http.client.RemoteDisconnected("hung up"),
         TimeoutError("slow"), OSError("down")],
    )
    def test_transport_failures_retried(self, failure):
        calls = []

        def fetch(url):
            calls.append(url)
            raise failure

        client = RemoteCountClient(
            remote_config(min_delay_ms=0, max_retries=3), fetch=fetch, sleep=lambda s: None
        )
        with pytest.raises(TransportError):
            client.count("a")
        assert len(calls) == 3

    def test_unmatched_count_pattern_not_retried(self):
        calls = []

        def fetch(url):
            calls.append(url)
            return "no results here"

        client = RemoteCountClient(
            remote_config(count_path=r"regex:about ([\d,]+) results", min_delay_ms=0,
                          max_retries=3),
            fetch=fetch,
            sleep=lambda s: None,
        )
        with pytest.raises(TransportError):
            client.count("a")
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "count_path, body, failed_part",
        [
            ("search.total", {"other": 1}, "search"),
            ("search.total", {"search": 5}, "total"),
            ("search.total", {"search": [3]}, "total"),
            ("results.1.count", {"results": [{"count": 55}]}, "1"),
        ],
        ids=["missing-key", "not-a-container", "bad-list-index", "index-out-of-range"],
    )
    def test_unresolved_count_path_not_retried(self, count_path, body, failed_part):
        calls = []

        def fetch(url):
            calls.append(url)
            return json.dumps(body)

        client = RemoteCountClient(
            remote_config(count_path=count_path, min_delay_ms=0, max_retries=3),
            fetch=fetch,
            sleep=lambda s: None,
        )
        with pytest.raises(TransportError) as err:
            client.count("a")
        assert len(calls) == 1
        assert "count_path %r does not resolve at %r" % (count_path, failed_part) in str(
            err.value
        )

    def test_unreadable_body_retried(self):
        calls = []

        def fetch(url):
            calls.append(url)
            return "<html>busy</html>"

        client = RemoteCountClient(
            remote_config(min_delay_ms=0, max_retries=3), fetch=fetch, sleep=lambda s: None
        )
        with pytest.raises(TransportError):
            client.count("a")
        assert len(calls) == 3

    @pytest.mark.parametrize(
        "count_path, body, message",
        [
            ("search.total", json.dumps({"search": {"total": "n/a"}}),
             "count_path 'search.total' holds 'n/a', not a count"),
            (r"regex:about (\w+) results", "about many results",
             r"count_path 'regex:about (\\w+) results' holds 'many', not a count"),
            (r"regex:about \d+ results", "about 12 results",
             r"count_path 'regex:about \\d+ results' has no group 1"),
            ("search.total", json.dumps({"search": {"total": -7}}),
             "count_path 'search.total' holds -7, not a count"),
            ("search.total", json.dumps({"search": {"total": "1_000"}}),
             "count_path 'search.total' holds '1_000', not a count"),
        ]
        + [(r"regex:about (\S+) results", "about %s results" % text,
            r"count_path 'regex:about (\\S+) results' holds %r, not a count" % text)
           for text in ("-5", "+5", "1_0", "1.5", "\u0663")],
        ids=["json-not-a-number", "regex-not-a-number", "regex-without-group", "json-negative",
             "json-underscore", "regex-negative", "regex-plus-sign", "regex-underscore",
             "regex-point", "regex-arabic-digit"],
    )
    def test_count_that_is_not_a_number_not_retried(self, tmp_path, count_path, body, message):
        calls = []

        def fetch(url):
            calls.append(url)
            return body

        client = RemoteCountClient(
            remote_config(count_path=count_path, min_delay_ms=0, max_retries=3),
            fetch=fetch,
            sleep=lambda s: None,
        )
        with CountCache(client, tmp_path / "cache.tsv") as cached:
            with pytest.raises(TransportError) as err:
                cached.count("a")
        assert len(calls) == 1
        assert message in str(err.value)
        assert not (tmp_path / "cache.tsv").exists()


class TestDefaultFetch:
    """``RemoteCountClient`` without ``fetch`` asks a loopback HTTP server.  Every
    failure ends in TransportError after the attempts the retry rule allows, and
    leaves no cache row."""

    JSON = {"Content-Type": "application/json"}

    def count(self, server, tmp_path, reply, count_path="search.total", timeout_ms=2000):
        server.reply = lambda path: reply
        config = remote_config(endpoint_template=server.url + "/search?q={query}",
                               count_path=count_path, min_delay_ms=0, max_retries=3,
                               timeout_ms=timeout_ms)
        with CountCache(RemoteCountClient(config), tmp_path / "cache.tsv") as cache:
            return cache.count("mental health")

    def attempts_to_fail(self, server, tmp_path, reply, match, **settings):
        with pytest.raises(TransportError, match=match):
            self.count(server, tmp_path, reply, **settings)
        assert not (tmp_path / "cache.tsv").exists()
        return len(server.paths)

    def test_json_body_gives_count(self, count_server, tmp_path):
        body = json.dumps({"search": {"total": 42}}).encode()
        assert self.count(count_server, tmp_path, (200, self.JSON, body)) == 42
        assert count_server.paths == ["/search?q=%22mental+health%22"]

    def test_regex_body_in_its_declared_charset(self, count_server, tmp_path):
        body = "environ 12,300 résultats".encode("iso-8859-1")
        reply = (200, {"Content-Type": "text/html; charset=iso-8859-1"}, body)
        assert self.count(count_server, tmp_path, reply,
                          count_path=r"regex:environ ([\d,]+) résultats") == 12300
        assert len(count_server.paths) == 1

    @pytest.mark.parametrize("status_code, attempts", [(404, 1), (429, 3), (503, 3)])
    def test_status_retry_policy(self, count_server, tmp_path, status_code, attempts):
        reply = (status_code, {}, b"busy")
        match = "HTTP Error %d" % status_code
        assert self.attempts_to_fail(count_server, tmp_path, reply, match) == attempts

    @pytest.mark.parametrize("reply, settings, match, attempts", [
        ((200, JSON, b'{"other": 1}'), {}, "does not resolve", 1),
        (None, {"timeout_ms": 100}, "timed out", 3),
        ((200, {"Content-Length": "100", **JSON}, b'{"search": {"total": 42}}'), {},
         "IncompleteRead", 3),
        ((200, {"Content-Type": "application/json; charset=x-unknown"}, b"{}"), {},
         "unknown encoding", 3),
        ((200, JSON, b'{"search": {"total": "\xff"}}'), {}, "can't decode", 3),
    ], ids=["no-match", "stall", "truncated", "unknown-charset", "not-utf8"])
    def test_failure_retry_policy(self, count_server, tmp_path, reply, settings, match,
                                  attempts):
        assert self.attempts_to_fail(count_server, tmp_path, reply, match, **settings) == attempts


# Some words are parts of others; some change length or form when case
# is folded (final sigma, dotted capital I, capital sharp s) or carry a
# combining mark.
WORDS = ["a", "b", "ab", "ba", "c", "bc", "σς", "Σa", "İ", "i", "ẞ", "e\u0301"]


@st.composite
def corpus_and_phrases(draw):
    vocabulary = draw(st.lists(st.sampled_from(WORDS), min_size=3, max_size=6, unique=True))
    word = st.builds(
        lambda w, upper: w.upper() if upper else w, st.sampled_from(vocabulary), st.booleans()
    )
    gap = st.sampled_from([" ", "  ", "\t", " \n ", "\u00a0", "\u3000"])
    documents = draw(st.lists(st.lists(word, max_size=12), max_size=15))
    texts = [
        draw(gap) + "".join(w + draw(gap) for w in tokens) for tokens in documents
    ]
    phrases = draw(
        st.lists(
            st.lists(st.one_of(word, st.just("zz"), st.sampled_from(vocabulary)), min_size=1,
                     max_size=5),
            min_size=1,
            max_size=10,
        )
    )
    for tokens in documents:  # phrases that occur, repeated tokens included
        if tokens:
            start = draw(st.integers(0, len(tokens) - 1))
            phrases.append(tokens[start : start + draw(st.integers(1, 5))])
    return texts, [draw(gap).join(p) for p in phrases]


def lowered_tokens(text):
    return [token.lower() for token in text.split()]


@settings(max_examples=100, deadline=None)
@given(corpus_and_phrases())
def test_local_index_matches_brute_force(case):
    texts, phrases = case
    from_texts = LocalIndexProvider(texts)
    from_tokens = LocalIndexProvider([text.split() for text in texts])
    documents = [lowered_tokens(text) for text in texts]
    for phrase in phrases + ["a a", "b b b"]:
        expected = naive_document_frequency(documents, lowered_tokens(phrase))
        assert from_texts.count(phrase) == expected, phrase
        assert from_tokens.count(phrase) == expected, phrase


def both_posting_forms_corpus(seed):
    """Over 900 documents where four tokens are common and 300 are rare.

    Phrases mix common and rare tokens, so the shortest posting array of a
    phrase is sometimes long and sometimes a handful of ids.  The two forms
    of the name were once bitmasks for common tokens and lists for rare
    ones; every token now has one array of ids.
    """
    rng = random.Random(seed)
    common, rare = ["a", "b", "ab", "c"], ["r%d" % i for i in range(300)]
    documents = [
        [rng.choice(common) if rng.random() < 0.8 else rng.choice(rare)
         for _ in range(rng.randint(0, 8))]
        for _ in range(rng.randint(900, 1300))
    ]
    phrases = {tuple(rng.choice(common + rare + ["zz"]) for _ in range(rng.randint(1, 4)))
               for _ in range(60)}
    for tokens in rng.sample([d for d in documents if d], 90):  # phrases that occur
        start = rng.randrange(len(tokens))
        phrases.add(tuple(tokens[start : start + rng.randint(1, 4)]))
    return documents, sorted(phrases)


@pytest.mark.parametrize("seed", range(4))
def test_local_index_with_both_posting_forms_matches_brute_force(seed):
    documents, phrases = both_posting_forms_corpus(seed)
    rng = random.Random(seed)
    texts = ["".join(rng.choice([" ", "  ", "\t"]) + (t.upper() if rng.random() < 0.2 else t)
                     for t in tokens) for tokens in documents]
    from_texts = LocalIndexProvider(texts)
    from_tokens = LocalIndexProvider([text.split() for text in texts])
    for token, ids in from_texts._postings.items():
        assert type(ids) is array and ids.itemsize == 4, token  # 4 bytes an id
        assert all(a < b for a, b in zip(ids, ids[1:])), token  # each document once, in order
        assert list(ids) == [d for d, tokens in enumerate(documents) if token in tokens], token
    for phrase in phrases:
        expected = naive_document_frequency(documents, list(phrase))
        assert from_texts.count(" ".join(phrase)) == expected, phrase
        assert from_tokens.count(" ".join(phrase).upper()) == expected, phrase


@pytest.mark.parametrize("b_documents", [999, 1], ids=["b-bitmask", "b-list"])
def test_local_index_checks_every_token_of_a_phrase(b_documents):
    # The ids name the posting forms of an earlier index: a long and a short array now.
    # "a" is in one document, and "b" in almost all or in one. The first document
    # holds the text " a b " only because a given token has whitespace inside,
    # so it does not hold the token "b".
    filler = [["c"]] * (1000 - b_documents)
    provider = LocalIndexProvider([["a", "b x"]] + [["b"]] * b_documents + filler)
    assert provider.count("a b") == 0
    assert provider.count("b") == b_documents


@pytest.mark.parametrize("repeats", [499, 0], ids=["bitmask", "list"])
def test_local_index_given_token_with_whitespace_is_one_token(repeats):
    # As above, the ids name a long and a short posting array. The first document
    # holds "a" and "b", apart, and the given token "a b". Read as text it would
    # hold " a b ", but no token "a" is followed by a token "b". "a" and "b" are
    # each in half of the 999 documents, or in the first alone.
    filler = [["c"]] * (998 - 2 * repeats)  # 999 documents in all
    documents = [["x", "a b", "c", "a", "z", "b"]] + [["a"], ["b"]] * repeats + filler
    provider = LocalIndexProvider(documents)
    assert provider.count("a b") == 0
    assert provider.count("a") == provider.count("b") == repeats + 1


BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["a", "b", "ab", " ", "\t", "  \t "] + BREAKS), max_size=40))
def test_corpus_file_documents_are_the_lines_of_its_text(tmp_path_factory, pieces):
    text = "".join(pieces)
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    from_file = load_corpus_file(path)
    from_lines = LocalIndexProvider([line for line in text.splitlines() if line.strip()])
    words = ["a", "b", "ab"]
    for phrase in words + ["%s %s" % (x, y) for x in words for y in words]:
        assert from_file.count(phrase) == from_lines.count(phrase), phrase


@pytest.mark.parametrize("width", [8190, 8191, 8192, 8193])
def test_corpus_file_crlf_across_the_read_chunk(tmp_path, width):
    # Python's text reader decodes 8,192 bytes at a time; at width 8191 the first
    # line's "\r" ends the first chunk and its "\n" starts the second.
    text = ("a b " * width)[: width - 1] + "c\r\nb a\r\n\r\nc a b\r\n"
    (tmp_path / "corpus.txt").write_bytes(text.encode("utf-8"))
    from_file = load_corpus_file(tmp_path / "corpus.txt")
    from_lines = LocalIndexProvider([line for line in text.splitlines() if line.strip()])
    assert len(from_file._docs) == 3 and from_file._docs == from_lines._docs
    for phrase in ["a", "b", "c", "a b", "b a", "b c", "c a", "c b"]:
        assert from_file.count(phrase) == from_lines.count(phrase), phrase


def test_local_index_codes_of_every_width_match_brute_force():
    # Over 65,536 distinct tokens, so codes take 1, 2 and 4 bytes a character. Token
    # w<i> is the i-th seen; the pool pairs w1..w9 with w65537..w65545, whose codes
    # would be theirs if codes wrapped at 16 bits.
    rng = random.Random(5)
    vocabulary = ["w%d" % i for i in range(70_000)]
    documents = [vocabulary[i : i + 1000] for i in range(0, 70_000, 1000)]
    pool = vocabulary[1:10] + vocabulary[300:309] + vocabulary[65_537:65_546]
    documents += [rng.choices(pool, k=rng.randint(1, 8)) for _ in range(400)]
    provider = LocalIndexProvider(documents)
    widest = max(max(map(ord, document)) for document in provider._docs)
    assert widest > 0xFFFF
    phrases = {tuple(rng.choices(pool, k=rng.randint(1, 3))) for _ in range(60)}
    for tokens in rng.sample(documents, 40):  # phrases that occur
        start = rng.randrange(len(tokens))
        phrases.add(tuple(tokens[start : start + rng.randint(1, 3)]))
    for phrase in sorted(phrases):
        assert provider.count(" ".join(phrase)) == naive_document_frequency(
            documents, list(phrase)), phrase


def test_corpus_file_not_utf8_names_file_and_line(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a b\r\nc\x0cd\n\na \xff b\n")
    with pytest.raises(ParseFileError) as err:
        load_corpus_file(path)
    assert str(err.value).startswith(
        "corpus %s line 4: 'utf-8' codec can't decode byte 0xff in position 2" % path)
    assert err.value.line_number == 4


def test_corpus_file_names_the_line_past_the_token_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(LocalIndexProvider, "_MAX_TOKENS", 3)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\nc a\nb d\n", encoding="utf-8")
    with pytest.raises(ParseFileError) as err:
        load_corpus_file(path)
    assert str(err.value) == "corpus %s line 4: a local index holds at most 3 tokens" % path


def test_corpus_file_names_the_line_past_the_document_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(LocalIndexProvider, "_MAX_DOCUMENTS", 2)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n\nc a\n \nb d\n", encoding="utf-8")
    with pytest.raises(ParseFileError) as err:
        load_corpus_file(path)
    assert str(err.value) == "corpus %s line 5: a local index holds at most 2 documents" % path
    assert err.value.line_number == 5


def test_local_index_document_limit_fits_its_posting_arrays(monkeypatch):
    assert LocalIndexProvider._MAX_DOCUMENTS == 2**31
    array("i", [LocalIndexProvider._MAX_DOCUMENTS - 1])  # the last id fits
    with pytest.raises(OverflowError):
        array("i", [LocalIndexProvider._MAX_DOCUMENTS])
    monkeypatch.setattr(LocalIndexProvider, "_MAX_DOCUMENTS", 2)
    assert LocalIndexProvider(["a b", "c a"]).count("a") == 2
    with pytest.raises(ValueError, match="^a local index holds at most 2 documents$"):
        LocalIndexProvider(["a b", "c a", "b d"])


def test_local_index_names_its_token_limit(monkeypatch):
    monkeypatch.setattr(LocalIndexProvider, "_MAX_TOKENS", 3)
    assert LocalIndexProvider(["a b", "c a"]).count("c a") == 1
    with pytest.raises(ValueError, match="^a local index holds at most 3 tokens$"):
        LocalIndexProvider(["a b", "c a", "b d"])


# Pieces of a corpus file: words, spaces and tabs, and the line breaks splitlines() knows,
# blank lines, CRLF and form feeds among them.
CORPUS_PIECES = ["a", "b", "ab", "A", " ", "\t", "a b", "a b a b", "\n", "\r\n", "\n\n", "\x0c"]


def _cpus(n):
    """A patch of os.sched_getaffinity that gives this process n CPUs, so n counting parts."""
    return mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(n)))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(CORPUS_PIECES), max_size=60),
       st.lists(st.lists(st.sampled_from(["a", "b", "ab", "zz"]), min_size=1, max_size=4),
                min_size=1, max_size=8))
def test_corpus_counted_in_blocks_matches_the_whole_index(tmp_path_factory, pieces, phrases):
    """Counts summed over blocks of 1, 2 and 3 documents, by 1, 2 and 3 processes, equal the
    whole-file index's and a brute-force scan of the file's lines; "a b a b" repeats a
    phrase within a document."""
    text = "".join(pieces)
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_bytes(text.encode("utf-8"))
    documents = [line.lower().split() for line in text.splitlines() if line.strip()]
    phrases = [" ".join(p) for p in phrases]
    whole = load_corpus_file(path)
    for size, parts in itertools.product((1, 2, 3), (1, 2, 3)):
        with mock.patch.object(PhraseCounts, "_BLOCK_DOCUMENTS", size), _cpus(parts):
            counted = load_corpus_file(path, phrases + [p.upper() for p in phrases])
        assert counted.provider_id == whole.provider_id == "local-index"
        for phrase in phrases:
            expected = naive_document_frequency(documents, phrase.split())
            assert counted.count(phrase) == whole.count(phrase) == expected, (size, parts, phrase)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_corpus_counted_in_blocks_names_the_line_in_a_later_block(tmp_path, monkeypatch, size):
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", size)
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a b\r\n\nc\x0cd\nb a\n\na \xff b\nc\n")
    messages = set()
    for parts in (1, 2, 3):
        with _cpus(parts), pytest.raises(ParseFileError) as err:
            load_corpus_file(path, ["a b"])
        assert err.value.line_number == 6
        messages.add(str(err.value))
    assert len(messages) == 1
    assert messages.pop().startswith("corpus %s line 6: 'utf-8' codec can't decode" % path)


def test_corpus_counted_in_blocks_applies_the_limits_to_each_block(tmp_path, monkeypatch):
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 2)
    monkeypatch.setattr(LocalIndexProvider, "_MAX_TOKENS", 3)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nc a\n\nd e\nf\nb d\ng\n", encoding="utf-8")  # 7 tokens, 3 a block
    for parts in (1, 2, 3):
        with _cpus(parts):
            assert load_corpus_file(path, ["a", "d e", "b"]) == {"a": 2, "d e": 1, "b": 2}
    with pytest.raises(ParseFileError, match="line 4: a local index holds at most 3 tokens$"):
        load_corpus_file(path)
    path.write_text("a b\nc a\n\nd e\nf g\n", encoding="utf-8")
    for parts in (1, 2, 3):
        with _cpus(parts), pytest.raises(ParseFileError) as err:
            load_corpus_file(path, ["a"])
        assert str(err.value) == "corpus %s line 5: a local index holds at most 3 tokens" % path


def test_corpus_counted_in_blocks_raises_the_error_a_single_process_meets_first(
        tmp_path, monkeypatch):
    """Blocks of 2: block 1 (lines 3-4) passes the token limit at line 4, block 2 at line
    6 and block 3 at line 7, and line 9 is not UTF-8.  Each process stops at its first
    error; whoever counts block 1, the error names line 4, as one process's would."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 2)
    monkeypatch.setattr(LocalIndexProvider, "_MAX_TOKENS", 3)
    path = tmp_path / "corpus.txt"
    path.write_bytes(b"a\nb\nc d\ne f\ng h\ni j\nk l m n\no\n\xff\n")
    for parts in (1, 2, 3):
        with _cpus(parts), pytest.raises(ParseFileError) as err:
            load_corpus_file(path, ["a"])
        assert str(err.value) == "corpus %s line 4: a local index holds at most 3 tokens" % path
    assert_no_child_left()


@pytest.mark.parametrize("parts", [2, 3])
def test_corpus_counted_in_blocks_forks_a_process_per_other_cpu(tmp_path, monkeypatch, parts):
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nb c\nc a\nd\n", encoding="utf-8")
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    with _cpus(parts):
        assert load_corpus_file(path, ["a", "b c", "d"]) == {"a": 2, "b c": 1, "d": 1}
    assert len(forks) == parts - 1
    assert_no_child_left()


def test_corpus_counted_by_a_failed_process_raises_never_counts(tmp_path, monkeypatch):
    """A child that exits with status 1, or sends fewer counts than phrases, fails the load
    naming the corpus; every child is reaped either way."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nb c\n", encoding="utf-8")
    count_blocks = evidence._count_blocks

    def exits(path, phrases, part, parts):
        if part:
            os._exit(1)
        return count_blocks(path, phrases, part, parts)

    def short(path, phrases, part, parts):
        counts, error = count_blocks(path, phrases, part, parts)
        return (counts[1:] if part else counts), error

    for fails, reason in ((exits, "exited with status 1"), (short, "sent 1 counts for 2")):
        monkeypatch.setattr(evidence, "_count_blocks", fails)
        with _cpus(2), pytest.raises(OSError, match="^corpus %s: a counting process failed: %s"
                                                   % (re.escape(str(path)), reason)):
            load_corpus_file(path, ["a", "b"])
        assert_no_child_left()


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_corpus_replaced_while_it_is_counted_raises_never_counts(tmp_path, monkeypatch, parts):
    """Part 0 moves another file over the corpus as it starts: the parts would count
    different files and their sum neither one's, so the load fails naming the corpus, never
    a count; every child is reaped."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\n" * 4, encoding="utf-8")
    (tmp_path / "other.txt").write_text("c d\n" * 4, encoding="utf-8")
    count_blocks = evidence._count_blocks

    def replaced(path, phrases, part, parts):
        if part == 0:
            os.replace(path.parent / "other.txt", path)
        return count_blocks(path, phrases, part, parts)

    monkeypatch.setattr(evidence, "_count_blocks", replaced)
    with _cpus(parts), pytest.raises(OSError, match="^corpus %s changed while it was counted$"
                                                    % re.escape(str(path))):
        load_corpus_file(path, ["a b", "c d"])
    assert_no_child_left()
    monkeypatch.undo()
    assert load_corpus_file(path, ["a b", "c d"]) == {"a b": 0, "c d": 4}  # the file now there


def test_corpus_counted_where_cpu_affinity_is_unknown_forks_nothing(tmp_path, monkeypatch):
    """Without os.sched_getaffinity this process cannot tell how many CPUs it may use, so it
    counts every block itself."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nb c\nc a\n", encoding="utf-8")
    assert evidence._parts(evidence._stamp(path)) == 1
    assert load_corpus_file(path, ["a", "b c"]) == {"a": 2, "b c": 1}


def test_corpus_counted_in_blocks_reaps_a_running_child_on_interrupt(tmp_path, monkeypatch):
    """An interrupt while this process counts its own part kills and reaps the child."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nb c\n", encoding="utf-8")

    def interrupted(path, phrases, part, parts):
        if part:
            time.sleep(60)
        raise KeyboardInterrupt

    monkeypatch.setattr(evidence, "_count_blocks", interrupted)
    started = time.monotonic()
    with _cpus(2), pytest.raises(KeyboardInterrupt):
        load_corpus_file(path, ["a"])
    assert time.monotonic() - started < 30
    assert_no_child_left()


def test_corpus_in_a_pipe_is_counted_by_one_process(tmp_path, monkeypatch):
    """Every counting process reads the whole file, and a pipe can be read only once: a
    corpus that is a pipe is counted in this process alone, and counted right; so is a
    file too small to hold more than one block."""
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    path = tmp_path / "corpus"
    os.mkfifo(path)
    writer = subprocess.Popen(["sh", "-c", 'printf "a b\\nb c\\nc a\\n" > "$0"', str(path)])
    try:
        with _cpus(3):
            assert load_corpus_file(path, ["a", "b c"]) == {"a": 2, "b c": 1}
    finally:
        writer.kill()
        writer.wait(10)
    (tmp_path / "small.txt").write_text("a b\n", encoding="utf-8")  # 4 bytes: 2 documents at most
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 2)
    with _cpus(3):
        assert load_corpus_file(tmp_path / "small.txt", ["a b"]) == {"a b": 1}


def test_corpus_counted_with_another_thread_running_forks_nothing(tmp_path, monkeypatch,
                                                                  count_server):
    """Forking a process that runs another thread may deadlock the child (Python 3.12 warns),
    so with the count server's thread alive the load counts every block in this process."""
    path = tmp_path / "corpus.txt"
    path.write_text("a b\nb c\nc a\n", encoding="utf-8")
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 1)
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with _cpus(3):
            assert load_corpus_file(path, ["a", "b c"]) == {"a": 2, "b c": 1}


@pytest.mark.parametrize("policy", ["error", "zero"])
def test_corpus_counted_in_blocks_refuses_a_phrase_it_did_not_count(tmp_path, policy):
    """A phrase outside the closure of the sentences given is an error naming it, never a
    count of 0, whatever the missing-count policy; a blank phrase fails before any line is
    read."""
    (tmp_path / "corpus.txt").write_text("a b\nb c\n", encoding="utf-8")
    config = PipelineConfig(provider=("corpus", str(tmp_path / "corpus.txt")),
                            missing_count_policy=policy)
    sentences = [([Candidate(sentence_id, (1,), x), Candidate(sentence_id, (2,), y)], {})
                 for sentence_id, x, y in (("s1", "a", "B"), ("s2", "b", "C"))]
    with build_provider(config, sentences) as provider:  # counts a, B, a B, b, C and b C
        assert (provider.count("A B"), provider.count("b c")) == (1, 1)
        with pytest.raises(ValueError, match="^phrase 'c d' was not counted in the corpus$"):
            provider.count("c  d")
        assert len(provider) == 2  # the refused phrase is not cached
    with pytest.raises(ValueError, match="^phrase is empty after normalization$"):
        load_corpus_file(tmp_path / "corpus.txt", ["a", " "])
