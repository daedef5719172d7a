"""Document-count evidence providers.

Every provider answers one question: in how many documents does a phrase
occur as an exact contiguous token sequence?  Three interchangeable
sources are available: a closed fixture (phrase -> count mapping), a
local index built over a small corpus, and a generic HTTP client for any
search API that reports a total-results figure.  ``CountCache`` wraps
each of them: it asks its provider at most once per phrase in a run and,
given a file, persists the counts so repeated runs are reproducible and
hit the network at most once per phrase.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
import urllib.parse
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import groupby, islice
from pathlib import Path
from typing import (Any, BinaryIO, Callable, Collection, Iterable, Iterator, Mapping, Protocol,
                    TextIO)

from .parse_ingest import (ParseFileError, check_setting, parse_whole, read_json_object, read_rows,
                           tsv_line)


def normalize_phrase(phrase: str) -> str:
    """Collapse runs of whitespace to single spaces; case is preserved."""
    return " ".join(phrase.split())


def _lookup_key(phrase: str) -> str:
    key = normalize_phrase(phrase).lower()
    if not key:
        raise ValueError("phrase is empty after normalization")
    return key


class MissingCountError(LookupError):
    """A closed fixture has no count for the requested phrase."""

    def __init__(self, phrase: str):
        super().__init__("no count recorded for phrase %r" % phrase)
        self.phrase = phrase


class TransportError(RuntimeError):
    """The remote count could not be obtained; distinct from a zero count."""


class CountProvider(Protocol):
    provider_id: str

    def count(self, phrase: str) -> int: ...


@dataclass(frozen=True, slots=True)
class EvidenceSet:
    """Document counts for a candidate pair: the merged unit and both sides."""

    n_s: int
    n_ax: int
    n_ay: int

    def __post_init__(self):
        if min(self.n_s, self.n_ax, self.n_ay) < 0:
            raise ValueError("counts must be non-negative")
        if max(self.n_s, self.n_ax, self.n_ay) > 2**53:  # so no share underflows and MI stays finite
            raise ValueError("counts must be at most 2**53")

    @property
    def total(self) -> int:
        return self.n_s + self.n_ax + self.n_ay


class FixtureProvider:
    """Counts served from a fixed phrase -> count table.

    ``counts`` is a mapping or a collection of (phrase, count) pairs, whose
    counts are whole, non-negative ints and whose phrases differ in lookup key.
    A phrase the table lacks raises MissingCountError.
    """

    provider_id = "fixture"

    def __init__(self, counts: Mapping[str, int] | Collection[tuple[str, int]]):
        rows = counts.items() if isinstance(counts, Mapping) else counts
        for phrase, count in rows:
            if type(count) is not int or count < 0:
                raise ValueError("count for %r must be a whole, non-negative number, got %s"
                                 % (phrase, json.dumps(count, default=repr)))
        self._counts = {_lookup_key(p): c for p, c in rows}
        if len(self._counts) < len(rows):  # two rows share a lookup key; name them
            key = Counter(_lookup_key(p) for p, _ in rows).most_common(1)[0][0]
            first, second = [p for p, _ in rows if _lookup_key(p) == key][:2]
            raise ValueError("phrases %r and %r normalize to one key" % (first, second))

    @classmethod
    def from_file(cls, path: str | Path) -> "FixtureProvider":
        """Load a JSON object {phrase: count} from a .json name, else a phrase<TAB>count TSV."""
        data, source = Path(path).read_bytes(), "count table %s" % path
        if str(path).endswith(".json"):
            rows = read_json_object(data, source).items()
        else:
            rows = list(read_rows(data.split(b"\n"), 2, source,
                                 lambda c: (c[0], parse_whole(c[1], "count for %r", c[0]))))
        try:
            return cls(rows)
        except ValueError as exc:
            raise ValueError("%s: %s" % (source, exc)) from None

    def count(self, phrase: str) -> int:
        key = _lookup_key(phrase)
        if key in self._counts:
            return self._counts[key]
        raise MissingCountError(normalize_phrase(phrase))


class LocalIndexProvider:
    """Document-frequency counts over an in-memory corpus.

    A phrase counts once per document containing it as a contiguous
    token subsequence, however many times it occurs there.  Matching is
    case-insensitive.  Each token has a one-character code, a document is
    kept as the string of its tokens' codes, and a phrase occurs exactly
    where its codes do.  A token's postings are the ascending ids of the
    documents it occurs in, each once, in an ``array("i")`` of 4 bytes an id;
    a phrase of several tokens checks each document of its shortest list, so
    one made of tokens that are all in most documents checks most documents.
    ``load_corpus_file`` builds one over a file, or one a block for PhraseCounts.
    """

    provider_id = "local-index"
    _MAX_TOKENS = 0x110000  # chr's range: one code per distinct token
    _MAX_DOCUMENTS = 2**31  # array("i")'s range: ids 0 .. 2**31 - 1

    def __init__(self, documents: Iterable[str | Iterable[str]]):
        codes: dict[str, str] = {}
        postings: dict[str, array[int]] = defaultdict(lambda: array("i"))
        self._docs: list[str] = []
        for doc_id, document in enumerate(documents):
            if doc_id == self._MAX_DOCUMENTS:
                raise ValueError("a local index holds at most %d documents" % self._MAX_DOCUMENTS)
            tokens = (document.lower().split() if isinstance(document, str)
                      else [t.lower() for t in document])  # a given token stays whole, spaces too
            for token in tokens:
                ids = postings[token]
                if not ids or ids[-1] != doc_id:  # ids ascend, so a repeat is the last
                    ids.append(doc_id)
            if len(postings) > len(codes):  # a new token: codes go in order of first sight
                if len(postings) > self._MAX_TOKENS:
                    raise ValueError("a local index holds at most %d tokens" % self._MAX_TOKENS)
                for token in tokens:
                    codes.setdefault(token, chr(len(codes)))
            self._docs.append("".join(map(codes.__getitem__, tokens)))
        self._postings, self._codes = postings, codes

    def count(self, phrase: str) -> int:
        return self._frequency(_lookup_key(phrase).split())

    def _frequency(self, tokens: list[str]) -> int:
        postings = [self._postings.get(token) for token in tokens]
        if not all(postings):  # a token no document holds: no document is checked
            return 0
        if len(tokens) == 1:
            return len(postings[0])
        needle, docs = "".join(map(self._codes.__getitem__, tokens)), self._docs
        return sum(needle in docs[d] for d in min(postings, key=len))


class PhraseCounts(dict):
    """Counts of a closed phrase set by lookup key; another phrase raises ValueError, never a
    count.  ``provider_id`` is the index's, so either one's cache rows serve the other."""

    provider_id = LocalIndexProvider.provider_id
    # Each counting process holds one block at a time and looks up every phrase in it: with
    # 1,610 phrases over 50,200 documents in one process, blocks of 1,024 peaked at 18.9 MB
    # but took 45% longer, 4,096 at 20.3 MB in a whole index's time.
    _BLOCK_DOCUMENTS = 4096

    def count(self, phrase: str) -> int:
        if (count := self.get(_lookup_key(phrase))) is None:
            raise ValueError("phrase %r was not counted in the corpus" % normalize_phrase(phrase))
        return count


def _documents(handle: BinaryIO, at: list[int]) -> Iterator[str]:
    """The corpus reader: the non-blank str.splitlines() pieces of each line of ``handle``,
    which ends at LF and is decoded alone.  at[0] is the number of the line being read."""
    for at[0], line in enumerate(handle, 1):
        for document in line.decode("utf-8").splitlines():
            if document.strip():
                yield document


def load_corpus_file(path: str | Path, phrases: Iterable[str] | None = None
                     ) -> LocalIndexProvider | PhraseCounts:
    """Index a UTF-8 text file with one document per str.splitlines() line, or, given
    ``phrases``, count just those: the documents are cut into blocks, each block is indexed,
    its counts added and the block dropped, so the index's limits apply to each block.  One
    process per CPU this one may use counts every n-th block (see ``_parts``).

    A line that is not UTF-8, or one past the token or document limit, raises
    ParseFileError naming the file and the line; of several, the first in the file.
    """
    if phrases is not None:
        keys = dict.fromkeys(map(_lookup_key, phrases))
        return PhraseCounts(zip(keys, _count_corpus(path, [key.split() for key in keys])))
    at = [0]
    with open(path, "rb") as handle:
        try:
            return LocalIndexProvider(_documents(handle, at))
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            raise ParseFileError(str(exc), at[0], "corpus %s" % path) from None


def _parts(stamp: tuple[int, ...] | None) -> int:
    """One counting process for each CPU this process may use, but no more than the corpus
    that ``_stamp`` gave ``stamp`` has blocks, as each process reads all of it.  One alone
    where fork is missing, where another thread runs (a forked copy of a threaded process may
    deadlock), or where the corpus is no regular file (no stamp): a pipe is read once."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    if threading.active_count() > 1 or stamp is None:
        return 1
    # A document takes at least two bytes, one of its own and one that ends it, but the last.
    documents = (stamp[2] + 1) // 2
    blocks = -(-documents // PhraseCounts._BLOCK_DOCUMENTS)
    return max(1, min(len(os.sched_getaffinity(0)), blocks))


def _stamp(path: str | Path) -> tuple[int, ...] | None:
    """A regular file's device, inode, size and mtime, else None: a pipe's mtime moves as it
    is written, and only one process reads it."""
    stat = os.stat(path) if os.path.isfile(path) else None
    return stat and (stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns)


def _count_blocks(path: str | Path, phrases: list[list[str]], part: int, parts: int
                  ) -> tuple[list[int], list | None]:
    """Each phrase's count, given as its tokens, over blocks part, part + parts, ... of the
    corpus, and the first error met there as [line, block, message], or None."""
    size, counts, at = PhraseCounts._BLOCK_DOCUMENTS, [0] * len(phrases), [0, 0]
    with open(path, "rb") as handle:
        blocks = groupby(enumerate(_documents(handle, at)), lambda item: item[0] // size)
        try:
            for at[1], block in islice(blocks, part, None, parts):
                index = LocalIndexProvider(document for _, document in block)
                for i, tokens in enumerate(phrases):
                    counts[i] += index._frequency(tokens)
                del index  # before the next block is indexed
        except ValueError as exc:  # UnicodeDecodeError is a ValueError
            return counts, [at[0], at[1], str(exc)]
    return counts, None


def _count_corpus(path: str | Path, phrases: list[list[str]]) -> list[int]:
    """The counts of ``phrases`` in the corpus: this process counts part 0 of ``_parts``
    while a forked child counts each other part and sends its result through a pipe.  Of
    the errors met, the one of the first line, then block, is the one a single process
    meets first; a child that fails or sends no result, or a corpus replaced or changed
    before every part is counted, raises OSError, never a count."""
    stamp = _stamp(path)  # before any process opens the file
    parts, children = _parts(stamp), []  # (pid, read end of its pipe) of each child not reaped
    try:
        for part in range(1, parts):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves here only through os._exit, never by returning
                code = 1
                try:
                    os.close(read)
                    with open(write, "wb") as pipe:
                        pipe.write(json.dumps(_count_blocks(path, phrases, part, parts)).encode())
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            children.append((pid, open(read, "rb")))
        results = [_count_blocks(path, phrases, 0, parts)]
        while children:
            pid, pipe = children[0]
            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[0]
            try:
                if status != 0:
                    raise ValueError("exited with status %d" % status)
                counts, error = json.loads(data)
                if len(counts) != len(phrases):
                    raise ValueError("sent %d counts for %d phrases" % (len(counts), len(phrases)))
            except (ValueError, TypeError) as exc:
                raise OSError("corpus %s: a counting process failed: %s" % (path, exc)) from None
            results.append((counts, error))
    finally:
        if children:  # only on an error: stop and reap the rest
            import signal  # not loaded on the way to a count

            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if _stamp(path) != stamp:
        raise OSError("corpus %s changed while it was counted" % path)
    errors = [error for _, error in results if error is not None]
    if errors:
        line, _, message = min(errors)
        raise ParseFileError(message, line, "corpus %s" % path)
    return [sum(counts) for counts in zip(*(counts for counts, _ in results))]


def _cache_row(columns: list[str]) -> tuple[str, str, int]:
    phrase, count, provider_id, _fetched_at = columns
    return provider_id, _lookup_key(phrase), parse_whole(count, "count for %r", phrase)


class CountCache:
    """The one count layer: ``inner``'s counts, memoized and optionally persisted.

    One dict keyed by normalized lower-case phrase holds the counts
    ``inner`` returned; a failure is not stored, so the next call asks
    again.  With ``path`` the dict is loaded from, and each miss appended
    to, a TSV phrase<TAB>count<TAB>provider_id<TAB>fetched_at (the last
    entry per key wins; other providers' rows are checked, not kept).
    The file is opened on the first miss and closed on leaving a ``with``
    block or by ``close``, after which an append raises ValueError; each
    line is flushed as it is written, and ``fetched_at`` is the first
    one's time.
    An unterminated last line that does not parse, left by a crash
    mid-append, is skipped with a warning and cut off before the first
    append; any other bad row raises.
    ``missing_policy`` "zero" answers a MissingCountError with 0 for this
    call alone, neither memoized nor appended; "error" (default) raises it.
    """

    def __init__(self, inner: CountProvider, path: str | Path | None = None,
                 missing_policy: str = "error"):
        if missing_policy not in ("error", "zero"):
            raise ValueError("missing_policy must be 'error' or 'zero'")
        self.inner, self.missing_policy = inner, missing_policy
        self.provider_id = inner.provider_id
        self.path = None if path is None else Path(path)
        self._counts: dict[str, int] = {}
        self._handle: TextIO | None = None
        self._closed = False
        self._fetched_at = ""
        self._repair: tuple[int, str] | None = None  # (truncate at byte, then write)
        if self.path is not None and self.path.exists():
            self._load(self.path)

    def __enter__(self) -> "CountCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self._closed = True

    def _load(self, path: Path) -> None:
        data = path.read_bytes()
        *lines, torn = data.split(b"\n")  # torn is b"" unless the last line is unterminated
        self._store(lines)
        if torn:
            try:
                self._store([torn])
                self._repair = (len(data), "\n")
            except ParseFileError:
                print("warning: %s line %d: skipped a torn last line" % (path, len(lines) + 1),
                      file=sys.stderr)
                self._repair = (len(data) - len(torn), "")

    def _store(self, lines: Iterable[bytes | str]) -> None:
        kind = "count cache %s" % self.path
        for provider_id, key, count in read_rows(lines, 4, kind, _cache_row):
            if provider_id == self.provider_id:
                self._counts[key] = count

    def __len__(self) -> int:
        return len(self._counts)

    def get(self, phrase: str) -> int | None:
        return self._counts.get(_lookup_key(phrase))

    def put(self, phrase: str, count: int) -> None:
        key, phrase = _lookup_key(phrase), normalize_phrase(phrase)
        if self.path is not None:
            if self._handle is None:
                if self._closed:
                    raise ValueError("count cache %s is closed" % self.path)
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
                if self._repair is not None:
                    self._handle.truncate(self._repair[0])
                    self._handle.write(self._repair[1])
                    self._repair = None
                self._fetched_at = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
            self._handle.write(tsv_line((phrase, "%d" % count, self.provider_id, self._fetched_at)))
            self._handle.flush()
        self._counts[key] = count

    def count(self, phrase: str) -> int:
        cached = self.get(phrase)
        if cached is not None:
            return cached
        try:
            value = self.inner.count(phrase)
        except MissingCountError:
            if self.missing_policy == "zero":
                return 0
            raise
        self.put(phrase, value)
        return value


@dataclass(frozen=True)
class RemoteClientConfig:
    """Settings for the generic search-API count client.

    ``endpoint_template`` must contain a ``{query}`` placeholder.
    ``count_path`` is either a dotted path into the JSON response body
    (list indices allowed, e.g. "searchInformation.totalResults") or
    ``regex:<pattern>`` whose first capture group is the count.
    """

    endpoint_template: str
    count_path: str
    min_delay_ms: int = 1000
    max_retries: int = 3
    timeout_ms: int = 10000

    def __post_init__(self):
        for name in ("endpoint_template", "count_path"):
            if not isinstance(getattr(self, name), str):
                raise ValueError("%s must be a string" % name)
        if "{query}" not in self.endpoint_template:
            raise ValueError("endpoint_template must contain a {query} placeholder")
        for name, low in (("min_delay_ms", 0), ("max_retries", 1), ("timeout_ms", 1)):
            check_setting(name, getattr(self, name), low)


class _NoMatch(ValueError):
    """The body holds no count where the count path points; asking again cannot help."""


def _default_fetch(url: str, timeout_ms: int) -> str:
    import http.client  # only a remote fetch pays for importing the HTTP stack
    import urllib.request

    try:
        with urllib.request.urlopen(url, timeout=timeout_ms / 1000) as response:
            return response.read().decode(response.headers.get_content_charset() or "utf-8")
    except urllib.error.HTTPError as exc:  # a 4xx or 5xx; it holds the socket until closed
        exc.close()
        raise
    except (http.client.HTTPException, LookupError) as exc:  # truncated, or unknown charset
        raise OSError("unreadable response: %r" % exc) from exc


class RemoteCountClient:
    """Fetch total-result counts from a configurable search endpoint.

    Phrases are submitted as quoted exact-phrase queries.  Consecutive
    requests are spaced at least ``min_delay_ms`` apart.  A failure, that
    is a ValueError, KeyError, IndexError or OSError (any urllib error or
    timeout, and a body cut short or not decodable), is retried up to
    ``max_retries`` attempts and then raised as TransportError; it is
    never reported as a zero count.
    Failures a retry cannot change, an HTTP 4xx other than 429, a JSON
    ``count_path`` that does not resolve, a ``regex:`` count pattern that
    matches nothing or has no group 1, or a count that is not a number,
    are raised after the first attempt.
    """

    provider_id = "remote"

    def __init__(
        self,
        config: RemoteClientConfig,
        fetch: Callable[[str], str] | None = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.config = config
        self._fetch = fetch or (lambda url: _default_fetch(url, config.timeout_ms))
        self._sleep = sleep
        self._clock = clock
        self._last_request: float | None = None

    def build_url(self, phrase: str) -> str:
        query = urllib.parse.quote_plus('"%s"' % normalize_phrase(phrase))
        return self.config.endpoint_template.replace("{query}", query)

    def _respect_rate_limit(self) -> None:
        now = self._clock()
        if self._last_request is not None:
            wait = self.config.min_delay_ms / 1000.0 - (now - self._last_request)
            if wait > 0:
                self._sleep(wait)
                now = self._clock()
        self._last_request = now

    def extract_count(self, body: str) -> int:
        path = self.config.count_path
        if path.startswith("regex:"):
            match = re.search(path[len("regex:"):], body)
            if match is None:
                raise _NoMatch("count pattern matched nothing")
            if match.re.groups < 1:
                raise _NoMatch("count_path %r has no group 1" % path)
            value: Any = match.group(1)
        else:
            value = json.loads(body)
            for part in path.split("."):
                try:
                    value = value[int(part)] if isinstance(value, list) else value[part]
                except (KeyError, IndexError, TypeError, ValueError):
                    raise _NoMatch("count_path %r does not resolve at %r" % (path, part)) from None
        try:
            return parse_whole(str(value).replace(",", "").strip(), "count")
        except ValueError:
            raise _NoMatch("count_path %r holds %r, not a count" % (path, value)) from None

    def count(self, phrase: str) -> int:
        _lookup_key(phrase)  # an empty phrase fails here, not at the endpoint
        url = self.build_url(phrase)
        last_error: Exception | None = None
        for _ in range(self.config.max_retries):
            self._respect_rate_limit()
            try:
                return self.extract_count(self._fetch(url))
            except (ValueError, KeyError, IndexError, OSError) as exc:
                last_error = exc
                status = getattr(exc, "code", None) or 0
                if isinstance(exc, _NoMatch) or (400 <= status < 500 and status != 429):
                    break
        raise TransportError(
            "could not fetch count for %r: %s" % (normalize_phrase(phrase), last_error)
        )
