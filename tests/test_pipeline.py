import dataclasses
import io
import itertools
import json
import zlib

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from unithood import (
    Candidate,
    CandidatePair,
    EvidenceSet,
    FixtureProvider,
    ParsedSentence,
    ParseFileError,
    ParseToken,
    RemoteClientConfig,
    RemoteCountClient,
    Score,
    Thresholds,
    UndefinedEvidenceError,
    extract_candidates,
    form_pairs,
    merge_pass,
    normalize_phrase,
    read_parse_file,
    sentence_connectors,
)
from unithood.cli import _load_config, build_parser
from unithood.evidence import CountCache
from unithood.extractor import closure
from unithood.parse_ingest import read_rows, tsv_line
from unithood.pipeline import (
    PROVIDERS,
    ConfigError,
    DecisionRecord,
    PipelineConfig,
    build_provider,
    decide,
    decide_pairs,
    load_config,
    read_decisions_file,
    read_decorated_file,
    read_gold_file,
    read_pairs_file,
    read_scores_file,
    sentences_of,
    warm_counts,
    write_decisions_file,
    write_decorated_file,
    write_pairs_file,
)


def roundtrip(write_fn, items, read_fn):
    out = io.StringIO()
    write_fn(items, out)
    return read_fn(io.StringIO(out.getvalue()))


def read_fixture(read_fn, path):
    with open(path, encoding="utf-8") as handle:
        return read_fn(handle)


class TestConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.thresholds == Thresholds()
        assert config.max_merge_passes == 3
        assert config.provider is None

    def test_load_fixture_config(self, fixtures_dir):
        config = load_config(fixtures_dir / "config.json")
        assert config.thresholds == Thresholds()
        assert config.provider == ("fixture", str(fixtures_dir / "counts.json"))
        assert config.missing_count_policy == "error"

    def test_relative_paths_resolve_against_config_dir(self, tmp_path):
        (tmp_path / "counts.json").write_text("{}", encoding="utf-8")
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"provider": {"fixture": "counts.json"}}))
        config = load_config(path)
        assert config.provider == ("fixture", str(tmp_path / "counts.json"))

    def test_null_cache_path_means_no_cache(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"provider": {"fixture": "a"}, "cache_path": None}))
        assert load_config(path).cache_path is None
        # A cache_path given to load_config replaces the file's before it is checked.
        path.write_text(json.dumps({"provider": {"fixture": "a"}, "cache_path": 5}))
        assert load_config(path, "c.tsv").cache_path == "c.tsv"

    def test_two_providers_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"provider": {"fixture": "a", "corpus": "b"}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_provider_kind_rejected_in_the_dataclass(self):
        with pytest.raises(ConfigError, match="^unknown provider kind\\(s\\): oracle$"):
            PipelineConfig(provider=("oracle", "a.json"))

    @pytest.mark.parametrize("spec", [{"endpoint_template": "http://localhost:9/{query}",
                                       "count_path": "t"}, None, "remote.json"])
    def test_remote_spec_must_be_a_remote_client_config(self, spec):
        """A spec of the wrong type fails naming its kind, not on the first count."""
        with pytest.raises(ConfigError, match="^remote must be a RemoteClientConfig, got %s$"
                           % type(spec).__name__):
            PipelineConfig(provider=("remote", spec), cache_path="x.tsv")

    def test_missing_config_file_names_it(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == ("cannot read config %s: [Errno 2] No such file or directory: "
                                  "%r" % (path, str(path)))

    def test_no_provider_rejected_in_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"provider": {}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_provider_kind_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"provider": {"oracle": "x"}}))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_missing_policy(self):
        with pytest.raises(ConfigError):
            PipelineConfig(missing_count_policy="maybe")

    def test_unknown_threshold_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps({"provider": {"fixture": "x"}, "thresholds": {"bogus": 1}})
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_remote_key_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "provider": {
                        "remote": {
                            "endpoint_template": "u{query}",
                            "count_path": "t",
                            "oops": 1,
                        }
                    },
                    "cache_path": "c.tsv",
                }
            )
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_json_config_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("not json at all")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"provider": {"fixture": "a"}, "provider": {"corpus": "b"}}',
             "config {path} repeats key 'provider'"),
            ('{"provider": {"fixture": "a"}, "thresholds": {"id_t": 3, "id_t": 6}}',
             "config {path} repeats key 'id_t'"),
            ('{"provider": {"fixture": "a"}, "max_merge_pases": 2, "cache_pth": "c.tsv"}',
             "unknown config key(s): cache_pth, max_merge_pases"),
            ('{"provider": {"fixture": "a"}, "max_merge_passes": 2.5}',
             "invalid config {path}: max_merge_passes must be an integer >= 1"),
            ('{"provider": {"fixture": "a"}, "max_merge_passes": true}',
             "invalid config {path}: max_merge_passes must be an integer >= 1"),
            ('{"provider": {"remote": {"endpoint_template": "u{query}", "count_path": "t",'
             ' "max_retries": 2.5}}, "cache_path": "c.tsv"}',
             "invalid config {path}: max_retries must be an integer >= 1"),
            ('{"provider": {"remote": {"endpoint_template": "u{query}", "count_path": "t",'
             ' "max_retries": true}}, "cache_path": "c.tsv"}',
             "invalid config {path}: max_retries must be an integer >= 1"),
            ('{"provider": {"remote": {"endpoint_template": "u{query}", "count_path": 5}},'
             ' "cache_path": "c.tsv"}',
             "invalid config {path}: count_path must be a string"),
            ('{"provider": {"remote": {"endpoint_template": 5, "count_path": "t"}},'
             ' "cache_path": "c.tsv"}',
             "invalid config {path}: endpoint_template must be a string"),
            # provider.remote takes the object rule too: every message names remote and the key.
            ('{"provider": {"remote": 5}, "cache_path": "c.tsv"}', "remote must be a JSON object"),
            ('{"provider": {"remote": {"endpoint_template": "u{query}", "count_path": "t",'
             ' "bogus": 1}}, "cache_path": "c.tsv"}', "unknown remote key(s): bogus"),
            ('{"provider": {"remote": {"endpoint_template": "u{query}"}}, "cache_path": "c.tsv"}',
             "remote lacks key(s): count_path"),
            ('{"provider": ["fixture", "a"]}', "provider must be a JSON object"),
            ('{"provider": {"fixture": "a"}, "thresholds": [6]}',
             "thresholds must be a JSON object"),
            # A path is a non-empty string: no other value means "no cache" or fails late.
            ('{"provider": {"corpus": 5}}',
             "invalid config {path}: corpus must be a non-empty string"),
            ('{"provider": {"fixture": ""}}',
             "invalid config {path}: fixture must be a non-empty string"),
            ('{"provider": {"fixture": null}}',
             "invalid config {path}: fixture must be a non-empty string"),
        ] + [
            ('{"provider": {"fixture": "a"}, "cache_path": %s}' % value,
             "invalid config {path}: cache_path must be a non-empty string")
            for value in ("5", '["a"]', "true", "0", "false", '""', "{}")
        ],
        ids=["repeated-provider", "repeated-threshold", "unknown-keys", "passes-float",
             "passes-bool", "retries-float", "retries-bool", "count-path-int", "endpoint-int",
             "remote-int", "remote-unknown-key", "remote-missing-key", "provider-list",
             "thresholds-list", "corpus-int", "fixture-empty", "fixture-null", "cache-int",
             "cache-list", "cache-true", "cache-zero", "cache-false", "cache-empty",
             "cache-object"],
    )
    def test_rejected_config_names_the_problem(self, tmp_path, text, message):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == message.format(path=path)

    def test_min_merge_passes(self):
        for passes in (0, 2.5, True):  # a bool is no pass count, though bool is an int
            with pytest.raises(ConfigError, match="max_merge_passes"):
                PipelineConfig(max_merge_passes=passes)

    def test_remote_requires_cache(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            json.dumps(
                {
                    "provider": {
                        "remote": {
                            "endpoint_template": "https://x/{query}",
                            "count_path": "total",
                        }
                    }
                }
            )
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_threshold_overrides(self):
        args = build_parser().parse_args(["decide", "pairs.tsv", "--threshold", "mi_plus=2.0"])
        config = _load_config(args)
        assert config.thresholds.mi_plus == 2.0
        assert config.thresholds.mi_minus == 0.02

    def test_build_fixture_provider(self, fixtures_dir):
        config = load_config(fixtures_dir / "config.json")
        provider = build_provider(config)
        assert provider.count("mental health") == 14_000_000

    def test_every_provider_memoized_without_cache_file(self, fixtures_dir):
        config = load_config(fixtures_dir / "config.json")
        provider = build_provider(PipelineConfig(provider=config.provider))
        assert isinstance(provider, CountCache) and provider.path is None
        provider.count("mental health")
        assert provider.get("Mental  Health") == 14_000_000

    def test_build_corpus_provider(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("a b c\nb c d\n", encoding="utf-8")
        config = PipelineConfig(provider=("corpus", str(corpus)))
        assert build_provider(config).count("b c") == 2

    def test_build_cached_provider(self, tmp_path, fixtures_dir):
        config = load_config(fixtures_dir / "config.json")
        config = PipelineConfig(
            thresholds=config.thresholds,
            provider=config.provider,
            cache_path=str(tmp_path / "cache.tsv"),
        )
        with build_provider(config) as provider:
            assert provider.count("mental health") == 14_000_000
        assert (tmp_path / "cache.tsv").exists()

    def test_build_remote_provider_makes_no_request(self, tmp_path, count_server):
        """A remote provider fetches a count when one is asked for, not when it is built;
        its cache file is made on the first count too."""
        remote = RemoteClientConfig(count_server.url + "/?q={query}", "total", min_delay_ms=0)
        config = PipelineConfig(provider=("remote", remote), cache_path=str(tmp_path / "cache.tsv"))
        with build_provider(config) as provider:
            assert isinstance(provider.inner, RemoteCountClient)
            assert provider.inner.config == remote
        assert count_server.paths == []
        assert not (tmp_path / "cache.tsv").exists()

    def test_no_provider_build_fails(self):
        with pytest.raises(ConfigError):
            build_provider(PipelineConfig())


_FILE_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,7}\.(json|tsv|txt)", fullmatch=True)


@st.composite
def valid_configs(draw, kind=None):
    """A valid config file's JSON object, its paths relative to the file's directory."""
    kind = kind or draw(st.sampled_from(["fixture", "corpus", "remote"]))
    raw = {}
    if kind == "remote":  # the remote provider needs a cache
        spec = dict(draw(st.dictionaries(st.sampled_from(["min_delay_ms", "max_retries",
                                                          "timeout_ms"]), st.integers(1, 10**4))),
                    endpoint_template="http://localhost/?q={query}",
                    count_path=draw(st.sampled_from(["total", "regex:(\\d+)"])))
        raw["cache_path"] = draw(_FILE_NAME)
    else:
        spec = draw(_FILE_NAME)
        if draw(st.booleans()):  # null, like no cache_path at all, means no cache
            raw["cache_path"] = draw(st.none() | _FILE_NAME)
    raw["provider"] = {kind: spec}
    if draw(st.booleans()):
        raw["thresholds"] = {"id_t": draw(st.floats(0, 100) | st.integers(0, 100))}
    if draw(st.booleans()):
        raw["missing_count_policy"] = draw(st.sampled_from(["error", "zero"]))
    if draw(st.booleans()):
        raw["max_merge_passes"] = draw(st.integers(1, 10))
    return raw


def _write_config(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("config") / "config.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return path


@settings(max_examples=100, deadline=None)
@given(valid_configs())
def test_a_valid_config_loads_to_the_config_built_by_hand(tmp_path_factory, raw):
    path = _write_config(tmp_path_factory, raw)
    [(kind, spec)] = raw["provider"].items()
    spec = RemoteClientConfig(**spec) if kind == "remote" else str(path.parent / spec)
    cache_path = raw.get("cache_path") and str(path.parent / raw["cache_path"])
    assert load_config(path) == PipelineConfig(
        thresholds=Thresholds(**raw.get("thresholds", {})), provider=(kind, spec),
        cache_path=cache_path, missing_count_policy=raw.get("missing_count_policy", "error"),
        max_merge_passes=raw.get("max_merge_passes", 3))


@st.composite
def configs_with_an_unknown_key(draw):
    """A valid config with one unknown key added at the top level, in provider or in
    provider.remote; returns the JSON object and the key."""
    where = draw(st.sampled_from(["config", "provider", "remote"]))
    raw = draw(valid_configs("remote" if where == "remote" else None))
    if where == "provider":
        target, known = raw["provider"], set(PROVIDERS)
    else:
        target = raw if where == "config" else raw["provider"]["remote"]
        known = {f.name for f in dataclasses.fields(
            PipelineConfig if where == "config" else RemoteClientConfig)}
    key = draw(st.text(min_size=1, max_size=12).filter(lambda key: key not in known))
    target[key] = draw(st.sampled_from([0, "x", None, [], {}]))
    return raw, key


@settings(max_examples=150, deadline=None)
@given(configs_with_an_unknown_key())
def test_an_unknown_key_anywhere_is_refused_naming_it(tmp_path_factory, drawn):
    """Every object in a config refuses a key it does not declare, with a message that names
    the key and none of Python's own about a call."""
    raw, key = drawn
    with pytest.raises(ConfigError) as err:
        load_config(_write_config(tmp_path_factory, raw))
    message = str(err.value)
    assert key in message
    assert "__init__()" not in message and "argument after **" not in message


def two_candidate_pair():
    a_x = Candidate("s1", (20, 21), "National Institute")
    a_y = Candidate("s1", (23, 24), "Mental Health")
    return CandidatePair(a_x, "of", a_y)


class TestFileFormats:
    def test_pairs_round_trip(self):
        pair = two_candidate_pair()
        (again,) = roundtrip(write_pairs_file, [pair], read_pairs_file)
        assert again.a_x.span == pair.a_x.span
        assert again.a_y.surface == pair.a_y.surface
        assert again.b == "of"
        assert again.s == pair.s

    def test_pairs_file_spec_columns(self):
        out = io.StringIO()
        write_pairs_file([two_candidate_pair()], out)
        header, row = out.getvalue().splitlines()
        columns = row.split("\t")
        assert columns[0] == "s1"
        assert columns[1] == "20,21,22,23,24"
        assert columns[2] == "National Institute of Mental Health"

    def test_empty_connector_round_trip(self):
        pair = CandidatePair(Candidate("s", (1, 2), "bird flu"), "", Candidate("s", (3,), "virus"))
        (again,) = roundtrip(write_pairs_file, [pair], read_pairs_file)
        assert again.b == ""
        assert again.s == "bird flu virus"

    def test_decisions_round_trip(self, fixtures_dir):
        pairs = read_fixture(read_pairs_file, fixtures_dir / "reference_pairs.tsv")
        scores = read_fixture(read_scores_file, fixtures_dir / "reference_scores.tsv")
        records = decide_pairs(pairs, Thresholds(), injected=scores)
        decisions = roundtrip(write_decisions_file, records, read_decisions_file)
        assert decisions == {r.pair_id: r.merged for r in records}

    def test_gold_file(self, fixtures_dir):
        gold = read_fixture(read_gold_file, fixtures_dir / "reference_gold.tsv")
        assert gold == {"1": False, "2": True, "3": True, "4": True, "5": True}

    def test_gold_rejects_unknown_label(self):
        with pytest.raises(ValueError):
            read_gold_file(io.StringIO("1\tMAYBE\n"))

    def test_decorated_round_trip(self, fixtures_dir):
        rows = read_fixture(read_decorated_file, fixtures_dir / "decorated_pairs.tsv")
        assert rows[0][0] == "p01"
        assert rows[0][1].n_ay == 26_000_000
        assert len(rows) == 13

    def test_scores_file_na_ratio(self):
        scores = read_scores_file(io.StringIO("a\tof\tb\t0.5\t6.5\t0\tNA\n"))
        assert scores[("a", "of", "b")] == Score(0.5, 6.5, 0.0, None)

    def test_scores_file_a_x_that_starts_with_a_hash(self):
        """A row that starts with "#" is a comment.  So an a_x that starts with "#" is written
        after one space, as the count cache writes such a phrase, and read without it; the
        pair is then decided from its scores, with no provider to count it."""
        row = "#1 hit\tof\tb\t0.5\t6.5\t1\tNA\n"
        assert read_scores_file(io.StringIO(row)) == {}
        scores = read_scores_file(io.StringIO(" " + row + " a\tof\tb\t0.5\t6.5\t1\tNA\n"))
        assert scores == {("#1 hit", "of", "b"): Score(0.5, 6.5, 1.0, None),
                          (" a", "of", "b"): Score(0.5, 6.5, 1.0, None)}
        pair = CandidatePair(Candidate("s1", (1, 2), "#1 hit"), "of", Candidate("s1", (4,), "b"))
        [record] = decide_pairs([pair], Thresholds(), injected=scores)
        assert (record.a_x, record.score) == ("#1 hit", Score(0.5, 6.5, 1.0, None))

    @pytest.mark.parametrize(
        "read_fn, rows, message",
        [
            (read_gold_file, ["1\tMERGED", "2\tMERGED", "1\tNOTMERGED"],
             "gold file line 4: duplicate pair id '1'"),
            (
                read_decisions_file,
                ["1\ta\tof\tb\t1\t1\t1\t1\tMERGED\ta of b",
                 "2\ta\tof\tc\t1\t1\t1\t1\tMERGED\ta of c",
                 "1\ta\tof\tb\t1\t1\t1\t1\tNOTMERGED\ta of b"],
                "decisions file line 4: duplicate pair id '1'",
            ),
            (
                read_decorated_file,
                ["1\ta\tof\tb\ta of b\t1\t2\t3",
                 "2\ta\tof\tc\ta of c\t1\t2\t3",
                 "1\ta\tof\tb\ta of b\t1\t2\t3"],
                "decorated pairs file line 4: duplicate pair id '1'",
            ),
            (
                read_scores_file,
                ["a\tof\tb\t0.5\t6.5\t1\tNA",
                 "a\t\tb\t0.5\t6.5\t1\tNA",
                 "a\tof\tb\t0.7\t6.5\t1\tNA"],
                "scores file line 4: duplicate surface triple ('a', 'of', 'b')",
            ),
            (
                read_parse_file,
                ["s1\t1\tdog\tNN\tnsubj\t0",
                 "s2\t1\tdog\tNN\tnsubj\t0",
                 "s1\t1\tcat\tNN\tdobj\t0"],
                "parse file line 4: duplicate offset 1 in sentence 's1'",
            ),
        ],
        ids=["gold", "decisions", "decorated", "scores", "parse-offsets"],
    )
    def test_repeated_key_fails_naming_second_line(self, read_fn, rows, message):
        text = "# header\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseFileError) as err:
            read_fn(io.StringIO(text))
        assert err.value.line_number == 4
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "read_fn, text, kind",
        [
            (read_pairs_file, "s1\t1,2\ta b\t1\ta\t\t2\n", "pairs file"),
            (read_pairs_file, "s1\t1,2,3\ta b\t1\ta\t\t2\tb\n", "pairs file"),
            (read_pairs_file, "s1\t1,2\ta  b\t1\ta\t\t2\tb\n", "pairs file"),
            (read_pairs_file, "s1\t1,+2\ta b\t1\ta\t\t2\tb\n", "pairs file"),
            (read_pairs_file, "s1\t1,2\ta b\t1\ta\t\t\u0662\tb\n", "pairs file"),
            (read_decorated_file, "1\ta\tof\tb\ta of b\t1\t-2\t3\n", "decorated pairs file"),
            (read_decorated_file, "1\ta\tof\tb\ta of b\t1\t+5\t3\n", "decorated pairs file"),
            (read_decorated_file, "1\ta\tof\tb\ta of b\t1_0\t2\t3\n", "decorated pairs file"),
            (read_decorated_file, "1\ta\tof\tb\ta of b\t1\t2\t\u0663\n", "decorated pairs file"),
            (read_decisions_file, "1\ta\tof\tb\t1\t1\t1\t1\tMAYBE\ta of b\n",
             "decisions file"),
            (read_scores_file, "a\tof\tb\tnan\t6.5\t1\tNA\n", "scores file"),
            (read_scores_file, "a\tof\tb\tinf\t6.5\t1\tNA\n", "scores file"),
            (read_scores_file, "a\tof\tb\t0.5\t6.5\t1\t-inf\n", "scores file"),
        ],
        ids=["pairs-columns", "pairs-stale-span", "pairs-stale-surface", "pairs-plus-sign",
             "pairs-arabic-digit", "decorated-negative", "decorated-plus-sign",
             "decorated-underscore", "decorated-arabic-digit", "decisions-label", "scores-nan",
             "scores-inf", "scores-idr-inf"],
    )
    def test_bad_row_names_file_kind_and_line(self, read_fn, text, kind):
        with pytest.raises(ParseFileError) as err:
            read_fn(io.StringIO("# header\n\n" + text))
        assert err.value.line_number == 3
        assert str(err.value).startswith("%s line 3: " % kind)


FIELD = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=6)
SURFACE = FIELD.filter(str.strip)  # a candidate surface is never blank


@st.composite
def candidate_pairs(draw):
    sentence_id = draw(FIELD.filter(str.strip))
    b = draw(st.one_of(st.just(""), st.sampled_from(["of", "and"]), FIELD))
    steps = draw(st.lists(st.integers(1, 3), min_size=2, max_size=6))
    split = draw(st.integers(1, len(steps) - 1))
    ax_span = tuple(itertools.accumulate(steps[:split]))
    ay_span = tuple(itertools.accumulate([ax_span[-1] + (2 if b else 1)] + steps[split:]))
    a_x = Candidate(sentence_id, ax_span, draw(SURFACE))
    return CandidatePair(a_x, b, Candidate(sentence_id, ay_span, draw(SURFACE)))


def one_holder_per_offset(pairs):
    """Every offset of a sentence is held by one candidate (span and surface) or one connector."""
    holders = {}
    for p in pairs:
        held = [(o, ("candidate", c.span, c.surface)) for c in (p.a_x, p.a_y) for o in c.span]
        held += [(p.a_x.end + 1, ("connector", p.b))] if p.b else []
        if any(holders.setdefault((p.sentence_id, o), h) != h for o, h in held):
            return False
    return True


@settings(max_examples=300, deadline=None)
@given(st.lists(candidate_pairs(), max_size=5))
def test_pairs_file_round_trip(pairs):
    # Pairs that give one offset of a sentence two holders (two candidates, two
    # connector lemmas, or a candidate and a connector) cannot all be decided, so the
    # reader refuses them; every other file reads back as written.
    if one_holder_per_offset(pairs):
        assert roundtrip(write_pairs_file, pairs, read_pairs_file) == pairs
    else:
        with pytest.raises(ParseFileError, match="in an earlier pair"):
            roundtrip(write_pairs_file, pairs, read_pairs_file)


TSV_FIELD = st.text(st.sampled_from("ab #\t\n\r"), max_size=4)


@settings(max_examples=200, deadline=None)
@given(TSV_FIELD, TSV_FIELD, TSV_FIELD,
       st.sampled_from(["", "of"]) | TSV_FIELD)
def test_a_pair_that_builds_reads_back(sentence_id, x_surface, y_surface, b):
    # The records refuse a tab or a line break in any field that the pairs file
    # holds, so whatever pair they accept is written as one row of eight columns.
    try:
        pair = CandidatePair(Candidate(sentence_id, (1,), x_surface), b,
                          Candidate(sentence_id, (3 if b else 2,), y_surface))
    except ValueError as exc:
        assert any(c in field for field in (sentence_id, x_surface, y_surface, b)
                   for c in "\t\n\r") or not (x_surface.strip() and y_surface.strip()), exc
        return
    assert roundtrip(write_pairs_file, [pair], read_pairs_file) == [pair]


# A first cell that a reader could take for a comment line, "#" after zero or more spaces.
HASHED = st.builds(str.__add__, st.sampled_from(["#", " #", "  #"]), FIELD)


@settings(max_examples=100, deadline=None)
@given(HASHED, SURFACE, st.integers(0, 10**12))
def test_first_cells_that_start_with_a_hash_read_back(tmp_path_factory, first, surface, count):
    # A line that starts with "#" is a comment: tsv_line writes one more space before a
    # first cell of spaces then "#", and read_rows drops it, whichever file holds the row.
    row = [first, surface, "%d" % count]
    assert list(read_rows([tsv_line(row)], 3, "rows", list)) == [row]
    pair = CandidatePair(Candidate(first, (1,), surface), "of", Candidate(first, (3,), surface))
    assert roundtrip(write_pairs_file, [pair], read_pairs_file) == [pair]
    evidence = EvidenceSet(count, count + 1, count + 2)
    record = DecisionRecord(first, pair.a_x.surface, pair.b, pair.a_y.surface, pair.s,
                            Score(0.5, 1.0, 2.0, 0.5), True, evidence)
    assert roundtrip(write_decorated_file, [record], read_decorated_file) == [(first, evidence)]
    assert roundtrip(write_decisions_file, [record], read_decisions_file) == {first: True}
    phrase = first + surface  # the cache writes it normalized, so after no space
    path = tmp_path_factory.mktemp("cache") / "cache.tsv"
    with CountCache(FixtureProvider({phrase: count}), path) as cache:
        assert cache.count(phrase) == count
    reopened = CountCache(FixtureProvider({}), path)
    assert (len(reopened), reopened.get(phrase)) == (1, count)


def test_pairs_file_span_with_two_surfaces_names_line():
    # Offset 2 cannot hold two candidates: with either one, decide would decide 'b c',
    # a pair this file never holds.
    text = "s\t1,2\ta b\t1\ta\t\t2\tb\ns\t2,3\tzz c\t2\tzz\t\t3\tc\n"
    with pytest.raises(ParseFileError) as err:
        read_pairs_file(io.StringIO(text))
    assert str(err.value) == ("pairs file line 2: offset 2 holds candidate 'zz' at 2 here "
                              "but candidate 'b' at 2 in an earlier pair")


def test_pairs_file_connector_with_two_lemmas_names_line():
    # Keeping one lemma for offset 2 would decide only one of 'a of b' and 'a in b'.
    rows = ["s\t1,2,3\ta of b\t1\ta\tof\t3\tb", "t\t1,2,3\ta in b\t1\ta\tin\t3\tb",
            "s\t1,2,3\ta of b\t1\ta\tof\t3\tb", "s\t1,2,3\ta in b\t1\ta\tin\t3\tb"]
    assert len(read_pairs_file(io.StringIO("\n".join(rows[:2]) + "\n"))) == 2
    with pytest.raises(ParseFileError) as err:
        read_pairs_file(io.StringIO("\n".join(rows[2:]) + "\n"))
    assert str(err.value) == ("pairs file line 2: offset 2 holds connector 'in' here "
                              "but connector 'of' in an earlier pair")


def test_pairs_file_holds_a_shared_candidate_once():
    # 'b' is the right side of the first pair and the left side of the second.
    first, second = read_pairs_file(io.StringIO(
        "s\t1,2\ta b\t1\ta\t\t2\tb\ns\t2,3,4\tb of c\t2\tb\tof\t4\tc\n"))
    assert second.a_x is first.a_y
    assert second.a_y.sentence_id is first.a_x.sentence_id


# Offset 2 is a candidate in the first row and a connector in the second; with both
# read, decide would pair 'b' with 'c' and decide 'b c', a pair the file never holds.
CANDIDATE_THEN_CONNECTOR = ["s\t1,2\ta b\t1\ta\t\t2\tb", "s\t1,2,3\ta of c\t1\ta\tof\t3\tc"]
# The third row's candidates 'a b' and 'c d' overlap the single-token candidates of the
# first two rows; decide would pair 'b' with 'c d' and decide 'b c d'.
OVERLAPPING_SPANS = ["s\t1,2\ta b\t1\ta\t\t2\tb", "s\t2,3\tb c\t2\tb\t\t3\tc",
                     "s\t1,2,3,4\ta b c d\t1,2\ta b\t\t3,4\tc d"]
OFFSET_CLASHES = [
    pytest.param(CANDIDATE_THEN_CONNECTOR, "pairs file line 2: offset 2 holds connector 'of' "
                 "here but candidate 'b' at 2 in an earlier pair", id="candidate-then-connector"),
    pytest.param(OVERLAPPING_SPANS, "pairs file line 3: offset 1 holds candidate 'a b' at 1,2 "
                 "here but candidate 'a' at 1 in an earlier pair", id="overlapping-spans"),
]


@pytest.mark.parametrize("rows, message", OFFSET_CLASHES)
def test_pairs_file_offset_with_two_holders_names_line(rows, message):
    with pytest.raises(ParseFileError) as err:
        read_pairs_file(io.StringIO("\n".join(rows) + "\n"))
    assert str(err.value) == message


@pytest.mark.parametrize("rows, message", OFFSET_CLASHES)
def test_decide_pairs_rejects_offset_with_two_holders(rows, message):
    # Each row alone passes the reader; together they reach decide_pairs unchecked.
    pairs = [pair for row in rows for pair in read_pairs_file(io.StringIO(row + "\n"))]
    with pytest.raises(ValueError) as err:
        decide_pairs(pairs, Thresholds(), FixtureProvider({}))
    assert str(err.value) == message.split(": ", 1)[1]


# Counts that make a side degenerate (0), give a side ID 0 (no more than the unit's
# count), or fall anywhere.
COUNT = st.sampled_from([0, 1, 7, 10**6, 3 * 10**6]) | st.integers(0, 10**7)


@st.composite
def chain_with_counts(draw):
    """One sentence of 2 to 5 one-token candidates, each gap a connector or none, its
    first-pass pairs, and a count for every phrase a run of merges can form."""
    gaps = draw(st.lists(st.sampled_from(["", "of", "and"]), min_size=1, max_size=4))
    tokens, candidates, connectors = ["w0"], [Candidate("s", (1,), "w0")], {}
    for i, b in enumerate(gaps, start=1):
        if b:
            tokens.append(b)
            connectors[len(tokens)] = b
        tokens.append("w%d" % i)
        candidates.append(Candidate("s", (len(tokens),), tokens[-1]))
    runs = [" ".join(tokens[x.start - 1:y.end]) for x in candidates for y in candidates
            if x.start <= y.start]
    return form_pairs(candidates, connectors), {run: draw(COUNT) for run in runs}


PERMISSIVE = Thresholds(mi_plus=-0.5, mi_minus=-1.0, id_t=0.0, idr_plus=10.0, idr_minus=-10.0)


@settings(max_examples=200, deadline=None)
@given(chain_with_counts(),
       st.sampled_from([Thresholds(), Thresholds(0.5, 0.01, 1.0, 2.0, 0.5), PERMISSIVE]),
       st.integers(1, 3))
def test_injected_scores_decide_as_counted(chain, thresholds, max_passes):
    """decide_pairs from counts, and again from the scores that run computed, injected:
    one decision path, so the same records, apart from the counts."""
    pairs, counts = chain
    try:
        records = decide_pairs(pairs, thresholds, FixtureProvider(counts), max_passes=max_passes)
    except UndefinedEvidenceError:
        assume(False)  # a pair whose three counts are all zero has no scores
    injected = {(r.a_x, r.b, r.a_y): r.score for r in records}
    again = decide_pairs(pairs, thresholds, injected=injected, max_passes=max_passes)
    assert again == [dataclasses.replace(r, evidence=None) for r in records]


class TestDecidePairs:
    def test_injected_scores_reproduce_reference_decisions(self, fixtures_dir):
        pairs = read_fixture(read_pairs_file, fixtures_dir / "reference_pairs.tsv")
        scores = read_fixture(read_scores_file, fixtures_dir / "reference_scores.tsv")
        records = decide_pairs(pairs, Thresholds(), injected=scores)
        assert [r.merged for r in records] == [True, False, False, False, False]
        assert [r.pair_id for r in records] == ["1", "2", "3", "4", "5"]

    def test_counts_provider_path(self, fixtures_dir):
        pair = two_candidate_pair()
        provider = FixtureProvider.from_file(fixtures_dir / "counts.json")
        (record,) = decide_pairs([pair], Thresholds(), provider=provider)
        assert record.merged is True
        assert record.evidence.n_s == 1_300_000
        assert record.score.mi == pytest.approx(1.8011305, abs=1e-6)

    def test_records_are_slotted_frozen_values(self, fixtures_dir):
        provider = FixtureProvider.from_file(fixtures_dir / "counts.json")
        (record,) = decide_pairs([two_candidate_pair()], Thresholds(), provider=provider)
        for value, field in ((record, "merged"), (record.evidence, "n_s")):
            assert not hasattr(value, "__dict__")
            assert dataclasses.replace(value) == value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, 0)

    def test_no_provider_and_no_scores_fails(self):
        with pytest.raises(ConfigError):
            decide_pairs([two_candidate_pair()], Thresholds())

    def test_merge_chain_repairs_to_fixpoint(self):
        # a(1) of(2) b(3) of(4) c(5): first "a of b" merges, then the
        # merged unit pairs with "c" across the second connector.
        a = Candidate("s", (1,), "a")
        b = Candidate("s", (3,), "b")
        c = Candidate("s", (5,), "c")
        pairs = [CandidatePair(a, "of", b), CandidatePair(b, "of", c)]
        provider = FixtureProvider(
            {
                "a": 6_000_000,
                "b": 7_000_000,
                "c": 4_000_000,
                "a of b": 5_000_000,
                "b of c": 10,
                "a of b of c": 3_000_000,
            }
        )
        records = decide_pairs(pairs, Thresholds(), provider=provider, max_passes=3)
        assert [(r.s, r.merged) for r in records] == [
            ("a of b", True),
            ("b of c", False),
            ("a of b of c", True),
        ]

    def test_max_passes_bounds_reparing(self):
        a = Candidate("s", (1,), "a")
        b = Candidate("s", (3,), "b")
        c = Candidate("s", (5,), "c")
        pairs = [CandidatePair(a, "of", b), CandidatePair(b, "of", c)]
        provider = FixtureProvider(
            {
                "a": 6_000_000,
                "b": 7_000_000,
                "c": 4_000_000,
                "a of b": 5_000_000,
                "b of c": 10,
                "a of b of c": 3_000_000,
            }
        )
        records = decide_pairs(pairs, Thresholds(), provider=provider, max_passes=1)
        assert [r.s for r in records] == ["a of b", "b of c"]

    @pytest.mark.parametrize("max_passes", [0, -1, True, 1.0])
    def test_max_passes_below_one_or_not_an_integer_fails(self, max_passes):
        with pytest.raises(ValueError, match="^max_passes must be an integer >= 1$"):
            decide_pairs([two_candidate_pair()], Thresholds(), injected={},
                         max_passes=max_passes)
        records = decide([], Thresholds(), max_passes=max_passes)  # a generator: not yet
        with pytest.raises(ValueError, match="^max_passes must be an integer >= 1$"):
            next(records)

    def test_pair_ids_are_sequential_across_sentences(self, fixtures_dir):
        pairs = read_fixture(read_pairs_file, fixtures_dir / "reference_pairs.tsv")
        scores = read_fixture(read_scores_file, fixtures_dir / "reference_scores.tsv")
        records = decide_pairs(pairs + [two_candidate_pair()], Thresholds(), injected=scores,
                               provider=FixtureProvider.from_file(fixtures_dir / "counts.json"))
        assert [r.pair_id for r in records] == [str(i) for i in range(1, 7)]

    def test_decorated_output_skips_injected_rows(self, fixtures_dir):
        pairs = read_fixture(read_pairs_file, fixtures_dir / "reference_pairs.tsv")
        scores = read_fixture(read_scores_file, fixtures_dir / "reference_scores.tsv")
        records = decide_pairs(pairs, Thresholds(), injected=scores)
        out = io.StringIO()
        write_decorated_file(records, out)
        data_lines = [l for l in out.getvalue().splitlines() if not l.startswith("#")]
        assert data_lines == []


class TestWarmCounts:
    def test_all_phrases_cached_once(self, tmp_path, fixtures_dir):
        with CountCache(FixtureProvider.from_file(fixtures_dir / "counts.json"),
                        tmp_path / "cache.tsv") as provider:
            n = warm_counts([two_candidate_pair()], provider)
            assert n == 3
            assert len(provider) == 3
            # warming again adds nothing
            warm_counts([two_candidate_pair()], provider)
        lines = (tmp_path / "cache.tsv").read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3

    def test_whitespace_variants_looked_up_once(self):
        class Counting:
            provider_id = "fixture"
            calls = 0

            def count(self, phrase):
                self.calls += 1
                return 1

        spaced = CandidatePair(Candidate("s2", (1, 2), "National  Institute"), "of",
                            Candidate("s2", (4, 5), "mental\u00a0health"))
        inner = Counting()
        assert warm_counts([two_candidate_pair(), spaced], inner) == 3
        assert inner.calls == 3


# (pos, lemma) choices, weighted towards nouns and connectors so that
# merges chain across passes.
WORDS = [("NN", "alpha"), ("NNS", "beta"), ("NNP", "gamma"), ("NN", "delta"),
         ("IN", "of"), ("IN", "on"), ("CC", "and"), ("CC", "or"), ("JJ", "new"),
         ("DT", "the")]
RELS = ["pobj", "pobj", "pobj", "dobj", "nn", "amod", "poss", "det"]


@st.composite
def parsed_sentences(draw):
    gaps = draw(st.lists(st.sampled_from([1, 1, 1, 1, 2]), min_size=4, max_size=16))
    offsets = [sum(gaps[: i + 1]) for i in range(len(gaps))]
    tokens = []
    for offset in offsets:
        pos, lemma = draw(st.sampled_from(WORDS))
        head = draw(st.sampled_from([0, 0, 0, offset + 1] + [o for o in offsets if o != offset]))
        tokens.append(ParseToken(offset, lemma, pos, draw(st.sampled_from(RELS)), head))
    return ParsedSentence("s", tuple(tokens))


class MergeEverything:
    """Every phrase counts 1, so MI = 1 / p(1/3), about 4.2, and every pair merges."""

    provider_id = "merge-everything"

    def count(self, phrase):
        return 1


def surfaces(pairs):
    return [(p.a_x.surface, p.b, p.a_y.surface, p.s) for p in pairs]


def record_surfaces(records):
    return [(r.a_x, r.b, r.a_y, r.s) for r in records]


@settings(max_examples=200, deadline=None)
@given(parsed_sentences())
def test_decide_pairs_like_the_pair_former_on_the_sentence(sentence):
    connectors = sentence_connectors(sentence)
    candidates = extract_candidates(sentence)
    extracted = form_pairs(candidates, connectors)
    pairs = roundtrip(write_pairs_file, extracted, read_pairs_file)

    first = decide_pairs(pairs, Thresholds(), provider=MergeEverything(), max_passes=1)
    assert record_surfaces(first) == surfaces(extracted)

    # With every pair merged, each later pass decides what the pair-former
    # finds over the merged candidates with the sentence's own connectors,
    # less the pairs already decided.
    expected, decided, current = [], set(), extracted
    for _ in range(5):
        expected += [p for p in current if p.key() not in decided]
        decided |= {p.key() for p in current}
        merged = merge_pass(current, candidates)
        if len(merged) == len(candidates):
            break
        candidates = merged
        current = form_pairs(candidates, connectors)
    records = decide_pairs(pairs, Thresholds(), provider=MergeEverything(), max_passes=5)
    assert record_surfaces(records) == surfaces(expected)
    # decide over the sentence's own tables decides as decide_pairs over its pairs.
    tables = [(extract_candidates(sentence), connectors)]
    assert list(decide(tables, Thresholds(), MergeEverything(), max_passes=5)) == records


class Recording:
    """Records the lookup key of every phrase asked.  A count is 1 to 1000, drawn from a
    hash of the key and a salt, so scores, and so merges, differ from phrase to phrase."""

    provider_id = "recording"

    def __init__(self, salt):
        self.salt, self.asked = salt, set()

    def count(self, phrase):
        key = normalize_phrase(phrase).lower()
        self.asked.add(key)
        return 1 + zlib.crc32(("%d %s" % (self.salt, key)).encode()) % 1000


@st.composite
def valid_thresholds(draw):
    mi_minus, mi_plus = sorted(draw(st.lists(st.floats(-1, 3), min_size=2, max_size=2)))
    idr_minus, idr_plus = sorted(draw(st.lists(st.floats(0, 3), min_size=2, max_size=2)))
    assume(mi_minus < mi_plus and idr_minus < idr_plus)
    return Thresholds(mi_plus, mi_minus, draw(st.floats(0, 12)), idr_plus, idr_minus)


@settings(max_examples=300, deadline=None)
@given(st.lists(parsed_sentences(), min_size=1, max_size=3), valid_thresholds(),
       st.integers(1, 5), st.integers(0, 999))
def test_closure_covers_every_phrase_a_decide_asks(sentences, thresholds, max_passes, salt):
    pairs = []
    for i, sentence in enumerate(sentences):
        sentence = dataclasses.replace(sentence, sentence_id="s%d" % i)
        pairs += form_pairs(extract_candidates(sentence), sentence_connectors(sentence))
    pairs = roundtrip(write_pairs_file, pairs, read_pairs_file)
    phrases = {normalize_phrase(p).lower() for s in sentences_of(pairs) for p in closure(*s)}
    provider = Recording(salt)
    records = decide_pairs(pairs, thresholds, provider, max_passes=max_passes)
    assert provider.asked <= phrases
    assert len(records) >= len(pairs)
