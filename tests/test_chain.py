"""The benchmark's command chains against its independent reference.

``perfbench/gen.py`` generates parse files, a corpus, fixture counts and
decorated pairs from a seed, and ``perfbench/reference.py`` computes
every output file without importing the package, with document counts
from a brute-force n-gram scan.  Both are loaded here by path and are not
edited.  Each seed runs the package as a benchmark workload's commands
do, on smaller inputs: ``extract`` and ``decide`` with a
``{"corpus": PATH}`` provider (parse file -> candidates and pairs files
-> pairs read back -> decide against the local index -> decisions and
decorated files); ``extract``, ``counts warm``, ``decide --cache`` and
``eval`` with fixture counts; and ``sweep`` over decorated pairs.  The
library's decide is also checked at random thresholds and merge passes.
"""

import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import types
import urllib.parse
from pathlib import Path
from unittest import mock

import pytest

import unithood
from unithood import Thresholds, extract_candidates, form_pairs, read_parse_file
from unithood.cli import main
from unithood.evidence import CountCache, LocalIndexProvider, PhraseCounts, load_corpus_file
from unithood.extractor import closure, sentence_connectors
from unithood.pipeline import (
    build_provider,
    decide_pairs,
    load_config,
    read_pairs_file,
    sentences_of,
    write_candidates_file,
    write_decisions_file,
    write_decorated_file,
    write_pairs_file,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # reference.py imports gen by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    with mock.patch.dict(sys.modules):  # gen and reference leave sys.modules afterwards
        yield _load("gen"), _load("reference")


def _text(write, items):
    stream = io.StringIO()
    write(items, stream)
    return stream.getvalue()


@pytest.mark.parametrize("seed", range(20))
def test_corpus_chain_matches_the_reference(perfbench, tmp_path, seed):
    gen, reference = perfbench
    inventory = gen.make_inventory(seed)
    sentences = gen.make_sentences(seed, inventory, 20)
    docs = gen.make_corpus(seed, inventory, sentences, 1000)
    gen.write_parse_file(sentences, tmp_path / "parse.tsv")
    (tmp_path / "corpus.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")

    with open(tmp_path / "parse.tsv", encoding="utf-8") as handle:
        parsed = read_parse_file(handle)
    candidates = [extract_candidates(sentence) for sentence in parsed]
    pairs = [pair for sentence, found in zip(parsed, candidates)
             for pair in form_pairs(found, sentence_connectors(sentence))]
    assert _text(write_candidates_file, sum(candidates, [])) == reference.candidates_file(
        sentences)
    pairs_text = _text(write_pairs_file, pairs)
    assert pairs_text == reference.pairs_file(sentences)
    with CountCache(load_corpus_file(tmp_path / "corpus.txt")) as provider:
        records = decide_pairs(read_pairs_file(io.StringIO(pairs_text)), Thresholds(), provider)

    oracle = reference.oracle_counts(docs, set().union(*map(reference.chain_phrases, sentences)))
    expected = reference.decide(sentences, lambda s, ax, ay: (oracle[s], oracle[ax], oracle[ay]),
                                inventory.units)
    assert records, "the seed forms no pair"
    assert _text(write_decisions_file, records) == reference.decisions_file(expected)
    assert _text(write_decorated_file, records) == reference.decorated_file(expected)


@pytest.mark.parametrize("seed", range(10))
def test_decide_pairs_matches_the_reference_at_any_thresholds(perfbench, monkeypatch, seed):
    """decide_pairs' decisions file equals the reference's at three draws of valid
    thresholds and one to five merge passes, with the corpus seed's document counts;
    the reference reads its thresholds and passes from module globals, set here."""
    gen, reference = perfbench
    inventory = gen.make_inventory(seed)
    sentences = gen.make_sentences(seed, inventory, 20)
    docs = gen.make_corpus(seed, inventory, sentences, 1000)
    oracle = reference.oracle_counts(docs, set().union(*map(reference.chain_phrases, sentences)))
    provider = types.SimpleNamespace(provider_id="oracle", count=oracle.__getitem__)
    pairs = read_pairs_file(io.StringIO(reference.pairs_file(sentences)))
    rng, later = random.Random(seed), 0
    for _ in range(3):
        mi_minus, mi_plus = sorted(rng.uniform(0, 3) for _ in range(2))
        idr_minus, idr_plus = sorted(rng.uniform(0.5, 2) for _ in range(2))
        thresholds = (mi_plus, mi_minus, rng.uniform(0, 4), idr_plus, idr_minus)
        max_passes = rng.randint(1, 5)
        monkeypatch.setattr(reference, "DEFAULT_THRESHOLDS", thresholds)
        monkeypatch.setattr(reference, "MAX_PASSES", max_passes)
        records = decide_pairs(pairs, Thresholds(*thresholds), provider, max_passes=max_passes)
        expected = reference.decide(
            sentences, lambda s, ax, ay: (oracle[s], oracle[ax], oracle[ay]), inventory.units)
        assert _text(write_decisions_file, records) == reference.decisions_file(expected), (
            thresholds, max_passes)
        later += len(records) - len(pairs)
    assert later > 0, "no later pass decided a pair"


@pytest.mark.parametrize("seed", range(3))
def test_cli_decide_matches_the_library(perfbench, tmp_path, monkeypatch, seed):
    """The CLI writes each row as it decides; its files equal the library's writers
    applied to decide_pairs' list, byte for byte."""
    gen, _ = perfbench
    inventory = gen.make_inventory(seed)
    sentences = gen.make_sentences(seed, inventory, 20)
    docs = gen.make_corpus(seed, inventory, sentences, 1000)
    gen.write_parse_file(sentences, tmp_path / "parse.tsv")
    (tmp_path / "corpus.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({"provider": {"corpus": "corpus.txt"}}))
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]) == 0
    assert main(["--config", "config.json", "decide", "pairs.tsv", "--out", "decisions.tsv",
                 "--decorated-out", "decorated.tsv"]) == 0

    with open("pairs.tsv", encoding="utf-8") as handle:
        pairs = read_pairs_file(handle)
    with CountCache(load_corpus_file("corpus.txt")) as provider:
        records = decide_pairs(pairs, Thresholds(), provider)
    assert records, "the seed forms no pair"
    for name, write in (("decisions.tsv", write_decisions_file),
                        ("decorated.tsv", write_decorated_file)):
        assert (tmp_path / name).read_text(encoding="utf-8") == _text(write, records)


class Asked:
    """A provider that passes each lookup on and records its lookup key."""

    def __init__(self, inner):
        self.inner, self.provider_id, self.keys = inner, inner.provider_id, set()

    def count(self, phrase):
        self.keys.add(" ".join(phrase.lower().split()))
        return self.inner.count(phrase)


def _corpus_chain(gen, directory, seed, sentences, documents):
    """Write a seed's parse file, corpus and corpus config; return the corpus's documents."""
    inventory = gen.make_inventory(seed)
    parsed = gen.make_sentences(seed, inventory, sentences)
    docs = gen.make_corpus(seed, inventory, parsed, documents)
    gen.write_parse_file(parsed, directory / "parse.tsv")
    (directory / "corpus.txt").write_text("\n".join(docs) + "\n", encoding="utf-8")
    (directory / "config.json").write_text(json.dumps({"provider": {"corpus": "corpus.txt"}}))
    return docs


@pytest.mark.parametrize("seed", range(20))
def test_cli_corpus_decide_counts_the_closure_as_the_whole_index(perfbench, tmp_path,
                                                                  monkeypatch, seed):
    """The CLI's decide counts only the closure of its pairs, here in blocks of 256 of the
    1000 documents by one to three processes, and writes what decide_pairs writes over a
    whole-file index; every phrase that library run asks, under one to five merge passes,
    is in the closure."""
    gen, _ = perfbench
    _corpus_chain(gen, tmp_path, seed, 20, 1000)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1 + seed % 3)))
    assert main(["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]) == 0
    assert main(["--config", "config.json", "decide", "pairs.tsv", "--out", "decisions.tsv",
                 "--decorated-out", "decorated.tsv"]) == 0

    with open("pairs.tsv", encoding="utf-8") as handle:
        pairs = read_pairs_file(handle)
    closure_keys = {" ".join(p.lower().split())
                    for s in sentences_of(pairs) for p in closure(*s)}
    index = load_corpus_file("corpus.txt")
    asked = Asked(index)
    records = decide_pairs(pairs, Thresholds(), CountCache(asked))
    assert records, "the seed forms no pair"
    for name, write in (("decisions.tsv", write_decisions_file),
                        ("decorated.tsv", write_decorated_file)):
        assert (tmp_path / name).read_text(encoding="utf-8") == _text(write, records)
    for max_passes in (1, 2, 4, 5):
        decide_pairs(pairs, Thresholds(), CountCache(asked), max_passes=max_passes)
    assert asked.keys <= closure_keys


@pytest.mark.parametrize("seed", range(20))
def test_build_provider_given_sentences_decides_as_the_whole_index(perfbench, tmp_path,
                                                                    monkeypatch, seed):
    """build_provider, given each parsed sentence's candidates and connectors, counts their
    closure, here in blocks of 256 of the 1000 documents by one to three processes;
    decide_pairs over it returns what it returns over the whole-file index that
    build_provider builds without them."""
    gen, _ = perfbench
    _corpus_chain(gen, tmp_path, seed, 20, 1000)
    monkeypatch.setattr(PhraseCounts, "_BLOCK_DOCUMENTS", 256)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(1 + (seed + 1) % 3)))
    with open(tmp_path / "parse.tsv", encoding="utf-8") as handle:
        parsed = read_parse_file(handle)
    sentences = [(extract_candidates(s), sentence_connectors(s)) for s in parsed]
    pairs = [pair for sentence in sentences for pair in form_pairs(*sentence)]
    config = load_config(tmp_path / "config.json")
    with build_provider(config, sentences) as provider:
        assert isinstance(provider.inner, PhraseCounts)
        records = decide_pairs(pairs, Thresholds(), provider)
    with build_provider(config) as provider:
        assert isinstance(provider.inner, LocalIndexProvider)
        assert decide_pairs(pairs, Thresholds(), provider) == records
    assert records, "the seed forms no pair"


def _peak_kb(cwd, *argv):
    """The peak resident set, VmHWM in kB, of the CLI run with argv in a fresh process."""
    script = ("import sys\nfrom unithood.cli import main\ncode = main(sys.argv[1:])\n"
              "with open('/proc/self/status') as status:\n"
              "    print(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
              "sys.exit(code)\n")
    result = subprocess.run(
        [sys.executable, "-c", script, *argv], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(unithood.__file__).parents[1])}, timeout=300)
    assert result.returncode == 0, result.stderr
    return int(result.stdout.split()[-1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
def test_corpus_decide_peak_memory_does_not_grow_with_the_corpus(perfbench, tmp_path):
    """A corpus decide holds one block of the corpus at a time, so on a corpus four times
    as large, with the same pairs, its peak resident set is within 2 MB of the first's.  A
    whole-file index of these 8,192 and 32,768 documents peaks several MB apart."""
    gen, _ = perfbench
    docs = _corpus_chain(gen, tmp_path, 3, 50, 8192)
    (tmp_path / "large.txt").write_text("\n".join(docs * 4) + "\n", encoding="utf-8")
    (tmp_path / "large.json").write_text(json.dumps({"provider": {"corpus": "large.txt"}}))
    assert main(["extract", str(tmp_path / "parse.tsv"), str(tmp_path / "candidates.tsv"),
                 str(tmp_path / "pairs.tsv")]) == 0
    small, large = (_peak_kb(tmp_path, "--config", config, "decide", "pairs.tsv", "--out", out)
                    for config, out in (("config.json", "small.tsv"), ("large.json", "large.tsv")))
    assert abs(large - small) < 2048, (small, large)


def _bulk_chain(gen, reference, directory, seed, sentences):
    """Write the bulk_cached workload's inputs at this many sentences: a parse file, the
    fixture counts it asks for, their config and the gold labels.  Return the counts, the
    reference's decision records and its candidates, pairs, decisions and eval report."""
    inventory = gen.make_inventory(seed)
    parsed = gen.make_sentences(seed, inventory, sentences)
    gen.write_parse_file(parsed, directory / "parse.tsv")
    counts = gen.FixtureCounts(seed, inventory.units)

    def count(s, ax, ay):  # as perfbench/run.py's bulk_cached draws them
        n_ax, n_ay = (counts.table[p] if p in counts.table else counts.term(p) for p in (ax, ay))
        return counts.linked(s, n_ax, n_ay), n_ax, n_ay

    records = reference.decide(parsed, count, inventory.units)
    assert records, "the seed forms no pair"
    gen.write_json(counts.table, directory / "counts.json")
    gen.write_json({"provider": {"fixture": "counts.json"}}, directory / "config.json")
    gen.write_gold([(str(i), r[-1]) for i, r in enumerate(records, start=1)],
                   directory / "gold.tsv")
    return counts.table, records, {
        "candidates.tsv": reference.candidates_file(parsed),
        "pairs.tsv": reference.pairs_file(parsed),
        "decisions.tsv": reference.decisions_file(records),
        "eval.txt": reference.eval_output([r[-2] for r in records], [r[-1] for r in records]),
    }


@pytest.mark.parametrize("seed", range(4))
def test_bulk_cached_chain_matches_the_reference(perfbench, tmp_path, monkeypatch, capsys, seed):
    """The bulk_cached chain at 100 sentences: extract, counts warm into an empty cache,
    decide from the cache, eval.  Every file equals the reference's, and the cache holds one
    row for each phrase the reference asked, with its fixture count."""
    gen, reference = perfbench
    table, _, expected = _bulk_chain(gen, reference, tmp_path, seed, 100)
    monkeypatch.chdir(tmp_path)
    cached = ["--config", "config.json", "--cache", "cache.tsv"]
    assert main(["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]) == 0
    assert main(cached + ["counts", "warm", "pairs.tsv"]) == 0
    assert main(cached + ["decide", "pairs.tsv", "--out", "decisions.tsv"]) == 0
    capsys.readouterr()
    assert main(["eval", "decisions.tsv", "gold.tsv"]) == 0
    (tmp_path / "eval.txt").write_text(capsys.readouterr().out, encoding="utf-8")
    for name, text in expected.items():
        assert (tmp_path / name).read_text(encoding="utf-8") == text, name
    rows = [line.split("\t") for line in (tmp_path / "cache.tsv").read_text().splitlines()]
    assert len(rows) == len(table)
    assert {phrase.lower(): int(count) for phrase, count, _, _ in rows} == table


@pytest.mark.parametrize("seed", range(3))
def test_eval_matches_the_reference(perfbench, tmp_path, capsys, seed):
    """eval's report on the reference's decisions, on all of them and on the first one, with
    the gold labels as drawn and flipped; a table with an empty margin reports NA."""
    gen, reference = perfbench
    _, records, _ = _bulk_chain(gen, reference, tmp_path, seed, 30)
    for rows, flip in ((len(records), False), (len(records), True), (1, False), (1, True)):
        decided = [r[-2] for r in records[:rows]]
        gold = [r[-1] != flip for r in records[:rows]]
        (tmp_path / "decisions.tsv").write_text(reference.decisions_file(records[:rows]))
        gen.write_gold(list(zip(map(str, range(1, rows + 1)), gold)), tmp_path / "gold.tsv")
        capsys.readouterr()
        assert main(["eval", str(tmp_path / "decisions.tsv"), str(tmp_path / "gold.tsv")]) == 0
        assert capsys.readouterr().out == reference.eval_output(decided, gold), (rows, flip)


@pytest.mark.parametrize("seed", range(3))
def test_sweep_matches_the_reference(perfbench, tmp_path, seed):
    """sweep's file on the sweep_grid workload's 360-point grid, over 200 decorated pairs."""
    gen, reference = perfbench
    rows = gen.make_decorated(seed, gen.make_inventory(seed), 200)
    gen.write_decorated(rows, tmp_path / "decorated.tsv")
    gen.write_gold([(r.pair_id, r.gold) for r in rows], tmp_path / "gold.tsv")
    gen.write_json(gen.SWEEP_GRID, tmp_path / "grid.json")
    assert main(["sweep"] + [str(tmp_path / name) for name in ("decorated.tsv", "gold.tsv",
                                                                "grid.json")]
                + ["--out", str(tmp_path / "sweep.tsv")]) == 0
    assert (tmp_path / "sweep.tsv").read_text(encoding="utf-8") == reference.sweep_file(
        [(r.n_s, r.n_ax, r.n_ay) for r in rows], [r.gold for r in rows])


def test_bulk_decide_served_by_a_loopback_server_matches_the_fixture_run(
        perfbench, tmp_path, monkeypatch, count_server):
    """The bulk_cached decide with its counts served by a loopback search endpoint, one
    request for each phrase, writes the fixture run's decisions byte for byte; run again
    with the server stopped, it decides the same from its cache and makes no request."""
    gen, reference = perfbench
    table, _, expected = _bulk_chain(gen, reference, tmp_path, 1, 50)

    def reply(path):
        phrase = urllib.parse.parse_qs(urllib.parse.urlsplit(path).query)["q"][0]
        return 200, {}, json.dumps({"total": table[phrase.strip('"').lower()]}).encode()

    count_server.reply = reply
    remote = {"endpoint_template": count_server.url + "/?q={query}", "count_path": "total",
              "min_delay_ms": 0}
    gen.write_json({"provider": {"remote": remote}}, tmp_path / "remote.json")
    monkeypatch.chdir(tmp_path)
    assert main(["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]) == 0
    assert main(["--config", "config.json", "decide", "pairs.tsv", "--out", "fixture.tsv"]) == 0
    decide = ["--config", "remote.json", "--cache", "cache.tsv", "decide", "pairs.tsv", "--out"]
    assert main(decide + ["served.tsv"]) == 0
    assert len(count_server.paths) == len(set(count_server.paths)) == len(table)
    count_server.stop()
    assert main(decide + ["cached.tsv"]) == 0
    assert len(count_server.paths) == len(table)
    fixture = (tmp_path / "fixture.tsv").read_text(encoding="utf-8")
    assert fixture == expected["decisions.tsv"]
    for name in ("served.tsv", "cached.tsv"):
        assert (tmp_path / name).read_text(encoding="utf-8") == fixture, name
