import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import urllib.parse
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unithood
from unithood import FixtureProvider, ParseFileError, cli, pipeline, read_parse_file
from unithood.cli import main
from unithood.evidence import CountCache, load_corpus_file
from unithood.parse_ingest import parse_whole, read_rows


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def extracted(tmp_path, fixtures_dir, capsys):
    candidates = tmp_path / "candidates.tsv"
    pairs = tmp_path / "pairs.tsv"
    code, _, err = run(
        capsys, "extract", fixtures_dir / "sample_parse.tsv", candidates, pairs
    )
    assert code == 0
    return candidates, pairs


class TestExtract:
    def test_sample_outputs(self, extracted, capsys):
        candidates, pairs = extracted
        candidate_rows = [
            l for l in candidates.read_text().splitlines() if not l.startswith("#")
        ]
        assert len(candidate_rows) == 6
        pair_rows = [l for l in pairs.read_text().splitlines() if not l.startswith("#")]
        assert len(pair_rows) == 1
        assert "National Institute of Mental Health" in pair_rows[0]

    def test_counts_on_stderr(self, tmp_path, fixtures_dir, capsys):
        code, out, err = run(
            capsys,
            "extract",
            fixtures_dir / "sample_parse.tsv",
            tmp_path / "c.tsv",
            tmp_path / "p.tsv",
        )
        assert code == 0
        assert "6 candidate(s)" in err
        assert "1 pair(s)" in err

    def test_empty_parse_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("# nothing here\n", encoding="utf-8")
        code, _, _ = run(capsys, "extract", empty, tmp_path / "c.tsv", tmp_path / "p.tsv")
        assert code == 0
        assert (tmp_path / "c.tsv").read_text().startswith("#")

    def test_malformed_row_fails_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("s1\t1\tdog\tNN\tnsubj\t0\ns1\toops\n", encoding="utf-8")
        code, _, err = run(capsys, "extract", bad, tmp_path / "c.tsv", tmp_path / "p.tsv")
        assert code == 1
        assert "line 2" in err

    def test_jobs_option_rejected(self, tmp_path, fixtures_dir, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run(capsys, "--jobs", 2, "extract", fixtures_dir / "sample_parse.tsv",
                tmp_path / "c.tsv", tmp_path / "p.tsv")
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not (tmp_path / "c.tsv").exists()


class TestDecide:
    def test_fixture_pipeline(self, extracted, fixtures_dir, tmp_path, capsys):
        _, pairs = extracted
        decisions = tmp_path / "decisions.tsv"
        code, _, err = run(
            capsys,
            "--config",
            fixtures_dir / "config.json",
            "decide",
            pairs,
            "--out",
            decisions,
        )
        assert code == 0
        assert "1 merged" in err
        row = [l for l in decisions.read_text().splitlines() if not l.startswith("#")][0]
        fields = row.split("\t")
        assert fields[0] == "1"
        assert fields[8] == "MERGED"
        assert fields[7] == "1.8011"

    def test_reference_scores_reproduced(self, fixtures_dir, tmp_path, capsys):
        decisions = tmp_path / "decisions.tsv"
        code, _, _ = run(
            capsys,
            "decide",
            fixtures_dir / "reference_pairs.tsv",
            "--scores",
            fixtures_dir / "reference_scores.tsv",
            "--out",
            decisions,
        )
        assert code == 0
        rows = [l.split("\t") for l in decisions.read_text().splitlines() if not l.startswith("#")]
        assert [r[8] for r in rows] == ["MERGED"] + ["NOTMERGED"] * 4
        # scores echo verbatim at 4 decimals
        assert rows[0][4:8] == ["1.6989", "7.3765", "0.2303", "1.5466"]

    def test_scores_leave_their_pairs_out_of_the_decorated_file(self, fixtures_dir, tmp_path,
                                                                  capsys):
        """A decorated row carries raw counts, and injected scores have none: each pair they
        decide is left out of the decorated file, and a note on stderr says how many."""
        code, out, err = run(capsys, "decide", fixtures_dir / "reference_pairs.tsv",
                             "--scores", fixtures_dir / "reference_scores.tsv",
                             "--out", tmp_path / "decisions.tsv",
                             "--decorated-out", tmp_path / "decorated.tsv")
        assert (code, out) == (0, "")
        assert err == ("5 pair(s) decided from injected scores carry no raw counts and were "
                       "left out of the decorated file\ndecided 5 pair(s): 1 merged, "
                       "4 not merged\n")
        assert (tmp_path / "decorated.tsv").read_text(encoding="utf-8") == (
            "# pair_id\ta_x\tb\ta_y\ts\tn_s\tn_ax\tn_ay\n")

    def test_decisions_on_stdout_by_default(self, fixtures_dir, capsys):
        code, out, _ = run(
            capsys,
            "decide",
            fixtures_dir / "reference_pairs.tsv",
            "--scores",
            fixtures_dir / "reference_scores.tsv",
        )
        assert code == 0
        assert out.count("NOTMERGED") == 4

    def test_connector_with_two_lemmas_fails(self, tmp_path, capsys):
        # Keeping the last lemma would decide 'a in b' only and drop 'a of b' unreported.
        pairs, scores = tmp_path / "cp.tsv", tmp_path / "cs.tsv"
        pairs.write_text("s\t1,2,3\ta of b\t1\ta\tof\t3\tb\n"
                         "s\t1,2,3\ta in b\t1\ta\tin\t3\tb\n", encoding="utf-8")
        scores.write_text("a\tof\tb\t1\t7\t7\t1\na\tin\tb\t1\t7\t7\t1\n", encoding="utf-8")
        code, out, err = run(capsys, "decide", pairs, "--scores", scores)
        assert (code, out) == (1, "")
        assert err == ("error: pairs file line 2: offset 2 holds connector 'in' here "
                       "but connector 'of' in an earlier pair\n")

    def test_empty_pairs_file(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header only\n", encoding="utf-8")
        decisions = tmp_path / "decisions.tsv"
        code, _, _ = run(capsys, "decide", pairs, "--out", decisions)
        assert code == 0
        assert decisions.read_text().startswith("#")

    def test_missing_count_names_phrase(self, extracted, tmp_path, capsys):
        _, pairs = extracted
        fixture = tmp_path / "counts.json"
        fixture.write_text(json.dumps({"national institute": 1}), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"provider": {"fixture": "counts.json"}}))
        code, _, err = run(
            capsys, "--config", config, "decide", pairs, "--out", tmp_path / "d.tsv"
        )
        assert code == 1
        assert "National Institute of Mental Health" in err

    def test_missing_policy_zero_decides_anyway(self, extracted, tmp_path, capsys):
        _, pairs = extracted
        fixture = tmp_path / "counts.json"
        fixture.write_text("{}", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"provider": {"fixture": "counts.json"}, "missing_count_policy": "zero"}
            )
        )
        code, _, err = run(
            capsys, "--config", config, "decide", pairs, "--out", tmp_path / "d.tsv"
        )
        assert code == 1  # all-zero evidence is undefined, reported as an error
        assert "error" in err

    def test_missing_policy_zero_caches_no_invented_count(self, extracted, tmp_path, capsys):
        _, pairs = extracted
        table = {"National Institute of Mental Health": 5}
        (tmp_path / "counts.json").write_text(json.dumps(table), encoding="utf-8")
        for policy in ("zero", "error"):
            config = {"provider": {"fixture": "counts.json"}, "missing_count_policy": policy}
            (tmp_path / ("%s.json" % policy)).write_text(json.dumps(config))
        cache = tmp_path / "cache.tsv"
        code, _, err = run(capsys, "--config", tmp_path / "zero.json", "--cache", cache,
                           "decide", pairs, "--out", tmp_path / "d.tsv")
        assert code == 0, err
        assert [line.split("\t")[:3] for line in cache.read_text().splitlines()] == [
            ["National Institute of Mental Health", "5", "fixture"]]
        code, _, err = run(capsys, "--config", tmp_path / "error.json", "--cache", cache,
                           "decide", pairs, "--out", tmp_path / "d.tsv")
        assert code == 1
        assert "error: no count recorded for phrase 'National Institute'" in err

    def test_corpus_not_utf8_names_file_and_line(self, extracted, tmp_path, capsys):
        _, pairs = extracted
        corpus = tmp_path / "corpus.txt"
        corpus.write_bytes(b"National Institute\nof Mental \xff Health\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"provider": {"corpus": "corpus.txt"}}))
        code, _, err = run(capsys, "--config", config, "decide", pairs)
        assert code == 1
        assert err.startswith("error: corpus %s line 2: 'utf-8' codec can't decode byte 0xff"
                              % corpus)
        assert err.count("\n") == 1

    def test_zero_counts_error_names_pair_and_phrase(self, extracted, tmp_path, capsys):
        _, pairs = extracted
        (tmp_path / "counts.json").write_text("{}", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {"provider": {"fixture": "counts.json"}, "missing_count_policy": "zero"}
            )
        )
        code, _, err = run(capsys, "--config", config, "decide", pairs)
        assert code == 1
        assert (
            "error: pair 1 ('National Institute of Mental Health'): all counts are zero"
            in err
        )

    def test_count_above_2_53_fails_cleanly(self, extracted, fixtures_dir, tmp_path, capsys):
        """A count too large for a finite MI is refused, not divided by zero, and no
        decisions file is left."""
        _, pairs = extracted
        counts = json.loads((fixtures_dir / "counts.json").read_text(encoding="utf-8"))
        counts["national institute of mental health"] = 10**170
        (tmp_path / "counts.json").write_text(json.dumps(counts), encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"provider": {"fixture": "counts.json"}}))
        decisions = tmp_path / "decisions.tsv"
        code, out, err = run(capsys, "--config", config, "decide", pairs, "--out", decisions)
        assert (code, out, err) == (1, "", "error: counts must be at most 2**53\n")
        assert not decisions.exists()

    def test_threshold_override_changes_decision(self, extracted, fixtures_dir, tmp_path, capsys):
        _, pairs = extracted
        decisions = tmp_path / "decisions.tsv"
        code, _, _ = run(
            capsys,
            "--config",
            fixtures_dir / "config.json",
            "decide",
            pairs,
            "--out",
            decisions,
            "--threshold",
            "mi_plus=5",
        )
        assert code == 0
        row = [l for l in decisions.read_text().splitlines() if not l.startswith("#")][0]
        assert row.split("\t")[8] == "NOTMERGED"

    def test_bad_threshold_override(self, extracted, capsys):
        _, pairs = extracted
        code, _, err = run(capsys, "decide", pairs, "--threshold", "mi_plus")
        assert code == 1
        assert "name=value" in err

    @pytest.mark.parametrize("value", ["abc", "nan", "-inf", "1e400"])
    def test_threshold_value_error_names_threshold(self, extracted, fixtures_dir, capsys, value):
        _, pairs = extracted
        config = fixtures_dir / "config.json"
        code, out, err = run(
            capsys, "--config", config, "decide", pairs, "--threshold", "mi_plus=%s" % value
        )
        assert code == 1
        assert out == ""
        assert err == 'error: threshold \'mi_plus\' holds "%s", not a finite number\n' % value

    @pytest.mark.parametrize("passes", ["2.5", "true"])
    def test_bad_max_merge_passes_fails_cleanly(self, extracted, fixtures_dir, tmp_path, capsys,
                                                passes):
        _, pairs = extracted
        config = tmp_path / "config.json"
        config.write_text('{"provider": {"fixture": "%s"}, "max_merge_passes": %s}'
                          % (fixtures_dir / "counts.json", passes), encoding="utf-8")
        code, out, err = run(capsys, "--config", config, "decide", pairs)
        assert (code, out) == (1, "")
        message = "invalid config %s: max_merge_passes must be an integer >= 1" % config
        assert err == "error: %s\n" % message

    def test_decorated_out(self, extracted, fixtures_dir, tmp_path, capsys):
        _, pairs = extracted
        decorated = tmp_path / "decorated.tsv"
        code, _, _ = run(
            capsys,
            "--config",
            fixtures_dir / "config.json",
            "decide",
            pairs,
            "--out",
            tmp_path / "d.tsv",
            "--decorated-out",
            decorated,
        )
        assert code == 0
        row = [l for l in decorated.read_text().splitlines() if not l.startswith("#")][0]
        assert row.split("\t")[5:8] == ["1300000", "2100000", "14000000"]


    @pytest.mark.parametrize(
        "pairs_row, scores_row, message",
        [
            ("s1\t1,x\ta b\t1\ta\t\tx\tb\n", None, "pairs file line 3"),
            (None, "a\t\tb\t0.5\thigh\t1\tNA\n", "scores file line 3"),
            (None, "a\t\tb\t0.5\t6\t1\tNA\n" * 2, "scores file line 4"),
        ],
        ids=["pairs-bad-span", "scores-bad-float", "scores-duplicate-triple"],
    )
    def test_malformed_row_fails_with_line_number(
        self, tmp_path, capsys, pairs_row, scores_row, message
    ):
        good_pair = "s1\t1,2\ta b\t1\ta\t\t2\tb\n"
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text("# header\n" + good_pair + (pairs_row or ""), encoding="utf-8")
        scores = tmp_path / "scores.tsv"
        scores.write_text("# header\n\n" + (scores_row or ""), encoding="utf-8")
        code, _, err = run(capsys, "decide", pairs, "--scores", scores)
        assert code == 1
        assert message in err


@pytest.mark.parametrize(
    "name, value",
    [("id_t", "true"), ("id_t", '"x"'), ("id_t", "null"), ("id_t", "1e400"), ("id_x", "1"),
     ("id_x", "[]")],
    ids=["true", "string", "null", "overflow", "unknown-name", "unknown-name-no-values"],
)
@pytest.mark.parametrize("source", ["config", "grid", "--threshold"])
def test_bad_threshold_fails_naming_it(extracted, fixtures_dir, tmp_path, capsys, source, name,
                                       value):
    # Config files, grid specs and --threshold go through one check, so each
    # names the threshold; an unknown name reads the same from all three.
    _, pairs = extracted
    config = tmp_path / "config.json"
    if source == "config":
        config.write_text('{"provider": {"fixture": "%s"}, "thresholds": {"%s": %s}}'
                          % (fixtures_dir / "counts.json", name, value), encoding="utf-8")
        argv = ["--config", config, "decide", pairs]
    elif source == "grid":  # a list value is the whole axis
        axis = value if value.startswith("[") else "[%s]" % value
        argv = ["sweep", fixtures_dir / "decorated_pairs.tsv", fixtures_dir / "sweep_gold.tsv",
                '{"%s": %s}' % (name, axis)]
    else:
        argv = ["--config", fixtures_dir / "config.json", "decide", pairs,
                "--threshold", "%s=%s" % (name, value)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'%s'" % name in err
    if source == "config":
        assert err.startswith("error: invalid config %s: " % config)
    if name == "id_x":
        assert err.endswith(" unknown threshold 'id_x'\n")


class TestEval:
    def make_files(self, tmp_path, decisions, gold):
        d = tmp_path / "decisions.tsv"
        lines = []
        for pid, merged in decisions.items():
            verdict = "MERGED" if merged else "NOTMERGED"
            lines.append(
                "\t".join([pid, "a", "of", "b", "1", "1", "1", "1", verdict, "a of b"])
            )
        d.write_text("\n".join(lines) + "\n", encoding="utf-8")
        g = tmp_path / "gold.tsv"
        g.write_text(
            "".join(
                "%s\t%s\n" % (pid, "MERGED" if merged else "NOTMERGED")
                for pid, merged in gold.items()
            ),
            encoding="utf-8",
        )
        return d, g

    def test_reference_table(self, tmp_path, capsys):
        decisions = {}
        gold = {}
        for i in range(449):
            decisions["tp%d" % i] = gold["tp%d" % i] = True
        for i in range(6):
            decisions["fp%d" % i], gold["fp%d" % i] = True, False
        for i in range(40):
            decisions["fn%d" % i], gold["fn%d" % i] = False, True
        for i in range(510):
            decisions["tn%d" % i] = gold["tn%d" % i] = False
        d, g = self.make_files(tmp_path, decisions, gold)
        code, out, _ = run(capsys, "eval", d, g)
        assert code == 0
        assert "tp\t449" in out
        assert "fp\t6" in out
        assert "fn\t40" in out
        assert "tn\t510" in out
        assert "precision\t98.68%" in out
        assert "recall\t91.82%" in out
        assert "accuracy\t95.42%" in out
        assert "f1\t95.13%" in out
        assert "paper_f\t90.61%" in out

    def test_identical_files_all_perfect(self, tmp_path, capsys):
        labels = {"1": True, "2": False}
        d, g = self.make_files(tmp_path, labels, labels)
        code, out, _ = run(capsys, "eval", d, g)
        assert code == 0
        for metric in ("precision", "recall", "f1", "accuracy"):
            assert "%s\t100.00%%" % metric in out

    def test_disjoint_ids_fail_listing_orphans(self, tmp_path, capsys):
        d, g = self.make_files(tmp_path, {"1": True}, {"9": True})
        code, _, err = run(capsys, "eval", d, g)
        assert code == 1
        assert "orphan pair id: 1" in err

    def test_extra_gold_warns(self, tmp_path, capsys):
        d, g = self.make_files(tmp_path, {"1": True}, {"1": True, "2": False})
        code, _, err = run(capsys, "eval", d, g)
        assert code == 0
        assert "warning" in err


class TestSweep:
    def test_fixture_sweep_recall_monotone_in_id_t(self, fixtures_dir, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        code, _, _ = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            json.dumps({"id_t": [3, 6, 9]}),
            "--out",
            report,
        )
        assert code == 0
        rows = [
            l.split("\t") for l in report.read_text().splitlines() if not l.startswith("#")
        ]
        recall_by_id_t = {float(r[2]): float(r[10]) for r in rows}
        assert recall_by_id_t[3.0] >= recall_by_id_t[6.0] >= recall_by_id_t[9.0]

    def test_single_point_matches_eval(self, fixtures_dir, tmp_path, capsys):
        report = tmp_path / "report.tsv"
        code, _, _ = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            "{}",
            "--out",
            report,
        )
        assert code == 1  # empty grid is rejected

        code, _, _ = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            json.dumps({"id_t": [6]}),
            "--out",
            report,
        )
        assert code == 0
        (row,) = [
            l.split("\t") for l in report.read_text().splitlines() if not l.startswith("#")
        ]
        # defaults over the bundled decorated pairs: tp=5 fp=1 fn=4 tn=3
        assert row[5:9] == ["5", "1", "4", "3"]

    def test_inline_grid_not_utf8(self, fixtures_dir, capsys):
        """An inline spec is parsed from the bytes given on the command line."""
        code, _, err = run(capsys, "sweep", fixtures_dir / "decorated_pairs.tsv",
                           fixtures_dir / "sweep_gold.tsv", os.fsdecode(b'{"id_t": [6\xff]}'))
        assert (code, err) == (1, "error: grid spec is not valid JSON: 'utf-8' codec can't "
                                  "decode byte 0xff in position 11: invalid start byte\n")

    def test_malformed_grid(self, fixtures_dir, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            "{not json",
        )
        assert code == 1
        assert "grid" in err

    @pytest.mark.parametrize(
        "spec, message",
        [
            ('{"id_t": [3], "id_t": [6]}', "grid spec repeats key 'id_t'"),
            ("grid.json", "grid spec {dir}/grid.json repeats key 'id_t'"),
        ],
        ids=["inline", "file"],
    )
    def test_grid_repeated_key(self, fixtures_dir, tmp_path, capsys, spec, message):
        (tmp_path / "grid.json").write_text('{"id_t": [3], "id_t": [6]}', encoding="utf-8")
        code, out, err = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            spec if spec.startswith("{") else tmp_path / spec,
        )
        assert (code, out) == (1, "")
        assert err == "error: %s\n" % message.format(dir=tmp_path)

    def test_invalid_grid_point_is_skipped_with_a_note(self, fixtures_dir, tmp_path, capsys):
        """A point the thresholds refuse is left out of the report, named on stderr; the rest
        are swept."""
        code, out, err = run(capsys, "sweep", fixtures_dir / "decorated_pairs.tsv",
                             fixtures_dir / "sweep_gold.tsv", '{"id_t": [-1, 6]}',
                             "--out", tmp_path / "report.tsv")
        assert (code, out) == (0, "")
        assert err == ("note: skipping grid point {'mi_plus': 0.9, 'mi_minus': 0.02, "
                       "'id_t': -1.0, 'idr_plus': 1.35, 'idr_minus': 0.93}: id_t must be "
                       "non-negative\nswept 1 grid point(s)\n")
        rows = [line.split("\t") for line in (tmp_path / "report.tsv").read_text().splitlines()
                if not line.startswith("#")]
        assert [row[2] for row in rows] == ["6"]

    @pytest.mark.parametrize(
        "value",
        ["null", '"x"', "[1]", "true", "NaN", pytest.param("1" + "0" * 400, id="int-too-large")],
    )
    def test_grid_value_not_a_number(self, fixtures_dir, capsys, value):
        code, out, err = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            '{"id_t": [6], "mi_plus": [0.9, %s]}' % value,
        )
        assert code == 1
        assert out == ""
        # JSON non-numbers fail the type check, non-finite numbers the float conversion
        reason = "not a finite number" if value == "NaN" or value.isdigit() else "not a number"
        assert err == "error: grid axis 'mi_plus' holds %s, %s\n" % (value, reason)

    @pytest.mark.parametrize(
        "decorated_row, message",
        [
            ("p2\ta\t\tb\ta b\tx\t2\t3\n",
             "decorated pairs file line 3: n_s must be a whole, non-negative number, got x"),
            ("p1\ta\t\tb\ta b\t1\t2\t3\n", "decorated pairs file line 3: duplicate pair id"),
        ],
        ids=["bad-count", "duplicate-pair-id"],
    )
    def test_malformed_row_fails_with_line_number(
        self, tmp_path, capsys, decorated_row, message
    ):
        decorated = tmp_path / "decorated.tsv"
        decorated.write_text(
            "# header\np1\ta\t\tb\ta b\t1\t2\t3\n" + decorated_row, encoding="utf-8"
        )
        gold = tmp_path / "gold.tsv"
        gold.write_text("p1\tMERGED\np2\tNOTMERGED\n", encoding="utf-8")
        code, _, err = run(capsys, "sweep", decorated, gold, '{"id_t": [6]}')
        assert code == 1
        assert message in err

    def test_zero_counts_error_names_pair(self, tmp_path, capsys):
        decorated = tmp_path / "decorated.tsv"
        decorated.write_text(
            "p1\ta\t\tb\ta b\t1\t2\t3\np2\tc\t\td\tc d\t0\t0\t0\n", encoding="utf-8"
        )
        gold = tmp_path / "gold.tsv"
        gold.write_text("p1\tMERGED\np2\tNOTMERGED\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", decorated, gold, '{"id_t": [6]}')
        assert code == 1
        assert out == ""
        assert "error: pair p2: all counts are zero" in err

    def test_count_above_2_53_fails_naming_the_line(self, tmp_path, capsys):
        decorated = tmp_path / "decorated.tsv"
        decorated.write_text("p1\ta\t\tb\ta b\t1\t2\t3\np2\tc\t\td\tc d\t%d\t1\t1\n"
                             % 10**170, encoding="utf-8")
        gold = tmp_path / "gold.tsv"
        gold.write_text("p1\tMERGED\np2\tNOTMERGED\n", encoding="utf-8")
        code, out, err = run(capsys, "sweep", decorated, gold, '{"id_t": [6]}')
        assert (code, out) == (1, "")
        assert err == "error: decorated pairs file line 2: counts must be at most 2**53\n"

    def test_grid_from_file(self, fixtures_dir, tmp_path, capsys):
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps({"idr_minus": [0.8, 0.93]}), encoding="utf-8")
        report = tmp_path / "report.tsv"
        code, _, _ = run(
            capsys,
            "sweep",
            fixtures_dir / "decorated_pairs.tsv",
            fixtures_dir / "sweep_gold.tsv",
            grid,
            "--out",
            report,
        )
        assert code == 0
        rows = [l for l in report.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 2


class TestCountsWarm:
    def test_warm_then_stable(self, extracted, fixtures_dir, tmp_path, capsys):
        _, pairs = extracted
        cache = tmp_path / "cache.tsv"
        code, _, err = run(
            capsys,
            "--config",
            fixtures_dir / "config.json",
            "--cache",
            cache,
            "counts",
            "warm",
            pairs,
        )
        assert code == 0
        assert "3 phrase(s)" in err
        first = cache.read_text(encoding="utf-8")
        code, _, _ = run(
            capsys,
            "--config",
            fixtures_dir / "config.json",
            "--cache",
            cache,
            "counts",
            "warm",
            pairs,
        )
        assert code == 0
        assert cache.read_text(encoding="utf-8") == first

    def test_warm_without_provider_fails(self, extracted, capsys):
        _, pairs = extracted
        code, _, err = run(capsys, "counts", "warm", pairs)
        assert code == 1
        assert "provider" in err


def cli_process(cwd, *argv):
    """Run the CLI in a subprocess under -X dev -W error, so a file left open warns."""
    return subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "unithood.cli", *map(str, argv)],
        cwd=cwd, capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(unithood.__file__).parents[1])},
    )


def cli_ok(cwd, *argv):
    result = cli_process(cwd, *argv)
    assert result.returncode == 0, result.stderr
    assert "ResourceWarning" not in result.stderr, result.stderr


def test_cache_lifecycle(tmp_path, fixtures_dir):
    """Every command closes the count cache, and a warm that finds every phrase
    cached appends nothing."""
    cached = ["--config", fixtures_dir / "config.json", "--cache", "cache.tsv"]
    cli_ok(tmp_path, "extract", fixtures_dir / "sample_parse.tsv", "candidates.tsv", "pairs.tsv")
    cli_ok(tmp_path, *cached, "counts", "warm", "pairs.tsv")
    cli_ok(tmp_path, *cached, "decide", "pairs.tsv", "--out", "decisions.tsv")
    cache = (tmp_path / "cache.tsv").read_bytes()
    cli_ok(tmp_path, *cached, "counts", "warm", "pairs.tsv")
    assert (tmp_path / "cache.tsv").read_bytes() == cache


def test_corpus_provider_end_to_end(tmp_path, fixtures_dir):
    """decide against a local corpus index decides the same with no cache, with a
    cold cache, with that cache warm and from a CRLF copy of the corpus."""
    parse = fixtures_dir / "sample_parse.tsv"
    cli_ok(tmp_path, "extract", parse, "candidates.tsv", "pairs.tsv")
    # Each sentence's lemmas in offset order, every window of 2 to 6 of them, then
    # 400 filler documents, so lookups meet rare tokens (the lemmas) as well as
    # common ones ("filler" is in every filler document).
    with open(parse, encoding="utf-8") as handle:
        sentences = unithood.read_parse_file(handle)
    documents = []
    for sentence in sentences:
        lemmas = [token.lemma for token in sentence.tokens]
        documents.append(" ".join(lemmas))
        documents += [" ".join(lemmas[start:start + width]) for width in range(2, 7)
                      for start in range(len(lemmas) - width + 1)]
    documents += ["filler w%d" % (i % 7) for i in range(400)]
    corpus = "".join(document + "\n" for document in documents).encode()
    (tmp_path / "corpus.txt").write_bytes(corpus)
    (tmp_path / "crlf.txt").write_bytes(corpus.replace(b"\n", b"\r\n"))
    for name in ("corpus", "crlf"):
        (tmp_path / (name + ".json")).write_text(
            json.dumps({"provider": {"corpus": name + ".txt"}}), encoding="utf-8")

    def decide(config, out, *cache):
        cli_ok(tmp_path, "--config", config, *cache, "decide", "pairs.tsv", "--out", out)
        return (tmp_path / out).read_bytes()

    uncached = decide("corpus.json", "uncached.tsv")
    assert decide("corpus.json", "cold.tsv", "--cache", "cache.tsv") == uncached
    cache = (tmp_path / "cache.tsv").read_bytes()
    assert decide("corpus.json", "warm.tsv", "--cache", "cache.tsv") == uncached
    assert (tmp_path / "cache.tsv").read_bytes() == cache
    assert decide("crlf.json", "crlf.tsv") == uncached


def test_corpus_cache_from_a_whole_index_serves_a_decide(tmp_path, decided):
    """A cache written through a whole-file index serves a CLI corpus decide, which counts
    the closure of its pairs block by block: the rows share provider_id local-index, so the
    decide appends nothing and decides as the index did."""
    (tmp_path / "corpus.txt").write_text(
        "National Institute of Mental Health\nmental health\nnational institute\n" * 3
        + "".join("filler %d\n" % i for i in range(50)), encoding="utf-8")
    (tmp_path / "corpus.json").write_text(json.dumps({"provider": {"corpus": "corpus.txt"}}))
    with open(decided / "pairs.tsv", encoding="utf-8") as handle:
        pairs = pipeline.read_pairs_file(handle)
    with CountCache(load_corpus_file(tmp_path / "corpus.txt"), tmp_path / "cache.tsv") as cache:
        records = pipeline.decide_pairs(pairs, unithood.Thresholds(), cache)
    written = (tmp_path / "cache.tsv").read_bytes()
    assert written.count(b"\tlocal-index\t") == len(written.splitlines()) > 0
    cli_ok(tmp_path, "--config", "corpus.json", "--cache", "cache.tsv", "decide",
           decided / "pairs.tsv", "--out", "decisions.tsv")
    assert (tmp_path / "cache.tsv").read_bytes() == written
    stream = io.StringIO()
    pipeline.write_decisions_file(records, stream)
    assert (tmp_path / "decisions.tsv").read_text(encoding="utf-8") == stream.getvalue()


@pytest.mark.parametrize("out", ["decisions.tsv", "-"])
def test_failed_decide_leaves_its_outputs_alone(tmp_path, out):
    """decide writes rows as it decides; when a later pair fails, after the first one's
    rows are written, the run exits 1 with one error line, the outputs it would have
    replaced keep their bytes and no temporary file is left."""
    (tmp_path / "pairs.tsv").write_text("s1\t1,2\ta b\t1\ta\t\t2\tb\n"
                                        "s2\t1,2\tc d\t1\tc\t\t2\td\n", encoding="utf-8")
    (tmp_path / "counts.json").write_text(json.dumps({"a b": 1, "a": 5, "b": 5, "c": 5, "d": 5}))
    (tmp_path / "config.json").write_text(json.dumps({"provider": {"fixture": "counts.json"}}))
    for name in ("decisions.tsv", "decorated.tsv"):
        (tmp_path / name).write_text("an earlier run's %s\n" % name, encoding="utf-8")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    result = cli_process(tmp_path, "--config", "config.json", "decide", "pairs.tsv",
                         "--out", out, "--decorated-out", "decorated.tsv")
    assert result.returncode == 1
    assert result.stderr == "error: no count recorded for phrase 'c d'\n"
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    if out == "-":  # standard output streams: the first pair's row is out already
        assert result.stdout.splitlines()[1].startswith("1\ta\t\tb\t")


@pytest.mark.parametrize("outputs", [("cands.tsv", "missing/dir/pairs.tsv"),
                                     ("missing/dir/cands.tsv", "pairs.tsv")])
def test_failed_extract_keeps_its_outputs(tmp_path, fixtures_dir, outputs):
    """extract replaces neither output unless both are written: when either one cannot be
    opened, the other file already there keeps its bytes and no temporary is left."""
    kept = next(name for name in outputs if "/" not in name)
    (tmp_path / kept).write_text("an earlier run's %s\n" % kept, encoding="utf-8")
    before = (tmp_path / kept).read_bytes()
    result = cli_process(tmp_path, "extract", fixtures_dir / "sample_parse.tsv", *outputs)
    assert result.returncode == 1
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1, result.stderr
    assert (tmp_path / kept).read_bytes() == before
    assert sorted(path.name for path in tmp_path.rglob("*")) == [kept]


@pytest.mark.parametrize("outputs", [("out.tsv", "out.tsv"), ("out.tsv", "./link.tsv")])
def test_extract_refuses_two_outputs_on_one_file(tmp_path, fixtures_dir, monkeypatch, capsys,
                                                 outputs):
    """Two outputs that are one file, by name or through a link, fail naming the second
    before anything is written: the file there keeps its bytes."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.tsv").write_text("an earlier run's output\n", encoding="utf-8")
    (tmp_path / "link.tsv").symlink_to("out.tsv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, _, err = run(capsys, "extract", fixtures_dir / "sample_parse.tsv", *outputs)
    assert (code, err) == (1, "error: two outputs are one file: %s\n" % outputs[1])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("options", [
    ["decide", "pairs.tsv", "--out", "out.tsv", "--decorated-out", "./out.tsv"],
    ["decide", "pairs.tsv", "--out", "link.tsv", "--decorated-out", "out.tsv"],
    ["--cache", "out.tsv", "decide", "pairs.tsv", "--out", "out.tsv"],
], ids=["decorated", "link", "cache"])
def test_decide_refuses_two_outputs_on_one_file(tmp_path, fixtures_dir, decided, monkeypatch,
                                                capsys, options):
    """The decisions, decorated and cache files must be three files: two that are one fail
    naming the later before anything is counted or written; "-" may repeat."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(decided / "pairs.tsv", tmp_path / "pairs.tsv")
    (tmp_path / "out.tsv").write_text("an earlier run's output\n", encoding="utf-8")
    (tmp_path / "link.tsv").symlink_to("out.tsv")
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    code, _, err = run(capsys, "--config", fixtures_dir / "config.json", *options)
    assert (code, err) == (1, "error: two outputs are one file: %s\n" % options[-1])
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    code, out, _ = run(capsys, "--config", fixtures_dir / "config.json", "decide", "pairs.tsv",
                       "--out", "-", "--decorated-out", "-")
    assert code == 0 and out.count("# pair_id") == 2


def test_a_device_may_repeat_as_an_output(tmp_path, fixtures_dir, decided, monkeypatch, capsys):
    """Only outputs that are staged, regular or new files, must be distinct: a device is
    written in place, as "-" is, so each command may name it more than once."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, "extract", fixtures_dir / "sample_parse.tsv", os.devnull,
                       os.devnull)
    assert code == 0, err
    code, _, err = run(capsys, "--config", fixtures_dir / "config.json", "--cache", os.devnull,
                       "decide", decided / "pairs.tsv", "--out", os.devnull,
                       "--decorated-out", os.devnull)
    assert code == 0, err
    code, _, err = run(capsys, "--config", fixtures_dir / "config.json", "--cache", "new.tsv",
                       "decide", decided / "pairs.tsv", "--out", "./new.tsv")
    assert (code, err) == (1, "error: two outputs are one file: new.tsv\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["extract", "FIXTURES/sample_parse.tsv", "missing/dir/x.tsv", "pairs.tsv"],
    ["--config", "FIXTURES/config.json", "decide", "DECIDED/pairs.tsv", "--out",
     "missing/dir/x.tsv"],
    ["sweep", "FIXTURES/decorated_pairs.tsv", "FIXTURES/sweep_gold.tsv", '{"id_t": [3]}',
     "--out", "missing/dir/x.tsv"],
], ids=["extract", "decide", "sweep"])
def test_output_error_names_the_path_given(argv, tmp_path, fixtures_dir, decided, monkeypatch,
                                           capsys):
    """An output that cannot be opened is named as the user gave it, not by the temporary
    file it would have been written to first."""
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *(a.replace("FIXTURES", str(fixtures_dir))
                                 .replace("DECIDED", str(decided)) for a in argv))
    assert code == 1
    assert err == "error: [Errno 2] No such file or directory: 'missing/dir/x.tsv'\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("provider", ["fixture", "corpus"])
def test_only_a_corpus_warm_builds_offset_tables(provider, tmp_path, fixtures_dir, decided,
                                                 monkeypatch, capsys):
    """counts warm builds each sentence's offset tables (pipeline.sentences_of) only for a
    corpus, which counts their closure; a fixture warm never calls it."""
    (tmp_path / "corpus.txt").write_text("mental health\n", encoding="utf-8")
    (tmp_path / "corpus.json").write_text(json.dumps({"provider": {"corpus": "corpus.txt"}}))
    config = fixtures_dir / "config.json" if provider == "fixture" else tmp_path / "corpus.json"
    calls = []

    def spy(pairs):
        calls.append(len(pairs))
        return sentences(pairs)

    sentences = pipeline.sentences_of
    monkeypatch.setattr(pipeline, "sentences_of", spy)
    code, _, err = run(capsys, "--config", config, "counts", "warm", decided / "pairs.tsv")
    assert code == 0, err
    assert len(calls) == (provider == "corpus")


def test_decide_writes_through_a_link_and_into_a_pipe(extracted, fixtures_dir, tmp_path, capsys):
    """A link keeps pointing at the file it names, and a pipe is written in place."""
    _, pairs = extracted
    decide = ["--config", fixtures_dir / "config.json", "decide", pairs, "--out"]
    assert run(capsys, *decide, tmp_path / "plain.tsv")[0] == 0
    (tmp_path / "link.tsv").symlink_to("linked.tsv")
    assert run(capsys, *decide, tmp_path / "link.tsv")[0] == 0
    assert (tmp_path / "link.tsv").is_symlink()
    assert (tmp_path / "linked.tsv").read_bytes() == (tmp_path / "plain.tsv").read_bytes()
    os.mkfifo(tmp_path / "pipe")
    reader = os.open(tmp_path / "pipe", os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert run(capsys, *decide, tmp_path / "pipe")[0] == 0
        assert os.read(reader, 1 << 16) == (tmp_path / "plain.tsv").read_bytes()
    finally:
        os.close(reader)
    assert stat.S_ISFIFO((tmp_path / "pipe").lstat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "candidates.tsv", "link.tsv", "linked.tsv", "pairs.tsv", "pipe", "plain.tsv"]


@pytest.fixture(scope="module")
def decided(tmp_path_factory, fixtures_dir):
    """A directory with the sample's pairs.tsv and its decisions.tsv under the fixture counts."""
    directory = tmp_path_factory.mktemp("decided")
    pairs, decisions = directory / "pairs.tsv", directory / "decisions.tsv"
    assert main(["extract", str(fixtures_dir / "sample_parse.tsv"),
                 str(directory / "candidates.tsv"), str(pairs)]) == 0
    assert main(["--config", str(fixtures_dir / "config.json"), "decide", str(pairs),
                 "--out", str(decisions)]) == 0
    return directory


_FIXTURE = b'{"provider": {"fixture": "FIXTURES/counts.json"}, %s}'
_REMOTE = (b'{"provider": {"remote": {"endpoint_template": "http://localhost:9/{query}", %s}}, '
           b'"cache_path": "cache.tsv"}')
_DECIDE = ["--config", "config.json", "decide", "pairs.tsv"]
_BAD_PAIRS = ["--config", "FIXTURES/config.json", "decide", "bad_pairs.tsv"]
_NOT_UTF8 = r"^error: %s: 'utf-8' codec can't decode byte 0xff in position %d: invalid start byte$"


# Each case: the files it writes into a fresh working directory (FIXTURES stands for
# the fixtures directory), the command, and a pattern its error output must match.
@pytest.mark.parametrize("files, argv, pattern", [
    pytest.param({"config.json": _FIXTURE % b'"max_merge_passes": 2.5'}, _DECIDE, None,
                 id="config-max-merge-passes"),
    pytest.param({"config.json": _FIXTURE % b'"thresholds": {"id_t": true}'}, _DECIDE,
                 None, id="config-threshold-bool"),
    pytest.param({"config.json": _FIXTURE % b'"thresholds": {"id_x": 1}'}, _DECIDE, None,
                 id="config-threshold-unknown"),
    pytest.param({"config.json": _REMOTE % b'"count_path": "t", "max_retries": 2.5'},
                 _DECIDE, None, id="remote-max-retries"),
    # A config path that is not a non-empty string fails on load, naming the key.
    pytest.param({"config.json": _FIXTURE % b'"cache_path": 5'}, _DECIDE,
                 r"^error: invalid config config\.json: cache_path must be a non-empty string$",
                 id="config-cache-path-int"),
    # --cache takes the config's rule for cache_path, with or without --config: an empty
    # path fails before any file is read or written, never meaning "no cache".
    pytest.param({"config.json": _FIXTURE % b'"cache_path": "config_cache.tsv"'},
                 ["--config", "config.json", "--cache", "", "decide", "pairs.tsv"],
                 r"^error: cache_path must be a non-empty string$", id="cache-option-empty"),
    pytest.param({}, ["--cache", "", "decide", "pairs.tsv"],
                 r"^error: cache_path must be a non-empty string$",
                 id="cache-option-empty-no-config"),
    # A count_path that is not a string fails on load, before any fetch.
    pytest.param({"config.json": _REMOTE % b'"count_path": 5, "min_delay_ms": 0'},
                 _DECIDE, "count_path must be a string", id="remote-count-path"),
    # Every integer column takes ASCII digits only: no sign, no '_'.
    pytest.param({"signed_parse.tsv": b"s1\t+1\tdog\tNN\tnsubj\t0\n"},
                 ["extract", "signed_parse.tsv", "signed_candidates.tsv", "signed_pairs.tsv"],
                 None, id="parse-signed-offset"),
    pytest.param({"underscore_decorated.tsv": b"p1\ta\tof\tb\ta of b\t1_0\t2\t3\n",
                  "underscore_gold.tsv": b"p1\tMERGED\n"},
                 ["sweep", "underscore_decorated.tsv", "underscore_gold.tsv", '{"id_t": [6]}'],
                 None, id="decorated-underscore"),
    # A cache row whose count is not a whole, non-negative number fails on load, naming the
    # file and line, whether the cache comes from --cache or from the config.
    pytest.param({"bad_cache.tsv": b"Mental Health\t-5\tfixture\tT\n"},
                 ["--config", "FIXTURES/config.json", "--cache", "bad_cache.tsv", "decide",
                  "pairs.tsv"], r"^error: count cache bad_cache\.tsv line 1: ",
                 id="cache-negative-count"),
    pytest.param({"nested/c.tsv": b"Mental Health\t5\n",
                  "config.json": _FIXTURE % b'"cache_path": "nested/c.tsv"'}, _DECIDE,
                 r"^error: count cache nested/c\.tsv line 1: expected 4 tab-separated columns",
                 id="config-cache-short-row"),
    pytest.param({}, ["sweep", "FIXTURES/decorated_pairs.tsv", "FIXTURES/sweep_gold.tsv",
                      '{"id_x": []}'], None, id="grid-unknown-empty-axis"),
    pytest.param({}, ["sweep", "FIXTURES/decorated_pairs.tsv", "FIXTURES/sweep_gold.tsv",
                      '{"mi_plus": [0.9], "id_t": 6}'],
                 r"^error: grid axis 'id_t' must be a list of numbers$", id="grid-axis-not-a-list"),
    # A corpus line that is not UTF-8 fails with one error line naming the file and line.
    pytest.param({"bad_corpus.txt": b"National Institute\nof Mental \xff Health\n",
                  "config.json": b'{"provider": {"corpus": "bad_corpus.txt"}}'},
                 _DECIDE, r"^error: corpus bad_corpus\.txt line 2: ", id="corpus-not-utf8"),
    pytest.param({"gold.tsv": b"1\tMERGED\n1\tNOTMERGED\n"},
                 ["eval", "decisions.tsv", "gold.tsv"], None, id="gold-duplicate-id"),
    # A byte that is not UTF-8 names the kind and line of a TSV, and the file of a JSON input.
    pytest.param({"bad_parse.tsv": b"s1\t1\tdog\tNN\tnsubj\t0\ns1\t2\tca\xfft\tNN\tdobj\t1\n"},
                 ["extract", "bad_parse.tsv", "bad_candidates.tsv", "bad_pairs.tsv"],
                 _NOT_UTF8 % ("parse file line 2", 7), id="parse-not-utf8"),
    pytest.param({"bad_pairs.tsv": b"# sentence_id\n\ns\t1,2\ta \xff\t1\ta\t\t2\t\xff\n"},
                 _BAD_PAIRS, _NOT_UTF8 % ("pairs file line 3", 8), id="pairs-not-utf8"),
    pytest.param({"bad_scores.tsv": b"a\tof\tb\t0.5\t6.5\t1\tNA\r\n\xff\n"},
                 ["--config", "FIXTURES/config.json", "decide", "pairs.tsv", "--scores",
                  "bad_scores.tsv"], _NOT_UTF8 % ("scores file line 2", 0), id="scores-not-utf8"),
    pytest.param({"bad_decisions.tsv": b"# \xff\n"}, ["eval", "bad_decisions.tsv", "gold.tsv"],
                 _NOT_UTF8 % ("decisions file line 1", 2), id="decisions-not-utf8"),
    pytest.param({"gold.tsv": b"1\tMERGED\n2\tNOT\xffMERGED\n"},
                 ["eval", "decisions.tsv", "gold.tsv"], _NOT_UTF8 % ("gold file line 2", 5),
                 id="gold-not-utf8"),
    pytest.param({"bad_decorated.tsv": b"p1\ta\tof\tb\ta of b\t1\t2\t3\xff\n",
                  "bad_gold.tsv": b"p1\tMERGED\n"},
                 ["sweep", "bad_decorated.tsv", "bad_gold.tsv", '{"id_t": [6]}'],
                 _NOT_UTF8 % ("decorated pairs file line 1", 22), id="decorated-not-utf8"),
    pytest.param({"bad_counts.tsv": b"a\t1\n\xff\t2\n", "config.json":
                  b'{"provider": {"fixture": "bad_counts.tsv"}}'}, _DECIDE,
                 _NOT_UTF8 % ("count table bad_counts.tsv line 2", 0), id="count-table-not-utf8"),
    pytest.param({"bad_cache.tsv": b"Mental Health\t5\tfixture\tT\nx\xff\t1\tfixture\tT\n"},
                 ["--config", "FIXTURES/config.json", "--cache", "bad_cache.tsv", "decide",
                  "pairs.tsv"], _NOT_UTF8 % ("count cache bad_cache.tsv line 2", 1),
                 id="cache-not-utf8"),
    pytest.param({"config.json": b'{"provider": {"fixture": "c\xff.json"}}'}, _DECIDE,
                 _NOT_UTF8 % ("config config.json is not valid JSON", 27), id="config-not-utf8"),
    pytest.param({"bad_counts.json": b'{"a": 1, "\xff": 2}', "config.json":
                  b'{"provider": {"fixture": "bad_counts.json"}}'}, _DECIDE,
                 _NOT_UTF8 % ("count table bad_counts.json is not valid JSON", 10),
                 id="count-table-json-not-utf8"),
    pytest.param({"grid.json": b'{"id_t": [6], "\xff": [1]}'},
                 ["sweep", "FIXTURES/decorated_pairs.tsv", "FIXTURES/sweep_gold.tsv", "grid.json"],
                 _NOT_UTF8 % ("grid spec grid.json is not valid JSON", 15), id="grid-not-utf8"),
    # An offset of a sentence holds one candidate or one connector; the error names the
    # line, the offset and both holders.
    pytest.param({"bad_pairs.tsv": b"s\t1,2\ta b\t1\ta\t\t2\tb\n"
                                   b"s\t1,2,3\ta of c\t1\ta\tof\t3\tc\n"}, _BAD_PAIRS,
                 r"^error: pairs file line 2: offset 2 holds connector 'of' here "
                 r"but candidate 'b' at 2 in an earlier pair$",
                 id="pairs-candidate-then-connector"),
    pytest.param({"bad_pairs.tsv": b"s\t1,2\ta b\t1\ta\t\t2\tb\n"
                                   b"s\t2,3\tb c\t2\tb\t\t3\tc\n"
                                   b"s\t1,2,3,4\ta b c d\t1,2\ta b\t\t3,4\tc d\n"}, _BAD_PAIRS,
                 r"^error: pairs file line 3: offset 1 holds candidate 'a b' at 1,2 here "
                 r"but candidate 'a' at 1 in an earlier pair$", id="pairs-overlapping-spans"),
    # A blank candidate surface or lemma fails on read, naming the line.
    pytest.param({"bad_pairs.tsv": b"s\t1,2\t b\t1\t\t\t2\tb\n"}, _BAD_PAIRS,
                 r"^error: pairs file line 1: candidate surface must not be blank$",
                 id="pairs-blank-surface"),
    pytest.param({"blank_parse.tsv": b"s1\t1\t \tJJ\tamod\t2\ns1\t2\tdog\tNN\tnsubj\t0\n"},
                 ["extract", "blank_parse.tsv", "blank_candidates.tsv", "blank_pairs.tsv"],
                 r"^error: parse file line 1: lemma must not be blank$", id="parse-blank-lemma"),
])
def test_bad_input_fails_without_a_traceback(files, argv, pattern, decided, fixtures_dir,
                                             tmp_path):
    """Each bad input ends the command with exit code 1 and one "error:" line on
    stderr, never a Python traceback, also under -X dev -W error."""
    for name in ("pairs.tsv", "decisions.tsv"):
        shutil.copy(decided / name, tmp_path / name)
    for name, content in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_bytes(content.replace(b"FIXTURES", bytes(fixtures_dir)))
    result = cli_process(tmp_path, *(a.replace("FIXTURES", str(fixtures_dir)) for a in argv))
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith("error:"), result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.count("\n") == 1, result.stderr
    if pattern is not None:
        assert re.search(pattern, result.stderr, re.M), result.stderr


def test_commands_do_not_import_the_http_stack(tmp_path, fixtures_dir):
    """Only a remote fetch needs ``urllib.request`` and ``http.client``; extract, sweep
    and a fixture decide never load them."""
    script = (
        "import sys\n"
        "import unithood, unithood.cli\n"
        "fixtures, out = sys.argv[1], sys.argv[2]\n"
        "assert unithood.cli.main(['extract', fixtures + '/sample_parse.tsv',\n"
        "                          out + '/candidates.tsv', out + '/pairs.tsv']) == 0\n"
        "assert unithood.cli.main(['sweep', fixtures + '/decorated_pairs.tsv',\n"
        "                          fixtures + '/sweep_gold.tsv', '{\"id_t\": [3, 6]}']) == 0\n"
        "assert unithood.cli.main(['--config', fixtures + '/config.json', 'decide',\n"
        "                          out + '/pairs.tsv', '--out', out + '/decisions.tsv']) == 0\n"
        "print(sorted({'urllib.request', 'http.client'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(fixtures_dir), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(fixtures_dir.parent / "src")},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_remote_decide_end_to_end(tmp_path, fixtures_dir, decided, count_server):
    """decide against a loopback search endpoint that serves the fixture counts decides
    as the fixture provider does.  Run again after the server has stopped, it makes no
    request and decides the same from its cache file; both runs under -X dev -W error."""
    counts = json.loads((fixtures_dir / "counts.json").read_text(encoding="utf-8"))

    def reply(path):
        phrase = urllib.parse.parse_qs(urllib.parse.urlsplit(path).query)["q"][0]
        body = json.dumps({"total": counts[phrase.strip('"').lower()]}).encode()
        return 200, {"Content-Type": "application/json"}, body

    count_server.reply = reply
    config = json.loads((fixtures_dir / "config.json").read_text(encoding="utf-8"))
    config["provider"] = {"remote": {"endpoint_template": count_server.url + "/?q={query}",
                                     "count_path": "total", "min_delay_ms": 0}}
    config["cache_path"] = "config_cache.tsv"  # --cache replaces it
    (tmp_path / "remote.json").write_text(json.dumps(config), encoding="utf-8")
    shutil.copy(decided / "pairs.tsv", tmp_path / "pairs.tsv")
    decide = ["--config", "remote.json", "--cache", "cache.tsv", "decide", "pairs.tsv", "--out"]
    cli_ok(tmp_path, *decide, "first.tsv")
    fetches = len(count_server.paths)
    assert fetches == len((tmp_path / "cache.tsv").read_text().splitlines()) > 0
    count_server.stop()
    cli_ok(tmp_path, *decide, "second.tsv")
    assert len(count_server.paths) == fetches
    first = (tmp_path / "first.tsv").read_bytes()
    assert (tmp_path / "second.tsv").read_bytes() == first
    assert first == (decided / "decisions.tsv").read_bytes()
    assert not (tmp_path / "config_cache.tsv").exists()


def test_remote_cache_may_come_from_the_option_alone(tmp_path, decided, count_server):
    """A remote config that names no cache_path runs with --cache; with neither, decide
    fails naming the missing cache_path."""
    count_server.reply = lambda path: (200, {}, b'{"total": 7}')
    remote = {"endpoint_template": count_server.url + "/?q={query}", "count_path": "total",
              "min_delay_ms": 0}
    (tmp_path / "remote.json").write_text(json.dumps({"provider": {"remote": remote}}))
    shutil.copy(decided / "pairs.tsv", tmp_path / "pairs.tsv")
    decide = ["--config", "remote.json", "decide", "pairs.tsv", "--out", "decisions.tsv"]
    result = cli_process(tmp_path, *decide)
    assert (result.returncode, result.stderr) == (1, "error: invalid config remote.json: "
                                                     "the remote provider requires a cache_path\n")
    assert count_server.paths == []
    cli_ok(tmp_path, "--cache", "cache.tsv", *decide)
    assert len((tmp_path / "cache.tsv").read_text().splitlines()) == len(count_server.paths) > 0


def test_star_import_binds_every_exported_name():
    """__all__ is derived from the package's imports: each name once, public, and a class or
    function of one of its modules, never a submodule, __version__ or a private helper; a
    star import binds exactly those names."""
    namespace: dict = {}
    exec("from unithood import *", namespace)
    assert sorted(set(unithood.__all__)) == sorted(unithood.__all__)  # no duplicates
    assert set(namespace) - {"__builtins__"} == set(unithood.__all__)
    exported = {name: getattr(unithood, name) for name in unithood.__all__}
    assert [name for name in exported if name.startswith("_")] == []
    assert [name for name, value in exported.items() if isinstance(value, type(unithood))] == []
    assert {value.__module__.split(".")[0] for value in exported.values()} == {"unithood"}
    assert {"evidence", "pipeline", "__version__"}.isdisjoint(exported)
    assert {"Candidate", "decide_pairs", "load_config", "unithood"} <= set(exported)


def _count_table(stream, path):
    """A count table from a stream of text, with from_file's row conversion."""
    return FixtureProvider(list(read_rows(stream, 2, "count table %s" % path, lambda c: (
        c[0], parse_whole(c[1], "count for %r", c[0])))))._counts


def _cache_from_text(stream, path):
    cache = CountCache(FixtureProvider({}))
    cache.path = path  # named in its errors, never opened
    cache._store(stream)
    return cache._counts


def _reading(reader):
    """The CLI's way to read a TSV file, and the library's way to read a text stream."""
    return lambda path: cli._read(str(path), reader), lambda stream, path: reader(stream)


# Each TSV reader: valid rows to start from, then how it reads a file and a text stream.
_READERS = {
    "parse": ([b"s\t1\tbig\tJJ\tamod\t2", b"s\t2\tdog\tNN\tnsubj\t0", b"t\t1\tcat\tNN\troot\t0"],
              *_reading(read_parse_file)),
    "pairs": ([b"s\t1,2\ta b\t1\ta\t\t2\tb", b"s\t2,3,4\tb of c\t2\tb\tof\t4\tc"],
              *_reading(pipeline.read_pairs_file)),
    "scores": ([b"a\tof\tb\t0.5\t6.5\t1\tNA", b"c\t\td\t1\t2\t3\t0.5"],
               *_reading(pipeline.read_scores_file)),
    "decisions": ([b"1\ta\t\tb\t1.0\t2.0\t0.5\t0.9\tMERGED\ta b",
                   b"2\tc\tof\td\t1\t1\tNA\t0.1\tNOTMERGED\tc of d"],
                  *_reading(pipeline.read_decisions_file)),
    "gold": ([b"1\tMERGED", b"2\tNOTMERGED"], *_reading(pipeline.read_gold_file)),
    "decorated": ([b"1\ta\tof\tb\ta of b\t1\t2\t3", b"2\tc\t\td\tc d\t4\t5\t6"],
                  *_reading(pipeline.read_decorated_file)),
    "count table": ([b"a b\t5", b"c\t1"], lambda path: FixtureProvider.from_file(path)._counts,
                    _count_table),
    "count cache": ([b"a b\t5\tfixture\tT", b"c\t1\tfixture\tT", b"d\t2\tremote\tT"],
                    lambda path: CountCache(FixtureProvider({}), path)._counts, _cache_from_text),
}
# What the differential puts into rows and between them: every break str.splitlines knows
# (LF, CRLF, a lone CR, form feed, U+0085, U+2028), a byte that is not UTF-8, and comment starts.
_NOISE = [b"\n", b"\r\n", b"\r", b"\x0c", "\x85".encode(), "\u2028".encode(), b"\xff", b"#",
          b" #", b" ", b"\t"]


@st.composite
def _tsv_bytes(draw, rows):
    lines = []
    for _ in range(draw(st.integers(0, 5))):
        line = draw(st.sampled_from(rows + [b""]))
        for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(st.sampled_from(_NOISE)) + line[at:]
        lines.append(line + draw(st.sampled_from([b"\n", b"\r\n", b""])))
    return b"".join(lines)


def _outcome(read):
    try:
        return "rows", read()
    except ParseFileError as exc:
        return "error", str(exc), exc.line_number
    except ValueError as exc:  # raised once every row is read, e.g. two phrases with one key
        return "late error", type(exc)


@pytest.mark.parametrize("kind", list(_READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_file_reads_as_its_text_reads(tmp_path_factory, kind, data):
    """Every TSV reader gives a file's bytes, read the CLI's way, the rows or the error
    that io.StringIO of their text gives: a lone CR and every break but LF stay in their
    cell.  Bytes that are not UTF-8 fail at the first line holding one, naming it, unless
    the lines before it fail first."""
    rows, from_file, from_text = _READERS[kind]
    content = data.draw(_tsv_bytes(rows))
    if kind == "count cache" and not content.endswith(b"\n"):
        content += b"\n"  # an unterminated last line is a torn append, skipped with a warning
    path = tmp_path_factory.getbasetemp() / ("differential %s.tsv" % kind)
    path.write_bytes(content)
    got = _outcome(lambda: from_file(path))
    lines = content.split(b"\n")
    lines = [line + b"\n" for line in lines[:-1]] + lines[-1:]
    for number, line in enumerate(lines, 1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            before = b"".join(lines[:number - 1]).decode("utf-8")
            expected = _outcome(lambda: from_text(io.StringIO(before), path))
            if expected[0] == "error":
                assert got == expected
            else:
                assert got[0] == "error" and got[2] == number, got
                assert "line %d: 'utf-8' codec can't decode" % number in got[1], got
            return
    assert got == _outcome(lambda: from_text(io.StringIO(content.decode("utf-8")), path))
