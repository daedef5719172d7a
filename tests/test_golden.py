"""The README quick start, compared byte for byte with committed outputs.

``fixtures/golden/`` holds what each quick-start step wrote, plus the
decisions for the reference pairs decided from injected scores.  A
change that alters any output byte fails here.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from unithood.cli import main

SWEEP_GRID = {"id_t": [3, 6, 9], "idr_minus": [0.8, 0.93]}


def run(capsys, *argv):
    assert main([str(a) for a in argv]) == 0
    return capsys.readouterr().out.encode("utf-8")


@pytest.fixture
def quick_start(tmp_path, fixtures_dir, capsys):
    out = {}
    run(capsys, "extract", fixtures_dir / "sample_parse.tsv",
        tmp_path / "candidates.tsv", tmp_path / "pairs.tsv")
    run(capsys, "--config", fixtures_dir / "config.json", "decide", tmp_path / "pairs.tsv",
        "--out", tmp_path / "decisions.tsv", "--decorated-out", tmp_path / "decorated.tsv")
    out["eval.txt"] = run(capsys, "eval", tmp_path / "decisions.tsv", fixtures_dir / "gold.tsv")
    out["sweep.tsv"] = run(capsys, "sweep", fixtures_dir / "decorated_pairs.tsv",
                           fixtures_dir / "sweep_gold.tsv", json.dumps(SWEEP_GRID))
    run(capsys, "decide", fixtures_dir / "reference_pairs.tsv",
        "--scores", fixtures_dir / "reference_scores.tsv",
        "--out", tmp_path / "reference_decisions.tsv")
    for name in ("candidates.tsv", "pairs.tsv", "decisions.tsv", "decorated.tsv",
                 "reference_decisions.tsv"):
        out[name] = (tmp_path / name).read_bytes()
    return out


@pytest.mark.parametrize(
    "name",
    ["candidates.tsv", "pairs.tsv", "decisions.tsv", "decorated.tsv", "eval.txt",
     "sweep.tsv", "reference_decisions.tsv"],
)
def test_quick_start_output_unchanged(quick_start, fixtures_dir, name):
    assert quick_start[name] == (fixtures_dir / "golden" / name).read_bytes()


def test_readme_library_snippet_runs_cleanly(fixtures_dir):
    """The README "Library use" block runs as shown, leaking nothing."""
    root = fixtures_dir.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-c", snippet],
        cwd=root,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert "National Institute of Mental Health" in result.stdout
