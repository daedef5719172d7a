#!/usr/bin/env python3
"""Benchmark of the unithood command-line pipeline.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the package is imported from
``src/`` as it is, nothing is installed.  Each workload's inputs are
generated from the seed into a scratch directory under
``.perfbench_work/``, which is removed at the end.  The benchmark then
runs the workload's command chain again and again, one process per
command as a user would, closed loop with no ``--jobs``, until the
time is up, and checks every output against references it computed
itself (see ``reference.py``).

With ``--trace 0`` every chain runs untraced and the end-to-end metrics
are reported.  With ``--trace 1`` untraced and traced chains alternate
(``trace_cli.py`` records spans around each layer) and the per-layer
metrics are reported, with the tracing overhead.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Each reported value is a median over the chains of the run.
"""

from __future__ import annotations

import argparse
import array
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import reference  # noqa: E402

# The command as the console script runs it.  On exit it writes the
# process's own peak resident set (VmHWM, in kB) to the file named at %r.
# The rusage of a child is no use here: exec records the parent's peak
# into it.
CLI = (
    "import sys\n"
    "from unithood.cli import main\n"
    "try:\n"
    "    code = main()\n"
    "finally:\n"
    "    with open('/proc/self/status') as status, open(%r, 'w') as peak:\n"
    "        peak.write(next(l for l in status if l.startswith('VmHWM:')).split()[1])\n"
    "sys.exit(code)\n"
)
BUILD_PROVIDER = (
    "import sys\nfrom unithood import pipeline\n"
    "pipeline.build_provider(pipeline.load_config(sys.argv[1]))\n"
)
IMPORT_ONLY = "import unithood.cli\n"
MIN_CHAINS = 3  # a run's medians are over at least this many chains


@dataclass
class Command:
    name: str
    argv: list[str]
    stdout: str | None = None


@dataclass
class Workload:
    """Generated inputs, the command chain and what its outputs must be."""

    commands: list[Command]
    expected: dict[str, str]
    work: int
    setup: list[str]
    reset: list[str] = field(default_factory=list)
    cache_check: dict[str, int] | None = None


def _write(directory: Path, name: str, text: str) -> None:
    (directory / name).write_text(text, encoding="utf-8", newline="\n")


def corpus_decide(seed: int, d: Path) -> Workload:
    """extract -> decide against a local corpus index, no cache -> eval."""
    inventory = gen.make_inventory(seed)
    sentences = gen.make_sentences(seed, inventory, 200)
    gen.write_parse_file(sentences, d / "parse.tsv")
    docs = gen.make_corpus(seed, inventory, sentences, 50_000)
    _write(d, "corpus.txt", "\n".join(docs) + "\n")
    gen.write_json({"provider": {"corpus": "corpus.txt"}}, d / "config.json")
    phrases = set().union(*(reference.chain_phrases(s) for s in sentences))
    oracle = reference.oracle_counts(docs, phrases)
    records = reference.decide(
        sentences, lambda s, ax, ay: (oracle[s], oracle[ax], oracle[ay]), inventory.units)
    return _decide_workload(d, sentences, records, [
        Command("extract", ["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]),
        Command("decide", ["--config", "config.json", "decide", "pairs.tsv",
                           "--out", "decisions.tsv", "--decorated-out", "decorated.tsv"]),
        Command("eval", ["eval", "decisions.tsv", "gold.tsv"], stdout="eval.txt"),
    ], setup_config="config.json", decorated=True)


def bulk_cached(seed: int, d: Path) -> Workload:
    """extract -> counts warm into an empty cache -> decide -> eval, fixture counts."""
    inventory = gen.make_inventory(seed)
    sentences = gen.make_sentences(seed, inventory, 1500)
    gen.write_parse_file(sentences, d / "parse.tsv")
    counts = gen.FixtureCounts(seed, inventory.units)

    def count(s, ax, ay):
        n_ax, n_ay = (counts.table[p] if p in counts.table else counts.term(p) for p in (ax, ay))
        return counts.linked(s, n_ax, n_ay), n_ax, n_ay

    records = reference.decide(sentences, count, inventory.units)
    gen.write_json(counts.table, d / "counts.json")
    gen.write_json({"provider": {"fixture": "counts.json"}}, d / "config.json")
    gen.write_json({"provider": {"fixture": "counts.json"}, "cache_path": "cache.tsv"},
                   d / "setup_config.json")
    cached = ["--config", "config.json", "--cache", "cache.tsv"]
    workload = _decide_workload(d, sentences, records, [
        Command("extract", ["extract", "parse.tsv", "candidates.tsv", "pairs.tsv"]),
        Command("warm", cached + ["counts", "warm", "pairs.tsv"]),
        Command("decide", cached + ["decide", "pairs.tsv", "--out", "decisions.tsv"]),
        Command("eval", ["eval", "decisions.tsv", "gold.tsv"], stdout="eval.txt"),
    ], setup_config="setup_config.json", decorated=False)
    workload.reset.append("cache.tsv")
    workload.cache_check = counts.table
    return workload


def _decide_workload(d, sentences, records, commands, setup_config, decorated) -> Workload:
    gen.write_gold([(str(i), r[-1]) for i, r in enumerate(records, start=1)], d / "gold.tsv")
    expected = {
        "candidates.tsv": reference.candidates_file(sentences),
        "pairs.tsv": reference.pairs_file(sentences),
        "decisions.tsv": reference.decisions_file(records),
        "eval.txt": reference.eval_output([r[-2] for r in records], [r[-1] for r in records]),
    }
    if decorated:
        expected["decorated.tsv"] = reference.decorated_file(records)
    return Workload(commands, expected, len(records), [BUILD_PROVIDER, setup_config],
                    reset=list(expected))


def sweep_grid(seed: int, d: Path) -> Workload:
    """sweep over decorated rows with log-uniform counts and a 360-point grid."""
    rows = gen.make_decorated(seed, gen.make_inventory(seed), 600)
    gen.write_decorated(rows, d / "decorated.tsv")
    gen.write_gold([(r.pair_id, r.gold) for r in rows], d / "gold.tsv")
    gen.write_json(gen.SWEEP_GRID, d / "grid.json")
    report = reference.sweep_file([(r.n_s, r.n_ax, r.n_ay) for r in rows], [r.gold for r in rows])
    return Workload(
        [Command("sweep", ["sweep", "decorated.tsv", "gold.tsv", "grid.json", "--out", "sweep.tsv"])],
        {"sweep.tsv": report}, len(rows) * len(reference.grid_points()), [IMPORT_ONLY],
        reset=["sweep.tsv"])


WORKLOADS = {"corpus_decide": corpus_decide, "bulk_cached": bulk_cached, "sweep_grid": sweep_grid}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], cwd: Path, stdout: str | None = None) -> tuple[int, float, float]:
    """Run one process to completion; returns its exit code, start time and wall time."""
    with open(cwd / (stdout or "stdout.txt"), "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        started = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdout=out, stderr=err)
        try:
            returncode = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        return returncode, started, time.monotonic() - started


@dataclass
class Chain:
    ok: bool
    wall: float
    commands: dict[str, float]
    peak_rss_kb: int
    layers: dict[str, float] | None = None
    absent: set[str] = field(default_factory=set)


def run_chain(workload: Workload, d: Path, traced: bool) -> Chain:
    for name in workload.reset:
        (d / name).unlink(missing_ok=True)
    times, rss, ok, traces = {}, 0, True, []
    for command in workload.commands:
        if traced:
            spans = d / ("spans-%s.bin" % command.name)
            argv = [sys.executable, str(HERE / "trace_cli.py"), str(spans)] + command.argv
        else:
            peak = d / "peak.txt"
            peak.unlink(missing_ok=True)
            argv = [sys.executable, "-c", CLI % str(peak)] + command.argv
        size_before = _size(d / "cache.tsv")
        returncode, started, wall = spawn(argv, d, command.stdout)
        times[command.name] = wall
        if returncode != 0:
            ok = False
            _complain("%s exited with %d" % (command.name, returncode))
        if not traced:
            rss = max(rss, int(peak.read_text()) if peak.exists() else 0)
        elif spans.exists():
            traces.append(_read_spans(spans, started, wall, _size(d / "cache.tsv") - size_before))
        elif traced:
            ok = False
            _complain("%s wrote no spans" % command.name)
    ok = _check(workload, d) and ok
    chain = Chain(ok, sum(times.values()), times, rss)
    if traced and len(traces) == len(workload.commands):
        chain.layers, chain.absent = layer_metrics(traces)
    return chain


def _size(path: Path) -> int:
    return path.stat().st_size if path.exists() else 0


def _complain(message: str) -> None:
    print("check failed: %s" % message, file=sys.stderr)


def _check(workload: Workload, d: Path) -> bool:
    ok = True
    for name, text in workload.expected.items():
        path = d / name
        actual = path.read_text(encoding="utf-8") if path.exists() else None
        if actual != text:
            ok = False
            got = (actual or "").splitlines()
            want = text.splitlines()
            line = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
            _complain("%s differs from the reference at line %d: %r, expected %r" % (
                name, line + 1, got[line] if line < len(got) else None,
                want[line] if line < len(want) else None))
    if workload.cache_check is not None:
        cached = {}
        path = d / "cache.tsv"
        for line in path.read_text(encoding="utf-8").splitlines() if path.exists() else ():
            phrase, count = line.split("\t")[:2]
            cached[phrase.lower()] = int(count)
        if cached != workload.cache_check:
            ok = False
            _complain("cache.tsv does not hold exactly the fixture counts")
    return ok


def time_setup(workload: Workload, d: Path) -> tuple[float, bool]:
    returncode, _, wall = spawn([sys.executable, "-c"] + workload.setup, d)
    if returncode != 0:
        _complain("set-up exited with %d" % returncode)
    return wall, returncode == 0


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced chain


@dataclass
class Trace:
    """Spans of one traced command, summed per span name."""

    counters: dict[str, int]
    absent: list[str]
    inclusive: dict[str, float]
    self_time: dict[str, float]
    calls: dict[str, int]
    count_ms: list[float]
    unithood_in_sweep: int
    startup: float
    overhead: float
    cache_bytes: int


def _read_spans(path: Path, started: float, wall: float, cache_bytes: int) -> Trace:
    with path.open("rb") as handle:
        header = json.loads(handle.readline())
        columns = []
        for typecode in "iidd":
            column = array.array(typecode)
            column.fromfile(handle, header["n"])
            columns.append(column)
    parent, code, start, end = columns
    names = header["names"]
    n = header["n"]
    duration = [end[i] - start[i] for i in range(n)]
    children = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            children[parent[i]] += duration[i]
    inclusive, self_time, calls, count_ms = {}, {}, {}, []
    sweep_codes = {i for i, name in enumerate(names) if name == "evaluation.sweep"}
    unithood_codes = {i for i, name in enumerate(names) if name == "measures.unithood"}
    in_sweep = [False] * n
    unithood_in_sweep = 0
    top = 0.0
    for i in range(n):
        name = names[code[i]]
        inclusive[name] = inclusive.get(name, 0.0) + duration[i]
        self_time[name] = self_time.get(name, 0.0) + duration[i] - children[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "evidence.count":
            count_ms.append(duration[i] * 1000.0)
        p = parent[i]
        in_sweep[i] = code[i] in sweep_codes or (p >= 0 and in_sweep[p])
        if in_sweep[i] and code[i] in unithood_codes:
            unithood_in_sweep += 1
        if p >= 0 and parent[p] < 0:
            top += duration[i]
    startup = header["t_ready"] - started
    path.unlink()
    return Trace(header["counters"], header["absent"], inclusive, self_time, calls, count_ms,
                 unithood_in_sweep, startup, wall - startup - top, cache_bytes)


def _p(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _time(span: str):
    return ("s", [span], lambda t: t.inc(span))


def _count(counter: str, span: str):
    return ("count", [span], lambda t: t.counter(counter))


_PROVIDER = ["pipeline.build_provider"]
_CACHE = ["evidence.CountCache"]

# name -> (unit, spans the metric needs, value from the chain's summed traces)
PER_LAYER = {
    "parse_ingest.read_parse_file_s": _time("parse_ingest.read_parse_file"),
    "parse_ingest.rows": _count("rows", "parse_ingest.read_parse_file"),
    "parse_ingest.rows_per_s": ("1/s", ["parse_ingest.read_parse_file"], lambda t: t.ratio(
        t.counter("rows"), t.inc("parse_ingest.read_parse_file"))),
    "extractor.extract_candidates_s": _time("extractor.extract_candidates"),
    "extractor.form_pairs_s": _time("extractor.form_pairs"),
    "extractor.candidates": _count("candidates", "extractor.extract_candidates"),
    "extractor.pairs": _count("pairs", "extractor.form_pairs"),
    "extractor.merge_pass_s": _time("extractor.merge_pass"),
    "pipeline.read_pairs_file_s": _time("pipeline.read_pairs_file"),
    "pipeline.decide_pairs_self_s": ("s", ["pipeline.decide_pairs"], lambda t: t.own(
        "pipeline.decide_pairs")),
    "pipeline.records": _count("records", "pipeline.decide_pairs"),
    "pipeline.later_pass_records": ("count", ["pipeline.decide_pairs"], lambda t: (
        t.counter("records") - t.counter("input_pairs"))),
    "pipeline.write_s": ("s", ["pipeline.write_decisions_file"], lambda t: sum(
        t.inc(n) for n in t.names if n.startswith("pipeline.write_"))),
    "pipeline.warm_counts_s": _time("pipeline.warm_counts"),
    "pipeline.read_decorated_file_s": _time("pipeline.read_decorated_file"),
    "evidence.count_s": ("s", _PROVIDER, lambda t: t.inc("evidence.count")),
    "evidence.count_calls": ("count", _PROVIDER, lambda t: t.calls("evidence.count")),
    "evidence.count_distinct": ("count", _PROVIDER, lambda t: t.counter("count_distinct")),
    "evidence.count_distinct_ratio": ("ratio", _PROVIDER, lambda t: t.ratio(
        t.counter("count_distinct"), t.calls("evidence.count"))),
    "evidence.count_p50_ms": ("ms", _PROVIDER, lambda t: _p(t.count_ms, 50)),
    "evidence.count_p99_ms": ("ms", _PROVIDER, lambda t: _p(t.count_ms, 99)),
    "evidence.index_build_s": _time("evidence.load_corpus_file"),
    "evidence.cache_load_s": ("s", _CACHE, lambda t: t.inc("evidence.cache_load")),
    "evidence.cache_hits": ("count", _CACHE, lambda t: t.counter("cache_hits")),
    "evidence.cache_misses": ("count", _CACHE, lambda t: t.counter("cache_misses")),
    "evidence.cache_put_s": ("s", _CACHE, lambda t: t.inc("evidence.cache_put")),
    "evidence.cache_bytes_written": ("bytes", [], lambda t: t.cache_bytes),
    "measures.unithood_s": _time("measures.unithood"),
    "measures.unithood_calls": ("count", ["measures.unithood"], lambda t: t.calls(
        "measures.unithood")),
    "evaluation.sweep_self_s": ("s", ["evaluation.sweep"], lambda t: t.own("evaluation.sweep")),
    "evaluation.score_s": _time("evaluation.score"),
    "evaluation.grid_points": _count("grid_points", "evaluation.sweep"),
    "evaluation.unithood_calls_per_row": ("count", ["evaluation.sweep", "measures.unithood"],
                                          lambda t: t.ratio(t.unithood_in_sweep,
                                                            t.counter("sweep_rows"))),
    "cli.startup_s": ("s", [], lambda t: t.startup),
    "cli.overhead_s": ("s", [], lambda t: t.overhead),
}


class ChainTrace:
    """The traces of one chain's commands, summed."""

    def __init__(self, traces: list[Trace]):
        self.traces = traces
        self.names = {n for t in traces for n in t.inclusive}
        self.count_ms = [v for t in traces for v in t.count_ms]
        self.unithood_in_sweep = sum(t.unithood_in_sweep for t in traces)
        self.startup = sum(t.startup for t in traces)
        self.overhead = sum(t.overhead for t in traces)
        self.cache_bytes = sum(t.cache_bytes for t in traces)

    def inc(self, name: str) -> float:
        return sum(t.inclusive.get(name, 0.0) for t in self.traces)

    def own(self, name: str) -> float:
        return sum(t.self_time.get(name, 0.0) for t in self.traces)

    def calls(self, name: str) -> int:
        return sum(t.calls.get(name, 0) for t in self.traces)

    def counter(self, name: str) -> int:
        return sum(t.counters.get(name, 0) for t in self.traces)

    @staticmethod
    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0


def layer_metrics(traces: list[Trace]) -> tuple[dict[str, float], set[str]]:
    absent_spans = {name for t in traces for name in t.absent}
    chain = ChainTrace(traces)
    values, absent = {}, set()
    for metric, (_, needs, value) in PER_LAYER.items():
        if absent_spans.intersection(needs):
            absent.add(metric)
        else:
            values[metric] = value(chain)
    return values, absent


# ---------------------------------------------------------------------------
# The measurement loop and the report


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (ROOT / "src" / "unithood" / "cli.py").is_file():
        raise SystemExit("error: %s has no src/unithood package to benchmark" % ROOT)
    d = ROOT / ".perfbench_work" / ("%s-%d-%d" % (name, seed, os.getpid()))
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, d)
        # Compile the package's bytecode before anything is timed.
        if spawn([sys.executable, "-c", IMPORT_ONLY], d)[0] != 0:
            raise SystemExit("error: the unithood package does not import:\n"
                             + (d / "stderr.txt").read_text(encoding="utf-8", errors="replace"))
        return _loop(name, workload, d, seconds, trace)
    finally:
        shutil.rmtree(d, ignore_errors=True)
        try:
            d.parent.rmdir()
        except OSError:
            pass


def _loop(name: str, workload: Workload, d: Path, seconds: float, trace: bool) -> dict:
    chains, traced, setups = [], [], []
    attempted = failed = 0
    start = time.monotonic()
    while True:
        began = time.monotonic()
        for is_traced in ((False, True) if trace else (False,)):
            chain = run_chain(workload, d, is_traced)
            attempted += 1
            failed += not chain.ok
            (traced if is_traced else chains).append(chain)
        if not trace:
            wall, ok = time_setup(workload, d)
            setups.append(wall)
            attempted += 1
            failed += not ok
        now = time.monotonic()
        if len(chains) >= MIN_CHAINS and now + (now - began) > start + seconds:
            break
    summary = {"workload": name, "chains": len(chains), "attempted": attempted, "failed": failed}
    walls = [c.wall for c in chains]
    if trace:
        untraced = statistics.median(walls)
        metrics = {}
        absent = set().union(*(c.absent for c in traced))
        for metric, (unit, _, _) in PER_LAYER.items():
            values = [c.layers[metric] for c in traced if c.layers and metric in c.layers]
            if metric not in absent and values:
                metrics[metric] = (statistics.median(values), unit)
        metrics["trace.overhead_share"] = (
            statistics.median(c.wall for c in traced) / untraced - 1.0, "ratio")
        summary["absent"] = sorted(absent)
    else:
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "decisions_per_s": (statistics.median(workload.work / w for w in walls), "1/s"),
            "peak_rss_mb": (statistics.median(c.peak_rss_kb for c in chains) / 1024.0, "MB"),
        }
        for command in workload.commands:
            values = [c.commands[command.name] for c in chains]
            summary["%s_s" % command.name] = (statistics.median(values), "s")
        summary["spread"] = {"wall_s": _spread(walls), "setup_s": _spread(setups)}
        summary["failed_share"] = (failed / attempted, "ratio")
    summary["metrics"] = metrics
    return summary


def _spread(values: list[float]) -> str:
    return "min %.4f max %.4f n=%d" % (min(values), max(values), len(values))


def _print_summary(summary: dict) -> None:
    print("workload %s: %d chain(s), %d attempted, %d failed" % (
        summary["workload"], summary["chains"], summary["attempted"], summary["failed"]))
    rows = dict(summary["metrics"])
    rows.update({k: v for k, v in summary.items() if isinstance(v, tuple)})
    for metric, (value, unit) in rows.items():
        print("  %-36s %14.6g %s" % (metric, value, unit))
    for metric, text in summary.get("spread", {}).items():
        print("  %-36s %s" % (metric + " range", text))
    for metric in summary.get("absent", ()):
        print("  %-36s absent" % metric)


def _result(summaries: list[dict], prefix: bool) -> dict:
    metrics = {}
    for s in summaries:
        for metric, (value, unit) in s["metrics"].items():
            metrics["%s/%s" % (s["workload"], metric) if prefix else metric] = {"value": value, "unit": unit}
    failed = sum(s["failed"] for s in summaries)
    return {
        "correct": failed == 0,
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    summaries = []
    for name in names:
        summary = measure(name, args.seed, args.seconds, bool(args.trace))
        _print_summary(summary)
        summaries.append(summary)
    print(json.dumps(_result(summaries, prefix=args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
