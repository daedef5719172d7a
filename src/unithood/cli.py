"""Command-line interface.

Subcommands: extract, decide, eval, sweep, counts warm.  Data goes to
files or standard output; diagnostics go to standard error; the exit
status is 0 exactly when no error path was taken.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
import warnings
from pathlib import Path
from typing import Sequence

from . import evaluation, pipeline
from .evidence import MissingCountError, TransportError
from .extractor import extract_candidates, form_pairs, sentence_connectors
from .measures import THRESHOLD_DEFAULTS_DOC, threshold_value
from .parse_ingest import read_json_object, read_parse_file

# ParseFileError, UndefinedEvidenceError, EvaluationError and ConfigError are ValueErrors.
_ERRORS = (MissingCountError, TransportError, ValueError, OSError)


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            yield handle


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    if args.config:
        config = pipeline.load_config(args.config)
    else:
        config = pipeline.PipelineConfig()
    if getattr(args, "cache", None):
        config = dataclasses.replace(config, cache_path=args.cache)
    overrides = {}
    for item in getattr(args, "threshold", None) or []:
        name, _, value = item.partition("=")
        if not value:
            raise pipeline.ConfigError(
                "threshold override must look like name=value, got %r" % item
            )
        overrides[name] = threshold_value(name, value, text=True)
    return dataclasses.replace(
        config, thresholds=dataclasses.replace(config.thresholds, **overrides)
    )


def _cmd_extract(args: argparse.Namespace) -> int:
    with open(args.parse_file, encoding="utf-8") as handle:
        sentences = read_parse_file(handle)
    all_candidates = []
    all_pairs = []
    for sentence in sentences:
        candidates = extract_candidates(sentence)
        all_candidates.extend(candidates)
        all_pairs.extend(form_pairs(candidates, sentence_connectors(sentence)))
    with _open_out(args.out_candidates) as handle:
        pipeline.write_candidates_file(all_candidates, handle)
    with _open_out(args.out_pairs) as handle:
        pipeline.write_pairs_file(all_pairs, handle)
    print(
        "extracted %d candidate(s) and %d pair(s) from %d sentence(s)"
        % (len(all_candidates), len(all_pairs), len(sentences)),
        file=sys.stderr,
    )
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    config = _load_config(args)
    with open(args.pairs_file, encoding="utf-8") as handle:
        pairs = pipeline.read_pairs_file(handle)
    injected = None
    if args.scores:
        with open(args.scores, encoding="utf-8") as handle:
            injected = pipeline.read_scores_file(handle)
    with (
        pipeline.build_provider(config) if config.has_provider() else contextlib.nullcontext()
    ) as provider:
        records = pipeline.decide_pairs(
            pairs, config.thresholds, provider, injected, config.max_merge_passes
        )
    with _open_out(args.out) as handle:
        pipeline.write_decisions_file(records, handle)
    if args.decorated_out:
        skipped = sum(1 for r in records if r.evidence is None)
        with _open_out(args.decorated_out) as handle:
            pipeline.write_decorated_file(records, handle)
        if skipped:
            print(
                "%d pair(s) decided from injected scores carry no raw counts "
                "and were left out of the decorated file" % skipped,
                file=sys.stderr,
            )
    merged = sum(1 for r in records if r.merged)
    print(
        "decided %d pair(s): %d merged, %d not merged"
        % (len(records), merged, len(records) - merged),
        file=sys.stderr,
    )
    return 0


def _percent(value: float | None) -> str:
    return "NA" if value is None else "%.2f%%" % (value * 100.0)


def _cmd_eval(args: argparse.Namespace) -> int:
    with open(args.decisions_file, encoding="utf-8") as handle:
        decisions = pipeline.read_decisions_file(handle)
    with open(args.gold_file, encoding="utf-8") as handle:
        gold = pipeline.read_gold_file(handle)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = evaluation.score(decisions, gold)
    for warning in caught:
        print("warning: %s" % warning.message, file=sys.stderr)
    metrics = evaluation.compute_metrics(table)
    print("tp\t%d" % table.tp)
    print("fp\t%d" % table.fp)
    print("fn\t%d" % table.fn)
    print("tn\t%d" % table.tn)
    print("total\t%d" % table.total)
    print("precision\t%s" % _percent(metrics.precision))
    print("recall\t%s" % _percent(metrics.recall))
    print("f1\t%s" % _percent(metrics.f_score))
    print("paper_f\t%s" % _percent(metrics.paper_f))
    print("accuracy\t%s" % _percent(metrics.accuracy))
    return 0


def _read_grid(spec: str) -> dict[str, list]:
    inline = spec.lstrip().startswith("{")
    text = spec if inline else Path(spec).read_text(encoding="utf-8")
    raw = read_json_object(text, "grid spec" if inline else "grid spec %s" % spec)
    if not raw:
        raise ValueError("grid spec must be a non-empty JSON object")
    for name, values in raw.items():
        if not isinstance(values, list):
            raise ValueError("grid axis %r must be a list of numbers" % name)
    return raw  # evaluation.sweep checks each name and value


def _cmd_sweep(args: argparse.Namespace) -> int:
    grid = _read_grid(args.grid_spec)
    with open(args.decorated_file, encoding="utf-8") as handle:
        decorated = pipeline.read_decorated_file(handle)
    with open(args.gold_file, encoding="utf-8") as handle:
        gold = pipeline.read_gold_file(handle)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = evaluation.sweep(decorated, gold, grid, args.sort_key)
    for warning in caught:
        print("note: %s" % warning.message, file=sys.stderr)
    with _open_out(args.out) as handle:
        handle.write(
            "# mi_plus\tmi_minus\tid_t\tidr_plus\tidr_minus\ttp\tfp\tfn\ttn"
            "\tprecision\trecall\tf1\tpaper_f\taccuracy\n"
        )
        for point in points:
            t, table, m = point.thresholds, point.table, point.metrics
            handle.write(
                "\t".join(
                    ["%g" % v for v in (t.mi_plus, t.mi_minus, t.id_t, t.idr_plus, t.idr_minus)]
                    + ["%d" % v for v in (table.tp, table.fp, table.fn, table.tn)]
                    + [
                        "NA" if v is None else "%.4f" % v
                        for v in (m.precision, m.recall, m.f_score, m.paper_f, m.accuracy)
                    ]
                )
                + "\n"
            )
    print("swept %d grid point(s)" % len(points), file=sys.stderr)
    return 0


def _cmd_counts_warm(args: argparse.Namespace) -> int:
    config = _load_config(args)
    with open(args.pairs_file, encoding="utf-8") as handle:
        pairs = pipeline.read_pairs_file(handle)
    with pipeline.build_provider(config) as provider:
        n = pipeline.warm_counts(pairs, provider)
    print("warmed %d phrase(s)" % n, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unithood",
        description=(
            "Extract term candidates from dependency-parsed text and decide, "
            "from document-count evidence, which adjacent candidates form a "
            "single lexical unit."
        ),
    )
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--cache", help="count cache file (overrides the config)")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("extract", help="parse file -> candidate and pair TSVs")
    p.add_argument("parse_file")
    p.add_argument("out_candidates")
    p.add_argument("out_pairs")
    p.set_defaults(fn=_cmd_extract)

    p = commands.add_parser("decide", help="pairs TSV -> merge decisions")
    p.add_argument("pairs_file")
    p.add_argument("--out", help="decision TSV (default: stdout)")
    p.add_argument("--decorated-out", help="also write pair ids with raw counts")
    p.add_argument("--scores", help="TSV of externally supplied scores")
    p.add_argument(
        "--threshold",
        action="append",
        metavar="NAME=VALUE",
        help="override one threshold, e.g. --threshold mi_plus=0.9; defaults: %s"
        % THRESHOLD_DEFAULTS_DOC,
    )
    p.set_defaults(fn=_cmd_decide)

    p = commands.add_parser("eval", help="decisions + gold -> contingency table and metrics")
    p.add_argument("decisions_file")
    p.add_argument("gold_file")
    p.set_defaults(fn=_cmd_eval)

    p = commands.add_parser("sweep", help="decorated pairs + gold + grid -> metric report")
    p.add_argument("decorated_file")
    p.add_argument("gold_file")
    p.add_argument("grid_spec", help="JSON file or inline JSON object of threshold lists")
    p.add_argument("--out", help="report TSV (default: stdout)")
    p.add_argument("--sort-key", default="f_score", choices=evaluation.METRIC_NAMES)
    p.set_defaults(fn=_cmd_sweep)

    p = commands.add_parser("counts", help="count cache utilities")
    sub = p.add_subparsers(dest="counts_command", required=True)
    w = sub.add_parser("warm", help="pre-fetch counts for a pairs file into the cache")
    w.add_argument("pairs_file")
    w.set_defaults(fn=_cmd_counts_warm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        if isinstance(exc, evaluation.EvaluationError) and exc.orphans:
            for orphan in exc.orphans:
                print("orphan pair id: %s" % orphan, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
