"""Command-line interface.

Subcommands: extract, decide, eval, sweep, counts warm.  Data goes to
files or standard output; diagnostics go to standard error; the exit
status is 0 exactly when no error path was taken.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterator, Sequence, TextIO

from . import evaluation, pipeline
from .evidence import MissingCountError, TransportError
from .extractor import extract_candidates, form_pairs, sentence_connectors
from .measures import THRESHOLD_DEFAULTS_DOC, threshold_value
from .parse_ingest import read_json_object, read_parse_file

# ParseFileError, UndefinedEvidenceError, EvaluationError and ConfigError are ValueErrors.
_ERRORS = (MissingCountError, TransportError, ValueError, OSError)


def _read(path: str, reader: Callable[[BinaryIO], Any]) -> Any:
    with open(path, "rb") as handle:  # read_rows decodes each line alone
        return reader(handle)


def _staged(path: str) -> bool:
    """A regular or new file is staged by _output; a device or pipe is written in place."""
    return os.path.isfile(path) or not os.path.exists(path)


@contextmanager
def _output(path: str | None) -> Iterator[TextIO | None]:
    """None for no path, standard output for "-".  A staged file is written beside itself,
    or beside the file a link names, and moved into place only once the block succeeds."""
    if path is None or path == "-":
        yield None if path is None else sys.stdout
        return
    staged = _staged(path)
    target = os.path.realpath(path) if staged and os.path.islink(path) else path
    temporary = "%s.%s.tmp" % (target, os.urandom(4).hex()) if staged else target
    try:
        handle = open(temporary, "x" if staged else "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the path asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with handle:
            yield handle
        if staged:
            os.replace(temporary, target)
    except BaseException:
        if staged:
            os.unlink(temporary)
        raise


def _distinct_outputs(*paths: str | None) -> None:
    """Refuse two staged outputs that are one file, before anything is read or written."""
    seen: set[str] = set()
    for path in paths:
        if path is not None and path != "-" and _staged(path):
            if (real := os.path.realpath(path)) in seen:
                raise ValueError("two outputs are one file: %s" % path)
            seen.add(real)


def _load_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    config = pipeline.PipelineConfig(cache_path=args.cache)  # checks --cache before --config
    if args.config:
        config = pipeline.load_config(args.config, args.cache)
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
    _distinct_outputs(args.out_candidates, args.out_pairs)
    sentences = _read(args.parse_file, read_parse_file)
    all_candidates, all_pairs = [], []
    for sentence in sentences:
        candidates = extract_candidates(sentence)
        all_candidates.extend(candidates)
        all_pairs.extend(form_pairs(candidates, sentence_connectors(sentence)))
    # Neither file is replaced unless both are written; the pairs file is moved into place last.
    with _output(args.out_pairs) as pairs, _output(args.out_candidates) as candidates:
        pipeline.write_candidates_file(all_candidates, candidates)
        pipeline.write_pairs_file(all_pairs, pairs)
    print(
        "extracted %d candidate(s) and %d pair(s) from %d sentence(s)"
        % (len(all_candidates), len(all_pairs), len(sentences)),
        file=sys.stderr,
    )
    return 0


def _cmd_decide(args: argparse.Namespace) -> int:
    config = _load_config(args)
    _distinct_outputs(args.out, args.decorated_out, config.cache_path)
    sentences = pipeline.sentences_of(_read(args.pairs_file, pipeline.read_pairs_file))
    injected = _read(args.scores, pipeline.read_scores_file) if args.scores else None
    with (
        pipeline.build_provider(config, sentences) if config.provider else nullcontext()
    ) as provider, _output(args.out) as out, _output(args.decorated_out) as decorated:
        # Each pair's rows are written as it is decided, so no record is kept.
        decided, merged, uncounted = pipeline.write_records(pipeline.decide(
            sentences, config.thresholds, provider, injected, config.max_merge_passes),
            out, decorated)
    if args.decorated_out and uncounted:
        print(
            "%d pair(s) decided from injected scores carry no raw counts "
            "and were left out of the decorated file" % uncounted,
            file=sys.stderr,
        )
    print(
        "decided %d pair(s): %d merged, %d not merged" % (decided, merged, decided - merged),
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    decisions = _read(args.decisions_file, pipeline.read_decisions_file)
    gold = _read(args.gold_file, pipeline.read_gold_file)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = evaluation.score(decisions, gold)
    for warning in caught:
        print("warning: %s" % warning.message, file=sys.stderr)
    pipeline.write_eval_report(table, sys.stdout)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, inline = args.grid_spec, args.grid_spec.lstrip().startswith("{")
    data = os.fsencode(spec) if inline else Path(spec).read_bytes()  # argv's own bytes
    grid = read_json_object(data, "grid spec" if inline else "grid spec %s" % spec)
    if not grid:  # sweep checks the rest of its shape, but takes {} for the default point
        raise ValueError("grid spec must be a non-empty JSON object")
    decorated = _read(args.decorated_file, pipeline.read_decorated_file)
    gold = _read(args.gold_file, pipeline.read_gold_file)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        points = evaluation.sweep(decorated, gold, grid, args.sort_key)
    for warning in caught:
        print("note: %s" % warning.message, file=sys.stderr)
    with _output(args.out) as out:
        pipeline.write_sweep_file(points, out)
    print("swept %d grid point(s)" % len(points), file=sys.stderr)
    return 0


def _cmd_counts_warm(args: argparse.Namespace) -> int:
    config = _load_config(args)
    pairs = _read(args.pairs_file, pipeline.read_pairs_file)
    # Only a corpus counts the sentences' closure; other providers need no offset tables.
    sentences = pipeline.sentences_of(pairs) if (config.provider or [None])[0] == "corpus" else None
    with pipeline.build_provider(config, sentences) as provider:
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
    p.add_argument("--out", default="-", help="decision TSV (default: stdout)")
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
    p.add_argument("--out", default="-", help="report TSV (default: stdout)")
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
