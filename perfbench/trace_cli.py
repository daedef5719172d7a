"""Run one unithood CLI command with spans around each layer's public functions.

Usage: python3 trace_cli.py SPANS_FILE [unithood arguments ...]

The package is imported unchanged.  Before ``cli.main`` runs, each
public function listed in ``WRAPPED`` is replaced, in every unithood
module that binds it, by a wrapper that records a span (name, start,
end, parent).  The provider ``pipeline.build_provider`` returns and the
count cache ``pipeline`` constructs get their ``count``/``get``/``put``
methods wrapped the same way.  Spans stay in memory and are written to
SPANS_FILE when the command ends: one JSON header line, then the parent,
name, start and end arrays.  A listed function that no longer exists is
named in the header's ``absent`` list and the command still runs.
"""

import sys
import time

import unithood.cli

T_READY = time.monotonic()

import array  # noqa: E402
import json  # noqa: E402

WRAPPED = {
    "parse_ingest": ("read_parse_file",),
    "extractor": ("extract_candidates", "form_pairs", "merge_pass"),
    "evidence": ("gather_evidence", "load_corpus_file"),
    "measures": ("unithood",),
    "pipeline": (
        "load_config", "build_provider", "read_pairs_file", "read_decorated_file",
        "read_decisions_file", "read_gold_file", "decide_pairs", "warm_counts",
        "write_candidates_file", "write_pairs_file", "write_decisions_file",
        "write_decorated_file",
    ),
    "evaluation": ("sweep", "score"),
}
PACKAGE = "unithood"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parent = array.array("i")
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = {}
        self.phrases: set[str] = set()
        self.absent: list[str] = []

    def add(self, counter: str, n: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + n

    def wrap(self, span_name, fn, post=None):
        code = len(self.names)
        self.names.append(span_name)
        parent, name, start, end, stack = self.parent, self.name, self.start, self.end, self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(parent)
            parent.append(stack[-1])
            name.append(code)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if post is not None:
                post(args, result)
            return result

        return traced

    def dump(self, path: str) -> None:
        header = {
            "names": self.names,
            "n": len(self.parent),
            "t_ready": T_READY,
            "counters": dict(self.counters, count_distinct=len(self.phrases)),
            "absent": self.absent,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for column in (self.parent, self.name, self.start, self.end):
                column.tofile(handle)


def _modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _rebind(original, replacement) -> None:
    for module in _modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _posts(tracer: Tracer) -> dict:
    def rows(args, result):
        tracer.add("rows", sum(len(getattr(s, "tokens", ())) for s in result))

    def decided(args, result):
        tracer.add("records", len(result))
        tracer.add("input_pairs", len(args[0]))

    def swept(args, result):
        tracer.add("sweep_rows", len(args[0]))
        tracer.add("grid_points", len(result))

    def build_provider(args, provider):
        if hasattr(provider, "count"):
            provider.count = tracer.wrap("evidence.count", provider.count, counted)

    def counted(args, result):
        tracer.phrases.add(" ".join(args[0].split()).lower())

    return {
        "parse_ingest.read_parse_file": rows,
        "extractor.extract_candidates": lambda a, r: tracer.add("candidates", len(r)),
        "extractor.form_pairs": lambda a, r: tracer.add("pairs", len(r)),
        "pipeline.decide_pairs": decided,
        "pipeline.build_provider": build_provider,
        "evaluation.sweep": swept,
    }


def _wrap_cache(tracer: Tracer) -> None:
    """Time count-cache construction and wrap the instance's get/put."""
    from unithood import pipeline

    cache_cls = getattr(pipeline, "CountCache", None)
    if cache_cls is None:
        tracer.absent.append("evidence.CountCache")
        return

    def looked_up(args, result):
        tracer.add("cache_hits" if result is not None else "cache_misses", 1)

    def construct(*args, **kwargs):
        cache = cache_cls(*args, **kwargs)
        cache.get = tracer.wrap("evidence.cache_get", cache.get, looked_up)
        cache.put = tracer.wrap("evidence.cache_put", cache.put)
        return cache

    _rebind(cache_cls, tracer.wrap("evidence.cache_load", construct))


def install(tracer: Tracer) -> None:
    posts = _posts(tracer)
    for layer, functions in WRAPPED.items():
        module = sys.modules.get("%s.%s" % (PACKAGE, layer))
        for function in functions:
            span_name = "%s.%s" % (layer, function)
            original = getattr(module, function, None)
            if original is None:
                tracer.absent.append(span_name)
                continue
            _rebind(original, tracer.wrap(span_name, original, posts.get(span_name)))
    _wrap_cache(tracer)


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    run = tracer.wrap("cli.main", unithood.cli.main)
    try:
        return run(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
