"""Span tracing for the traced run.

`install()` replaces the names through which callers reach each layer's
public functions (`ndfluents.cli.parse`, `ndfluents.query.match`,
`ndfluents.terms.Graph.match`, ...) with wrappers that record a span per
call: name, start, end, parent span and operation id. Spans stay in
memory until `write()`. Counts (triples out, rows, match calls, ...) are
recorded at the same boundaries. The untraced run never imports this
module.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

# Per-layer metrics in print order, with their units. `_ms` values are self
# time: a span's duration minus the time of the spans nested in it.
METRICS = {
    "cli.contextualize_ms": "ms",
    "cli.decontextualize_ms": "ms",
    "formats.read_statements_csv_ms": "ms",
    "formats.write_statements_csv_ms": "ms",
    "contextualize.contextualize_ms": "ms",
    "contextualize.decontextualize_ms": "ms",
    "contextualize.triples_out": "count",
    "serializer.canonicalize_ms": "ms",
    "serializer.serialize_ms": "ms",
    "serializer.bytes_out": "B",
    "parser.parse_ms": "ms",
    "parser.triples_per_s": "triples/s",
    "query.parse_pattern_ms": "ms",
    "query.match.population_ms": "ms",
    "query.match.join_ms": "ms",
    "query.match.slice_ms": "ms",
    "query.match.lookup_ms": "ms",
    "query.context_slice_ms": "ms",
    "query.slice_triples": "count",
    "query.rows": "count",
    "terms.graph_match_calls": "count",
    "terms.graph_match_yield_per_call": "triples/call",
    "terms.sorted_triples_ms": "ms",
    "terms.sorted_triples_calls": "count",
    "reasoner.saturate_ms": "ms",
    "reasoner.validate_ms": "ms",
    "reasoner.derived_triples": "count",
    "reasoner.violations": "count",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, op]
        self.stack: list[int] = []
        self.op: int | str | None = None
        self.counts: dict[tuple, float] = defaultdict(float)
        self.replaced: list[tuple[object, str, object]] = []

    def count(self, name: str, value: float = 1, op=None) -> None:
        self.counts[(self.op if op is None else op, name)] += value

    def wrap(self, owner: object, attribute: str, name, after=None) -> None:
        """Replace `owner.attribute` with a span-recording wrapper. `name` is
        a span name or a function of the call's arguments; `after` records
        counts from the result."""
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name if isinstance(name, str) else name(args), time.perf_counter(), None, parent, self.op]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(self, result)
            return result

        setattr(owner, attribute, traced)
        self.replaced.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.replaced):
            setattr(owner, attribute, original)
        self.replaced.clear()

    def self_times(self) -> dict[tuple, float]:
        """Seconds of self time per (op, span name)."""
        nested = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                nested[parent] += end - start
        out: dict[tuple, float] = defaultdict(float)
        for (name, start, end, parent, op), inner in zip(self.spans, nested):
            out[(op, name)] += end - start - inner
        return out

    def write(self, path: Path, summary: dict) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write(json.dumps({"summary": summary}) + "\n")
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
        return path


def _match_label(args: tuple) -> str:
    """Names a `match` call after the mix entry its pattern is."""
    pattern = args[1]
    if pattern.context is not None:
        kind = "slice"
    elif len(pattern.patterns) == 1:
        kind = "lookup"
    else:
        kind = "population" if len(pattern.patterns) > 2 else "join"
    return f"query.match.{kind}"


def install() -> Tracer:
    tracer = Tracer()
    cli = importlib.import_module("ndfluents.cli")
    contextualize = importlib.import_module("ndfluents.contextualize")
    parser = importlib.import_module("ndfluents.parser")
    query = importlib.import_module("ndfluents.query")
    reasoner = importlib.import_module("ndfluents.reasoner")
    terms = importlib.import_module("ndfluents.terms")

    def triples_out(t, graph):
        t.count("contextualize.triples_out", len(graph))

    def bytes_out(t, text):
        t.count("serializer.bytes_out", len(text.encode("utf-8")))

    def parsed(t, data):
        graphs = [data] if isinstance(data, terms.Graph) else data
        t.count("parser.triples", sum(len(g) for g in graphs))

    tracer.wrap(cli, "main", lambda args: f"cli.{args[0][0]}")
    tracer.wrap(cli, "read_statements_csv", "formats.read_statements_csv")
    tracer.wrap(cli, "write_statements_csv", "formats.write_statements_csv")
    tracer.wrap(cli, "contextualize", "contextualize.contextualize", triples_out)
    tracer.wrap(contextualize, "contextualize", "contextualize.contextualize", triples_out)
    tracer.wrap(cli, "decontextualize", "contextualize.decontextualize")
    tracer.wrap(cli, "canonicalize", "serializer.canonicalize")
    tracer.wrap(cli, "serialize", "serializer.serialize", bytes_out)
    tracer.wrap(cli, "parse", "parser.parse", parsed)
    tracer.wrap(parser, "parse", "parser.parse", parsed)
    tracer.wrap(query, "parse_pattern", "query.parse_pattern")
    tracer.wrap(query, "match", _match_label, lambda t, table: t.count("query.rows", len(table.rows)))
    tracer.wrap(
        query, "context_slice", "query.context_slice",
        lambda t, graph: t.count("query.slice_triples", len(graph)),
    )
    tracer.wrap(
        reasoner, "saturate", "reasoner.saturate",
        lambda t, result: t.count("reasoner.derived_triples", len(result.derived)),
    )
    tracer.wrap(
        reasoner, "validate", "reasoner.validate",
        lambda t, violations: t.count("reasoner.violations", len(violations)),
    )
    tracer.wrap(
        terms.Graph, "sorted_triples", "terms.sorted_triples",
        lambda t, _: t.count("terms.sorted_triples_calls"),
    )

    match = terms.Graph.match

    def counted_match(graph, *args, **kwargs):
        op = tracer.op
        tracer.count("terms.graph_match_calls", op=op)
        yielded = 0
        try:
            for triple in match(graph, *args, **kwargs):
                yielded += 1
                yield triple
        finally:
            tracer.count("terms.graph_match_yielded", yielded, op=op)

    terms.Graph.match = counted_match
    tracer.replaced.append((terms.Graph, "match", match))
    return tracer


def summary(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: the median over timed operations of each value
    per operation; for a layer that only set-up exercises (parsing in
    `query`), the median per set-up; 0 for a layer the workload never
    reaches."""
    per_op: dict[object, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for (op, name), seconds in tracer.self_times().items():
        per_op[op][f"{name}_ms"] += seconds * 1000
    for (op, name), value in tracer.counts.items():
        per_op[op][name] += value
    for values in per_op.values():
        if values.get("parser.parse_ms"):
            values["parser.triples_per_s"] = values["parser.triples"] / (values["parser.parse_ms"] / 1000)
        if values.get("terms.graph_match_calls"):
            values["terms.graph_match_yield_per_call"] = (
                values["terms.graph_match_yielded"] / values["terms.graph_match_calls"]
            )
    timed = [values for op, values in per_op.items() if isinstance(op, int)]
    setups = [values for op, values in per_op.items() if isinstance(op, str)]
    metrics: dict[str, tuple[float, str]] = {}
    for name, unit in METRICS.items():
        for group in (timed, setups):
            if any(name in values for values in group):
                metrics[name] = (statistics.median(values.get(name, 0.0) for values in group), unit)
                break
        else:
            metrics[name] = (0.0, unit)
    return metrics
