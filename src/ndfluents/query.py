"""Basic graph-pattern matching with grouping and aggregation.

Supports conjunctive triple patterns (no OPTIONAL, FILTER expressions,
property paths, or federation), an optional GROUP BY variable with
AVG/COUNT/MIN/MAX/SUM aggregates, and an optional context filter that
restricts matching to one context's slice of the graph.

Aggregation semantics:

- Solution mappings are computed with set semantics (a conjunctive
  pattern over a triple set yields each full mapping once); projections
  behave as bags, so COUNT without DISTINCT counts group members.
- Numeric aggregates parse xsd numeric literals into exact rationals
  (`fractions.Fraction`); AVG is rendered as a decimal with a documented
  scale (default 2, ROUND_HALF_UP), COUNT is an int, and SUM/MIN/MAX
  render as ints when integral and scaled decimals otherwise.
- A query with no solutions yields an empty table, including under
  aggregation (simpler than SPARQL's single all-empty row).
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation, localcontext
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping

from .parser import ParseError, TermReader
from .terms import (
    RDF_TYPE,
    XSD,
    BlankNode,
    Graph,
    Iri,
    Literal,
    Term,
    Triple,
    term_sort_key,
)
from .vocabulary import CORE, CoreVocabulary, DimensionRegistry


class QueryError(ValueError):
    """A malformed pattern, unusable aggregate input, or bad pattern file."""


_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_VARIABLE_RE = re.compile(f"^{_NAME}$")

AVG = "AVG"
COUNT = "COUNT"
MIN = "MIN"
MAX = "MAX"
SUM = "SUM"
AGGREGATE_FUNCTIONS = frozenset({AVG, COUNT, MIN, MAX, SUM})

DEFAULT_SCALE = 2

_NUMERIC_DATATYPES = frozenset(
    getattr(XSD, name)
    for name in (
        "integer",
        "decimal",
        "float",
        "double",
        "long",
        "int",
        "short",
        "byte",
        "nonNegativeInteger",
        "nonPositiveInteger",
        "positiveInteger",
        "negativeInteger",
        "unsignedLong",
        "unsignedInt",
        "unsignedShort",
        "unsignedByte",
    )
)


@dataclass(frozen=True)
class Variable:
    """A named variable in a triple pattern, written ``?name`` in text."""

    name: str

    def __post_init__(self) -> None:
        if not _VARIABLE_RE.match(self.name):
            raise QueryError(f"invalid variable name {self.name!r}")

    def __repr__(self) -> str:
        return f"?{self.name}"


PatternTerm = "Term | Variable"


@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern; each position is a concrete term or a variable."""

    subject: Term | Variable
    predicate: Term | Variable
    object: Term | Variable

    def variables(self) -> Iterator[Variable]:
        for position in (self.subject, self.predicate, self.object):
            if isinstance(position, Variable):
                yield position


@dataclass(frozen=True)
class Aggregate:
    """An aggregate column: function over a pattern variable, named output."""

    function: str
    variable: Variable
    name: str
    distinct: bool = False

    def __post_init__(self) -> None:
        if self.function not in AGGREGATE_FUNCTIONS:
            raise QueryError(
                f"unknown aggregate function {self.function!r}; "
                f"expected one of {', '.join(sorted(AGGREGATE_FUNCTIONS))}"
            )
        if not self.name:
            raise QueryError("aggregate output name must be non-empty")


@dataclass(frozen=True)
class Pattern:
    """A conjunctive query: triple patterns, optional grouping/aggregation,
    and an optional ``(dimension name, context IRI)`` filter that restricts
    matching to that context's slice."""

    patterns: tuple[TriplePattern, ...]
    group_by: Variable | None = None
    aggregates: tuple[Aggregate, ...] = ()
    context: tuple[str, Iri] | None = None
    scale: int = DEFAULT_SCALE

    def __post_init__(self) -> None:
        object.__setattr__(self, "patterns", tuple(self.patterns))
        object.__setattr__(self, "aggregates", tuple(self.aggregates))
        if not self.patterns:
            raise QueryError("a pattern needs at least one triple pattern")
        known = {v.name for tp in self.patterns for v in tp.variables()}
        if self.group_by is not None and self.group_by.name not in known:
            raise QueryError(
                f"group variable ?{self.group_by.name} does not appear in the pattern"
            )
        names: set[str] = set()
        for agg in self.aggregates:
            if agg.variable.name not in known:
                raise QueryError(
                    f"aggregate variable ?{agg.variable.name} does not appear in the pattern"
                )
            if agg.name in names:
                raise QueryError(f"duplicate aggregate output name {agg.name!r}")
            names.add(agg.name)
        if self.scale < 0:
            raise QueryError("decimal scale must be >= 0")
        if self.context is not None and not self.context[0]:
            raise QueryError("context filter needs a dimension name")

    def variables(self) -> tuple[Variable, ...]:
        """Pattern variables in order of first appearance."""
        seen: dict[str, Variable] = {}
        for tp in self.patterns:
            for v in tp.variables():
                seen.setdefault(v.name, v)
        return tuple(seen.values())


@dataclass(frozen=True)
class ResultTable:
    """Named columns and rows of bindings/aggregate values.

    Cells hold `Term` for bindings, `int` for COUNT and integral
    SUM/MIN/MAX, and `Decimal` for other numeric aggregates.
    """

    columns: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "rows", tuple(tuple(row) for row in self.rows))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise QueryError(
                    f"row width {len(row)} does not match {len(self.columns)} columns"
                )

    def __len__(self) -> int:
        return len(self.rows)

    def column(self, name: str) -> tuple[object, ...]:
        try:
            index = self.columns.index(name)
        except ValueError:
            raise QueryError(f"no column named {name!r}") from None
        return tuple(row[index] for row in self.rows)

    def to_csv(self) -> str:
        """Render as CSV: IRIs as plain IRIs, literals as lexical forms,
        numbers via `str`."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([render_cell(cell) for cell in row])
        return buffer.getvalue()


def render_cell(cell: object) -> str:
    if isinstance(cell, Iri):
        return cell.value
    if isinstance(cell, Literal):
        return cell.lexical
    if isinstance(cell, BlankNode):
        return cell.n3()
    return str(cell)


# ---------------------------------------------------------------------------
# Pattern matching


def _substitute(position: Term | Variable, binding: Mapping[str, Term]) -> Term | None:
    if isinstance(position, Variable):
        return binding.get(position.name)
    return position


def _extend(
    tp: TriplePattern, triple: Triple, binding: Mapping[str, Term]
) -> dict[str, Term] | None:
    out = dict(binding)
    for position, value in (
        (tp.subject, triple.subject),
        (tp.predicate, triple.predicate),
        (tp.object, triple.object),
    ):
        if isinstance(position, Variable):
            bound = out.get(position.name)
            if bound is None:
                out[position.name] = value
            elif bound != value:
                return None
        elif position != value:
            return None
    return out


def _selectivity(
    graph: Graph, tp: TriplePattern, bound: set[str]
) -> tuple[int, int]:
    unbound = sum(1 for v in tp.variables() if v.name not in bound)
    if isinstance(tp.predicate, Variable) and tp.predicate.name not in bound:
        extent = len(graph)
    else:
        predicate = tp.predicate
        if isinstance(predicate, Variable) or not isinstance(predicate, Iri):
            extent = len(graph)
        else:
            extent = graph.count(None, predicate, None)
    return (unbound, extent)


def _solve(graph: Graph, patterns: Iterable[TriplePattern]) -> list[dict[str, Term]]:
    """All solution mappings of the conjunction, joined most-selective-first
    (fewest unbound variables, then smallest predicate extent)."""
    solutions: list[dict[str, Term]] = [{}]
    remaining = list(patterns)
    while remaining and solutions:
        bound = set(solutions[0])
        remaining.sort(key=lambda tp: _selectivity(graph, tp, bound))
        tp = remaining.pop(0)
        next_solutions: list[dict[str, Term]] = []
        for binding in solutions:
            s = _substitute(tp.subject, binding)
            p = _substitute(tp.predicate, binding)
            o = _substitute(tp.object, binding)
            if p is not None and not isinstance(p, Iri):
                continue
            if s is not None and isinstance(s, Literal):
                continue
            for triple in graph.match(s, p, o):
                extended = _extend(tp, triple, binding)
                if extended is not None:
                    next_solutions.append(extended)
        solutions = next_solutions
    return solutions if remaining == [] else []


def _numeric_value(term: Term, aggregate: Aggregate) -> Fraction:
    if not isinstance(term, Literal) or term.datatype not in _NUMERIC_DATATYPES:
        raise QueryError(
            f"{aggregate.function}(?{aggregate.variable.name}) needs xsd numeric "
            f"literals, got {term.n3()}"
        )
    try:
        decimal_value = Decimal(term.lexical)
        if not decimal_value.is_finite():
            raise InvalidOperation
        return Fraction(decimal_value)
    except (InvalidOperation, ValueError, ArithmeticError):
        raise QueryError(
            f"unparseable numeric literal {term.n3()} under "
            f"{aggregate.function}(?{aggregate.variable.name})"
        ) from None


def _fraction_to_decimal(value: Fraction, scale: int) -> Decimal:
    quantum = Decimal(1).scaleb(-scale)
    digits = len(str(abs(value.numerator))) + len(str(value.denominator))
    with localcontext() as context:
        context.prec = digits + scale + 10
        result = Decimal(value.numerator) / Decimal(value.denominator)
        return result.quantize(quantum, rounding=ROUND_HALF_UP)


def _aggregate_value(
    aggregate: Aggregate, group: list[Mapping[str, Term]], scale: int
) -> object:
    terms = [binding[aggregate.variable.name] for binding in group]
    if aggregate.distinct:
        terms = sorted(set(terms), key=term_sort_key)
    if aggregate.function == COUNT:
        return len(terms)
    values = [_numeric_value(term, aggregate) for term in terms]
    if aggregate.function == SUM:
        result = sum(values, Fraction(0))
    elif aggregate.function == MIN:
        result = min(values)
    elif aggregate.function == MAX:
        result = max(values)
    else:  # AVG
        return _fraction_to_decimal(sum(values, Fraction(0)) / len(values), scale)
    if result.denominator == 1:
        return int(result)
    return _fraction_to_decimal(result, scale)


def match(
    graph: Graph,
    pattern: Pattern,
    registry: DimensionRegistry | None = None,
    vocab: CoreVocabulary = CORE,
) -> ResultTable:
    """Evaluate `pattern` against `graph`.

    When the pattern carries a context filter, matching runs over
    `context_slice` of the graph, which needs the dimension `registry`.
    """
    if pattern.context is not None:
        if registry is None:
            raise QueryError("a context filter needs a dimension registry")
        dimension, context = pattern.context
        graph = context_slice(graph, registry, context, dimension=dimension, vocab=vocab)
    solutions = _solve(graph, pattern.patterns)

    if pattern.aggregates:
        groups: dict[Term | None, list[dict[str, Term]]] = {}
        for binding in solutions:
            key = binding[pattern.group_by.name] if pattern.group_by else None
            groups.setdefault(key, []).append(binding)
        columns: list[str] = []
        if pattern.group_by is not None:
            columns.append(pattern.group_by.name)
        columns.extend(agg.name for agg in pattern.aggregates)
        keys = sorted(groups, key=lambda k: term_sort_key(k) if k is not None else "")
        rows = []
        for key in keys:
            row: list[object] = [] if key is None else [key]
            row.extend(
                _aggregate_value(agg, groups[key], pattern.scale)
                for agg in pattern.aggregates
            )
            rows.append(tuple(row))
        return ResultTable(tuple(columns), tuple(rows))

    if pattern.group_by is not None:
        keys = sorted(
            {binding[pattern.group_by.name] for binding in solutions},
            key=term_sort_key,
        )
        return ResultTable((pattern.group_by.name,), tuple((key,) for key in keys))

    variables = pattern.variables()
    columns = tuple(v.name for v in variables)
    rows = sorted(
        {tuple(binding[name] for name in columns) for binding in solutions},
        key=lambda row: tuple(term_sort_key(cell) for cell in row),
    )
    return ResultTable(columns, tuple(rows))


# ---------------------------------------------------------------------------
# Context slicing


def _closure(nodes: Iterable[Term], step: Callable[[Term], Iterable[Term]]) -> set[Term]:
    """`nodes` and every node reachable from them by repeated `step`s."""
    found: set[Term] = set()
    frontier = list(nodes)
    while frontier:
        node = frontier.pop()
        if node not in found:
            found.add(node)
            frontier.extend(step(node))
    return found


def context_slice(
    graph: Graph,
    registry: DimensionRegistry,
    context: Iri,
    dimension: str | None = None,
    vocab: CoreVocabulary = CORE,
) -> Graph:
    """The subgraph of `graph` scoped to one context.

    A contextual part is *in* the slice when it has an extent edge to
    `context` — directly, through a combined context that lists `context`
    as a member, or via a part-chain ancestor (Contexts-in-Context). Data
    triples are kept when their subject (and object, when it is a part) is
    in the slice; each kept part brings its typing, partOf, and extent
    scaffolding for the whole chain plus the context descriptions, so the
    slice decontextualizes on its own.

    `dimension`, when given, only accepts extent edges attributed to that
    dimension (directly or via a typed member context).
    """
    if dimension is not None and dimension not in registry:
        raise QueryError(
            f"unknown dimension {dimension!r} in the context filter; "
            f"registered: {', '.join(registry.names())}"
        )
    pattern = registry.pattern_vocabulary(vocab)
    is_part = partial(pattern.is_part, graph)

    # Direct hits. The extent of a registered dimension attributes its
    # context by itself. Any other extent reaches `context` through a
    # combined context that lists it as a member, attributed by the
    # member's types, or directly when `context` lists no members and no
    # dimension is asked for.
    hits = [
        t.subject
        for prop, dim in pattern.extent_dimension.items()
        if dimension is None or dim.name == dimension
        for t in graph.match(None, prop, context)
    ]
    attributed = {
        pattern.context_dimension[t.object].name
        for t in graph.match(context, RDF_TYPE)
        if t.object in pattern.context_dimension
    }
    targets = [
        link.subject
        for link in graph.match(None, vocab.memberContext, context)
        if isinstance(link.subject, Iri) and (dimension is None or dimension in attributed)
    ]
    if dimension is None and not any(
        isinstance(t.object, Iri) for t in graph.match(context, vocab.memberContext)
    ):
        targets.append(context)
    for prop in pattern.extents - pattern.extent_dimension.keys():
        hits.extend(t.subject for target in targets for t in graph.match(None, prop, target))

    def children(node: Term) -> Iterator[Term]:
        return (t.subject for prop in pattern.part_of for t in graph.match(None, prop, node))

    def parent_parts(node: Term) -> Iterator[Term]:
        return (t.object for prop in pattern.part_of for t in graph.match(node, prop) if is_part(t.object))

    # A part is in the slice when it or a part-chain ancestor is a direct
    # hit, so walk down from every hit along the partOf edges reversed.
    reached = {node for node in _closure(hits, children) if is_part(node)}
    # Scaffolding closure: every chain ancestor of a kept part comes along so
    # the slice stays decontextualizable.
    chains = _closure(reached, parent_parts)

    # Each kept part's scaffolding, and the data triples of the parts in the
    # slice whose object is not a part outside it.
    scaffold_predicates = pattern.part_of | pattern.extents | {vocab.memberContext, RDF_TYPE}
    kept: set[Triple] = set()
    contexts: set[Term] = set()
    for part in chains:
        for triple in graph.match(part):
            if triple.predicate in scaffold_predicates:
                kept.add(triple)
                if triple.predicate in pattern.extents:
                    contexts.add(triple.object)
            elif part in reached and (triple.object in reached or not is_part(triple.object)):
                kept.add(triple)

    # Member links and the member contexts themselves.
    for ctx in list(contexts):
        for triple in graph.match(ctx, vocab.memberContext, None):
            kept.add(triple)
            contexts.add(triple.object)

    # Context description closure (typing plus any non-scaffolding triples
    # hanging off the context nodes, e.g. interval year descriptions).
    def description(node: Term) -> list[Triple]:
        return [t for t in graph.match(node) if t.predicate not in pattern.part_of]

    def described(node: Term) -> Iterator[Term]:
        return (
            t.object for t in description(node)
            if not isinstance(t.object, Literal) and not is_part(t.object)
        )

    for node in _closure((ctx for ctx in contexts if not is_part(ctx)), described):
        kept.update(description(node))

    return Graph(kept, name=graph.name)


# ---------------------------------------------------------------------------
# Textual pattern files


PATTERN_GRAMMAR = """\
A pattern file is line-oriented. Blank lines and `#` comments are skipped.

  PREFIX name: <iri>            declare a prefix (one per line)
  <s> <p> <o> .                 a triple pattern; the trailing dot is optional
  GROUP BY ?var                 group solutions by one variable
  AGG FUNC ?var AS name         add an aggregate column (AVG, COUNT, MIN,
                                MAX, or SUM); `AGG FUNC DISTINCT ?var AS name`
                                deduplicates first
  CONTEXT dimension <iri>       restrict matching to one context's slice
  SCALE n                       decimal places for AVG and non-integral
                                aggregates (default 2)

Terms are Turtle's plus `?variable`: `<iri>`, `prefix:local` (letters and
digits of any script, `_`, `-` and `.`; write an IRI with `/`, `#` or `%`
there as `<iri>`), `a` (rdf:type) as the predicate, a quoted literal with
optional `@lang` or `^^datatype`, or a number (`5`, `-0.5`). Blank nodes
are not allowed.
"""

# Each keyword line's regex, which a comment may follow, and the form its
# error message names; `_<keyword>_line` handles the match. The terms of
# PREFIX and CONTEXT lines are read by the TermReader.
_KEYWORD_LINES = {
    keyword: (re.compile(regex + r"\s*(?:#.*)?", re.IGNORECASE), form)
    for keyword, regex, form in [
        ("PREFIX", r"PREFIX\s+([^\W_][\w.-]*)?:\s*(<.*)", "PREFIX name: <iri>"),
        ("GROUP", rf"GROUP\s+BY\s+\?({_NAME})", "GROUP BY ?variable"),
        ("AGG", rf"AGG\s+([A-Za-z]+)\s+(DISTINCT\s+)?\?({_NAME})\s+AS\s+({_NAME})", "AGG FUNC [DISTINCT] ?var AS name"),
        ("CONTEXT", r"CONTEXT\s+([A-Za-z][A-Za-z0-9]*)\s+(\S.*)", "CONTEXT dimension <iri>"),
        ("SCALE", r"SCALE\s+([0-9]+)", "SCALE n"),
    ]
}


class _PatternParser:
    def __init__(self) -> None:
        self.reader = TermReader()
        self.patterns: list[TriplePattern] = []
        self.group_by: Variable | None = None
        self.aggregates: list[Aggregate] = []
        self.context: tuple[str, Iri] | None = None
        self.scale = DEFAULT_SCALE

    def parse(self, text: str) -> Pattern:
        # Only CR and LF end a line: a literal may hold any other line separator.
        for line_number, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            keyword = line.split(None, 1)[0].upper()
            if keyword not in _KEYWORD_LINES:
                self._triple_line(line, line_number)
                continue
            regex, form = _KEYWORD_LINES[keyword]
            m = regex.fullmatch(line)
            if m is None:
                raise QueryError(f"line {line_number}: expected {form}")
            getattr(self, f"_{keyword.lower()}_line")(m, line_number)
        if not self.patterns:
            raise QueryError("pattern file has no triple patterns")
        return Pattern(
            tuple(self.patterns),
            group_by=self.group_by,
            aggregates=tuple(self.aggregates),
            context=self.context,
            scale=self.scale,
        )

    def _read(self, text: str, line_number: int) -> list[Term | Variable]:
        try:
            terms = self.reader.read(text)
        except ParseError as exc:
            raise QueryError(f"line {line_number}: {exc.reason}") from None
        return [Variable(term) if isinstance(term, str) else term for term in terms]

    def _prefix_line(self, m: re.Match, line_number: int) -> None:
        terms = self._read(m.group(2), line_number)
        if len(terms) != 1 or not isinstance(terms[0], Iri):
            raise QueryError(f"line {line_number}: expected PREFIX name: <iri>")
        self.reader.prefixes[m.group(1) or ""] = terms[0].value

    def _group_line(self, m: re.Match, line_number: int) -> None:
        if self.group_by is not None:
            raise QueryError(f"line {line_number}: GROUP BY given twice")
        self.group_by = Variable(m.group(1))

    def _agg_line(self, m: re.Match, line_number: int) -> None:
        function = m.group(1).upper()
        if function not in AGGREGATE_FUNCTIONS:
            raise QueryError(f"line {line_number}: unknown aggregate {m.group(1)!r}")
        self.aggregates.append(
            Aggregate(function, Variable(m.group(3)), m.group(4), distinct=bool(m.group(2)))
        )

    def _context_line(self, m: re.Match, line_number: int) -> None:
        if self.context is not None:
            raise QueryError(f"line {line_number}: CONTEXT given twice")
        terms = self._read(m.group(2), line_number)
        if len(terms) != 1 or not isinstance(terms[0], Iri):
            raise QueryError(f"line {line_number}: context must be an IRI")
        self.context = (m.group(1), terms[0])

    def _scale_line(self, m: re.Match, line_number: int) -> None:
        self.scale = int(m.group(1))

    def _triple_line(self, line: str, line_number: int) -> None:
        terms = self._read(line, line_number)
        if len(terms) != 3:
            raise QueryError(
                f"line {line_number}: a triple pattern needs exactly 3 terms, got {len(terms)}"
            )
        subject, predicate, obj = terms
        if BlankNode in map(type, terms):
            raise QueryError(f"line {line_number}: blank nodes are not allowed in a pattern; use a ?variable")
        if isinstance(subject, Literal):
            raise QueryError(f"line {line_number}: a literal cannot be a subject")
        if isinstance(predicate, Literal):
            raise QueryError(f"line {line_number}: the predicate must be an IRI or variable")
        self.patterns.append(TriplePattern(subject, predicate, obj))


def parse_pattern(text: str) -> Pattern:
    """Parse the textual pattern format (see `PATTERN_GRAMMAR`)."""
    return _PatternParser().parse(text)
