"""Basic graph-pattern matching with grouping and aggregation.

Supports conjunctive triple patterns (no OPTIONAL, FILTER expressions,
property paths, or federation), an optional GROUP BY variable with
AVG/COUNT/MIN/MAX/SUM aggregates, and an optional context filter that
restricts matching to one context's slice of the graph.

Evaluation runs a plan, a list of steps fixed before any triple is read.
The join order is most-selective-first, as in the SPARQL basic graph
pattern literature (Stocker et al., WWW 2008): before each step the
patterns left are sorted, stably, by how many of their variables are still
unbound, then by how many triples have their predicate, and the first one
is taken. Which variables are bound depends only on the steps already
taken, so the whole order is known up front. A solution is a tuple of
terms: the pattern's constants, then its variables in the order the steps
bind them. Each step records which of its positions the solution already
holds (a constant or a variable an earlier step bound) and where, so it
decides before reading any solution which of the graph's hash indexes it
reads and cuts each solution's key out with one `itemgetter`: a solution
costs one `dict.get`, which gives the list of the key's triples, or `()`
for a key with none. Of each triple in that list, only the new variables
are read, and only a variable repeated inside the pattern (`?x ex:p ?x`) is
compared. `context_slice` reads the same indexes, the same way.

Aggregation semantics:

- Solution mappings are computed with set semantics (a conjunctive
  pattern over a triple set yields each full mapping once); projections
  behave as bags, so COUNT without DISTINCT counts group members.
- Numeric aggregates are exact. An xsd:integer literal whose lexical
  form `int` reads is an int; any other xsd numeric literal is read
  through `Decimal` into an exact rational (`fractions.Fraction`). AVG
  is rendered as a decimal with a documented scale (default 2,
  ROUND_HALF_UP), COUNT is an int, and SUM/MIN/MAX render as ints when
  integral and scaled decimals otherwise. A value with more digits than
  Python writes out as text (`sys.set_int_max_str_digits`) is a
  `QueryError` naming the aggregate and the literal, and a decimal whose
  scale alone passes that limit is one naming the aggregate and the scale.
- A query with no solutions yields an empty table, including under
  aggregation (simpler than SPARQL's single all-empty row).
"""

from __future__ import annotations

import csv
import io
import re
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, InvalidOperation
from fractions import Fraction
from functools import cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple

from .parser import ParseError, _Parser
from .terms import (
    RDF_TYPE,
    XSD,
    BlankNode,
    Graph,
    InputError,
    Iri,
    Literal,
    Term,
    Triple,
    _ABSOLUTE_IRI,
    term_sort_key,
)
from .vocabulary import CORE, CoreVocabulary, DimensionRegistry


class QueryError(InputError):
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
_XSD_INTEGER = XSD.integer
# Under this context `scaleb` moves the exponent and rounds nothing.
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
# The most digits `str` writes out of an int, read per call since
# `sys.set_int_max_str_digits` may change it; 0 where there is no limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


@dataclass(frozen=True)
class Variable:
    """A named variable in a triple pattern, written ``?name`` in text."""

    name: str

    def __post_init__(self) -> None:
        if not _VARIABLE_RE.match(self.name):
            raise QueryError(f"invalid variable name {self.name!r}")

    def __repr__(self) -> str:
        return f"?{self.name}"


@dataclass(frozen=True)
class TriplePattern:
    """One triple pattern; each position is a concrete term or a variable."""

    subject: Term | Variable
    predicate: Term | Variable
    object: Term | Variable

    def __post_init__(self) -> None:
        for position in (self.subject, self.predicate, self.object):
            if not isinstance(position, Variable | Term):
                raise QueryError(f"a pattern position must be a variable or an RDF term, got {position!r}")
        if isinstance(self.subject, Literal):
            raise QueryError("a literal cannot be a subject")
        if not isinstance(self.predicate, Variable | Iri):
            raise QueryError("the predicate must be an IRI or variable")

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


class _Step(NamedTuple):
    """One triple pattern of a plan, compiled against the slots that the
    plan's constants and the steps before it fill. `bound` lists the
    pattern's positions (0 subject, 1 predicate, 2 object) whose term a
    solution already holds, and `key` cuts those terms out of a solution in
    position order: the key of the graph's index on `bound`, or the whole
    triple when all three are bound. `binds` names the new variables in the
    order `new` cuts their terms out of a matching triple. `repeats` pairs
    the position of a new variable's first occurrence with each later one
    (`?x ex:p ?x`), which a triple must fill with the same term."""

    pattern: TriplePattern
    bound: tuple[int, ...]
    key: itemgetter | None
    binds: tuple[str, ...]
    new: slice
    repeats: tuple[tuple[int, int], ...]


class _Plan(NamedTuple):
    """A join order and the layout of its solutions: each solution starts
    with `head`, the pattern's distinct constants, and `slots` maps every
    constant (by its term) and variable (by its name) to its place in a
    solution."""

    head: tuple[Term, ...]
    steps: list[_Step]
    slots: dict[Term | str, int]


def _compile(tp: TriplePattern, slots: dict[Term | str, int]) -> _Step:
    """`tp` as the step after those that bound `slots`; its new variables
    take the next slots."""
    bound: list[int] = []
    places: list[int] = []
    first: dict[str, int] = {}
    repeats: list[tuple[int, int]] = []
    for i, position in enumerate((tp.subject, tp.predicate, tp.object)):
        if isinstance(position, Variable):
            position = position.name
        if position in slots:
            bound.append(i)
            places.append(slots[position])
        elif position in first:
            repeats.append((first[position], i))
        else:
            first[position] = i
    for name in first:
        slots[name] = len(slots)
    # Any subset of the three positions is evenly spaced, so one slice
    # cuts it out of a triple.
    new = list(first.values())
    cut = slice(new[0], new[-1] + 1, new[1] - new[0] if len(new) > 1 else 1) if new else slice(0, 0)
    key = itemgetter(*places) if places else None
    return _Step(tp, tuple(bound), key, tuple(first), cut, tuple(repeats))


def _plan(graph: Graph, patterns: Iterable[TriplePattern]) -> _Plan:
    """The join order, most-selective-first: before each step the patterns
    left are sorted, stably, by fewest unbound variables, then smallest
    predicate extent, and the first one is taken. Which variables are bound
    depends only on the steps taken, so the order is fixed before any
    triple is read."""
    patterns = list(patterns)
    slots: dict[Term | str, int] = {}
    for tp in patterns:
        for position in (tp.subject, tp.predicate, tp.object):
            if not isinstance(position, Variable):
                slots.setdefault(position, len(slots))
    head = tuple(slots)
    # Each pattern with its variables' names and its predicate's extent,
    # read once.
    by_predicate = graph._index((1,))
    remaining = [
        (
            tp,
            [v.name for v in tp.variables()],
            len(by_predicate.get(tp.predicate, ())) if isinstance(tp.predicate, Iri) else len(graph),
        )
        for tp in patterns
    ]
    steps: list[_Step] = []
    while remaining:
        remaining.sort(key=lambda item: (sum(name not in slots for name in item[1]), item[2]))
        steps.append(_compile(remaining.pop(0)[0], slots))
    return _Plan(head, steps, slots)


def _solve(graph: Graph, plan: _Plan) -> list[tuple[Term, ...]]:
    """All solution mappings of the plan's conjunction, each a tuple of the
    plan's constants and then the terms of its variables in the order the
    steps bind them. A step with one or two positions bound reads one
    bucket of one index per solution; the bucket's triples match every
    bound position, so the step reads only its new variables and checks
    only its repeats. A step with all three bound tests membership, and one
    with none reads every triple, in set order, which no row shows."""
    solutions: list[tuple[Term, ...]] = [plan.head]
    for _, bound, key, _, new, repeats in plan.steps:
        if len(bound) == 3:
            solutions = [binding for binding in solutions if key(binding) in graph]
        elif not bound:
            cuts = [t[new] for t in graph._triples if all(t[a] is t[b] for a, b in repeats)]
            solutions = [binding + cut for binding in solutions for cut in cuts]
        else:
            get = graph._index(bound).get
            solutions = [
                binding + t[new]
                for binding in solutions
                for t in get(key(binding), ())
                if not repeats or all(t[a] is t[b] for a, b in repeats)
            ]
        if not solutions:
            break
    return solutions


def _numeric_value(term: Term, aggregate: Aggregate) -> int | Fraction:
    """An int for an xsd:integer that `int` reads; else a `Fraction` read
    through `Decimal`, which also reads `1__0` and numbers past the digit
    limit of `int`."""
    if not isinstance(term, Literal) or term.datatype not in _NUMERIC_DATATYPES:
        raise QueryError(
            f"{aggregate.function}(?{aggregate.variable.name}) needs xsd numeric "
            f"literals, got {term.n3()}"
        )
    if term.datatype is _XSD_INTEGER:
        try:
            return int(term.lexical)
        except ValueError:
            pass
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


class _ScalePastLimit(ValueError):
    """A decimal result's scale alone passes the digit limit."""


def _fraction_to_decimal(value: Fraction, scale: int) -> Decimal:
    """`value` rounded half away from zero (ROUND_HALF_UP) to `scale`
    places; a negative value that rounds to zero keeps its sign (`-0.00`).
    Raises ValueError when `str` refuses the numerator or denominator, and
    its subclass `_ScalePastLimit` when `scale` alone passes the digit limit,
    before the cost of `10**scale` places is paid. An interpreter without a
    limit (3.10, or a limit of 0) writes any scale out."""
    if 0 < _int_max_str_digits() < scale:
        raise _ScalePastLimit(f"{scale} places pass the digit limit")
    numerator, denominator = value.numerator, value.denominator
    str(numerator), str(denominator)  # refused here, where the caller can name the aggregate
    units, rest = divmod(abs(numerator) * 10**scale, denominator)
    result = Decimal(units + (2 * rest >= denominator)).scaleb(-scale, _EXACT)
    return result.copy_negate() if numerator < 0 else result


def _reduce(function: str, values: list[int | Fraction], scale: int) -> int | Decimal:
    """SUM, MIN, MAX or AVG of exact values: an int when integral, a decimal
    at `scale` otherwise and always for AVG. Raises ValueError when the
    value has more digits than `str` writes out."""
    if function == AVG:
        return _fraction_to_decimal(Fraction(sum(values), len(values)), scale)
    result = sum(values) if function == SUM else min(values) if function == MIN else max(values)
    if result.denominator != 1:
        return _fraction_to_decimal(result, scale)
    result = int(result)
    str(result)  # refused here, where the caller can name the aggregate, not when the table is written
    return result


def _aggregate_value(aggregate: Aggregate, terms: list[Term], scale: int) -> object:
    if aggregate.distinct:
        terms = sorted(set(terms), key=term_sort_key)
    if aggregate.function == COUNT:
        return len(terms)
    # An error names the first offender in term order, not in the order of
    # the solutions, which follows hash buckets: only the error path sorts.
    try:
        values = [_numeric_value(term, aggregate) for term in terms]
    except QueryError:
        for term in sorted(terms, key=term_sort_key):
            _numeric_value(term, aggregate)
        raise
    try:
        return _reduce(aggregate.function, values, scale)
    except _ScalePastLimit:
        raise QueryError(
            f"{aggregate.function}(?{aggregate.variable.name}) at SCALE {scale} has more "
            "digits than Python writes out as text (see sys.set_int_max_str_digits)"
        ) from None
    except ValueError:
        longest = max(sorted(terms, key=term_sort_key), key=lambda term: len(term.lexical))
        lexical = longest.lexical
        shown = longest.n3() if len(lexical) <= 40 else (
            f'"{lexical[:20]}..."^^{longest.datatype.n3()} ({len(lexical):,} characters)'
        )
        raise QueryError(
            f"{aggregate.function}(?{aggregate.variable.name}) over {shown} has more "
            "digits than Python writes out as text (see sys.set_int_max_str_digits)"
        ) from None


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
    plan = _plan(graph, pattern.patterns)
    solutions = _solve(graph, plan)
    slot = plan.slots  # variables by name

    if pattern.aggregates or pattern.group_by is not None:
        groups: dict[Term | None, list[tuple[Term, ...]]] = {}
        if pattern.group_by is None:
            if solutions:
                groups[None] = solutions
        else:
            key_slot = slot[pattern.group_by.name]
            for binding in solutions:
                groups.setdefault(binding[key_slot], []).append(binding)
        columns: list[str] = []
        if pattern.group_by is not None:
            columns.append(pattern.group_by.name)
        columns.extend(agg.name for agg in pattern.aggregates)
        keys = sorted(groups, key=lambda k: term_sort_key(k) if k is not None else "")
        rows = []
        for key in keys:
            group = groups[key]
            row: list[object] = [] if key is None else [key]
            for agg in pattern.aggregates:
                value_slot = slot[agg.variable.name]
                row.append(_aggregate_value(agg, [b[value_slot] for b in group], pattern.scale))
            rows.append(tuple(row))
        return ResultTable(tuple(columns), tuple(rows))

    columns = tuple(v.name for v in pattern.variables())
    order = [slot[name] for name in columns]
    rows = sorted(
        {tuple([binding[i] for i in order]) for binding in solutions},
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
    """The subgraph of `graph` scoped to one context, collected in two walks.

    A contextual part is *in* the slice when it, or a part-chain ancestor
    (Contexts-in-Context), has an extent edge that
    `PatternVocabulary.attributed`, the rule `decontextualize` reads
    contexts with, attributes to `context`, to `(dimension, context)` when
    a dimension is given: the first walk goes down the partOf edges from
    those hits. The second walks out from the parts in the slice and keeps
    their chains' scaffolding, their data and their contexts' descriptions,
    so the slice decontextualizes on its own.
    """
    if dimension is not None and dimension not in registry:
        raise QueryError(
            f"unknown dimension {dimension!r} in the context filter; "
            f"registered: {', '.join(registry.names())}"
        )
    if not isinstance(context, Iri):
        raise QueryError(f"the context filter needs an IRI, got {context!r}")
    pattern = registry.pattern_vocabulary(vocab)
    # The graph's indexes on the subject and on the predicate and object,
    # read directly: a slice makes one lookup per node and property it visits.
    by_s, by_po = graph._index((0,)), graph._index((1, 2))

    @cache  # read per node, so a slice costs what it visits, not the whole graph
    def is_part(node: Term) -> bool:
        return any(
            t.predicate in pattern.part_of or (t.predicate == RDF_TYPE and t.object in pattern.part_classes)
            for t in by_s.get(node, ())
        )

    # Direct hits: the subjects of the extent edges, to `context` or to an
    # IRI that lists it, whose attributed pairs hold `context` (in
    # `dimension`, if given).
    listing = [t.subject for t in by_po.get((pattern.member_context, context), ()) if isinstance(t.subject, Iri)]
    hits = [
        t.subject
        for target in [context, *listing]
        for prop in pattern.extents
        if (edges := by_po.get((prop, target))) and any(
            ctx == context and (dimension is None or name == dimension)
            for name, ctx in pattern.attributed(graph, prop, target)
        )
        for t in edges
    ]

    def children(node: Term) -> Iterator[Term]:
        return (t.subject for prop in pattern.part_of for t in by_po.get((prop, node), ()))

    # A part is in the slice when it or a part-chain ancestor is a direct
    # hit, so walk down from every hit along the partOf edges reversed.
    reached = {node for node in _closure(hits, children) if is_part(node)}

    # Then walk out from the parts in the slice. A part keeps its scaffolding
    # and steps up its partOf edges to parts and out its extent edges to
    # non-parts (a part used as a context is read as a part); one in the
    # slice also keeps its data triples whose object is in it or is no part.
    # Any other node (a context, or one describing it) keeps all its triples
    # and steps to their objects that are neither literals nor parts.
    kept: set[Triple] = set()

    def out(node: Term) -> list[Term]:
        triples = by_s.get(node, ())
        if not is_part(node):
            kept.update(triples)
            return [t.object for t in triples if not isinstance(t.object, Literal) and not is_part(t.object)]
        steps = []
        for t in triples:
            if t.predicate in pattern.scaffolding:
                kept.add(t)
                if t.predicate in (pattern.part_of if is_part(t.object) else pattern.extents):
                    steps.append(t.object)
            elif node in reached and (t.object in reached or not is_part(t.object)):
                kept.add(t)
        return steps

    _closure(reached, out)
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
# error message names; `parse_pattern` handles the match. The terms of
# PREFIX and CONTEXT lines are read by `_Parser.read_line`.
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


# A PREFIX line's IRI that `_Parser.read_line` would read as written: an
# absolute IRI as `Iri` accepts it (so free of a backslash, which would
# start an escape) with nothing after it, so its value is stored without
# the term walk. Any other text (a relative IRI, an escape, a comment,
# another token) is read by `_Parser.read_line`.
_PLAIN_IRI_RE = re.compile(f"<({_ABSOLUTE_IRI})>")


def parse_pattern(text: str) -> Pattern:
    """Parse the textual pattern format (see `PATTERN_GRAMMAR`)."""
    reader = _Parser(strict=False, quads=False)
    patterns: list[TriplePattern] = []
    group_by: Variable | None = None
    aggregates: list[Aggregate] = []
    context: tuple[str, Iri] | None = None
    scale = DEFAULT_SCALE

    def read(source: str, line_number: int) -> list[Term | Variable]:
        try:
            terms = reader.read_line(source)
        except ParseError as exc:
            raise QueryError(f"line {line_number}: {exc.reason}") from None
        return [Variable(term) if isinstance(term, str) else term for term in terms]

    # Only CR and LF end a line: a literal may hold any other line separator.
    for line_number, raw in enumerate(re.split(r"\r\n?|\n", text), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        keyword = line.split(None, 1)[0].upper()
        if keyword not in _KEYWORD_LINES:
            terms = read(line, line_number)
            if len(terms) != 3:
                raise QueryError(f"line {line_number}: a triple pattern needs exactly 3 terms, got {len(terms)}")
            if BlankNode in map(type, terms):
                raise QueryError(f"line {line_number}: blank nodes are not allowed in a pattern; use a ?variable")
            try:
                patterns.append(TriplePattern(*terms))
            except QueryError as exc:
                raise QueryError(f"line {line_number}: {exc}") from None
            continue
        regex, form = _KEYWORD_LINES[keyword]
        m = regex.fullmatch(line)
        if m is None:
            raise QueryError(f"line {line_number}: expected {form}")
        if keyword == "PREFIX":
            plain = _PLAIN_IRI_RE.fullmatch(m.group(2))
            if plain is not None:
                value = plain.group(1)
            else:
                terms = read(m.group(2), line_number)
                if len(terms) != 1 or not isinstance(terms[0], Iri):
                    raise QueryError(f"line {line_number}: expected PREFIX name: <iri>")
                value = terms[0].value
            reader.prefixes[m.group(1) or ""] = value
        elif keyword == "GROUP":
            if group_by is not None:
                raise QueryError(f"line {line_number}: GROUP BY given twice")
            group_by = Variable(m.group(1))
        elif keyword == "AGG":
            function = m.group(1).upper()
            if function not in AGGREGATE_FUNCTIONS:
                raise QueryError(f"line {line_number}: unknown aggregate {m.group(1)!r}")
            aggregates.append(
                Aggregate(function, Variable(m.group(3)), m.group(4), distinct=bool(m.group(2)))
            )
        elif keyword == "CONTEXT":
            if context is not None:
                raise QueryError(f"line {line_number}: CONTEXT given twice")
            terms = read(m.group(2), line_number)
            if len(terms) != 1 or not isinstance(terms[0], Iri):
                raise QueryError(f"line {line_number}: context must be an IRI")
            context = (m.group(1), terms[0])
        else:  # SCALE
            try:
                scale = int(m.group(1))
            except ValueError:
                raise QueryError(
                    f"line {line_number}: SCALE has more digits than Python reads as a number "
                    "(see sys.set_int_max_str_digits)"
                ) from None
    if not patterns:
        raise QueryError("pattern file has no triple patterns")
    return Pattern(
        tuple(patterns),
        group_by=group_by,
        aggregates=tuple(aggregates),
        context=context,
        scale=scale,
    )
