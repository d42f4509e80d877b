"""Expected outputs, computed from the generated corpus alone.

Nothing here calls the program. The checks rebuild what a correct run
must produce: the statement set a round trip returns, the exact triple
set of the contextual-part graph, the query tables (exact rationals,
half-up rounding at the pattern's scale) and the violations a seeded
graph must raise. The vocabulary IRIs are the ones the paper's temporal
and provenance dimensions and core module define.
"""

from __future__ import annotations

import csv
import io
import re
from collections import defaultdict
from fractions import Fraction

from inputs import (
    DATA,
    EX,
    POP,
    RDF_TYPE,
    TIME,
    XSD_INTEGER,
    Corpus,
    Statement,
    description_triples,
    interval_iri,
)

T4D = "http://purl.org/NET/ndfluents/4dFluents#"
PROVD = "http://purl.org/NET/ndfluents/provenance#"
ND = "http://purl.org/NET/ndfluents#"

# dimension -> (part class, partOf, extent, context class)
DIMENSIONS = {
    "temporal": (T4D + "TemporalPart", T4D + "temporalPartOf", T4D + "temporalExtent", T4D + "Interval"),
    "provenance": (
        PROVD + "ProvenancePart",
        PROVD + "provenancePartOf",
        PROVD + "provenanceExtent",
        PROVD + "Provenance",
    ),
}

# Violation kinds named as the validator reports them.
DISJOINT = "DisjointClasses"
FUNCTIONAL = "FunctionalConflict"
RANGE_COMPLEMENT = "RangeComplement"
SAME_EXTENT = "SameExtentRule"


class CheckFailed(AssertionError):
    """An output differs from what the corpus says it must be."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _local(iri: str) -> str:
    return iri.rsplit("#", 1)[1] if "#" in iri else iri.rstrip("/").rsplit("/", 1)[-1]


def part_iri(entity: str, contexts: list[str]) -> str:
    """Suffix minting: the entity IRI, `@`, and the sorted context local
    names joined by `_`."""
    return f"{entity}@{'_'.join(sorted(_local(c) for c in contexts))}"


def contexts_of(s: Statement) -> list[tuple[str, str]]:
    return [("temporal", s.interval), ("provenance", s.activity)]


def object_token(s: Statement, part: str | None) -> str:
    if s.literal:
        return f'"{s.obj}"^^<{XSD_INTEGER}>'
    return f"<{part}>"


# --- convert -----------------------------------------------------------------


def statement_rows(corpus: Corpus) -> set[tuple]:
    """The statement set as (s, p, o, objectType, {(dim, ctx)}) rows."""
    return {
        (
            s.subject,
            s.predicate,
            s.obj,
            f"literal:{XSD_INTEGER}" if s.literal else "iri",
            frozenset(contexts_of(s)),
        )
        for s in corpus
    }


def read_statement_rows(text: str) -> set[tuple]:
    """Rows of a statements CSV, read with the standard csv module."""
    rows = list(csv.reader(io.StringIO(text)))
    require(bool(rows) and rows[0][:4] == ["subject", "predicate", "object", "objectType"],
            "statements CSV lacks its header")
    out = set()
    for row in rows[1:]:
        if not row:
            continue
        pairs = [(d, c) for d, c in zip(row[4::2], row[5::2]) if d or c]
        out.add((row[0], row[1], row[2], row[3], frozenset(pairs)))
    require(len(out) == len(rows) - 1, "statements CSV repeats a row")
    return out


def multi_context_graph(corpus: Corpus) -> set[tuple[str, str, str]]:
    """Every triple `contextualize --merge` must write under the default
    multi-context model: three per (part, dimension), one typing triple
    per context, one per statement, and the description triples."""
    triples: set[tuple[str, str, str]] = set()

    def attach(entity: str, s: Statement) -> str:
        part = part_iri(entity, [s.interval, s.activity])
        for dim, ctx in contexts_of(s):
            part_class, part_of, extent, context_class = DIMENSIONS[dim]
            triples.add((part, RDF_TYPE, f"<{part_class}>"))
            triples.add((part, part_of, f"<{entity}>"))
            triples.add((part, extent, f"<{ctx}>"))
            triples.add((ctx, RDF_TYPE, f"<{context_class}>"))
        return part

    for s in corpus:
        subject_part = attach(s.subject, s)
        object_part = None if s.literal else attach(s.obj, s)
        triples.add((subject_part, s.predicate, object_token(s, object_part)))
    triples.update(description_triples(corpus))
    return triples


_TURTLE_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<iri><[^<>\s]*>) |
        (?P<literal>"(?:[^"\\]|\\.)*"(?:@[A-Za-z0-9-]+|\^\^(?:<[^<>\s]*>|[A-Za-z][\w-]*:[\w-]*))?) |
        (?P<directive>@prefix) |
        (?P<pname>[A-Za-z][\w-]*:(?:[\w-]|\.(?=[\w-]))*) |
        (?P<a>a(?=\s)) |
        (?P<punct>[.;,])
    )""",
    re.VERBOSE,
)


def turtle_triples(text: str) -> list[tuple[str, str, str]]:
    """The triples of a Turtle document in the subset the serializer
    writes (prefixes, `;` and `,` lists, `a`, typed literals). Subjects and
    predicates come back as bare IRIs, objects as N-Triples tokens."""
    tokens: list[tuple[str, str]] = []
    position, end = 0, len(text.rstrip())
    while position < end:
        m = _TURTLE_TOKEN_RE.match(text, position)
        require(m is not None and m.end() > position, f"unreadable Turtle at offset {position}")
        position = m.end()
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    prefixes: dict[str, str] = {}

    def expand(kind: str, value: str) -> str:
        if kind == "iri":
            return value[1:-1]
        if kind == "a":
            return RDF_TYPE
        require(kind == "pname", f"expected a term, got {value!r}")
        name, _, local = value.partition(":")
        require(name in prefixes, f"undeclared prefix {name!r}")
        return prefixes[name] + local

    def object_of(kind: str, value: str) -> str:
        if kind != "literal":
            return f"<{expand(kind, value)}>"
        body, sep, datatype = value.rpartition("^^")
        if not sep or datatype.startswith("<"):
            return value
        return f"{body}^^<{expand('pname', datatype)}>"

    triples: list[tuple[str, str, str]] = []
    index = 0
    while index < len(tokens):
        kind, value = tokens[index]
        if kind == "directive":
            name, iri = tokens[index + 1][1], tokens[index + 2][1]
            prefixes[name[:-1]] = iri[1:-1]
            index += 4
            continue
        subject = expand(kind, value)
        index += 1
        separator = ";"
        while separator == ";":
            predicate = expand(*tokens[index])
            index += 1
            separator = ","
            while separator == ",":
                triples.append((subject, predicate, object_of(*tokens[index])))
                separator = tokens[index + 1][1]
                index += 2
        require(separator == ".", f"statement ends in {separator!r}")
    return triples


# --- query ---------------------------------------------------------------------

_PREFIXES = f"""PREFIX 4d: <{T4D}>
PREFIX time: <{TIME}>
PREFIX ex: <{EX}>
"""


def query_mix(corpus: Corpus) -> list[tuple[str, str]]:
    """The (name, pattern text) pairs one `query` operation runs."""
    slice_year, lookup = _slice_year(corpus), _lookup_part(corpus)
    return [
        ("population", _PREFIXES + """?part ex:pop ?pop .
?part 4d:temporalExtent ?interval .
?interval time:intervalDuring ?spec .
?spec time:hasDateTimeDescription ?desc .
?desc time:year ?year .
GROUP BY ?year
AGG AVG ?pop AS avg_population
AGG COUNT DISTINCT ?part AS estimates
"""),
        ("join", _PREFIXES + """?part ex:pop ?v .
?part 4d:temporalExtent ?y .
GROUP BY ?y
AGG AVG ?v AS avg_v
"""),
        ("slice", _PREFIXES + f"""?part ex:pop ?v .
AGG SUM ?v AS total
CONTEXT temporal <{interval_iri(slice_year)}>
"""),
        ("lookup", f"<{lookup}> ?p ?o .\n"),
    ]


def _slice_year(corpus: Corpus) -> int:
    return min(s.year for s in corpus if s.literal)


def _lookup_part(corpus: Corpus) -> str:
    first = corpus[0]
    return part_iri(first.subject, [first.interval, first.activity])


def half_up(value: Fraction, scale: int = 2) -> str:
    scaled = value * 10**scale
    magnitude = (abs(scaled.numerator) * 2 + scaled.denominator) // (2 * scaled.denominator)
    sign = "-" if value < 0 and magnitude else ""
    digits = str(magnitude).rjust(scale + 1, "0")
    return f"{sign}{digits[:-scale]}.{digits[-scale:]}" if scale else f"{sign}{digits}"


def expected_tables(corpus: Corpus) -> dict[str, tuple[tuple[str, ...], set[tuple[str, ...]]]]:
    """Per pattern name: the column names and the set of rendered rows."""
    pops = [s for s in corpus if s.predicate == POP]
    by_year: dict[int, list[Statement]] = defaultdict(list)
    for s in pops:
        by_year[s.year].append(s)

    def mean(group: list[Statement]) -> str:
        return half_up(Fraction(sum(int(s.obj) for s in group), len(group)))

    population = {
        (str(year), mean(group), str(len({(s.subject, s.source) for s in group})))
        for year, group in by_year.items()
    }
    join = {(interval_iri(year), mean(group)) for year, group in by_year.items()}
    total = sum(int(s.obj) for s in by_year[_slice_year(corpus)])

    part = _lookup_part(corpus)
    first = corpus[0]
    lookup = set()
    for dim, ctx in contexts_of(first):
        part_class, part_of, extent, _ = DIMENSIONS[dim]
        lookup |= {(RDF_TYPE, part_class), (part_of, first.subject), (extent, ctx)}
    for s in corpus:
        if (s.subject, s.year, s.source) == (first.subject, first.year, first.source):
            lookup.add((s.predicate, s.obj if s.literal else part_iri(s.obj, [s.interval, s.activity])))
    return {
        "population": (("year", "avg_population", "estimates"), population),
        "join": (("y", "avg_v"), join),
        "slice": (("total",), {(str(total),)}),
        "lookup": (("p", "o"), lookup),
    }


def render(cell: object) -> str:
    """IRIs as their value, literals as their lexical form, numbers via str."""
    for attribute in ("value", "lexical"):
        if isinstance(getattr(cell, attribute, None), str):
            return getattr(cell, attribute)
    return str(cell)


def check_table(name: str, columns: tuple, rows: tuple, corpus_tables: dict) -> None:
    """`rows` hold rendered cells (see `render`)."""
    want_columns, want_rows = corpus_tables[name]
    require(tuple(columns) == want_columns, f"{name}: columns {columns} != {want_columns}")
    got = list(rows)
    require(len(got) == len(set(got)), f"{name}: repeated rows")
    require(set(got) == want_rows, f"{name}: {len(set(got) ^ want_rows)} rows differ from the corpus")


# --- reason --------------------------------------------------------------------


def nested_parts(corpus: Corpus) -> list[tuple[str, str, str]]:
    """(outer temporal part, inner provenance part, entity) for every chain
    that contexts-in-context with order (temporal, provenance) builds."""
    chains = set()
    for s in corpus:
        for entity in [s.subject] + ([] if s.literal else [s.obj]):
            chains.add((part_iri(entity, [s.interval]), part_iri(entity, [s.interval, s.activity]), entity))
    return sorted(chains)


def seeded_faults(corpus: Corpus) -> list[tuple[tuple[str, str, str], tuple[str, tuple[str, ...]]]]:
    """Four pattern faults, one per violation kind, each as (the triple to
    add, the (kind, subjects) the validator must report). Each fault sits
    on an innermost part or a fresh IRI, which no partOf edge points at, so
    no fault can raise another's violation."""
    first, other = corpus[0], None
    for s in corpus[1:]:
        if not s.literal and s.source != first.source:
            other = s
            break
    require(other is not None, "corpus has no second source to seed a same-extent fault")
    inner = part_iri(first.subject, [first.interval, first.activity])
    second = part_iri(other.subject, [other.interval, other.activity])
    _, temporal_part_of, _, _ = DIMENSIONS["temporal"]
    _, provenance_part_of, _, _ = DIMENSIONS["provenance"]
    stray = f"{DATA}stray"
    return [
        ((inner, RDF_TYPE, ND + "Context"), (DISJOINT, (inner,))),
        ((second, provenance_part_of, f"{DATA}elsewhere"), (FUNCTIONAL, (second,))),
        ((stray, temporal_part_of, first.interval), (RANGE_COMPLEMENT, (stray, first.interval))),
        ((inner, EX + "knows", second), (SAME_EXTENT, (inner, second))),
    ]
