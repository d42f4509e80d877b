"""Seeded inputs for the benchmark.

One seed gives one corpus of annotated statements, and the same seed
always gives byte-identical files. The corpus is annotated in two
dimensions: a temporal interval per year and a provenance source, with
context IRIs and year descriptions shaped like the output of
`ndfluents ingest-csv --descriptions`. About 30% of the objects are
integer literals under one data predicate, `ex:pop`; the rest are entity
IRIs under four object predicates.

Context local names are `interval_<year>` and `source_<name>`, so the
sorted, `_`-joined suffix that suffix minting appends is different for
every (year, source) pair and parts never collide.

This module builds the files with its own code, not with the program's
writers, so the program receives only the generated text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EX = "http://example.org/bench/"
DATA = "http://purl.org/NET/ndfluents/population#"
TIME = "http://www.w3.org/2006/time#"
PROV = "http://www.w3.org/ns/prov#"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
XSD_INTEGER = "http://www.w3.org/2001/XMLSchema#integer"

POP = EX + "pop"
OBJECT_PREDICATES = tuple(EX + name for name in ("knows", "locatedIn", "memberOf", "ownedBy"))
LITERAL_SHARE = 0.3
YEARS = 10
SOURCES = 4
STATEMENTS_PER_ENTITY = 5


@dataclass(frozen=True, order=True)
class Statement:
    """One annotated statement. `obj` is an IRI, or the lexical form of an
    xsd:integer when `literal` is true."""

    subject: str
    predicate: str
    obj: str
    literal: bool
    year: int
    source: str

    @property
    def interval(self) -> str:
        return interval_iri(self.year)

    @property
    def activity(self) -> str:
        return activity_iri(self.source)


Corpus = tuple[Statement, ...]


def interval_iri(year: int) -> str:
    return f"{DATA}interval_{year}"


def activity_iri(source: str) -> str:
    return f"{DATA}source_{source}"


def make_corpus(seed: int, size: int) -> Corpus:
    """`size` distinct statements over `size // 5` entities, 10 years and
    4 sources. Statements come in pairs on `size // 2` distinct subject
    parts (entity, year, source) that take the years and sources in turn;
    each IRI object is a part of its own; exactly 30% of the objects are
    literals. So the number of parts, and with it the size of the
    contextualized graph, is the same for every seed of one size."""
    rng = random.Random(seed)
    entities = tuple(f"{EX}ent{index:05d}" for index in range(max(4, size // STATEMENTS_PER_ENTITY)))
    years = tuple(sorted(rng.sample(range(1000, 2025), YEARS)))
    sources = tuple(f"s{rng.randrange(10**6):06d}x{index}" for index in range(SOURCES))
    used: set[tuple[str, int, str]] = set()

    def fresh_part(year: int, source: str) -> str:
        entity = rng.choice(entities)
        while (entity, year, source) in used:
            entity = rng.choice(entities)
        used.add((entity, year, source))
        return entity

    subject_parts = []
    for index in range((size + 1) // 2):
        year, source = years[index % YEARS], sources[index // YEARS % SOURCES]
        subject_parts.append((fresh_part(year, source), year, source))
    rng.shuffle(subject_parts)
    literal_indexes = set(rng.sample(range(size), round(size * LITERAL_SHARE)))
    statements: list[Statement] = []
    for index in range(size):
        subject, year, source = subject_parts[index // 2]
        if index in literal_indexes:
            predicate, obj = POP, str(rng.randrange(1, 10**9))
        else:
            predicate, obj = rng.choice(OBJECT_PREDICATES), fresh_part(year, source)
        statements.append(Statement(subject, predicate, obj, index in literal_indexes, year, source))
    if len(set(statements)) != size:
        raise ValueError(f"seed {seed} repeats a statement; choose another seed")
    return tuple(statements)


def statements_csv(corpus: Corpus) -> str:
    """The statements CSV that `ndfluents contextualize` reads."""
    lines = ["subject,predicate,object,objectType,dim1,ctx1,dim2,ctx2"]
    for s in corpus:
        kind = f"literal:{XSD_INTEGER}" if s.literal else "iri"
        lines.append(
            f"{s.subject},{s.predicate},{s.obj},{kind},temporal,{s.interval},provenance,{s.activity}"
        )
    return "\n".join(lines) + "\n"


def description_triples(corpus: Corpus) -> list[tuple[str, str, str]]:
    """Context descriptions for the years and sources the corpus uses, in
    the shape `ingest-csv --descriptions` writes. Objects are N-Triples
    tokens."""
    triples: list[tuple[str, str, str]] = []
    for year in sorted({s.year for s in corpus}):
        interval = interval_iri(year)
        span, description = f"{interval}_span", f"{interval}_description"
        year_literal = f'"{year}"^^<{XSD_INTEGER}>'
        triples += [
            (interval, RDF_TYPE, f"<{TIME}Interval>"),
            (interval, TIME + "year", year_literal),
            (interval, TIME + "intervalDuring", f"<{span}>"),
            (span, TIME + "hasDateTimeDescription", f"<{description}>"),
            (description, RDF_TYPE, f"<{TIME}DateTimeDescription>"),
            (description, TIME + "year", year_literal),
        ]
    for source in sorted({s.source for s in corpus}):
        activity, agent = activity_iri(source), f"{DATA}agent_{source}"
        triples += [
            (activity, RDF_TYPE, f"<{PROV}Activity>"),
            (activity, PROV + "wasAssociatedWith", f"<{agent}>"),
            (activity, RDFS_LABEL, f'"{source}"'),
            (agent, RDF_TYPE, f"<{PROV}Agent>"),
        ]
    return triples


def descriptions_turtle(corpus: Corpus) -> str:
    """The description graph as Turtle (its N-Triples subset)."""
    return "".join(f"<{s}> <{p}> {o} .\n" for s, p, o in description_triples(corpus))
