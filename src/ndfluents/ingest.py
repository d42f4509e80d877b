"""World-population use case: estimate CSV -> annotated statements.

Reads rows of population estimates (`source,year,population_low,
population_high`) and produces one annotated `Earth populationTotal`
statement per row, with a temporal context (an OWL-Time interval per
distinct year) and a provenance context (a PROV activity per distinct
source). Interval estimates collapse to the arithmetic mean of the bounds,
rounded half-up to a whole person count.

Context descriptions use minimal OWL-Time and PROV-O term IRIs as plain
constants rather than full ontology imports. Each year interval carries
its year twice so both query spellings return the same rows: directly
(`interval time:year y`) and through the nested
`time:intervalDuring`/`time:hasDateTimeDescription` path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, TextIO
from urllib.parse import quote

from .contextualize import AnnotatedStatement, ContextAssignment
from .formats import _csv_rows
from .terms import RDF_TYPE, RDFS, XSD, Graph, InputError, Iri, Literal, Namespace, Triple
from .vocabulary import DimensionRegistry, default_registry

TIME = Namespace("http://www.w3.org/2006/time#")
PROV = Namespace("http://www.w3.org/ns/prov#")
DBO = Namespace("http://dbpedia.org/ontology/")
DBR = Namespace("http://dbpedia.org/resource/")

EARTH = DBR.Earth
POPULATION_TOTAL = DBO.populationTotal

DEFAULT_DATA_BASE = "http://purl.org/NET/ndfluents/population#"
INGEST_HEADER = ("source", "year", "population_low", "population_high")


class IngestError(InputError):
    """A malformed estimates CSV: bad header, bad row, or duplicate key."""


@dataclass(frozen=True)
class EstimateRow:
    """One population estimate: either a point value or a low/high interval."""

    source: str
    year: int
    population_low: int
    population_high: int | None = None

    def __post_init__(self) -> None:
        if not self.source:
            raise IngestError("source must be non-empty")
        if self.population_low <= 0:
            raise IngestError(f"population must be positive, got {self.population_low}")
        if self.population_high is not None and self.population_high < self.population_low:
            raise IngestError(
                f"population_high {self.population_high} is below "
                f"population_low {self.population_low}"
            )

    @property
    def value(self) -> int:
        """The point estimate: the low bound, or the mean of the bounds
        rounded half-up to a whole person."""
        if self.population_high is None:
            return self.population_low
        total = self.population_low + self.population_high
        # Round half-up: the mean's fractional part is 0 or exactly 1/2.
        return (total + 1) // 2


class IngestResult(NamedTuple):
    statements: list[AnnotatedStatement]
    registry: DimensionRegistry
    descriptions: Graph


def read_estimate_rows(text: str) -> list[EstimateRow]:
    """Parse the estimates CSV into rows, rejecting malformed rows and
    duplicate (source, year) pairs. Rows of blanks are skipped, before the
    header too. An error names the physical line its row ends on
    (`reader.line_num`), as a `csv.Error` does."""
    records = _csv_rows(text, "row", IngestError)
    if not records:
        raise IngestError("empty CSV: expected a header row")
    header = records[0][1]
    if tuple(cell.strip() for cell in header) != INGEST_HEADER:
        raise IngestError(
            f"bad header: expected {','.join(INGEST_HEADER)}, got {','.join(header)}"
        )
    rows: list[EstimateRow] = []
    seen: dict[tuple[str, int], int] = {}
    for number, cells in records[1:]:
        if len(cells) != len(INGEST_HEADER):
            raise IngestError(
                f"row {number}: expected {len(INGEST_HEADER)} fields, got {len(cells)}"
            )
        source, year_text, low_text, high_text = (cell.strip() for cell in cells)
        try:
            year = int(year_text)
            low = int(low_text)
            high = int(high_text) if high_text else None
        except ValueError:
            raise IngestError(
                f"row {number}: year and populations must be integers"
            ) from None
        try:
            row = EstimateRow(source, year, low, high)
        except IngestError as error:
            raise IngestError(f"row {number}: {error}") from None
        key = (row.source, row.year)
        if key in seen:
            raise IngestError(
                f"row {number}: duplicate estimate for ({row.source}, {row.year}); "
                f"first seen at row {seen[key]}"
            )
        seen[key] = number
        rows.append(row)
    return rows


def _local(name: str) -> str:
    return quote(name, safe="")


def interval_iri(year: int, base: str = DEFAULT_DATA_BASE) -> Iri:
    return Iri(f"{base}interval_{year}")


def activity_iri(source: str, base: str = DEFAULT_DATA_BASE) -> Iri:
    return Iri(f"{base}source_{_local(source)}")


def _interval_description(year: int, base: str) -> Graph:
    interval = interval_iri(year, base)
    span = Iri(f"{base}interval_{year}_span")
    description = Iri(f"{base}interval_{year}_description")
    year_literal = Literal(str(year), datatype=XSD.integer)
    return Graph(
        {
            Triple(interval, RDF_TYPE, TIME.Interval),
            Triple(interval, TIME.year, year_literal),
            Triple(interval, TIME.intervalDuring, span),
            Triple(span, TIME.hasDateTimeDescription, description),
            Triple(description, RDF_TYPE, TIME.DateTimeDescription),
            Triple(description, TIME.year, year_literal),
        }
    )


def _activity_description(source: str, base: str) -> Graph:
    activity = activity_iri(source, base)
    agent = Iri(f"{base}agent_{_local(source)}")
    return Graph(
        {
            Triple(activity, RDF_TYPE, PROV.Activity),
            Triple(activity, PROV.wasAssociatedWith, agent),
            Triple(activity, RDFS.label, Literal(source)),
            Triple(agent, RDF_TYPE, PROV.Agent),
        }
    )


def ingest_rows(
    rows: Iterable[EstimateRow], base: str = DEFAULT_DATA_BASE
) -> IngestResult:
    """Turn estimate rows into annotated statements over the temporal and
    provenance dimensions, plus the union of all context descriptions."""
    registry = default_registry()
    statements: list[AnnotatedStatement] = []
    interval_cache: dict[int, Graph] = {}
    activity_cache: dict[str, Graph] = {}
    for row in rows:
        if row.year not in interval_cache:
            interval_cache[row.year] = _interval_description(row.year, base)
        if row.source not in activity_cache:
            activity_cache[row.source] = _activity_description(row.source, base)
        interval_graph = interval_cache[row.year]
        activity_graph = activity_cache[row.source]
        statements.append(
            AnnotatedStatement(
                Triple(
                    EARTH,
                    POPULATION_TOTAL,
                    Literal(str(row.value), datatype=XSD.integer),
                ),
                frozenset(
                    {
                        ContextAssignment(
                            "temporal", interval_iri(row.year, base), interval_graph
                        ),
                        ContextAssignment(
                            "provenance", activity_iri(row.source, base), activity_graph
                        ),
                    }
                ),
            )
        )
    descriptions = Graph().union(*interval_cache.values(), *activity_cache.values())
    return IngestResult(statements, registry, descriptions)


def ingest_csv(source: str | TextIO, base: str = DEFAULT_DATA_BASE) -> IngestResult:
    """Ingest an estimates CSV given as text or as a readable file object."""
    text = source.read() if hasattr(source, "read") else source
    return ingest_rows(read_estimate_rows(text), base)
