"""File formats for annotated statements.

Two interchange formats:

- statements CSV: `subject,predicate,object,objectType,dim1,ctx1,...` with a
  variable number of trailing (dimension, context) pairs. objectType is
  `iri`, `literal` (plain string), `literal:<datatype IRI>`, or
  `literal@<language tag>`.
- annotated N-Quads: the graph label names a context bundle; a sidecar maps
  each bundle to its (dimension, context) pairs, either as CSV
  (`bundle,dimension,context`) or as Turtle using the dimensions' extent
  properties.

Context descriptions are not carried by either format.
"""

from __future__ import annotations

import csv
import io

from .contextualize import AnnotatedStatement, ContextAssignment, _context_digest
from .parser import parse_nquads, parse_turtle
from .serializer import serialize_nquads
from .terms import XSD_STRING, Graph, Iri, Literal, Term, Triple, _unchecked_triple
from .vocabulary import DimensionRegistry

DEFAULT_BUNDLE_BASE = "http://purl.org/NET/ndfluents/bundle#"

CSV_HEADER = ["subject", "predicate", "object", "objectType"]


class FormatError(ValueError):
    """Malformed statements file; message carries the offending row."""


def _parse_object(lexical: str, object_type: str) -> Term:
    if object_type == "iri":
        return Iri(lexical)
    if object_type == "literal":
        return Literal(lexical)
    if object_type.startswith("literal:"):
        return Literal(lexical, datatype=Iri(object_type[len("literal:"):]))
    if object_type.startswith("literal@"):
        return Literal(lexical, language=object_type[len("literal@"):])
    raise FormatError(f"unknown objectType {object_type!r}")


def _format_object(term: Term, row_hint: str) -> tuple[str, str]:
    if isinstance(term, Iri):
        return term.value, "iri"
    if isinstance(term, Literal):
        if term.language is not None:
            return term.lexical, f"literal@{term.language}"
        if term.datatype is XSD_STRING:
            return term.lexical, "literal"
        return term.lexical, f"literal:{term.datatype.value}"
    raise FormatError(f"{row_hint}: blank nodes cannot be written to statements CSV")


def _csv_rows(text: str, row_label: str) -> list[tuple[int, list[str]]]:
    """The rows of `text` that hold anything but blanks, each with the
    physical line it ends on (`reader.line_num`), which every error about
    the row names, as a `csv.Error` does."""
    reader = csv.reader(io.StringIO(text))
    try:
        return [(reader.line_num, row) for row in reader if row and any(cell.strip() for cell in row)]
    except csv.Error as error:
        raise FormatError(f"{row_label} {reader.line_num}: {error}") from None


def read_statements_csv(text: str) -> list[AnnotatedStatement]:
    rows = _csv_rows(text, "row")
    if not rows:
        raise FormatError("empty statements CSV")
    header = [cell.strip() for cell in rows[0][1][:4]]
    if header != CSV_HEADER:
        raise FormatError(f"bad header: expected {','.join(CSV_HEADER)},dim1,ctx1,...")
    statements = []
    for line, row in rows[1:]:
        try:  # any fault of the row names its line
            if len(row) < 6:
                raise FormatError("expected at least one (dimension, context) pair")
            subject, predicate, lexical, object_type, *rest = (cell.strip() for cell in row)
            if len(rest) % 2 != 0:
                raise FormatError("dangling dimension without a context IRI")
            base = _unchecked_triple((Iri(subject), Iri(predicate), _parse_object(lexical, object_type)))
            assignments = frozenset(  # an empty pair pads a short row from a spreadsheet tool
                ContextAssignment(dim, Iri(ctx)) for dim, ctx in zip(rest[::2], rest[1::2]) if dim or ctx
            )
            statements.append(AnnotatedStatement(base, assignments))
        except ValueError as error:
            raise FormatError(f"row {line}: {error}") from None
    return statements


def write_statements_csv(statements: list[AnnotatedStatement]) -> str:
    width = max((len(s.contexts) for s in statements), default=1)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = list(CSV_HEADER)
    for i in range(1, width + 1):
        header += [f"dim{i}", f"ctx{i}"]
    writer.writerow(header)
    for idx, statement in enumerate(
        sorted(statements, key=lambda s: (s.base.sort_key(), s.assignment_pairs())), start=2
    ):
        obj_val, obj_type = _format_object(statement.base.object, f"row {idx}")
        row = [statement.base.subject.value, statement.base.predicate.value, obj_val, obj_type]
        for dim, ctx in statement.assignment_pairs():
            row += [dim, ctx.value]
        row += [""] * (2 * width - (len(row) - 4))
        writer.writerow(row)
    return out.getvalue()


# --- annotated N-Quads with bundle sidecar -----------------------------------


def _bundle_iri(pairs: tuple[tuple[str, Iri], ...], base: str = DEFAULT_BUNDLE_BASE) -> Iri:
    return Iri(base + _context_digest(pairs))


def read_bundle_sidecar_csv(text: str) -> dict[Iri, list[tuple[str, Iri]]]:
    rows = _csv_rows(text, "sidecar row")
    if not rows or [c.strip() for c in rows[0][1]] != ["bundle", "dimension", "context"]:
        raise FormatError("bundle sidecar CSV needs header bundle,dimension,context")
    bundles: dict[Iri, list[tuple[str, Iri]]] = {}
    for line, row in rows[1:]:
        try:  # any fault of the row names its line
            if len(row) != 3:
                raise FormatError("expected 3 columns")
            bundle, dim, ctx = Iri(row[0].strip()), row[1].strip(), Iri(row[2].strip())
        except ValueError as error:
            raise FormatError(f"sidecar row {line}: {error}") from None
        bundles.setdefault(bundle, []).append((dim, ctx))
    return bundles


def read_bundle_sidecar_turtle(
    text: str, registry: DimensionRegistry
) -> dict[Iri, list[tuple[str, Iri]]]:
    """Turtle sidecar: one `<bundle> <extent property> <context>` triple per
    pair, using the registered dimensions' extent properties."""
    graph = parse_turtle(text)
    by_extent = {dim.extent: dim.name for dim in registry}
    bundles: dict[Iri, list[tuple[str, Iri]]] = {}
    for triple in graph.sorted_triples():
        name = by_extent.get(triple.predicate)
        if name is None:
            continue
        if not isinstance(triple.subject, Iri) or not isinstance(triple.object, Iri):
            raise FormatError(f"sidecar triple must link IRIs: {triple.n3()}")
        bundles.setdefault(triple.subject, []).append((name, triple.object))
    if not bundles:
        raise FormatError("turtle sidecar declares no bundles via registered extent properties")
    return bundles


def read_bundle_sidecar(
    text: str, registry: DimensionRegistry, sidecar_format: str
) -> dict[Iri, list[tuple[str, Iri]]]:
    """The bundles of a sidecar written as `csv` or as `turtle`."""
    if sidecar_format == "csv":
        return read_bundle_sidecar_csv(text)
    if sidecar_format in ("turtle", "ttl"):
        return read_bundle_sidecar_turtle(text, registry)
    raise FormatError(f"unknown sidecar format: {sidecar_format!r}")


def read_bundled_nquads(
    nquads_text: str, bundles: dict[Iri, list[tuple[str, Iri]]]
) -> list[AnnotatedStatement]:
    """The statements of an N-Quads document, each in the contexts of the
    bundle that labels its graph."""
    statements = []
    for graph in parse_nquads(nquads_text):
        if graph.name is None:
            raise FormatError(
                "triples outside a named bundle carry no context; "
                "every statement needs a graph label"
            )
        pairs = bundles.get(graph.name)
        if pairs is None:
            raise FormatError(f"bundle {graph.name.n3()} is not described by the sidecar")
        assignments = frozenset(ContextAssignment(dim, ctx) for dim, ctx in pairs)
        for triple in graph.sorted_triples():
            statements.append(AnnotatedStatement(triple, assignments))
    return statements


def read_annotated_nquads(
    nquads_text: str,
    sidecar_text: str,
    registry: DimensionRegistry,
    sidecar_format: str = "csv",
) -> list[AnnotatedStatement]:
    return read_bundled_nquads(nquads_text, read_bundle_sidecar(sidecar_text, registry, sidecar_format))


def write_annotated_nquads(
    statements: list[AnnotatedStatement],
    bundle_base: str = DEFAULT_BUNDLE_BASE,
) -> tuple[str, str]:
    """Returns (N-Quads document, sidecar CSV). One bundle per distinct
    context set."""
    by_bundle: dict[Iri, tuple[tuple[tuple[str, Iri], ...], set[Triple]]] = {}
    for statement in statements:
        pairs = statement.assignment_pairs()
        bundle = _bundle_iri(pairs, bundle_base)
        entry = by_bundle.setdefault(bundle, (pairs, set()))
        entry[1].add(statement.base)
    graphs = [Graph(triples, name=bundle) for bundle, (_, triples) in by_bundle.items()]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["bundle", "dimension", "context"])
    for bundle in sorted(by_bundle, key=lambda b: b.value):
        pairs, _ = by_bundle[bundle]
        for dim, ctx in pairs:
            writer.writerow([bundle.value, dim, ctx.value])
    return serialize_nquads(graphs), out.getvalue()
