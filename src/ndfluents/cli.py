"""Command-line surface for the contextualization pipeline.

Subcommands: ``gen-ontology``, ``ingest-csv``, ``contextualize``,
``decontextualize``, ``validate``, ``reason``, ``query``, ``stats``.
Data goes to standard output or ``--out``; logs go to standard error.
Exit status is 0 on success, 1 when ``validate`` finds violations, 2 on a bad
command line, and 2 with one ``error:`` line exactly on ``InputError`` (an
unknown dimension is also a ``KeyError``); a bug shows its traceback.

``main(argv)`` returns the exit status and may be called repeatedly in one
process. It builds the argument parser on its first call and reuses it
(``build_parser()`` returns a new one); it looks up the command's function,
and the commands look up this module's names, at call time; and it logs each
call at that call's ``-v`` level to that call's ``sys.stderr``.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Iterator, Sequence

from .config import Config, default_config, load_config
from .contextualize import (
    PREDICATE_RELATED,
    AnnotatedStatement,
    contextualize,
    decontextualize,
    related_property_base,
    size_report,
)
from .formats import (
    read_bundle_sidecar,
    read_bundled_nquads,
    read_statements_csv,
    write_annotated_nquads,
    write_statements_csv,
)
from .ingest import ingest_csv
from .parser import _FORMAT_ALIASES, TURTLE, ParseError, normalize_format, parse
from .query import match, parse_pattern
from .reasoner import saturate, validate
from .serializer import canonicalize, serialize
from .terms import BlankNode, Graph, InputError, Iri, Triple, _collector_paused
from .vocabulary import axioms_from_graph, axioms_to_graph

log = logging.getLogger("ndfluents")

STATEMENTS_CSV = "csv"
STATEMENTS_NQUADS = "nquads"


def _guess_format(path: str, override: str | None, default: str = TURTLE) -> str:
    if override:
        return normalize_format(override)
    return _FORMAT_ALIASES.get(Path(path).suffix.lower()[1:], default)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as error:
        raise InputError(f"cannot read {path}: {error.strerror or error}") from None
    except UnicodeDecodeError as error:
        raise InputError(f"cannot read {path}: not UTF-8 at byte {error.start}") from None


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as error:
        raise InputError(f"cannot write {out}: {error.strerror or error}") from None


@contextmanager
def _naming(path: str) -> Iterator[None]:
    """Name the file at `path` in a syntax error raised while it is read."""
    try:
        yield
    except ParseError as error:
        raise InputError(f"{path}: {error}") from None


def _read_graph(path: str, fmt: str | None) -> Graph:
    text = _read_text(path)
    resolved = _guess_format(path, fmt)
    with _naming(path):
        data = parse(text, resolved)
    if isinstance(data, Graph):
        return data
    return Graph().union(*data)


def _merge(graph: Graph, paths: Sequence[str]) -> Graph:
    """`graph`, which has no blank nodes, merged with the graphs in `paths`.
    A blank node label names a node only within its own file, so the blank
    nodes of each file are renamed apart from those of the files before it,
    as an RDF merge does."""
    graphs = [_read_graph(path, None) for path in paths]
    taken: set[BlankNode] = set()
    for i, extra in enumerate(graphs):
        blanks = {term for t in extra for term in (t.subject, t.object) if isinstance(term, BlankNode)}
        clashes = sorted(blanks & taken)
        if clashes:
            used = taken | blanks
            rename = dict(zip(clashes, (b for b in (BlankNode(f"b{n}") for n in count()) if b not in used)))
            graphs[i] = Graph(
                Triple(rename.get(t.subject, t.subject), t.predicate, rename.get(t.object, t.object))
                for t in extra
            )
            blanks = (blanks - rename.keys()) | set(rename.values())
        taken |= blanks
    return graph.union(*graphs)


def _write_graph(graph: Graph, out: str | None, fmt: str | None, config: Config) -> None:
    resolved = _guess_format(out or "", fmt, default=TURTLE)
    graph = canonicalize(graph)
    _write_text(serialize(graph, resolved, prefixes=config.prefixes()), out)


def _load_config_arg(path: str | None) -> Config:
    if path is None:
        return default_config()
    return load_config(_read_text(path))


def _read_statements(args: argparse.Namespace, config: Config) -> list[AnnotatedStatement]:
    fmt = args.format
    if fmt == STATEMENTS_NQUADS:
        if not args.sidecar:
            raise InputError("--format nquads needs --sidecar FILE")
        nquads, sidecar = _read_text(args.statements), _read_text(args.sidecar)
        with _naming(args.sidecar):
            bundles = read_bundle_sidecar(sidecar, config.registry, args.sidecar_format)
        with _naming(args.statements):
            return read_bundled_nquads(nquads, bundles)
    return read_statements_csv(_read_text(args.statements))


def _write_statements(
    statements: list[AnnotatedStatement], args: argparse.Namespace
) -> None:
    if args.format == STATEMENTS_NQUADS:
        if not args.sidecar:
            raise InputError("--format nquads needs --sidecar FILE to write to")
        nquads, sidecar = write_annotated_nquads(statements)
        _write_text(nquads, args.out)
        _write_text(sidecar, args.sidecar)
        return
    _write_text(write_statements_csv(statements), args.out)


def _config_tbox(config: Config, tbox_paths: Sequence[str] | None):
    axioms = config.axioms()
    for path in tbox_paths or ():
        axioms += axioms_from_graph(_read_graph(path, None))
    return axioms


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen_ontology(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    if args.split:
        directory = Path(args.split)
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as error:
            raise InputError(f"cannot create {args.split}: {error.strerror or error}") from None
        # Each file is named by its format's short alias: nt, nq or ttl.
        fmt = normalize_format(args.format or TURTLE)
        extension = min((alias for alias, name in _FORMAT_ALIASES.items() if name == fmt), key=len)
        for name, axioms in config.modules():
            path = directory / f"{name}.{extension}"
            _write_graph(axioms_to_graph(axioms), str(path), args.format, config)
            log.info("wrote %s (%d axioms)", path, len(axioms))
        return 0
    axioms = config.axioms()
    log.info("generated %d axioms", len(axioms))
    _write_graph(axioms_to_graph(axioms), args.out, args.format, config)
    return 0


def _cmd_ingest_csv(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    statements, _, descriptions = ingest_csv(_read_text(args.csv))
    log.info(
        "ingested %d statements, %d description triples", len(statements), len(descriptions)
    )
    _write_statements(statements, args)
    if args.descriptions:
        _write_graph(descriptions, args.descriptions, None, config)
    return 0


def _cmd_contextualize(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    statements = _read_statements(args, config)
    graph = contextualize(
        statements,
        config.registry,
        config.model,
        config.policy,
        config.vocab,
        predicate_mode=config.predicate_mode,
    )
    graph = _merge(graph, args.merge or ())
    log.info(
        "contextualized %d statements into %d triples (%s)",
        len(statements),
        len(graph),
        config.model.kind,
    )
    _write_graph(graph, args.out, args.out_format, config)
    return 0


def _cmd_decontextualize(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    graph = _read_graph(args.graph, args.in_format)
    try:
        selection = {Iri(value) for value in args.context or ()} or None
    except ValueError as error:
        raise InputError(str(error)) from None
    related = config.predicate_mode == PREDICATE_RELATED  # undo `contextualize`'s renaming
    reverse = {p: b for p in graph.predicates() if (b := related_property_base(p))} if related else None
    statements = decontextualize(graph, config.registry, selection, config.vocab, predicate_map=reverse)
    log.info("recovered %d statements", len(statements))
    _write_statements(statements, args)
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    graph = _read_graph(args.graph, args.in_format)
    axioms = _config_tbox(config, args.tbox)
    same_extent = config.same_extent_check and not args.no_same_extent
    violations = validate(
        graph, axioms, config.registry, config.vocab, same_extent=same_extent
    )
    for violation in violations:
        sys.stdout.write(violation.render() + "\n")
    if args.report:
        report = [
            {
                "kind": violation.kind,
                "subjects": [subject.n3() for subject in violation.subjects],
                "detail": violation.detail,
                "triples": [triple.n3() for triple in violation.triples],
            }
            for violation in violations
        ]
        _write_text(json.dumps(report, indent=2) + "\n", args.report)
    log.info("%d violations", len(violations))
    return 1 if violations else 0


def _cmd_reason(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    graph = _read_graph(args.graph, args.in_format)
    axioms = _config_tbox(config, args.tbox)
    result = saturate(graph, axioms, config.vocab)
    for violation in result.violations:
        log.warning("%s", violation.render())
    log.info("derived %d new triples", sum(result.rounds) - len(graph))
    log.info("rounds %s", json.dumps(list(result.rounds)))
    output = result.derived if args.derived_only else result.all
    _write_graph(output, args.out, args.out_format, config)
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    graph = _read_graph(args.graph, args.in_format)
    pattern = parse_pattern(_read_text(args.pattern))
    table = match(graph, pattern, config.registry, config.vocab)
    log.info("%d rows", len(table.rows))
    _write_text(table.to_csv(), args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    config = _load_config_arg(args.config)
    statements = _read_statements(args, config)
    lines = ["representation,model,triples"]
    for row in size_report(statements, config.registry, config.policy, config.vocab):
        lines.append(f"{row.representation},{row.model},{row.triples}")
    _write_text("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_config(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", metavar="FILE", help="run configuration (INI)")


def _add_statement_io(parser: argparse.ArgumentParser, reading: bool) -> None:
    parser.add_argument(
        "--format",
        choices=(STATEMENTS_CSV, STATEMENTS_NQUADS),
        default=STATEMENTS_CSV,
        help="annotated-statement format (default csv)",
    )
    parser.add_argument(
        "--sidecar",
        metavar="FILE",
        help="bundle sidecar for --format nquads",
    )
    if reading:
        parser.add_argument(
            "--sidecar-format",
            choices=("csv", "turtle"),
            default="csv",
            help="sidecar format when reading nquads (default csv)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ndfluents",
        description="Rewrite annotated RDF statements as contextual parts and back.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="log progress to stderr (-vv for debug)",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = commands.add_parser(
        "gen-ontology", help="emit the TBox modules the configuration calls for"
    )
    _add_config(p)
    p.add_argument("-o", "--out", metavar="FILE", help="output file (default stdout)")
    p.add_argument("--format", metavar="FMT", help="turtle (default), ntriples or nquads")
    p.add_argument("--split", metavar="DIR", help="write one file per module instead")

    p = commands.add_parser(
        "ingest-csv", help="population-estimate CSV to annotated statements"
    )
    _add_config(p)
    p.add_argument("csv", help="estimates CSV (source,year,population_low,population_high)")
    p.add_argument("-o", "--out", metavar="FILE", help="statements output (default stdout)")
    _add_statement_io(p, reading=False)
    p.add_argument(
        "--descriptions",
        metavar="FILE",
        help="also write the context-description graph (merge it back in with "
        "`contextualize --merge`)",
    )

    p = commands.add_parser(
        "contextualize", help="annotated statements to a contextual-parts graph"
    )
    _add_config(p)
    p.add_argument("statements", help="annotated statements file")
    _add_statement_io(p, reading=True)
    p.add_argument(
        "--merge",
        action="append",
        metavar="FILE",
        help="graph to union into the output (repeatable)",
    )
    p.add_argument("-o", "--out", metavar="FILE", help="graph output (default stdout)")
    p.add_argument("--out-format", metavar="FMT", help="turtle (default), ntriples or nquads")

    p = commands.add_parser(
        "decontextualize", help="contextual-parts graph back to annotated statements"
    )
    _add_config(p)
    p.add_argument("graph", help="graph file (turtle/ntriples/nquads)")
    p.add_argument("--in-format", metavar="FMT", help="override input format")
    p.add_argument(
        "--context",
        action="append",
        metavar="IRI",
        help="keep only statements in this context (repeatable)",
    )
    p.add_argument("-o", "--out", metavar="FILE", help="statements output (default stdout)")
    _add_statement_io(p, reading=False)

    p = commands.add_parser(
        "validate", help="check the contextual-part pattern (exit 1 on violations)"
    )
    _add_config(p)
    p.add_argument("graph", help="graph file")
    p.add_argument("--in-format", metavar="FMT", help="override input format")
    p.add_argument(
        "--tbox",
        action="append",
        metavar="FILE",
        help="extra axiom graph to validate against (repeatable)",
    )
    p.add_argument(
        "--no-same-extent",
        action="store_true",
        help="skip the shared-extent agreement check",
    )
    p.add_argument(
        "--report",
        metavar="FILE",
        help="also write the violations as a JSON report",
    )

    p = commands.add_parser("reason", help="saturate a graph under the configured TBox")
    _add_config(p)
    p.add_argument("graph", help="graph file")
    p.add_argument("--in-format", metavar="FMT", help="override input format")
    p.add_argument("--tbox", action="append", metavar="FILE", help="extra axiom graph (repeatable)")
    p.add_argument(
        "--derived-only",
        action="store_true",
        help="write only the newly derived triples",
    )
    p.add_argument("-o", "--out", metavar="FILE", help="graph output (default stdout)")
    p.add_argument("--out-format", metavar="FMT", help="turtle (default), ntriples or nquads")

    p = commands.add_parser("query", help="run a pattern file and emit CSV")
    _add_config(p)
    p.add_argument("graph", help="graph file")
    p.add_argument("--pattern", required=True, metavar="FILE", help="pattern file")
    p.add_argument("--in-format", metavar="FMT", help="override input format")
    p.add_argument("-o", "--out", metavar="FILE", help="CSV output (default stdout)")

    p = commands.add_parser(
        "stats", help="triple counts per representation for a statement set"
    )
    _add_config(p)
    p.add_argument("statements", help="annotated statements file")
    _add_statement_io(p, reading=True)
    p.add_argument("-o", "--out", metavar="FILE", help="CSV output (default stdout)")

    return parser


# Built by the first `main` call, not at import; parsing never changes it.
_PARSER: argparse.ArgumentParser | None = None
_LOG_FORMAT = logging.Formatter("%(levelname)s %(message)s")


@_collector_paused
def main(argv: Sequence[str] | None = None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    parser = _PARSER
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    # This call's verbosity and standard error, for this call only.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_LOG_FORMAT)
    level = log.level
    log.setLevel(
        logging.WARNING
        if args.verbose == 0
        else logging.INFO if args.verbose == 1 else logging.DEBUG
    )
    log.addHandler(handler)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args)
    except InputError as error:
        sys.stderr.write(f"error: {error}\n")
        return 2
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
