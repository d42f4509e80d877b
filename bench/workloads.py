"""The three workloads. Each is a closed loop of one fixed unit of work.

A workload object is built in set-up (input generation and loading) and
then offers `op()`, the timed operation, and `capture()`, `check()` and
`check_setup()`, which run outside the timed spans. The expected results
are cached properties, computed on the first check, so set-up time is the
program's work and input generation only. The program is called through
its modules' attributes (`cli.main`, `query.match`, `reasoner.validate`,
...) so that a traced run can replace those names.
"""

from __future__ import annotations

import hashlib
import importlib
from functools import cached_property
from pathlib import Path

import expect
from expect import CheckFailed, require
from inputs import Corpus, descriptions_turtle, make_corpus, statements_csv

from ndfluents import cli, parser, query, reasoner
from ndfluents.config import Config, default_config
from ndfluents.contextualize import CombinationModel, MintingPolicy, annotate
from ndfluents.terms import XSD, Iri, Literal, Triple
from ndfluents.vocabulary import CORE, default_registry

# `ndfluents.contextualize` is also the name of a function on the package.
contextualize_module = importlib.import_module("ndfluents.contextualize")


class Workload:
    def check_setup(self) -> None:
        """Checks on what set-up loaded, run once per set-up."""


class Convert(Workload):
    """`contextualize stmts.csv --merge contexts.ttl -o graph.ttl`, then
    `decontextualize graph.ttl -o back.csv`, through `cli.main`."""

    def __init__(self, corpus: Corpus, workdir: Path):
        workdir.mkdir(parents=True, exist_ok=True)
        statements, contexts = workdir / "stmts.csv", workdir / "contexts.ttl"
        self.graph_path, self.back_path = workdir / "graph.ttl", workdir / "back.csv"
        statements.write_text(statements_csv(corpus), encoding="utf-8")
        contexts.write_text(descriptions_turtle(corpus), encoding="utf-8")
        self.argv = (
            ["contextualize", str(statements), "--merge", str(contexts), "-o", str(self.graph_path)],
            ["decontextualize", str(self.graph_path), "-o", str(self.back_path)],
        )
        self.corpus = corpus
        # Output files by content digest: memory stays flat however many
        # operations run, and each distinct output is checked once.
        self.outputs: dict[bytes, bytes] = {}
        self.verdicts: dict[tuple[bytes, bytes], str | None] = {}
        self.first_graph: bytes | None = None

    @cached_property
    def rows(self) -> set[tuple]:
        return expect.statement_rows(self.corpus)

    @cached_property
    def triples(self) -> set[tuple[str, str, str]]:
        return expect.multi_context_graph(self.corpus)

    def op(self) -> tuple[int, ...]:
        return tuple(cli.main(argv) for argv in self.argv)

    def capture(self, codes: tuple[int, ...]) -> tuple:
        digests = []
        for path in (self.graph_path, self.back_path):
            content = path.read_bytes()
            digest = hashlib.sha256(content).digest()
            self.outputs.setdefault(digest, content)
            digests.append(digest)
        return (codes, *digests)

    def check(self, captured: tuple) -> None:
        codes, graph, back = captured
        require(codes == (0, 0), f"exit codes {codes}")
        if self.first_graph is None:
            self.first_graph = graph
        require(graph == self.first_graph, "graph.ttl differs from the first operation's")
        if (graph, back) not in self.verdicts:
            try:
                self.check_content(self.outputs[graph].decode("utf-8"), self.outputs[back].decode("utf-8"))
                self.verdicts[graph, back] = None
            except CheckFailed as failure:
                self.verdicts[graph, back] = str(failure)
        require(self.verdicts[graph, back] is None, self.verdicts[graph, back] or "")

    def check_content(self, graph: str, back: str) -> None:
        triples = expect.turtle_triples(graph)
        require(len(triples) == len(set(triples)), "graph.ttl repeats a triple")
        require(
            set(triples) == self.triples,
            f"graph.ttl has {len(set(triples))} triples, the corpus gives {len(self.triples)}"
            f"; {len(set(triples) ^ self.triples)} differ",
        )
        require(
            expect.read_statement_rows(back) == self.rows,
            "back.csv differs from the generated statements",
        )


class Query(Workload):
    """A fixed mix of four patterns, parsed and matched on a graph that
    set-up loads by parsing its Turtle file."""

    def __init__(self, corpus: Corpus, workdir: Path):
        files = Convert(corpus, workdir)
        code = cli.main(files.argv[0])
        require(code == 0, f"contextualize exited {code}")
        self.graph = parser.parse(files.graph_path.read_text(encoding="utf-8"), "turtle")
        self.files = files
        self.registry = default_config().registry
        self.mix = expect.query_mix(corpus)
        # Equal results share one copy, so memory stays flat over a run.
        self.outputs: dict[tuple, tuple] = {}

    @cached_property
    def tables(self) -> dict:
        return expect.expected_tables(self.files.corpus)

    def check_setup(self) -> None:
        expected = len(self.files.triples)
        require(
            len(self.graph) == expected,
            f"parsed graph has {len(self.graph)} triples, the corpus gives {expected}",
        )

    def op(self) -> list:
        return [
            (name, query.match(self.graph, query.parse_pattern(text), self.registry))
            for name, text in self.mix
        ]

    def capture(self, result: list) -> tuple:
        captured = tuple(
            (name, table.columns, tuple(tuple(expect.render(cell) for cell in row) for row in table.rows))
            for name, table in result
        )
        return self.outputs.setdefault(captured, captured)

    def check(self, captured: tuple) -> None:
        for name, columns, rows in captured:
            expect.check_table(name, columns, rows, self.tables)


class Reason(Workload):
    """`validate` under `Config.axioms()` on an in-memory
    contexts-in-context graph, once clean and once with seeded faults."""

    ORDER = ("temporal", "provenance")

    def __init__(self, corpus: Corpus, workdir: Path):
        registry = default_registry()
        model = CombinationModel.contexts_in_context(self.ORDER)
        self.config = Config(registry=registry, model=model, policy=MintingPolicy(), vocab=CORE)
        self.axioms = self.config.axioms()
        statements = [
            annotate(
                Iri(s.subject),
                Iri(s.predicate),
                Literal(s.obj, datatype=XSD.integer) if s.literal else Iri(s.obj),
                ("temporal", Iri(s.interval)),
                ("provenance", Iri(s.activity)),
            )
            for s in corpus
        ]
        self.graph = contextualize_module.contextualize(statements, registry, model)
        self.faults = expect.seeded_faults(corpus)
        self.seeded = self.graph.union(
            [Triple(Iri(s), Iri(p), Iri(o)) for (s, p, o), _ in self.faults]
        )
        self.corpus = corpus
        self.outputs: dict[tuple, tuple] = {}

    @cached_property
    def expected(self) -> set[tuple[str, tuple[str, ...]]]:
        return {violation for _, violation in self.faults}

    @cached_property
    def chains(self) -> list[tuple[str, str, str]]:
        return expect.nested_parts(self.corpus)

    def op(self) -> tuple:
        registry = self.config.registry
        return (
            reasoner.validate(self.graph, self.axioms, registry),
            reasoner.validate(self.seeded, self.axioms, registry),
        )

    def capture(self, result: tuple) -> tuple:
        clean, seeded = (
            frozenset((v.kind, tuple(expect.render(s) for s in v.subjects)) for v in violations)
            for violations in result
        )
        return self.outputs.setdefault((clean, seeded), (clean, seeded))

    def check(self, captured: tuple) -> None:
        clean, seeded = captured
        require(not clean, f"clean graph gives {len(clean)} violations: {sorted(clean)[:3]}")
        require(
            seeded == self.expected,
            f"seeded graph: missing {sorted(self.expected - seeded)}, extra {sorted(seeded - self.expected)}",
        )

    def check_setup(self) -> None:
        """Every part of a chain links straight to its entity through
        contextualPartOf once saturated (transitivity)."""
        saturated = reasoner.saturate(self.graph, self.axioms).all
        part_of = Iri(expect.ND + "contextualPartOf")
        for outer, inner, entity in self.chains:
            for part in (outer, inner):
                require(
                    Triple(Iri(part), part_of, Iri(entity)) in saturated,
                    f"saturation lacks {part} contextualPartOf {entity}",
                )


WORKLOADS = {"convert": Convert, "query": Query, "reason": Reason}

# Statements per workload, sized so one operation takes roughly 0.1 to 0.2 s
# on a two-core machine and a 35 s run holds well over 100 operations.
SIZES = {"convert": 50, "query": 100, "reason": 120}


def build(name: str, seed: int, workdir: Path, size: int | None = None) -> Workload:
    return WORKLOADS[name](make_corpus(seed, size or SIZES[name]), workdir)
