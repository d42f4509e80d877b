"""Shared fixtures and the randomized-corpus generator used across the suite."""

from __future__ import annotations

import random

import pytest

from ndfluents import (
    RDF_TYPE,
    AnnotatedStatement,
    DimensionRegistry,
    Graph,
    Literal,
    Namespace,
    Triple,
    XSD,
    annotate,
    conventional_dimension,
    provenance_dimension,
    temporal_dimension,
)
from ndfluents.vocabulary import CORE

EX = Namespace("http://example.org/")

# Three dimensions give the corpus generator its "up to three dimensions"
# head-room; "trust" exercises the conventional naming path.
CORPUS_DIMENSIONS = (
    temporal_dimension(),
    provenance_dimension(),
    conventional_dimension("trust"),
)

_ENTITIES = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon", "Zeta")
_PREDICATES = ("knows", "locatedIn", "memberOf", "ownedBy")
_DATA_PREDICATES = ("population", "label", "score")


def corpus_registry() -> DimensionRegistry:
    return DimensionRegistry(list(CORPUS_DIMENSIONS))


def random_corpus(rng: random.Random, serial: int) -> list[AnnotatedStatement]:
    """Up to 10 annotated statements over up to 3 dimensions.

    Every (statement, dimension) pair gets its own freshly minted context
    IRI with a corpus-unique local name, so no two statements share a
    context and suffix minting cannot collide.
    """
    dims = rng.sample([d.name for d in CORPUS_DIMENSIONS], rng.randint(1, 3))
    statements = []
    for i in range(rng.randint(1, 10)):
        subject = EX[rng.choice(_ENTITIES)]
        if rng.random() < 0.3:
            predicate = EX[rng.choice(_DATA_PREDICATES)]
            obj = rng.choice(
                [
                    Literal(str(rng.randint(-5, 100)), datatype=XSD.integer),
                    Literal(rng.choice(("red", "green", "blue"))),
                    Literal("bonjour", language="fr"),
                ]
            )
        else:
            predicate = EX[rng.choice(_PREDICATES)]
            obj = EX[rng.choice(_ENTITIES)]
        chosen = rng.sample(dims, rng.randint(1, len(dims)))
        assignments = [
            (name, EX[f"ctx{serial}s{i}{name}"]) for name in sorted(chosen)
        ]
        statements.append(annotate(subject, predicate, obj, *assignments))
    return statements


def part_chain(depth: int) -> Graph:
    """`EX.p0` temporalPartOf `EX.p1` ... `EX.p<depth-1>` temporalPartOf
    `EX.Paris`, with the temporal extent `EX.y2016` only on the outermost
    part and `EX.p0 EX.population 5`; beside it, `EX.q` is a part of Paris
    in `EX.y2017` with `EX.q EX.population 7`."""
    temporal = temporal_dimension()
    triples = [Triple(EX.y2016, RDF_TYPE, temporal.context_class)]
    for i in range(depth):
        parent = EX[f"p{i + 1}"] if i + 1 < depth else EX.Paris
        triples.append(Triple(EX[f"p{i}"], temporal.part_of, parent))
        triples.append(Triple(EX[f"p{i}"], RDF_TYPE, temporal.part_class))
    triples.append(Triple(EX[f"p{depth - 1}"], temporal.extent, EX.y2016))
    triples.append(Triple(EX.p0, EX.population, Literal("5", datatype=XSD.integer)))
    return Graph(triples).union(chain_outsider())


def chain_outsider() -> Graph:
    """The triples of `part_chain` outside the `EX.y2016` slice."""
    temporal = temporal_dimension()
    return Graph(
        [
            Triple(EX.q, temporal.part_of, EX.Paris),
            Triple(EX.q, RDF_TYPE, temporal.part_class),
            Triple(EX.q, temporal.extent, EX.y2017),
            Triple(EX.q, EX.population, Literal("7", datatype=XSD.integer)),
        ]
    )


def core_extent_graph() -> Graph:
    """`EX["Paris@y2016"]` is a part of `EX.Paris` through the core
    contextualPartOf and contextualExtent, with `EX.y2016` typed as a
    temporal interval, and `EX["Paris@y2016"] EX.population 5`: its one
    context is attributed to the temporal dimension by its type alone."""
    part = EX["Paris@y2016"]
    return Graph(
        [
            Triple(part, CORE.contextualPartOf, EX.Paris),
            Triple(part, CORE.contextualExtent, EX.y2016),
            Triple(EX.y2016, RDF_TYPE, temporal_dimension().context_class),
            Triple(part, EX.population, Literal("5", datatype=XSD.integer)),
        ]
    )


@pytest.fixture
def temporal_registry() -> DimensionRegistry:
    return DimensionRegistry([temporal_dimension()])


@pytest.fixture
def two_dim_registry() -> DimensionRegistry:
    return DimensionRegistry([temporal_dimension(), provenance_dimension()])


@pytest.fixture
def full_registry() -> DimensionRegistry:
    return corpus_registry()


@pytest.fixture
def paris_statement() -> AnnotatedStatement:
    """One object statement with one temporal context."""
    return annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.year508))
