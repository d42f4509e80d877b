"""Shared fixtures and the randomized-corpus generator used across the suite."""

from __future__ import annotations

import gc
import random
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st

from ndfluents import (
    OWL,
    RDF_TYPE,
    AnnotatedStatement,
    BlankNode,
    DimensionRegistry,
    Graph,
    Literal,
    Namespace,
    Triple,
    XSD,
    annotate,
    conventional_dimension,
    default_registry,
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


PATTERN_REGISTRY = default_registry()
_PATTERN = PATTERN_REGISTRY.pattern_vocabulary()
_PATTERN_NODES = [EX[f"n{i}"] for i in range(5)] + [BlankNode("b2"), BlankNode("b10")]
_PATTERN_CLASSES = sorted(_PATTERN.part_classes | _PATTERN.context_classes) + [EX.C0]
_PATTERN_PREDICATES = sorted(_PATTERN.part_of | _PATTERN.extents) + [
    _PATTERN.member_context, EX.knows, EX.near, OWL.sameAs,
]
# The extents that attribute through member contexts.
_LISTING_EXTENTS = [CORE.contextualExtent, PATTERN_REGISTRY.combined(["provenance", "temporal"]).extent]


@st.composite
def pattern_graphs(draw):
    """A graph over the default registry's pattern: parts with a partOf
    edge and extents in two contexts, part and context typings, member
    contexts, data triples between parts, and random edges between a few
    IRIs and blank nodes, some with literal objects. Beside them, maybe an
    object part `EX.o` with a chain of its own, and maybe a core or combined
    extent to a context `EX.c` that lists members, of which `EX.m` no
    dimension types."""
    nodes = st.sampled_from(_PATTERN_NODES)
    # Parts and their links drawn from a few nodes, so that links meet.
    few = st.sampled_from(_PATTERN_NODES[:3] + _PATTERN_NODES[-1:])
    contexts = st.sampled_from([EX.t1, EX.t2])
    part_ofs = st.sampled_from(sorted(_PATTERN.part_of))
    extents = st.sampled_from(sorted(_PATTERN.extents))
    links = st.sampled_from([EX.knows, EX.near])
    parts = draw(st.lists(st.tuples(few, part_ofs, nodes, extents, contexts), max_size=4))
    triples = [Triple(part, part_of, whole) for part, part_of, whole, _, _ in parts]
    triples += [Triple(part, extent, context) for part, _, _, extent, context in parts]
    triples += draw(st.lists(st.builds(Triple, few, links, few), max_size=4))
    triples += draw(st.lists(
        st.builds(Triple, st.sampled_from(_PATTERN_NODES + [EX.t1]), st.just(RDF_TYPE),
                  st.sampled_from(_PATTERN_CLASSES)),
        max_size=5,
    ))
    triples += draw(st.lists(
        st.builds(Triple, nodes, st.sampled_from(_PATTERN_PREDICATES),
                  st.sampled_from(_PATTERN_NODES + [EX.t1, Literal("x"), Literal("7", datatype=XSD.integer)])),
        max_size=8,
    ))
    if draw(st.booleans()):
        wholes = st.sampled_from(_PATTERN_NODES + [EX.o, EX.Paris, Literal("x")])
        triples.append(Triple(draw(few), draw(links), EX.o))
        triples += draw(st.lists(st.builds(Triple, st.just(EX.o), part_ofs, wholes), min_size=1, max_size=2))
        triples += draw(st.lists(st.builds(Triple, st.just(EX.o), extents, contexts), max_size=2))
    if draw(st.booleans()):
        triples.append(Triple(draw(few), draw(st.sampled_from(_LISTING_EXTENTS)), EX.c))
        members = draw(st.lists(st.sampled_from([EX.t1, EX.t2, EX.m]), max_size=2))
        triples += [Triple(EX.c, _PATTERN.member_context, member) for member in members]
    return Graph(triples)


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


def listed_context_graph(extent, context, members=(), types=()) -> Graph:
    """`EX["Paris@c"]`, a part of `EX.Paris` through the core
    contextualPartOf with one `extent` edge to `context`, which lists each
    of `members` through memberContext; each (node, class) of `types` is a
    typing triple; and `EX["Paris@c"] EX.population 5`."""
    part = EX["Paris@c"]
    return Graph(
        [
            Triple(part, CORE.contextualPartOf, EX.Paris),
            Triple(part, extent, context),
            Triple(part, EX.population, Literal("5", datatype=XSD.integer)),
        ]
        + [Triple(context, CORE.memberContext, member) for member in members]
        + [Triple(node, RDF_TYPE, cls) for node, cls in types]
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


def gc_state() -> tuple:
    """What a caller may have set on the cyclic collector."""
    return gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()


@contextmanager
def collector(enabled: bool):
    """Automatic collection switched on or off for the block, and put back
    as it was after it."""
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()


@pytest.fixture(params=[True, False], ids=["collector-on", "collector-off"])
def caller_gc(request) -> tuple:
    """A caller's collector: on or off, with a threshold of its own. Gives
    its `gc_state()` and afterwards puts back the suite's."""
    threshold = gc.get_threshold()
    with collector(request.param):
        gc.set_threshold(500, 7, 9)
        yield gc_state()
        gc.set_threshold(*threshold)
