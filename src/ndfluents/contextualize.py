"""Rewriting annotated statements into contextual-part graphs and back.

An annotated statement is a base triple plus one context per dimension.
`contextualize` gives its subject, and its object when that is an IRI, a
chain of contextual parts and writes the base triple between the innermost
ones. Each level of a chain is one part, tied to the level above (the
entity, for the outermost) by a partOf property and to its contexts by an
extent. The three combination models are three level layouts of that one
chain, chosen by `contextualize`'s `levels_of` and written by one loop:

- multi-context: one level, whose part carries one type/partOf/extent
  triple per dimension.
- contexts-in-context: one level per dimension, in a caller-supplied
  nesting order, each tied to one context.
- combined-extent: one level with a single extent edge to a minted
  combined context that lists the member contexts; a statement in one
  dimension falls back to multi-context.

`decontextualize` inverts all three with one loop too: from each part it
follows partOf edges back to the first resource that is not a contextual
part and collects the contexts of every level on the way.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass, field

from .terms import (
    RDF,
    RDF_TYPE,
    RDFS,
    BlankNode,
    Graph,
    Iri,
    Namespace,
    Term,
    Triple,
    _collector_paused,
    _unchecked_triple,
)
from .vocabulary import CORE, ContextDimension, CoreVocabulary, DimensionRegistry

DEFAULT_CONTEXT_BASE = "http://purl.org/NET/ndfluents/context#"

# Singleton-property vocabulary used by the baseline encoder.
SP = Namespace("http://sw.deri.org/2012/sp#")
SINGLETON_PROPERTY_OF = SP.singletonPropertyOf

MODEL_CONTEXTS_IN_CONTEXT = "contexts-in-context"
MODEL_MULTI_CONTEXT = "multi-context"
MODEL_COMBINED_EXTENT = "combined-extent"
MODEL_KINDS = (MODEL_CONTEXTS_IN_CONTEXT, MODEL_MULTI_CONTEXT, MODEL_COMBINED_EXTENT)

PREDICATE_KEEP = "keep"
PREDICATE_SUBPROPERTY = "subproperty"
PREDICATE_RELATED = "related"
PREDICATE_MODES = (PREDICATE_KEEP, PREDICATE_SUBPROPERTY, PREDICATE_RELATED)

MINT_SUFFIX = "suffix"
MINT_HASH = "hash"


@dataclass(frozen=True)
class ContextAssignment:
    """One context in one dimension. The optional description graph renders
    the context individual (interval bounds, activity metadata, ...) and is
    ignored by equality: assignments are identified by (dimension, context)."""

    dimension: str
    context: Iri
    description: Graph | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.context, Iri):
            raise ValueError(f"context must be an IRI, got {self.context!r}")


@dataclass(frozen=True)
class AnnotatedStatement:
    base: Triple
    contexts: frozenset[ContextAssignment]

    def __post_init__(self) -> None:
        contexts = frozenset(self.contexts)
        object.__setattr__(self, "contexts", contexts)
        if not contexts:
            raise ValueError("an annotated statement needs at least one context")
        dims = [a.dimension for a in contexts]
        if len(set(dims)) != len(dims):
            raise ValueError("at most one context per dimension; split the statement instead")
        for term in (self.base.subject, self.base.object):
            if isinstance(term, BlankNode):
                raise ValueError("blank nodes in base statements are not supported")

    def assignment_pairs(self) -> tuple[tuple[str, Iri], ...]:
        """(dimension, context) pairs sorted by dimension name."""
        return tuple(sorted((a.dimension, a.context) for a in self.contexts))


def annotate(
    subject: Iri,
    predicate: Iri,
    obj: Term,
    *assignments: ContextAssignment | tuple[str, Iri],
) -> AnnotatedStatement:
    """Convenience constructor; accepts bare (dimension, context) pairs."""
    normalized = frozenset(
        a if isinstance(a, ContextAssignment) else ContextAssignment(a[0], a[1])
        for a in assignments
    )
    return AnnotatedStatement(Triple(subject, predicate, obj), normalized)


@dataclass(frozen=True)
class CombinationModel:
    kind: str
    nesting_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown combination model: {self.kind!r}")
        if self.kind == MODEL_CONTEXTS_IN_CONTEXT:
            order = self.nesting_order
            if not order or len(set(order)) != len(order):
                raise ValueError("contexts-in-context needs a duplicate-free nesting order")
        elif self.nesting_order is not None:
            raise ValueError(f"{self.kind} does not take a nesting order")

    @classmethod
    def contexts_in_context(cls, order: tuple[str, ...] | list[str]) -> "CombinationModel":
        return cls(MODEL_CONTEXTS_IN_CONTEXT, tuple(order))

    @classmethod
    def multi_context(cls) -> "CombinationModel":
        return cls(MODEL_MULTI_CONTEXT)

    @classmethod
    def combined_extent(cls) -> "CombinationModel":
        return cls(MODEL_COMBINED_EXTENT)


def _context_digest(pairs: Iterable[tuple[str, Iri]], *head: str) -> str:
    """12 hex digits of the SHA-256 of `head` and the sorted (dimension,
    context) pairs, one `dimension=context` line each."""
    lines = (*head, *(f"{dim}={ctx.value}" for dim, ctx in sorted(pairs)))
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class MintingPolicy:
    """Deterministic IRI minting. Suffix mode appends sorted context local
    names (readable, collision-free only while local names are distinct);
    hash mode appends a digest of the sorted (dimension, context) pairs."""

    mode: str = MINT_SUFFIX
    separator: str = "@"
    combined_context_base: str = DEFAULT_CONTEXT_BASE

    def __post_init__(self) -> None:
        if self.mode not in (MINT_SUFFIX, MINT_HASH):
            raise ValueError(f"unknown minting mode: {self.mode!r}")

    def mint_part(self, entity: Iri, assignments: tuple[tuple[str, Iri], ...]) -> Iri:
        if not assignments:
            raise ValueError("a contextual part needs at least one context")
        if self.mode == MINT_SUFFIX:
            suffix = "_".join(sorted(ctx.local_name() for _, ctx in assignments))
        else:
            suffix = _context_digest(assignments)
        return Iri(f"{entity.value}{self.separator}{suffix}")

    def mint_combined_context(self, assignments: tuple[tuple[str, Iri], ...]) -> Iri:
        return Iri(f"{self.combined_context_base}{_context_digest(assignments)}")

    def mint_statement_node(self, statement: AnnotatedStatement) -> Iri:
        digest = _context_digest(statement.assignment_pairs(), statement.base.n3())
        return Iri(f"{statement.base.subject.value}{self.separator}stmt-{digest}")

    def mint_singleton(self, statement: AnnotatedStatement) -> Iri:
        digest = _context_digest(statement.assignment_pairs(), statement.base.n3())
        return Iri(f"{statement.base.predicate.value}{self.separator}{digest}")


def related_property_iri(predicate: Iri) -> Iri:
    """Default minted IRI for the related contextual property of a predicate."""
    sep = "_" if "#" in predicate.value else "#"
    return Iri(f"{predicate.value}{sep}contextual")


def related_property_base(contextual: Iri) -> Iri | None:
    """The predicate whose `related_property_iri` is `contextual`, or None
    when it is no such IRI."""
    value = contextual.value
    for sep, hashed in (("#", False), ("_", True)):
        base = value.removesuffix(f"{sep}contextual")
        if base != value and ("#" in base) == hashed:
            return Iri(base)
    return None


class PatternError(ValueError):
    """A graph or a statement set that the contextual-part pattern cannot
    represent faithfully: the graph being inverted violates the pattern, or
    minting would merge two different parts into one IRI."""


def _describe(assignments: frozenset[tuple[str, Iri]]) -> str:
    return ", ".join(f"{dim}={ctx.n3()}" for dim, ctx in sorted(assignments))


def _entity_collision(part: Iri, owner: tuple[Iri, frozenset[tuple[str, Iri]]]) -> PatternError:
    return PatternError(
        f"minted part {part.n3()} for {owner[0].n3()} in {_describe(owner[1])} "
        "is also an entity of the input; "
        "rename the entity or set mode = hash under [minting]"
    )


def _predicate_map(mapping: dict[Iri, Iri] | None) -> dict[Iri, Iri]:
    """`mapping`, or an empty map, once each value is known to be an IRI:
    the values become predicates of triples built unchecked."""
    for value in (mapping or {}).values():
        if not isinstance(value, Iri):
            raise ValueError(f"a predicate map value must be an IRI, got {value!r}")
    return mapping or {}


# One level of a part chain: the (dimension, context) pairs its part is
# minted for, and the (dimension, context) pairs the part is attached to.
_Level = tuple[tuple[tuple[str, Iri], ...], list[tuple[ContextDimension, Iri]]]


@_collector_paused
def contextualize(
    statements: list[AnnotatedStatement] | tuple[AnnotatedStatement, ...],
    registry: DimensionRegistry,
    model: CombinationModel,
    policy: MintingPolicy = MintingPolicy(),
    vocab: CoreVocabulary = CORE,
    *,
    predicate_mode: str = PREDICATE_KEEP,
    predicate_map: dict[Iri, Iri] | None = None,
) -> Graph:
    if predicate_mode not in PREDICATE_MODES:
        raise ValueError(f"unknown predicate mode: {predicate_mode!r}")
    predicate_map = _predicate_map(predicate_map)
    related = predicate_mode == PREDICATE_RELATED
    scaffolding = registry.pattern_vocabulary(vocab).scaffolding
    triples: set[Triple] = set()
    descriptions: list[Graph] = []
    # Each minted part IRI with the entity and assignments it stands for,
    # and the entities of the input: no part may equal one of them.
    minted: dict[Iri, tuple[Iri, frozenset[tuple[str, Iri]]]] = {}
    entities: set[Iri] = set()

    def levels_of(pairs: tuple[tuple[str, Iri], ...], dims: list[ContextDimension]) -> list[_Level]:
        """The levels of a statement's part chains, outermost first: the one
        place where the combination model is read."""
        if model.kind == MODEL_CONTEXTS_IN_CONTEXT:
            by_name = {name: (dim, ctx) for dim, (name, ctx) in zip(dims, pairs)}
            order = [name for name in model.nesting_order or () if name in by_name]
            missing = set(by_name) - set(order)
            if missing:
                raise ValueError(
                    f"nesting order does not cover dimension(s): {', '.join(sorted(missing))}"
                )
            levels: list[_Level] = []
            taken: tuple[tuple[str, Iri], ...] = ()
            for name in order:
                dim, ctx = by_name[name]
                taken += ((name, ctx),)
                levels.append((taken, [(dim, ctx)]))
            return levels
        attached = [(dim, ctx) for dim, (_, ctx) in zip(dims, pairs)]
        if model.kind == MODEL_COMBINED_EXTENT and len(pairs) > 1:
            context = policy.mint_combined_context(pairs)
            for dim, ctx in attached:
                triples.add(_unchecked_triple((context, vocab.memberContext, ctx)))
                triples.add(_unchecked_triple((ctx, RDF_TYPE, dim.context_class)))
            attached = [(registry.combined([name for name, _ in pairs]), context)]
        return [(pairs, attached)]

    def chain(entity: Iri, levels: list[_Level]) -> Iri:
        """Mints `entity`'s part at each level and returns the innermost one.
        A part's scaffolding (type, partOf, extent, context type) is written
        the first time it is minted. Two different parts must not share one
        IRI, which suffix minting allows when contexts share a local name,
        and no part may be an entity of the input, which suffix minting
        allows when an entity's IRI ends in a separator and suffix."""
        parent = entity
        for minted_for, attached in levels:
            part = policy.mint_part(entity, minted_for)
            owner = (entity, frozenset(minted_for))
            previous = minted.setdefault(part, owner)
            if previous != owner:
                raise PatternError(
                    f"minted part {part.n3()} for both {previous[0].n3()} in "
                    f"{_describe(previous[1])} and {entity.n3()} in {_describe(owner[1])}; "
                    "give the contexts distinct local names or set mode = hash under [minting]"
                )
            if part in entities:
                raise _entity_collision(part, owner)
            if previous is owner:
                for dim, ctx in attached:
                    triples.update(map(_unchecked_triple, (
                        (part, RDF_TYPE, dim.part_class),
                        (part, dim.part_of, parent),
                        (part, dim.extent, ctx),
                        (ctx, RDF_TYPE, dim.context_class),
                    )))
            parent = part
        return parent

    for statement in statements:
        base = statement.base
        for entity in (base.subject, base.object):
            if isinstance(entity, Iri) and entity not in entities:
                if entity in minted:
                    raise _entity_collision(entity, minted[entity])
                entities.add(entity)
        pairs = statement.assignment_pairs()
        dims = [registry.get(name) for name, _ in pairs]  # raises on unregistered
        for assignment in statement.contexts:
            if assignment.description is not None:
                descriptions.append(assignment.description)
        predicate = base.predicate
        if related:
            predicate = predicate_map.get(predicate) or related_property_iri(predicate)
        # decontextualize skips scaffolding: a statement under it would be lost.
        if predicate in scaffolding:
            raise ValueError(
                f"predicate {predicate.n3()} collides with scaffolding vocabulary; "
                + ("map it to another IRI" if related else "use predicate_mode='related'")
            )
        if predicate_mode == PREDICATE_SUBPROPERTY:
            for dim in dims:
                triples.add(
                    _unchecked_triple((predicate, RDFS.subPropertyOf, dim.contextual_property))
                )
        levels = levels_of(pairs, dims)
        subject = chain(base.subject, levels)
        obj = chain(base.object, levels) if isinstance(base.object, Iri) else base.object
        triples.add(_unchecked_triple((subject, predicate, obj)))
    return Graph(triples).union(*descriptions)


# --- decontextualization -----------------------------------------------------


@_collector_paused
def decontextualize(
    graph: Graph,
    registry: DimensionRegistry,
    selection: set[Iri] | frozenset[Iri] | None = None,
    vocab: CoreVocabulary = CORE,
    *,
    predicate_map: dict[Iri, Iri] | None = None,
) -> list[AnnotatedStatement]:
    """Invert contextualize. `selection` keeps only statements whose
    recovered context IRIs intersect it. `predicate_map` maps rewritten
    predicates back to base predicates (for related-property graphs). Each
    part's edges are read once, from the S index; of several faults, the
    first in sorted-triple order is raised."""
    # Combined dimensions are recognized alongside the registered ones so
    # combined-extent output decontextualizes with the same registry.
    pattern = registry.pattern_vocabulary(vocab)
    levels, data = pattern.levels(graph, pattern.parts(graph))
    reverse = _predicate_map(predicate_map)
    selected = None if selection is None else frozenset(selection)
    recovered: set[AnnotatedStatement] = set()
    # The parts' data triples in the graph's order. Each level a walk passes
    # has an extent edge, which gives a context or a fault, so each statement
    # has a context.
    for triple in sorted(data, key=Triple.sort_key):
        (subject, obj), pairs, faults = pattern.walk(levels, triple.subject, triple.object)
        if faults:
            raise PatternError(faults[0][2])
        if selected is not None and selected.isdisjoint(ctx for _, ctx in pairs):
            continue
        predicate = reverse.get(triple.predicate, triple.predicate)
        try:
            statement = AnnotatedStatement(
                _unchecked_triple((subject, predicate, obj)),
                frozenset(ContextAssignment(d, c) for d, c in set(pairs)),
            )
        except ValueError as error:
            raise PatternError(f"cannot recover a statement from {triple.n3()}: {error}") from None
        recovered.add(statement)
    return sorted(
        recovered,
        key=lambda s: (s.base.sort_key(), [(d, c.value) for d, c in s.assignment_pairs()]),
    )


# --- baseline encoders and size report ----------------------------------------


def encode_reification(
    statements: list[AnnotatedStatement] | tuple[AnnotatedStatement, ...],
    registry: DimensionRegistry,
    policy: MintingPolicy = MintingPolicy(),
) -> Graph:
    """Standard reification: 4 triples per statement plus one extent edge
    per context assignment."""
    triples: set[Triple] = set()
    for statement in statements:
        node = policy.mint_statement_node(statement)
        base = statement.base
        triples.add(Triple(node, RDF_TYPE, RDF.Statement))
        triples.add(Triple(node, RDF.subject, base.subject))
        triples.add(Triple(node, RDF.predicate, base.predicate))
        triples.add(Triple(node, RDF.object, base.object))
        for name, ctx in statement.assignment_pairs():
            triples.add(Triple(node, registry.get(name).extent, ctx))
    return Graph(triples)


def encode_singleton(
    statements: list[AnnotatedStatement] | tuple[AnnotatedStatement, ...],
    registry: DimensionRegistry,
    policy: MintingPolicy = MintingPolicy(),
) -> Graph:
    """Singleton properties: a per-statement predicate linked to the base
    predicate, plus one extent edge per context assignment."""
    triples: set[Triple] = set()
    for statement in statements:
        prop = policy.mint_singleton(statement)
        base = statement.base
        triples.add(Triple(base.subject, prop, base.object))
        triples.add(Triple(prop, SINGLETON_PROPERTY_OF, base.predicate))
        for name, ctx in statement.assignment_pairs():
            triples.add(Triple(prop, registry.get(name).extent, ctx))
    return Graph(triples)


@dataclass(frozen=True)
class SizeRow:
    representation: str
    model: str
    triples: int


def size_report(
    statements: list[AnnotatedStatement] | tuple[AnnotatedStatement, ...],
    registry: DimensionRegistry,
    policy: MintingPolicy = MintingPolicy(),
    vocab: CoreVocabulary = CORE,
) -> list[SizeRow]:
    """Triple counts for the three contextual models and both baselines."""
    all_dims = sorted({name for s in statements for name, _ in s.assignment_pairs()})
    rows: list[SizeRow] = []
    models = [
        CombinationModel.contexts_in_context(all_dims or ["temporal"]),
        CombinationModel.multi_context(),
        CombinationModel.combined_extent(),
    ]
    for model in models:
        graph = contextualize(statements, registry, model, policy, vocab)
        rows.append(SizeRow("ndfluents", model.kind, len(graph)))
    rows.append(SizeRow("reification", "", len(encode_reification(statements, registry, policy))))
    rows.append(SizeRow("singleton", "", len(encode_singleton(statements, registry, policy))))
    return rows
