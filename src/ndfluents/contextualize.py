"""Rewriting annotated statements into contextual-part graphs and back.

An annotated statement is a base triple plus one context per dimension.
Three combination models are supported:

- multi-context: one part per (entity, context set); the part carries one
  type/partOf/extent triple per dimension.
- contexts-in-context: a chain of parts per entity, one level per dimension
  in a caller-supplied nesting order, each level tied to one context.
- combined-extent: one part per entity with a single extent edge to a
  minted combined context that lists the member contexts.

`decontextualize` inverts all three by walking partOf chains back to the
first resource that is not a contextual part.
"""

from __future__ import annotations

import hashlib
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
    _unchecked_triple,
    term_sort_key,
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

    def dimensions(self) -> list[str]:
        return sorted(a.dimension for a in self.contexts)

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


def _digest(*parts: str) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:12]


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
        pairs = sorted(assignments)
        if self.mode == MINT_SUFFIX:
            suffix = "_".join(sorted(ctx.local_name() for _, ctx in pairs))
        else:
            suffix = _digest(*(f"{dim}={ctx.value}" for dim, ctx in pairs))
        return Iri(f"{entity.value}{self.separator}{suffix}")

    def mint_combined_context(self, assignments: tuple[tuple[str, Iri], ...]) -> Iri:
        digest = _digest(*(f"{dim}={ctx.value}" for dim, ctx in sorted(assignments)))
        return Iri(f"{self.combined_context_base}{digest}")

    def mint_statement_node(self, statement: AnnotatedStatement) -> Iri:
        digest = _digest(
            statement.base.n3(),
            *(f"{dim}={ctx.value}" for dim, ctx in statement.assignment_pairs()),
        )
        return Iri(f"{statement.base.subject.value}{self.separator}stmt-{digest}")

    def mint_singleton(self, statement: AnnotatedStatement) -> Iri:
        digest = _digest(
            statement.base.n3(),
            *(f"{dim}={ctx.value}" for dim, ctx in statement.assignment_pairs()),
        )
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


class _Builder:
    def __init__(
        self,
        registry: DimensionRegistry,
        model: CombinationModel,
        policy: MintingPolicy,
        vocab: CoreVocabulary,
        predicate_mode: str,
        predicate_map: dict[Iri, Iri] | None,
    ):
        if predicate_mode not in PREDICATE_MODES:
            raise ValueError(f"unknown predicate mode: {predicate_mode!r}")
        self.registry = registry
        self.model = model
        self.policy = policy
        self.vocab = vocab
        self.predicate_mode = predicate_mode
        self.predicate_map = _predicate_map(predicate_map)
        self.triples: set[Triple] = set()
        self.descriptions: list[Graph] = []
        # Each minted part IRI with the entity and assignments it stands for,
        # and the entities of the input: no part may equal one of them.
        self.minted: dict[Iri, tuple[Iri, frozenset[tuple[str, Iri]]]] = {}
        self.entities: set[Iri] = set()
        self.scaffolding = registry.pattern_vocabulary(vocab).scaffolding

    def add(self, statement: AnnotatedStatement) -> None:
        for entity in (statement.base.subject, statement.base.object):
            if isinstance(entity, Iri) and entity not in self.entities:
                if entity in self.minted:
                    raise _entity_collision(entity, self.minted[entity])
                self.entities.add(entity)
        pairs = statement.assignment_pairs()
        dims = [self.registry.get(name) for name, _ in pairs]  # raises on unregistered
        for assignment in statement.contexts:
            if assignment.description is not None:
                self.descriptions.append(assignment.description)
        predicate = self._rewrite_predicate(statement.base.predicate, dims)
        if self.model.kind == MODEL_MULTI_CONTEXT or (
            self.model.kind == MODEL_COMBINED_EXTENT and len(pairs) == 1
        ):
            self._add_multi_context(statement, pairs, predicate)
        elif self.model.kind == MODEL_CONTEXTS_IN_CONTEXT:
            self._add_nested(statement, pairs, predicate)
        else:
            self._add_combined(statement, pairs, predicate)

    def _rewrite_predicate(self, predicate: Iri, dims: list[ContextDimension]) -> Iri:
        related = self.predicate_mode == PREDICATE_RELATED
        if related:
            predicate = self.predicate_map.get(predicate) or related_property_iri(predicate)
        # The reader skips scaffolding: a statement under it would be lost.
        if predicate in self.scaffolding:
            raise ValueError(
                f"predicate {predicate.n3()} collides with scaffolding vocabulary; "
                + ("map it to another IRI" if related else "use predicate_mode='related'")
            )
        if self.predicate_mode == PREDICATE_SUBPROPERTY:
            for dim in dims:
                self.triples.add(
                    _unchecked_triple((predicate, RDFS.subPropertyOf, dim.contextual_property))
                )
        return predicate

    def _mint_part(self, entity: Iri, pairs: tuple[tuple[str, Iri], ...]) -> tuple[Iri, bool]:
        """The part IRI for `entity` under `pairs`, and whether it is minted
        for the first time, so that its scaffolding is emitted once; two
        different parts must not share one, which suffix minting allows when
        contexts share a local name, and no part may be an entity of the
        input, which suffix minting allows when an entity's IRI ends in a
        separator and suffix."""
        part = self.policy.mint_part(entity, pairs)
        owner = (entity, frozenset(pairs))
        previous = self.minted.setdefault(part, owner)
        if previous != owner:
            raise PatternError(
                f"minted part {part.n3()} for both {previous[0].n3()} in "
                f"{_describe(previous[1])} and {entity.n3()} in {_describe(owner[1])}; "
                "give the contexts distinct local names or set mode = hash under [minting]"
            )
        if part in self.entities:
            raise _entity_collision(part, owner)
        return part, previous is owner

    def _context_pairs(self, pairs: tuple[tuple[str, Iri], ...]) -> list[tuple[ContextDimension, Iri]]:
        return [(self.registry.get(name), ctx) for name, ctx in pairs]

    def _add_multi_context(
        self,
        statement: AnnotatedStatement,
        pairs: tuple[tuple[str, Iri], ...],
        predicate: Iri,
    ) -> None:
        base = statement.base
        subject_part, fresh = self._mint_part(base.subject, pairs)
        if fresh:
            for dim, ctx in self._context_pairs(pairs):
                self._attach(subject_part, dim, base.subject, ctx)
        if isinstance(base.object, Iri):
            object_part, fresh = self._mint_part(base.object, pairs)
            if fresh:
                for dim, ctx in self._context_pairs(pairs):
                    self._attach(object_part, dim, base.object, ctx)
            self.triples.add(_unchecked_triple((subject_part, predicate, object_part)))
        else:
            self.triples.add(_unchecked_triple((subject_part, predicate, base.object)))

    def _add_nested(
        self,
        statement: AnnotatedStatement,
        pairs: tuple[tuple[str, Iri], ...],
        predicate: Iri,
    ) -> None:
        order = [n for n in self.model.nesting_order or () if n in dict(pairs)]
        missing = set(dict(pairs)) - set(order)
        if missing:
            raise ValueError(
                f"nesting order does not cover dimension(s): {', '.join(sorted(missing))}"
            )
        by_name = dict(pairs)
        base = statement.base

        def build_chain(entity: Iri) -> Iri:
            parent: Iri = entity
            taken: list[tuple[str, Iri]] = []
            for name in order:
                dim = self.registry.get(name)
                ctx = by_name[name]
                taken.append((name, ctx))
                part, fresh = self._mint_part(entity, tuple(taken))
                if fresh:
                    self._attach(part, dim, parent, ctx)
                parent = part
            return parent

        subject_part = build_chain(base.subject)
        if isinstance(base.object, Iri):
            self.triples.add(_unchecked_triple((subject_part, predicate, build_chain(base.object))))
        else:
            self.triples.add(_unchecked_triple((subject_part, predicate, base.object)))

    def _add_combined(
        self,
        statement: AnnotatedStatement,
        pairs: tuple[tuple[str, Iri], ...],
        predicate: Iri,
    ) -> None:
        base = statement.base
        combined = self.registry.combined([name for name, _ in pairs])
        context = self.policy.mint_combined_context(pairs)
        self.triples.add(_unchecked_triple((context, RDF_TYPE, combined.context_class)))
        for dim, ctx in self._context_pairs(pairs):
            self.triples.add(_unchecked_triple((context, self.vocab.memberContext, ctx)))
            self.triples.add(_unchecked_triple((ctx, RDF_TYPE, dim.context_class)))

        def build_part(entity: Iri) -> Iri:
            part, fresh = self._mint_part(entity, pairs)
            if fresh:
                self.triples.update(map(_unchecked_triple, (
                    (part, RDF_TYPE, combined.part_class),
                    (part, combined.part_of, entity),
                    (part, combined.extent, context),
                )))
            return part

        subject_part = build_part(base.subject)
        if isinstance(base.object, Iri):
            self.triples.add(_unchecked_triple((subject_part, predicate, build_part(base.object))))
        else:
            self.triples.add(_unchecked_triple((subject_part, predicate, base.object)))

    def _attach(self, part: Iri, dim: ContextDimension, parent: Iri, ctx: Iri) -> None:
        """One level of scaffolding: type, partOf, extent, context type."""
        self.triples.update(map(_unchecked_triple, (
            (part, RDF_TYPE, dim.part_class),
            (part, dim.part_of, parent),
            (part, dim.extent, ctx),
            (ctx, RDF_TYPE, dim.context_class),
        )))

    def graph(self) -> Graph:
        return Graph(self.triples).union(*self.descriptions)


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
    builder = _Builder(registry, model, policy, vocab, predicate_mode, predicate_map)
    for statement in statements:
        builder.add(statement)
    return builder.graph()


# --- decontextualization -----------------------------------------------------


class _Reader:
    """Reads contextual parts back out of a graph through its indexes; of
    several faults, the first in sorted-triple order is raised."""

    def __init__(self, graph: Graph, registry: DimensionRegistry, vocab: CoreVocabulary):
        self.graph = graph
        # Combined dimensions are recognized alongside the registered ones so
        # combined-extent output decontextualizes with the same registry.
        self.pattern = registry.pattern_vocabulary(vocab)
        self.parts = self.pattern.parts(graph)
        self._walks: dict[Term, tuple[Term, set[tuple[str, Iri]]]] = {}

    def context_assignments(self, edges: list[Triple]) -> set[tuple[str, Iri]]:
        """Dimension-attributed contexts reachable from one part's extent edges."""
        found: set[tuple[str, Iri]] = set()
        for edge in sorted(edges, key=Triple.sort_key):
            if (dim := self.pattern.extent_dimension.get(edge.predicate)) is not None:
                found.add((dim.name, edge.object))
                continue
            # combined or core extent: attribute each member by its context type
            for member in sorted(self.pattern.members(self.graph, edge.object)):
                attributed = self.pattern.dimensions(self.graph, member)
                if not attributed:
                    raise PatternError(
                        f"cannot attribute context {member.n3()} to a dimension "
                        "(no recognized context type)"
                    )
                found.update((d.name, member) for d in attributed)
        return found

    def walk(self, part: Term) -> tuple[Term, set[tuple[str, Iri]]]:
        """Follow partOf edges to the first non-part, collecting contexts."""
        walked = self._walks.get(part)
        if walked is not None:
            return walked
        contexts: set[tuple[str, Iri]] = set()
        current = part
        seen: set[Term] = set()
        while current in self.parts:
            if current in seen:
                raise PatternError(f"partOf cycle at {current.n3()}")
            seen.add(current)
            by_prop: dict[Iri, set[Term]] = {}
            part_extents: list[Triple] = []
            for t in self.graph.match(current):
                if t.predicate in self.pattern.part_of:
                    by_prop.setdefault(t.predicate, set()).add(t.object)
                elif t.predicate in self.pattern.extents and isinstance(t.object, Iri):
                    part_extents.append(t)
            contexts |= self.context_assignments(part_extents)
            if not by_prop:
                raise PatternError(f"part {current.n3()} has no partOf edge")
            for prop in sorted(by_prop, key=Iri.n3):
                if len(by_prop[prop]) > 1:
                    raise PatternError(
                        f"part {current.n3()} has {len(by_prop[prop])} values for {prop.n3()}; "
                        "contextualPartOf is functional"
                    )
            targets = set().union(*by_prop.values())
            if len(targets) > 1:
                raise PatternError(f"part {current.n3()} belongs to more than one entity")
            if not part_extents:
                raise PatternError(f"part {current.n3()} has no extent")
            current = next(iter(targets))
        walked = self._walks[part] = (current, contexts)
        return walked


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
    predicates back to base predicates (for related-property graphs)."""
    reader = _Reader(graph, registry, vocab)
    reverse = _predicate_map(predicate_map)
    recovered: set[AnnotatedStatement] = set()
    # Sorted parts, then each part's sorted triples: the graph's own order.
    for part in sorted(reader.parts, key=term_sort_key):
        data = [t for t in graph.match(part) if t.predicate not in reader.pattern.scaffolding]
        for triple in sorted(data, key=Triple.sort_key):
            subject, contexts = reader.walk(triple.subject)
            obj: Term = triple.object
            if triple.object in reader.parts:
                obj, object_contexts = reader.walk(triple.object)
                contexts = contexts | object_contexts
            if not isinstance(subject, Iri):
                raise PatternError(f"chain from {triple.subject.n3()} ends at non-IRI {subject.n3()}")
            if not contexts:
                raise PatternError(f"no contexts recoverable for {triple.n3()}")
            if selection is not None and not {ctx for _, ctx in contexts} & set(selection):
                continue
            predicate = reverse.get(triple.predicate, triple.predicate)
            try:
                statement = AnnotatedStatement(
                    _unchecked_triple((subject, predicate, obj)),
                    frozenset(ContextAssignment(d, c) for d, c in contexts),
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
