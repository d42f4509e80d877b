"""Core vocabulary, context dimensions, and axiom-module generators.

The vocabulary layer defines the small axiom algebra the reasoner consumes
and generates every ontology module: the core module, the datatype-property
module, per-dimension modules, per-dimension restriction modules, the
optional transitivity / functional-extent axioms, combined-dimension
modules, and related contextual properties. Axiom lists are duplicate-free
and deterministic in order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

from .terms import RDF_TYPE, BlankNode, Graph, Iri, Namespace, OWL, RDFS, Term, Triple

DEFAULT_NAMESPACE = "http://purl.org/NET/ndfluents#"
DEFAULT_DIMENSION_ROOT = "http://purl.org/NET/ndfluents/"
DEFAULT_COMBINED_BASE = "http://purl.org/NET/ndfluents/combined"

# Axiom kinds
SUB_CLASS_OF = "SubClassOf"
SUB_PROPERTY_OF = "SubPropertyOf"
DOMAIN = "Domain"
RANGE = "Range"
RANGE_COMPLEMENT_OF = "RangeComplementOf"
FUNCTIONAL = "Functional"
INVERSE_FUNCTIONAL = "InverseFunctional"
TRANSITIVE = "Transitive"
DISJOINT_CLASSES = "DisjointClasses"
ALL_VALUES_FROM_DOMAIN = "AllValuesFromDomain"
ALL_VALUES_FROM_RANGE = "AllValuesFromRange"
DECLARATION = "Declaration"

# roles for SubPropertyOf and Declaration
OBJECT_PROPERTY = "objectProperty"
DATA_PROPERTY = "dataProperty"
CLASS = "class"


@dataclass(frozen=True)
class Axiom:
    """One schema-level statement. `terms` holds the IRIs in declaration
    order for the kind; `role` qualifies property declarations (object vs
    datatype) where the triple form alone would be ambiguous."""

    kind: str
    terms: tuple[Iri, ...]
    role: str = ""

    def __repr__(self) -> str:
        inner = " ".join(t.n3() for t in self.terms)
        role = f" [{self.role}]" if self.role else ""
        return f"{self.kind}({inner}){role}"


def sub_class_of(sub: Iri, sup: Iri) -> Axiom:
    return Axiom(SUB_CLASS_OF, (sub, sup))


def sub_property_of(sub: Iri, sup: Iri, role: str = OBJECT_PROPERTY) -> Axiom:
    if role not in (OBJECT_PROPERTY, DATA_PROPERTY):
        raise ValueError(f"bad subproperty role: {role!r}")
    return Axiom(SUB_PROPERTY_OF, (sub, sup), role)


def property_domain(prop: Iri, cls: Iri) -> Axiom:
    return Axiom(DOMAIN, (prop, cls))


def property_range(prop: Iri, cls: Iri) -> Axiom:
    return Axiom(RANGE, (prop, cls))


def range_complement_of(prop: Iri, cls: Iri) -> Axiom:
    return Axiom(RANGE_COMPLEMENT_OF, (prop, cls))


def functional(prop: Iri) -> Axiom:
    return Axiom(FUNCTIONAL, (prop,))


def inverse_functional(prop: Iri) -> Axiom:
    return Axiom(INVERSE_FUNCTIONAL, (prop,))


def transitive(prop: Iri) -> Axiom:
    return Axiom(TRANSITIVE, (prop,))


def disjoint_classes(a: Iri, b: Iri) -> Axiom:
    return Axiom(DISJOINT_CLASSES, (a, b))


def all_values_from_domain(prop: Iri, via: Iri, cls: Iri) -> Axiom:
    """Subjects of `prop` have all their `via` values in `cls`."""
    return Axiom(ALL_VALUES_FROM_DOMAIN, (prop, via, cls))


def all_values_from_range(prop: Iri, via: Iri, cls: Iri) -> Axiom:
    """Objects of `prop` have all their `via` values in `cls`."""
    return Axiom(ALL_VALUES_FROM_RANGE, (prop, via, cls))


def declaration(entity: Iri, role: str) -> Axiom:
    if role not in (CLASS, OBJECT_PROPERTY, DATA_PROPERTY):
        raise ValueError(f"bad declaration role: {role!r}")
    return Axiom(DECLARATION, (entity,), role)


class CoreVocabulary:
    """Fixed IRIs every contextual graph is built from. The namespace is
    configurable; the local names are not."""

    def __init__(self, base: str = DEFAULT_NAMESPACE):
        ns = Namespace(base)
        self.namespace = base
        self.Context = ns.Context
        self.ContextualPart = ns.ContextualPart
        self.contextualProperty = ns.contextualProperty
        self.contextualExtent = ns.contextualExtent
        self.contextualPartOf = ns.contextualPartOf
        self.contextualDatatypeProperty = ns.contextualDatatypeProperty
        # Links a combined context to its member contexts (combined-extent
        # model); lets validation recover which plain contexts apply.
        self.memberContext = ns.memberContext

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoreVocabulary) and other.namespace == self.namespace

    def __hash__(self) -> int:
        return hash(self.namespace)

    def __repr__(self) -> str:
        return f"CoreVocabulary({self.namespace!r})"


CORE = CoreVocabulary()

_DIMENSION_NAME_RE = re.compile(r"^[a-z][A-Za-z0-9]*$")


@dataclass(frozen=True)
class ContextDimension:
    """One dimension of context: its part/context classes and the four
    properties tying parts to contexts and to each other."""

    name: str
    part_class: Iri
    context_class: Iri
    part_of: Iri
    extent: Iri
    contextual_property: Iri
    contextual_data_property: Iri

    def __post_init__(self) -> None:
        if not _DIMENSION_NAME_RE.match(self.name):
            raise ValueError(f"bad dimension name: {self.name!r}")
        iris = (self.part_class, self.context_class, self.part_of, self.extent,
                self.contextual_property, self.contextual_data_property)
        # The builders put these into triples unchecked.
        for iri in iris:
            if not isinstance(iri, Iri):
                raise ValueError(f"dimension {self.name!r} needs IRIs, got {iri!r}")
        if len(set(iris)) != len(iris):
            raise ValueError(f"dimension {self.name!r} reuses an IRI across roles")


def conventional_dimension(name: str, base: str | None = None) -> ContextDimension:
    """Mint a dimension the way the provenance dimension is named: Part and
    context classes from the capitalized name, properties from the lowercase
    name."""
    if not _DIMENSION_NAME_RE.match(name):
        raise ValueError(f"bad dimension name: {name!r}")
    ns = Namespace(base if base is not None else f"{DEFAULT_DIMENSION_ROOT}{name}#")
    cap = name[0].upper() + name[1:]
    return ContextDimension(
        name=name,
        part_class=ns[f"{cap}Part"],
        context_class=ns[cap],
        part_of=ns[f"{name}PartOf"],
        extent=ns[f"{name}Extent"],
        contextual_property=ns[f"{name}Property"],
        contextual_data_property=ns[f"{name}DataTypeProperty"],
    )


def temporal_dimension() -> ContextDimension:
    ns = Namespace(f"{DEFAULT_DIMENSION_ROOT}4dFluents#")
    return ContextDimension(
        name="temporal",
        part_class=ns.TemporalPart,
        context_class=ns.Interval,
        part_of=ns.temporalPartOf,
        extent=ns.temporalExtent,
        contextual_property=ns.fluentProperty,
        contextual_data_property=ns.fluentDataTypeProperty,
    )


def provenance_dimension() -> ContextDimension:
    return conventional_dimension("provenance")


def combine_dimensions(
    dims: list[ContextDimension] | tuple[ContextDimension, ...],
    base: str = DEFAULT_COMBINED_BASE,
) -> ContextDimension:
    """Mint the combined dimension for two or more dimensions. Local names
    join the capitalized dimension names sorted lexicographically, so the
    result is independent of input order."""
    if len(dims) < 2:
        raise ValueError("combining dimensions requires at least 2")
    names = sorted(d.name for d in dims)
    if len(set(names)) != len(names):
        raise ValueError("combining dimensions requires distinct dimensions")
    caps = "_".join(n[0].upper() + n[1:] for n in names)
    lows = "_".join(names)
    ns = Namespace(f"{base}#")
    return ContextDimension(
        name=lows.replace("_", ""),
        part_class=ns[f"{caps}Part"],
        context_class=ns[f"{caps}Context"],
        part_of=ns[f"{lows}PartOf"],
        extent=ns[f"{lows}Extent"],
        contextual_property=ns[f"{lows}Property"],
        contextual_data_property=ns[f"{lows}DataTypeProperty"],
    )


@dataclass(frozen=True)
class PatternVocabulary:
    """How the contextual-part pattern reads under one core vocabulary, for
    the builder, the reader, `context_slice` and `validate` alike. An extent
    of a registered dimension attributes its object to that dimension; any
    other extent reaches the `members` of its object, each attributed to the
    `dimensions` whose context class types it. The reader skips
    `scaffolding`, so no data predicate may be in it."""

    part_of: frozenset[Iri]
    extents: frozenset[Iri]
    part_classes: frozenset[Iri]
    context_classes: frozenset[Iri]
    extent_dimension: Mapping[Iri, ContextDimension]
    context_dimension: Mapping[Iri, ContextDimension]
    member_context: Iri
    scaffolding: frozenset[Iri]

    def parts(self, graph: Graph) -> set[Term]:
        """Every resource with a partOf edge or a part type in `graph`."""
        return {t.subject for prop in self.part_of for t in graph.match(None, prop)} | {
            t.subject for t in graph.match(None, RDF_TYPE) if t.object in self.part_classes
        }

    def members(self, graph: Graph, context: Term) -> list[Term]:
        """The IRI member contexts `context` lists, or `[context]` when it
        lists none."""
        return [
            t.object for t in graph.match(context, self.member_context) if isinstance(t.object, Iri)
        ] or [context]

    def dimensions(self, graph: Graph, context: Term) -> list[ContextDimension]:
        """The registered dimensions whose context class types `context`."""
        return [d for t in graph.match(context, RDF_TYPE) if (d := self.context_dimension.get(t.object))]


class DimensionRegistry:
    """Known dimensions by name, plus the base IRI for minting combined
    dimensions."""

    def __init__(
        self,
        dimensions: list[ContextDimension] | None = None,
        combined_base: str = DEFAULT_COMBINED_BASE,
    ):
        self._dims: dict[str, ContextDimension] = {}
        self._patterns: dict[CoreVocabulary, PatternVocabulary] = {}
        self.combined_base = combined_base
        for dim in dimensions or ():
            self.add(dim)

    def add(self, dim: ContextDimension) -> None:
        existing = self._dims.get(dim.name)
        if existing is not None and existing != dim:
            raise ValueError(f"dimension {dim.name!r} already registered with different IRIs")
        self._dims[dim.name] = dim
        self._patterns.clear()

    def get(self, name: str) -> ContextDimension:
        try:
            return self._dims[name]
        except KeyError:
            raise KeyError(f"unknown dimension: {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._dims)

    def combined(self, names: list[str] | tuple[str, ...]) -> ContextDimension:
        return combine_dimensions([self.get(n) for n in names], base=self.combined_base)

    def combined_name_sets(self) -> list[tuple[str, ...]]:
        """Every set of two or more registered names, as a sorted tuple:
        the dimensions the combined-extent model can combine."""
        names = self.names()
        return [combo for size in range(2, len(names) + 1) for combo in combinations(names, size)]

    def pattern_vocabulary(self, vocab: CoreVocabulary = CORE) -> PatternVocabulary:
        """The pattern vocabulary of these dimensions under `vocab`, built
        once per vocabulary until a dimension is added."""
        pattern = self._patterns.get(vocab)
        if pattern is None:
            dims = list(self)
            combined = [self.combined(names) for names in self.combined_name_sets()]
            every = dims + combined
            # A combined or core extent attributes through member contexts,
            # even where a registered dimension reuses its IRI.
            shadowed = {c.extent for c in combined} | {vocab.contextualExtent}
            part_of = frozenset([d.part_of for d in every] + [vocab.contextualPartOf])
            extents = frozenset([d.extent for d in every] + [vocab.contextualExtent])
            pattern = PatternVocabulary(
                part_of=part_of,
                extents=extents,
                part_classes=frozenset([d.part_class for d in every] + [vocab.ContextualPart]),
                context_classes=frozenset([d.context_class for d in every] + [vocab.Context]),
                extent_dimension={d.extent: d for d in dims if d.extent not in shadowed},
                context_dimension={d.context_class: d for d in dims},
                member_context=vocab.memberContext,
                scaffolding=part_of | extents | {
                    RDF_TYPE, RDFS.subClassOf, RDFS.subPropertyOf, vocab.memberContext,
                },
            )
            self._patterns[vocab] = pattern
        return pattern

    def __contains__(self, name: str) -> bool:
        return name in self._dims

    def __iter__(self):
        return (self._dims[n] for n in self.names())

    def __len__(self) -> int:
        return len(self._dims)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DimensionRegistry)
            and self.combined_base == other.combined_base
            and self._dims == other._dims
        )

    def __hash__(self) -> int:
        return hash((self.combined_base, frozenset(self._dims.values())))


def default_registry() -> DimensionRegistry:
    return DimensionRegistry([temporal_dimension(), provenance_dimension()])


# --- module generators -------------------------------------------------------


def core_axioms(vocab: CoreVocabulary = CORE) -> list[Axiom]:
    """The core module. Functional(contextualExtent) is deliberately absent:
    with several context dimensions a part may have one extent per dimension."""
    v = vocab
    return [
        declaration(v.Context, CLASS),
        declaration(v.ContextualPart, CLASS),
        disjoint_classes(v.Context, v.ContextualPart),
        declaration(v.contextualProperty, OBJECT_PROPERTY),
        property_domain(v.contextualProperty, v.ContextualPart),
        property_range(v.contextualProperty, v.ContextualPart),
        declaration(v.contextualExtent, OBJECT_PROPERTY),
        property_domain(v.contextualExtent, v.ContextualPart),
        property_range(v.contextualExtent, v.Context),
        declaration(v.contextualPartOf, OBJECT_PROPERTY),
        functional(v.contextualPartOf),
        property_domain(v.contextualPartOf, v.ContextualPart),
        range_complement_of(v.contextualPartOf, v.Context),
    ]


def datatype_axioms(vocab: CoreVocabulary = CORE) -> list[Axiom]:
    return [
        declaration(vocab.contextualDatatypeProperty, DATA_PROPERTY),
        property_domain(vocab.contextualDatatypeProperty, vocab.ContextualPart),
    ]


def member_context_axioms(vocab: CoreVocabulary = CORE) -> list[Axiom]:
    """Schema for the combined-extent model's context membership links."""
    return [
        declaration(vocab.memberContext, OBJECT_PROPERTY),
        property_domain(vocab.memberContext, vocab.Context),
        property_range(vocab.memberContext, vocab.Context),
    ]


def dimension_module(dim: ContextDimension, vocab: CoreVocabulary = CORE) -> list[Axiom]:
    return [
        declaration(dim.context_class, CLASS),
        sub_class_of(dim.context_class, vocab.Context),
        declaration(dim.part_class, CLASS),
        sub_class_of(dim.part_class, vocab.ContextualPart),
        declaration(dim.extent, OBJECT_PROPERTY),
        sub_property_of(dim.extent, vocab.contextualExtent),
        property_domain(dim.extent, dim.part_class),
        property_range(dim.extent, dim.context_class),
        declaration(dim.part_of, OBJECT_PROPERTY),
        sub_property_of(dim.part_of, vocab.contextualPartOf),
        property_domain(dim.part_of, dim.part_class),
    ]


def dimension_restriction_axioms(
    dim: ContextDimension, vocab: CoreVocabulary = CORE
) -> list[Axiom]:
    """Restrict the dimension's contextual properties to relate parts of
    this dimension only."""
    return [
        declaration(dim.contextual_property, OBJECT_PROPERTY),
        sub_property_of(dim.contextual_property, vocab.contextualProperty),
        property_domain(dim.contextual_property, dim.part_class),
        property_range(dim.contextual_property, dim.part_class),
        declaration(dim.contextual_data_property, DATA_PROPERTY),
        sub_property_of(dim.contextual_data_property, vocab.contextualDatatypeProperty, DATA_PROPERTY),
        property_domain(dim.contextual_data_property, dim.part_class),
    ]


def transitivity_axiom(vocab: CoreVocabulary = CORE) -> Axiom:
    """Required by the contexts-in-context model: a part of a part of X is a
    part of X."""
    return transitive(vocab.contextualPartOf)


def functional_extent_axiom(vocab: CoreVocabulary = CORE) -> Axiom:
    """Required by the combined-extent model: every part has one extent."""
    return functional(vocab.contextualExtent)


def combined_dimension_module(
    dims: list[ContextDimension] | tuple[ContextDimension, ...],
    combined: ContextDimension,
    vocab: CoreVocabulary = CORE,
) -> list[Axiom]:
    """Tie a combined dimension under each member dimension so queries and
    reasoning over a member dimension also see combined parts."""
    if len(dims) < 2:
        raise ValueError("a combined dimension needs at least 2 member dimensions")
    axioms = [
        declaration(combined.part_class, CLASS),
        declaration(combined.context_class, CLASS),
        declaration(combined.extent, OBJECT_PROPERTY),
        declaration(combined.part_of, OBJECT_PROPERTY),
        sub_class_of(combined.part_class, vocab.ContextualPart),
        sub_class_of(combined.context_class, vocab.Context),
    ]
    for dim in sorted(dims, key=lambda d: d.name):
        axioms.append(sub_class_of(combined.part_class, dim.part_class))
        axioms.append(sub_class_of(combined.context_class, dim.context_class))
        axioms.append(sub_property_of(combined.extent, dim.extent))
        axioms.append(sub_property_of(combined.part_of, dim.part_of))
    return axioms


def related_contextual_property(
    original: Iri,
    contextual: Iri,
    domain_class: Iri | None = None,
    range_class: Iri | None = None,
    fluent_super: Iri | None = None,
    vocab: CoreVocabulary = CORE,
) -> list[Axiom]:
    """Define a property for contextual parts related to `original`. Domain
    and range constraints go through contextualPartOf, so they classify the
    base entities rather than the parts (the repair for the inheritance
    pitfall on contextualized predicates)."""
    if contextual == original:
        raise ValueError("the related contextual property must differ from the original")
    fluent_super = fluent_super if fluent_super is not None else vocab.contextualProperty
    axioms = [sub_property_of(contextual, fluent_super)]
    if domain_class is not None:
        axioms.append(all_values_from_domain(contextual, vocab.contextualPartOf, domain_class))
    if range_class is not None:
        axioms.append(all_values_from_range(contextual, vocab.contextualPartOf, range_class))
    return axioms


# --- axiom <-> graph ---------------------------------------------------------

_DECL_CLASS_BY_ROLE = {
    CLASS: OWL.Class,
    OBJECT_PROPERTY: OWL.ObjectProperty,
    DATA_PROPERTY: OWL.DatatypeProperty,
}
_CHARACTERISTIC_CLASSES = {
    FUNCTIONAL: OWL.FunctionalProperty,
    INVERSE_FUNCTIONAL: OWL.InverseFunctionalProperty,
    TRANSITIVE: OWL.TransitiveProperty,
}


def axioms_to_graph(axioms: list[Axiom]) -> Graph:
    """Render axioms with standard RDFS/OWL predicates. Restrictions and
    complements become blank-node structures."""
    triples: list[Triple] = []
    counter = 0

    def fresh() -> BlankNode:
        nonlocal counter
        counter += 1
        return BlankNode(f"b{counter - 1}")

    for ax in axioms:
        if ax.kind == DECLARATION:
            triples.append(Triple(ax.terms[0], RDF_TYPE, _DECL_CLASS_BY_ROLE[ax.role]))
        elif ax.kind == SUB_CLASS_OF:
            triples.append(Triple(ax.terms[0], RDFS.subClassOf, ax.terms[1]))
        elif ax.kind == SUB_PROPERTY_OF:
            triples.append(Triple(ax.terms[0], RDFS.subPropertyOf, ax.terms[1]))
        elif ax.kind == DOMAIN:
            triples.append(Triple(ax.terms[0], RDFS.domain, ax.terms[1]))
        elif ax.kind == RANGE:
            triples.append(Triple(ax.terms[0], RDFS.range, ax.terms[1]))
        elif ax.kind == RANGE_COMPLEMENT_OF:
            node = fresh()
            triples.append(Triple(ax.terms[0], RDFS.range, node))
            triples.append(Triple(node, RDF_TYPE, OWL.Class))
            triples.append(Triple(node, OWL.complementOf, ax.terms[1]))
        elif ax.kind in _CHARACTERISTIC_CLASSES:
            triples.append(Triple(ax.terms[0], RDF_TYPE, _CHARACTERISTIC_CLASSES[ax.kind]))
        elif ax.kind == DISJOINT_CLASSES:
            triples.append(Triple(ax.terms[0], OWL.disjointWith, ax.terms[1]))
        elif ax.kind in (ALL_VALUES_FROM_DOMAIN, ALL_VALUES_FROM_RANGE):
            prop, via, cls = ax.terms
            node = fresh()
            link = RDFS.domain if ax.kind == ALL_VALUES_FROM_DOMAIN else RDFS.range
            triples.append(Triple(prop, link, node))
            triples.append(Triple(node, RDF_TYPE, OWL.Restriction))
            triples.append(Triple(node, OWL.onProperty, via))
            triples.append(Triple(node, OWL.allValuesFrom, cls))
        else:
            raise ValueError(f"unknown axiom kind: {ax.kind!r}")
    return Graph(triples)


def axioms_from_graph(graph: Graph) -> list[Axiom]:
    """Extract the axiom forms this package emits from an RDF graph.
    Triples outside the supported schema vocabulary are ignored."""
    restrictions: dict[BlankNode, dict[str, Iri]] = {}
    complements: dict[BlankNode, Iri] = {}
    data_props = {s for s in graph.subjects(RDF_TYPE, OWL.DatatypeProperty) if isinstance(s, Iri)}
    for triple in graph:
        if isinstance(triple.subject, BlankNode):
            node, pred, obj = triple.subject, triple.predicate, triple.object
            if pred == OWL.onProperty and isinstance(obj, Iri):
                restrictions.setdefault(node, {})["via"] = obj
            elif pred == OWL.allValuesFrom and isinstance(obj, Iri):
                restrictions.setdefault(node, {})["cls"] = obj
            elif pred == OWL.complementOf and isinstance(obj, Iri):
                complements[node] = obj

    axioms: list[Axiom] = []
    for triple in graph.sorted_triples():
        subj, pred, obj = triple.subject, triple.predicate, triple.object
        if not isinstance(subj, Iri):
            continue
        if pred == RDF_TYPE:
            if obj == OWL.Class:
                axioms.append(declaration(subj, CLASS))
            elif obj == OWL.ObjectProperty:
                axioms.append(declaration(subj, OBJECT_PROPERTY))
            elif obj == OWL.DatatypeProperty:
                axioms.append(declaration(subj, DATA_PROPERTY))
            elif obj == OWL.FunctionalProperty:
                axioms.append(functional(subj))
            elif obj == OWL.InverseFunctionalProperty:
                axioms.append(inverse_functional(subj))
            elif obj == OWL.TransitiveProperty:
                axioms.append(transitive(subj))
        elif pred == RDFS.subClassOf and isinstance(obj, Iri):
            axioms.append(sub_class_of(subj, obj))
        elif pred == RDFS.subPropertyOf and isinstance(obj, Iri):
            role = DATA_PROPERTY if subj in data_props else OBJECT_PROPERTY
            axioms.append(sub_property_of(subj, obj, role))
        elif pred in (RDFS.domain, RDFS.range):
            is_domain = pred == RDFS.domain
            if isinstance(obj, Iri):
                axioms.append(property_domain(subj, obj) if is_domain else property_range(subj, obj))
            elif isinstance(obj, BlankNode):
                if obj in complements and not is_domain:
                    axioms.append(range_complement_of(subj, complements[obj]))
                elif obj in restrictions:
                    parts = restrictions[obj]
                    if "via" in parts and "cls" in parts:
                        make = all_values_from_domain if is_domain else all_values_from_range
                        axioms.append(make(subj, parts["via"], parts["cls"]))
        elif pred == OWL.disjointWith and isinstance(obj, Iri):
            axioms.append(disjoint_classes(subj, obj))
    return axioms
