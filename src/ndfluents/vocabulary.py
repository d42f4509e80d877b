"""Core vocabulary, context dimensions, and axiom-module generators.

The vocabulary layer defines the small axiom algebra the reasoner consumes
and generates every ontology module: the core module, the datatype-property
module, per-dimension modules, per-dimension restriction modules, the
optional transitivity / functional-extent axioms, combined-dimension
modules, and related contextual properties. Axiom lists are duplicate-free
and deterministic in order.

Each axiom kind has one RDF form, after the W3C OWL 2 mapping to RDF
graphs, and one table holds them all: `axioms_to_graph` renders axioms
through it and `axioms_from_graph` reads them back through its inverse.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping

from .terms import RDF_TYPE, BlankNode, Graph, InputError, Iri, Namespace, OWL, RDFS, Term, Triple

# The kinds of violation `validate` reports a pattern fault of a part as.
VIOLATION_FUNCTIONAL = "FunctionalConflict"
VIOLATION_MISSING_PART_OF = "MissingPartOf"
VIOLATION_UNREADABLE_PART = "UnreadablePart"

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

    @property
    def iris(self) -> tuple[Iri, ...]:
        return (self.part_class, self.context_class, self.part_of, self.extent,
                self.contextual_property, self.contextual_data_property)

    def __post_init__(self) -> None:
        if not _DIMENSION_NAME_RE.match(self.name):
            raise ValueError(f"bad dimension name: {self.name!r}")
        # The builders put these into triples unchecked.
        for iri in self.iris:
            if not isinstance(iri, Iri):
                raise ValueError(f"dimension {self.name!r} needs IRIs, got {iri!r}")
        if len(set(self.iris)) != len(self.iris):
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


# A pattern fault: its kind of violation, the part it names and its text.
PatternFault = tuple[str, Term, str]
# A part as one level of a part chain: its partOf and extent edges, the
# (dimension, context) pairs of its extent edges, its whole, and its fault.
PartLevel = tuple[list[Triple], list[Triple], list, "Term | None", "PatternFault | None"]


@dataclass(frozen=True)
class PatternVocabulary:
    """How the contextual-part pattern reads under one core vocabulary, for
    the builder, `decontextualize`, `context_slice` and `validate` alike.
    `attributed` is the one rule for the contexts an extent edge gives its
    part, and `levels` and `walk` the one reading of part chains: of their
    faults, `decontextualize` raises the first and `validate` reports each.
    No data predicate may be in `scaffolding`, which `decontextualize` skips."""

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
        return {t[0] for prop in self.part_of for t in graph.match(None, prop)} | {
            t[0] for t in graph.match(None, RDF_TYPE) if t[2] in self.part_classes
        }

    def attributed(self, graph: Graph, extent: Iri, context: Term) -> list[tuple[str | None, Term]]:
        """The (dimension name, context) pairs an `extent` edge to `context`
        gives its part: for a registered dimension's extent, `context` in
        that dimension; for any other, each IRI member that `context` lists
        (`context` itself when it lists none), in sorted order, in each
        dimension whose context class types it, or in None when none does."""
        dim = self.extent_dimension.get(extent)
        if dim is not None:
            return [(dim.name, context)]
        by_sp = graph._index((0, 1))
        members = [t.object for t in by_sp.get((context, self.member_context), ()) if isinstance(t.object, Iri)]
        pairs: list[tuple[str | None, Term]] = []
        for member in sorted(members or [context]):
            types = (self.context_dimension.get(t.object) for t in by_sp.get((member, RDF_TYPE), ()))
            names = [d.name for d in types if d is not None] or [None]
            pairs += [(name, member) for name in names]
        return pairs

    def levels(self, graph: Graph, parts: Iterable[Term]) -> tuple[dict[Term, PartLevel], list[Triple]]:
        """The level of each of `parts`, and the parts' data triples, from one
        read of each part's edges in the S index. A level's fault is the first
        of: a context `attributed` gives no dimension, no partOf edge, two
        values of one partOf property, two wholes, no extent edge to an IRI."""
        by_subject, part_ofs, extent_props = graph._index((0,)), self.part_of, self.extents
        levels: dict[Term, PartLevel] = {}
        data: list[Triple] = []
        for part in parts:
            part_of, extents = [], []
            for t in by_subject.get(part, ()):
                if t[1] in part_ofs:
                    part_of.append(t)
                elif t[1] in extent_props:
                    extents.append(t)
                elif t[1] not in self.scaffolding:
                    data.append(t)
            # The common level: one partOf edge and one registered extent edge to an IRI.
            if (len(part_of) == 1 and len(extents) == 1 and (dim := self.extent_dimension.get(extents[0][1]))
                    and isinstance(context := extents[0][2], Iri)):
                levels[part] = part_of, extents, [(dim.name, context)], part_of[0][2], None
                continue
            pairs = [pair for t in sorted(extents, key=Triple.sort_key) if isinstance(t[2], Iri)
                     for pair in self.attributed(graph, t[1], t[2])]
            wholes, props, kind = {t[2] for t in part_of}, [t[1] for t in part_of], VIOLATION_UNREADABLE_PART
            if unnamed := [context for name, context in pairs if name is None]:
                text = f"cannot attribute context {unnamed[0].n3()} to a dimension (no recognized context type)"
            elif not part_of:
                kind, text = VIOLATION_MISSING_PART_OF, f"part {part.n3()} has no partOf edge"
            elif conflict := min((p for p in props if props.count(p) > 1), key=Iri.n3, default=None):
                kind, n = VIOLATION_FUNCTIONAL, props.count(conflict)
                text = f"part {part.n3()} has {n} values for {conflict.n3()}; contextualPartOf is functional"
            elif len(wholes) > 1:
                text = f"part {part.n3()} belongs to more than one entity"
            elif not pairs:
                text = f"part {part.n3()} has no extent"
            else:
                levels[part] = part_of, extents, pairs, wholes.pop(), None
                continue
            levels[part] = part_of, extents, pairs, None, (kind, part, text)
        return levels, data

    @staticmethod
    def walk(levels: Mapping[Term, PartLevel], *starts: Term) -> tuple[list["Term | None"], list, list[PatternFault]]:
        """Follow `starts` from whole to whole through `levels`: the chains' ends
        (None after a fault), their levels' pairs, and their faults, those of a
        level or a cycle by start first, then each chain ending at a non-IRI.
        A cycle is reported once, at the first start that meets it."""
        ends, pairs, faults, cycled = [], [], [], set()
        for start in starts:
            current, seen = start, []
            while (level := levels.get(current)) is not None:
                if current in seen or level[4]:
                    if level[4]:
                        faults.append(level[4])
                    elif current not in cycled:
                        cycled.update(seen[seen.index(current):])
                        faults.append((VIOLATION_UNREADABLE_PART, current, f"partOf cycle at {current.n3()}"))
                    current = None
                    break
                seen.append(current)
                pairs += level[2]
                current = level[3]
            ends.append(current)
        faults += [(VIOLATION_UNREADABLE_PART, start, f"chain from {start.n3()} ends at non-IRI {end.n3()}")
                   for start, end in zip(starts, ends)
                   if end is not None and end is not start and not isinstance(end, Iri)]
        return ends, pairs, faults


class UnknownDimensionError(InputError, KeyError):
    """A failed lookup by dimension name; it reads as its message, unquoted."""
    __str__ = InputError.__str__


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
        self._combined: dict[tuple[str, ...], ContextDimension] = {}
        self.combined_base = combined_base
        for dim in dimensions or ():
            self.add(dim)

    def add(self, dim: ContextDimension) -> None:
        existing = self._dims.get(dim.name)
        if existing is not None and existing != dim:
            raise ValueError(f"dimension {dim.name!r} already registered with different IRIs")
        # A shared IRI would read one dimension's parts as the other's.
        for other in self._dims.values():
            if other.name != dim.name and (shared := set(other.iris) & set(dim.iris)):
                raise ValueError(f"dimensions {other.name!r} and {dim.name!r} share the IRI {min(shared).n3()}")
        self._dims[dim.name] = dim
        self._patterns.clear()

    def get(self, name: str) -> ContextDimension:
        try:
            return self._dims[name]
        except KeyError:
            raise UnknownDimensionError(f"unknown dimension: {name!r}") from None

    def names(self) -> list[str]:
        return sorted(self._dims)

    def combined(self, names: list[str] | tuple[str, ...]) -> ContextDimension:
        """The combined dimension of `names`, minted once per name set."""
        key = tuple(sorted(names))
        if key not in self._combined:
            self._combined[key] = combine_dimensions([self.get(n) for n in key], base=self.combined_base)
        return self._combined[key]

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

# Each axiom kind's RDF form: a link kind is `(a, predicate, b)`, a typed kind
# (by kind and role) `(a, rdf:type, class)`, and a structure kind links `a` to
# a blank node of its class holding the other terms under its properties. A
# range complement comes first: it wins over a restriction on the same node.
_LINKS = {
    SUB_CLASS_OF: RDFS.subClassOf,
    SUB_PROPERTY_OF: RDFS.subPropertyOf,
    DOMAIN: RDFS.domain,
    RANGE: RDFS.range,
    DISJOINT_CLASSES: OWL.disjointWith,
}
_TYPES = {
    (DECLARATION, CLASS): OWL.Class,
    (DECLARATION, OBJECT_PROPERTY): OWL.ObjectProperty,
    (DECLARATION, DATA_PROPERTY): OWL.DatatypeProperty,
    (FUNCTIONAL, ""): OWL.FunctionalProperty,
    (INVERSE_FUNCTIONAL, ""): OWL.InverseFunctionalProperty,
    (TRANSITIVE, ""): OWL.TransitiveProperty,
}
_STRUCTURES = {
    RANGE_COMPLEMENT_OF: (RDFS.range, OWL.Class, (OWL.complementOf,)),
    ALL_VALUES_FROM_DOMAIN: (RDFS.domain, OWL.Restriction, (OWL.onProperty, OWL.allValuesFrom)),
    ALL_VALUES_FROM_RANGE: (RDFS.range, OWL.Restriction, (OWL.onProperty, OWL.allValuesFrom)),
}


def axioms_to_graph(axioms: list[Axiom]) -> Graph:
    """Render axioms with standard RDFS/OWL predicates. Restrictions and
    complements become blank-node structures."""
    triples: list[Triple] = []
    nodes = 0
    for ax in axioms:
        if ax.kind in _LINKS:
            triples.append(Triple(ax.terms[0], _LINKS[ax.kind], ax.terms[1]))
        elif (ax.kind, ax.role) in _TYPES:
            triples.append(Triple(ax.terms[0], RDF_TYPE, _TYPES[ax.kind, ax.role]))
        elif ax.kind in _STRUCTURES:
            link, cls, props = _STRUCTURES[ax.kind]
            node = BlankNode(f"b{nodes}")
            nodes += 1
            triples += [Triple(ax.terms[0], link, node), Triple(node, RDF_TYPE, cls)]
            triples += [Triple(node, prop, term) for prop, term in zip(props, ax.terms[1:])]
        else:
            raise ValueError(f"unknown axiom kind: {ax.kind!r}")
    return Graph(triples)


def axioms_from_graph(graph: Graph) -> list[Axiom]:
    """Extract the axiom forms this package emits from an RDF graph.
    Triples outside the supported schema vocabulary are ignored."""
    typed = {cls: kind_role for kind_role, cls in _TYPES.items()}
    linked = {pred: kind for kind, pred in _LINKS.items()}
    # The IRI-valued properties of each blank node.
    nodes: dict[BlankNode, dict[Iri, Iri]] = {}
    for triple in graph:
        if isinstance(triple.subject, BlankNode) and isinstance(triple.object, Iri):
            nodes.setdefault(triple.subject, {})[triple.predicate] = triple.object
    data_props = set(graph.subjects(RDF_TYPE, _TYPES[DECLARATION, DATA_PROPERTY]))

    axioms: list[Axiom] = []
    for subj, pred, obj in graph.sorted_triples():
        if not isinstance(subj, Iri):
            continue
        if pred == RDF_TYPE:
            if obj in typed:
                kind, role = typed[obj]
                axioms.append(Axiom(kind, (subj,), role))
        elif pred in linked and isinstance(obj, Iri):
            kind, role = linked[pred], ""
            if kind == SUB_PROPERTY_OF:
                role = DATA_PROPERTY if subj in data_props else OBJECT_PROPERTY
            axioms.append(Axiom(kind, (subj, obj), role))
        elif isinstance(obj, BlankNode):
            values = nodes.get(obj, {})
            for kind, (link, _, props) in _STRUCTURES.items():
                if pred == link and all(prop in values for prop in props):
                    axioms.append(Axiom(kind, (subj, *(values[prop] for prop in props))))
                    break
    return axioms
