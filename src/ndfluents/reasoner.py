"""Forward-chaining rule engine over the axiom algebra, plus the
pattern validator.

`saturate` applies subclass/subproperty propagation, domain/range typing,
transitive closure, functional/inverse-functional identity inference, and
the AllValuesFrom-over-partOf rules to a fixpoint. sameAs conclusions are
reported as derived triples but never applied as a congruence: the point of
deriving them here is diagnostic.

Functional and inverse-functional rules only consider pairs of asserted
triples. Derived edges (a transitive partOf hop, a subproperty projection)
are not independent assertions, and counting them would brand every part
chain a functional violation.

`validate` checks conformance of a contextual graph: disjointness of
contexts and parts, functionality of partOf over asserted edges, parts
without partOf or extent, partOf edges into contexts, and the same-extent
rule for statements between parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .terms import OWL, RDF_TYPE, RDFS, Graph, Iri, Literal, Term, Triple
from .vocabulary import (
    ALL_VALUES_FROM_DOMAIN,
    ALL_VALUES_FROM_RANGE,
    CORE,
    Axiom,
    CoreVocabulary,
    DimensionRegistry,
    DISJOINT_CLASSES,
    DOMAIN,
    FUNCTIONAL,
    INVERSE_FUNCTIONAL,
    RANGE,
    RANGE_COMPLEMENT_OF,
    SUB_CLASS_OF,
    SUB_PROPERTY_OF,
    TRANSITIVE,
)

SAME_AS = OWL.sameAs

VIOLATION_DISJOINT = "DisjointClasses"
VIOLATION_FUNCTIONAL = "FunctionalConflict"
VIOLATION_MISSING_PART_OF = "MissingPartOf"
VIOLATION_RANGE_COMPLEMENT = "RangeComplement"
VIOLATION_SAME_EXTENT = "SameExtentRule"


@dataclass(frozen=True)
class Violation:
    kind: str
    subjects: tuple[Term, ...]
    detail: str
    triples: tuple[Triple, ...] = ()

    def render(self) -> str:
        subjects = ", ".join(t.n3() for t in self.subjects)
        lines = [f"{self.kind}: {subjects}: {self.detail}"]
        lines += [f"    {t.n3()}" for t in self.triples]
        return "\n".join(lines)


def _violation_key(v: Violation) -> tuple:
    return (v.kind, tuple(t.n3() for t in v.subjects), v.detail)


@dataclass(frozen=True)
class InferenceResult:
    source: Graph
    derived: Graph
    violations: tuple[Violation, ...]

    @property
    def all(self) -> Graph:
        return self.source.union(self.derived)


class _RuleIndex:
    def __init__(self, axioms: list[Axiom], vocab: CoreVocabulary):
        self.super_classes: dict[Iri, set[Iri]] = {}
        self.super_props: dict[Iri, set[Iri]] = {}
        self.domains: dict[Iri, set[Iri]] = {}
        self.ranges: dict[Iri, set[Iri]] = {}
        self.transitive: set[Iri] = set()
        self.functional: set[Iri] = set()
        self.inverse_functional: set[Iri] = set()
        # AllValuesFrom rules twice over: (via, cls) by the restricted
        # property, and (property, cls) by `via`.
        self.avf_domain: dict[Iri, set[tuple[Iri, Iri]]] = {}
        self.avf_range: dict[Iri, set[tuple[Iri, Iri]]] = {}
        self.avf_domain_by_via: dict[Iri, set[tuple[Iri, Iri]]] = {}
        self.avf_range_by_via: dict[Iri, set[tuple[Iri, Iri]]] = {}
        self.disjoint: list[tuple[Iri, Iri]] = []
        for ax in axioms:
            if ax.kind == SUB_CLASS_OF:
                self.super_classes.setdefault(ax.terms[0], set()).add(ax.terms[1])
            elif ax.kind == SUB_PROPERTY_OF:
                self.super_props.setdefault(ax.terms[0], set()).add(ax.terms[1])
            elif ax.kind == DOMAIN:
                self.domains.setdefault(ax.terms[0], set()).add(ax.terms[1])
            elif ax.kind == RANGE:
                self.ranges.setdefault(ax.terms[0], set()).add(ax.terms[1])
            elif ax.kind == RANGE_COMPLEMENT_OF:
                pass  # enforced by validate()'s pattern checks, not a forward rule

            elif ax.kind == TRANSITIVE:
                self.transitive.add(ax.terms[0])
            elif ax.kind == FUNCTIONAL:
                self.functional.add(ax.terms[0])
            elif ax.kind == INVERSE_FUNCTIONAL:
                self.inverse_functional.add(ax.terms[0])
            elif ax.kind == ALL_VALUES_FROM_DOMAIN:
                prop, via, cls = ax.terms
                self.avf_domain.setdefault(prop, set()).add((via, cls))
                self.avf_domain_by_via.setdefault(via, set()).add((prop, cls))
            elif ax.kind == ALL_VALUES_FROM_RANGE:
                prop, via, cls = ax.terms
                self.avf_range.setdefault(prop, set()).add((via, cls))
                self.avf_range_by_via.setdefault(via, set()).add((prop, cls))
            elif ax.kind == DISJOINT_CLASSES:
                self.disjoint.append((ax.terms[0], ax.terms[1]))
        # Properties in the partOf family: functional conflicts on these are
        # pattern violations, not identity inferences (a part has one whole).
        self.part_of_family = self._family(vocab.contextualPartOf)

    def _family(self, root: Iri) -> set[Iri]:
        family = {root}
        changed = True
        while changed:
            changed = False
            for sub, supers in self.super_props.items():
                if sub not in family and supers & family:
                    family.add(sub)
                    changed = True
        return family


def saturate(
    graph: Graph,
    axioms: list[Axiom],
    vocab: CoreVocabulary = CORE,
) -> InferenceResult:
    idx = _RuleIndex(axioms, vocab)
    asserted = frozenset(graph)
    everything: set[Triple] = set(asserted)
    sp: dict[tuple[Iri, Term], set[Term]] = {}
    po: dict[tuple[Iri, Term], set[Term]] = {}
    violations: dict[tuple, Violation] = {}

    def index(t: Triple) -> None:
        sp.setdefault((t.predicate, t.subject), set()).add(t.object)
        po.setdefault((t.predicate, t.object), set()).add(t.subject)

    for t in everything:
        index(t)

    def check_functional(t: Triple) -> list[Triple]:
        out: list[Triple] = []
        p = t.predicate
        if p in idx.functional and t in asserted:
            for other in sp.get((p, t.subject), ()):
                if other == t.object or Triple(t.subject, p, other) not in asserted:
                    continue
                if p in idx.part_of_family:
                    v = Violation(
                        VIOLATION_FUNCTIONAL,
                        (t.subject,),
                        f"{p.n3()} is functional but has multiple values",
                        tuple(sorted((t, Triple(t.subject, p, other)), key=Triple.sort_key)),
                    )
                    violations.setdefault(_violation_key(v), v)
                elif not isinstance(other, Literal) and not isinstance(t.object, Literal):
                    out.append(Triple(t.object, SAME_AS, other))
                    out.append(Triple(other, SAME_AS, t.object))
        if p in idx.inverse_functional and t in asserted:
            for other in po.get((p, t.object), ()):
                if other == t.subject or Triple(other, p, t.object) not in asserted:
                    continue
                out.append(Triple(t.subject, SAME_AS, other))
                out.append(Triple(other, SAME_AS, t.subject))
        return out

    def apply_rules(t: Triple) -> list[Triple]:
        out: list[Triple] = []
        s, p, o = t.subject, t.predicate, t.object
        if p == RDF_TYPE and isinstance(o, Iri):
            for sup in idx.super_classes.get(o, ()):
                out.append(Triple(s, RDF_TYPE, sup))
        for sup in idx.super_props.get(p, ()):
            out.append(Triple(s, sup, o))
        for cls in idx.domains.get(p, ()):
            out.append(Triple(s, RDF_TYPE, cls))
        if not isinstance(o, Literal):
            for cls in idx.ranges.get(p, ()):
                out.append(Triple(o, RDF_TYPE, cls))
        if p in idx.transitive and not isinstance(o, Literal):
            for z in sp.get((p, o), ()):
                out.append(Triple(s, p, z))
            for w in po.get((p, s), ()):
                out.append(Triple(w, p, o))
        for via, cls in idx.avf_domain.get(p, ()):
            for z in sp.get((via, s), ()):
                if not isinstance(z, Literal):
                    out.append(Triple(z, RDF_TYPE, cls))
        if not isinstance(o, Literal):
            for via, cls in idx.avf_range.get(p, ()):
                for z in sp.get((via, o), ()):
                    if not isinstance(z, Literal):
                        out.append(Triple(z, RDF_TYPE, cls))
        # the new triple may be the `via` edge of an AllValuesFrom axiom
        if not isinstance(o, Literal):
            for prop, cls in idx.avf_domain_by_via.get(p, ()):
                if sp.get((prop, s)):
                    out.append(Triple(o, RDF_TYPE, cls))
            for prop, cls in idx.avf_range_by_via.get(p, ()):
                if po.get((prop, s)):
                    out.append(Triple(o, RDF_TYPE, cls))
        out.extend(check_functional(t))
        return out

    delta = set(everything)
    while delta:
        fresh: set[Triple] = set()
        for t in sorted(delta, key=Triple.sort_key):
            for candidate in apply_rules(t):
                if candidate not in everything and candidate not in fresh:
                    fresh.add(candidate)
        for t in fresh:
            index(t)
        everything |= fresh
        delta = fresh

    for a, b in idx.disjoint:
        offenders = {
            s for s in po.get((RDF_TYPE, a), set()) & po.get((RDF_TYPE, b), set())
        }
        for s in sorted(offenders, key=lambda x: x.n3()):
            v = Violation(
                VIOLATION_DISJOINT,
                (s,),
                f"typed both {a.n3()} and {b.n3()}, which are disjoint",
                (Triple(s, RDF_TYPE, a), Triple(s, RDF_TYPE, b)),
            )
            violations.setdefault(_violation_key(v), v)

    derived = Graph(everything - set(asserted))
    ordered = tuple(sorted(violations.values(), key=_violation_key))
    return InferenceResult(graph, derived, ordered)


# --- validation ---------------------------------------------------------------


def validate(
    graph: Graph,
    axioms: list[Axiom],
    registry: DimensionRegistry,
    vocab: CoreVocabulary = CORE,
    *,
    same_extent: bool = True,
) -> list[Violation]:
    pattern = registry.pattern_vocabulary(vocab)
    result = saturate(graph, axioms, vocab)
    saturated = result.all
    violations: dict[tuple, Violation] = {
        _violation_key(v): v for v in result.violations
    }

    def add(v: Violation) -> None:
        violations.setdefault(_violation_key(v), v)

    linked = {t.subject for prop in pattern.part_of for t in graph.match(None, prop)}
    typed_parts: set[Term] = set()
    contexts: set[Term] = set()
    for t in saturated.match(None, RDF_TYPE):
        if t.object in pattern.part_classes:
            typed_parts.add(t.subject)
        if t.object in pattern.context_classes:
            contexts.add(t.subject)

    # Context and ContextualPart are disjoint even when the caller passed no
    # axioms: the check defines pattern conformance.
    for resource in contexts & typed_parts:
        cited = (Triple(resource, RDF_TYPE, vocab.Context),
                 Triple(resource, RDF_TYPE, vocab.ContextualPart))
        if all(t in saturated for t in cited):
            add(Violation(
                VIOLATION_DISJOINT,
                (resource,),
                f"typed both {vocab.Context.n3()} and {vocab.ContextualPart.n3()}, which are disjoint",
                cited,
            ))

    for prop in pattern.part_of:
        edges_by_part: dict[Term, list[Triple]] = {}
        for edge in graph.match(None, prop):
            edges_by_part.setdefault(edge.subject, []).append(edge)
            # partOf must not point into a context.
            if edge.object in contexts:
                add(Violation(
                    VIOLATION_RANGE_COMPLEMENT,
                    (edge.subject, edge.object),
                    f"{prop.n3()} points at a context individual",
                    (edge,),
                ))
        # Functionality of partOf over asserted edges, per property.
        for part, edges in edges_by_part.items():
            if len(edges) > 1:
                add(Violation(
                    VIOLATION_FUNCTIONAL,
                    (part,),
                    f"{prop.n3()} is functional but has {len(edges)} values",
                    tuple(sorted(edges, key=Triple.sort_key)),
                ))

    # Parts must have a partOf edge.
    for resource in typed_parts - linked:
        add(Violation(
            VIOLATION_MISSING_PART_OF,
            (resource,),
            "typed as a contextual part but carries no partOf edge",
            tuple(
                typing for cls in sorted(pattern.part_classes)
                if (typing := Triple(resource, RDF_TYPE, cls)) in saturated
            ),
        ))

    if same_extent:
        scaffolding = pattern.part_of | pattern.extents | {
            RDF_TYPE, RDFS.subPropertyOf, RDFS.subClassOf, SAME_AS,
            vocab.memberContext,
        }
        parts = linked | typed_parts

        def extents_of(part: Term) -> dict[Iri, set[Term]]:
            found: dict[Iri, set[Term]] = {}
            for t in graph.match(part):
                if t.predicate in pattern.extents:
                    found.setdefault(t.predicate, set()).add(t.object)
            return found

        for t in graph.sorted_triples():
            if t.predicate in scaffolding:
                continue
            if not (t.subject in parts and t.object in parts):
                continue
            subject_extents = extents_of(t.subject)
            object_extents = extents_of(t.object)
            for prop in sorted(set(subject_extents) & set(object_extents)):
                if subject_extents[prop] != object_extents[prop]:
                    add(Violation(
                        VIOLATION_SAME_EXTENT,
                        (t.subject, t.object),
                        f"linked parts disagree on {prop.n3()}",
                        (t,),
                    ))

    return sorted(violations.values(), key=_violation_key)
