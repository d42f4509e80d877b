"""Forward-chaining rule engine over the axiom algebra, plus the
pattern validator.

`saturate` computes the fixpoint of three groups of rules:

- The schema rules: subClassOf, subPropertyOf, domain and range. Each has
  one premise and a static TBox, so their closure from one triple depends
  only on the triple's shape: its predicate, whether its object is a
  literal, and the object itself where the predicate's super-properties
  reach rdf:type (a class then has super-classes of its own). `_RuleIndex`
  compiles that closure once per shape into a template over the triple's
  subject and object, and is itself built once per TBox: equal axiom lists
  share one index, templates included. A triple from the input or from a
  join rule expands its template in one step; the template's products need
  no expansion of their own, since their consequences are already in the
  template.
- The join rules: transitivity and the four AllValuesFrom lookups over a
  `via` property. They run, semi-naively, only on triples whose predicate
  heads one of them, against indexes kept only for the predicates they
  read. The delta of each round is processed in no particular order.
- The identity rules: functional and inverse-functional properties. They
  consider asserted triples only: derived edges (a transitive partOf hop,
  a subproperty projection) are not independent assertions, and counting
  them would brand every part chain a functional violation. So they run
  once, before the join rounds, on the asserted triples of each such
  property in `Triple.sort_key` order; the witness of a partOf conflict is
  then the two smallest asserted values, whatever the set order.

sameAs conclusions are reported as derived triples but never applied as a
congruence: the point of deriving them here is diagnostic.

`validate` checks conformance of a contextual graph: disjointness of
contexts and parts, functionality of partOf over asserted edges, parts
without partOf or extent, partOf edges into contexts, and the same-extent
rule for statements between parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain

from .terms import OWL, RDF_TYPE, Graph, Iri, Literal, Term, Triple, _unchecked_triple
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

# Placeholders for the subject and object of the triple a template expands.
_SUBJECT = object()
_OBJECT = object()


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
    """`rounds` holds the size of each round's delta: the first counts the
    input with what its templates and the identity rules add, each later
    one the new triples of one join round, so the sizes sum to the triples
    of `source` and `derived` together."""

    source: Graph
    derived: Graph
    violations: tuple[Violation, ...]
    rounds: tuple[int, ...] = field(default=(), compare=False)

    @property
    def all(self) -> Graph:
        return self.source.union(self.derived)


# A compiled template, by the placeholders it fills: (_SUBJECT, q, _OBJECT)
# as `q`, (_SUBJECT, q, c) and (_OBJECT, q, c) as `(q, c)`, and triples of
# constants as they are.
_Template = tuple[
    tuple[Iri, ...],
    tuple[tuple[Iri, Term], ...],
    tuple[tuple[Iri, Term], ...],
    tuple[tuple[Term, Iri, Term], ...],
]


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
            # The rule products put these terms into triples unchecked.
            if not all(isinstance(term, Iri) for term in ax.terms):
                raise ValueError(f"axiom {ax.kind} has a term that is not an IRI: {ax.terms!r}")
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
        # Properties whose triples type their subject with their object, so
        # the object's super-classes belong in their template.
        self.types_object = self._family(RDF_TYPE)
        self.join_heads = (
            self.transitive | self.avf_domain.keys() | self.avf_range.keys()
            | self.avf_domain_by_via.keys() | self.avf_range_by_via.keys()
        )
        # What the join rules look up: values by (predicate, subject) in
        # `sp`, subjects by (predicate, object) in `po`; disjointness reads
        # the typed subjects of each class from `po`.
        self.sp_predicates = (
            self.transitive | self.avf_domain.keys()
            | self.avf_domain_by_via.keys() | self.avf_range_by_via.keys()
        )
        self.po_predicates = self.transitive | self.avf_range.keys()
        if self.disjoint:
            self.po_predicates.add(RDF_TYPE)
        self.templates: dict[tuple, _Template] = {}

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

    def template(self, predicate: Iri, obj: Term) -> _Template:
        """The schema rules' closure from a triple `(s, predicate, obj)`,
        less the triple itself, over placeholders for `s` and, unless the
        predicate types its subject with `obj`, for `obj`."""
        literal = isinstance(obj, Literal)
        seed = (_SUBJECT, predicate, obj if predicate in self.types_object else _OBJECT)
        closure = {seed}
        todo = [seed]
        while todo:
            s, p, o = todo.pop()
            found = [(s, sup, o) for sup in self.super_props.get(p, ())]
            found += [(s, RDF_TYPE, cls) for cls in self.domains.get(p, ())]
            if p is RDF_TYPE and isinstance(o, Iri):
                found += [(s, RDF_TYPE, sup) for sup in self.super_classes.get(o, ())]
            if not (literal if o is _OBJECT else isinstance(o, Literal)):
                found += [(o, RDF_TYPE, cls) for cls in self.ranges.get(p, ())]
            for t in found:
                if t not in closure:
                    closure.add(t)
                    todo.append(t)
        closure.discard(seed)
        return (
            tuple(p for s, p, o in closure if s is _SUBJECT and o is _OBJECT),
            tuple((p, o) for s, p, o in closure if s is _SUBJECT and o is not _OBJECT),
            tuple((p, o) for s, p, o in closure if s is _OBJECT),
            tuple(t for t in closure if t[0] is not _SUBJECT and t[0] is not _OBJECT),
        )


@lru_cache(maxsize=16)
def _rule_index(axioms: tuple[Axiom, ...], vocab: CoreVocabulary) -> _RuleIndex:
    """The compiled rules of a TBox, built once and shared by every
    `saturate` call on an equal axiom list. Its templates fill in as the
    calls meet new triple shapes."""
    return _RuleIndex(axioms, vocab)


def saturate(
    graph: Graph,
    axioms: list[Axiom],
    vocab: CoreVocabulary = CORE,
) -> InferenceResult:
    idx = _rule_index(tuple(axioms), vocab)
    everything: set[Triple] = set(graph)
    templates, types_object = idx.templates, idx.types_object
    sp_predicates, po_predicates = idx.sp_predicates, idx.po_predicates
    join_heads = idx.join_heads
    indexed = sp_predicates | po_predicates  # every join head among them
    sp: dict[tuple[Iri, Term], set[Term]] = {}
    po: dict[tuple[Iri, Term], set[Term]] = {}
    violations: dict[tuple, Violation] = {}

    def join(s: Term, p: Iri, o: Term) -> list[tuple]:
        """What the join rules derive from `(s, p, o)` and the indexed triples."""
        out: list[tuple] = []
        if p in idx.transitive:
            # A literal `o` has no values of its own, but it is the value of
            # every `w` that reaches `s`.
            out += [(s, p, z) for z in sp.get((p, o), ())]
            out += [(w, p, o) for w in po.get((p, s), ())]
        for via, cls in idx.avf_domain.get(p, ()):
            out += [(z, RDF_TYPE, cls) for z in sp.get((via, s), ()) if not isinstance(z, Literal)]
        if not isinstance(o, Literal):
            for via, cls in idx.avf_range.get(p, ()):
                out += [(z, RDF_TYPE, cls) for z in sp.get((via, o), ()) if not isinstance(z, Literal)]
            # The triple may be the `via` edge of an AllValuesFrom axiom.
            for prop, cls in idx.avf_domain_by_via.get(p, ()):
                if sp.get((prop, s)):
                    out.append((o, RDF_TYPE, cls))
            for prop, cls in idx.avf_range_by_via.get(p, ()):
                if po.get((prop, s)):
                    out.append((o, RDF_TYPE, cls))
        return out

    # The open triples of a round: the input and what the identity rules
    # derive, then what the join rules derive. A candidate is tested as a
    # plain tuple, which hashes and compares as a `Triple` does, so a
    # duplicate builds no `Triple`. Every product puts a subject or object
    # of the graph, or a term of an axiom, where it may stand (a literal is
    # never a subject), so it is built unchecked.
    triple = _unchecked_triple
    opened = list(everything)
    for c in _identity(graph, idx, violations):
        if c not in everything:
            t = triple(c)
            everything.add(t)
            opened.append(t)
    delta = opened.copy()
    rounds: list[int] = []
    while opened:
        # Each open triple adds the products of its template.
        for s, p, o in opened:
            key = (p, o) if p in types_object else (p, o.__class__)
            template = templates.get(key)
            if template is None:
                template = templates[key] = idx.template(p, o)
            on_both, on_subject, on_object, constant = template
            for q in on_both:
                if (c := (s, q, o)) not in everything:
                    t = triple(c)
                    everything.add(t)
                    delta.append(t)
            for q, x in on_subject:
                if (c := (s, q, x)) not in everything:
                    t = triple(c)
                    everything.add(t)
                    delta.append(t)
            for q, x in on_object:
                if (c := (o, q, x)) not in everything:
                    t = triple(c)
                    everything.add(t)
                    delta.append(t)
            for c in constant:
                if c not in everything:
                    t = triple(c)
                    everything.add(t)
                    delta.append(t)
        rounds.append(len(delta))
        # Each triple is indexed before it joins, so of two triples that
        # join, the later one finds the earlier.
        opened = []
        for t in delta:
            s, p, o = t
            if p not in indexed:
                continue
            if p in sp_predicates:
                sp.setdefault((p, s), set()).add(o)
            if p in po_predicates:
                po.setdefault((p, o), set()).add(s)
            if p in join_heads:
                for c in join(s, p, o):
                    if c not in everything:
                        u = triple(c)
                        everything.add(u)
                        opened.append(u)
        delta = opened.copy()

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

    ordered = tuple(sorted(violations.values(), key=_violation_key))
    derived = Graph(everything.difference(graph))
    return InferenceResult(graph, derived, ordered, tuple(rounds))


def _identity(graph: Graph, idx: _RuleIndex, violations: dict[tuple, Violation]) -> list[tuple]:
    """The functional and inverse-functional rules over the asserted
    triples: the sameAs pairs they derive, and the conflicts of the partOf
    family, which they record in `violations`. The edges of each subject are
    read in `Triple.sort_key` order, so a conflict cites the two smallest
    asserted values."""
    out: list[tuple] = []
    for p in idx.functional:
        values: dict[Term, list[Triple]] = {}
        for t in sorted(graph.match(None, p), key=Triple.sort_key):
            values.setdefault(t.subject, []).append(t)
        for subject, edges in values.items():
            if len(edges) < 2:
                continue
            if p in idx.part_of_family:
                v = Violation(
                    VIOLATION_FUNCTIONAL,
                    (subject,),
                    f"{p.n3()} is functional but has multiple values",
                    (edges[0], edges[1]),
                )
                violations.setdefault(_violation_key(v), v)
            else:
                objects = [t.object for t in edges if not isinstance(t.object, Literal)]
                out += [(x, SAME_AS, y) for x in objects for y in objects if x is not y]
    for p in idx.inverse_functional:
        holders: dict[Term, list[Term]] = {}
        for t in graph.match(None, p):
            holders.setdefault(t.object, []).append(t.subject)
        for subjects in holders.values():
            out += [(x, SAME_AS, y) for x in subjects for y in subjects if x is not y]
    return out


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
    derived = result.derived
    # The partOf check below reports every conflict of a partOf property,
    # citing all its values: it takes the place of saturate's report.
    violations: dict[tuple, Violation] = {
        _violation_key(v): v for v in result.violations
        if not (v.kind == VIOLATION_FUNCTIONAL and v.triples[0].predicate in pattern.part_of)
    }

    def add(v: Violation) -> None:
        violations.setdefault(_violation_key(v), v)

    linked = {t.subject for prop in pattern.part_of for t in graph.match(None, prop)}
    typed_parts: set[Term] = set()
    contexts: set[Term] = set()
    for t in chain(graph.match(None, RDF_TYPE), derived.match(None, RDF_TYPE)):
        if t.object in pattern.part_classes:
            typed_parts.add(t.subject)
        if t.object in pattern.context_classes:
            contexts.add(t.subject)

    # Context and ContextualPart are disjoint even when the caller passed no
    # axioms: the check defines pattern conformance.
    for resource in contexts & typed_parts:
        cited = (Triple(resource, RDF_TYPE, vocab.Context),
                 Triple(resource, RDF_TYPE, vocab.ContextualPart))
        if all(t in graph or t in derived for t in cited):
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
                if (typing := Triple(resource, RDF_TYPE, cls)) in graph or typing in derived
            ),
        ))

    if same_extent:
        scaffolding = pattern.scaffolding | {SAME_AS}
        parts = linked | typed_parts

        # A part is in many part-to-part triples: read its extents once. The
        # cache lives only as long as this call.
        @cache
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
