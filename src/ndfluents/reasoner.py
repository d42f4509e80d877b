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
  share one index, templates included. The triples from the input or from
  a join rule expand their templates by key, in one step. A row `(q, x)` of
  a template stands for the products `(n, q, x)`, where `n` is the
  triple's subject or object; each row collects its nodes over every key of
  the round, and yields one product per distinct node. The closure's type
  triples are also kept as one node set per class, `typed`: a type row adds
  only the nodes its class's set lacks, so no tuple is built for a type
  already known. The template's products need no expansion of their own,
  since their consequences are already in the template.
- The join rules: transitivity and the four AllValuesFrom lookups over a
  `via` property. They run semi-naively, a round at a time, only on triples
  whose predicate heads one of them. Their indexes are keyed by predicate
  first and kept only for the predicates they read. Each round indexes its
  whole delta before any of it joins, then runs each rule once over each
  predicate's part of the delta, so no order within a round matters.
- The identity rules: functional and inverse-functional properties. They
  consider asserted triples only: derived edges (a transitive partOf hop,
  a subproperty projection) are not independent assertions, and counting
  them would brand every part chain a functional violation. So they run
  once, before the join rounds, on the asserted triples of each such
  property in `Triple.sort_key` order; the witness of a partOf conflict is
  then the two smallest asserted values, whatever the set order.

sameAs conclusions are reported as derived triples but never applied as a
congruence: the point of deriving them here is diagnostic. The products
stay plain tuples in the one closure set the rules fill: `InferenceResult`
builds its graphs of triples from it only when one is read.

`validate` checks conformance of a contextual graph: disjointness of
contexts and parts, by `saturate`'s rule whatever axioms the caller
passes; then, reading each part's edges once, that it has a partOf edge,
one whole per partOf property and none that is a context, and any other
fault on the walks `decontextualize` takes, each cycle once; last the
same-extent rule over the data triples between parts. It reads the closure
itself, not a graph of it: its parts and contexts are the subjects that
`saturate` keeps for each class in `typed`.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Collection
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .terms import OWL, RDF_TYPE, Graph, Iri, Literal, Term, Triple, _collector_paused, _unchecked_triple
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
    SUB_CLASS_OF,
    SUB_PROPERTY_OF,
    TRANSITIVE,
    VIOLATION_FUNCTIONAL,
    VIOLATION_MISSING_PART_OF,
    VIOLATION_UNREADABLE_PART,
    disjoint_classes,
)

SAME_AS = OWL.sameAs

VIOLATION_DISJOINT = "DisjointClasses"
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
    """`source` and its closure, the set `saturate` filled, in which the
    rule products are plain tuples; `derived` and `all` build their graphs
    from it on first read. `_types` holds the subjects of each class in the
    closure, as `saturate`'s type rows fill it: every type triple of the
    closure, and no other, is a subject in its class's set. `rounds`
    holds the size of each round's delta: the first counts the input with
    what its templates and the identity rules add, each later one the new
    triples of one join round, so the sizes sum to the triples of `source`
    and `derived` together."""

    source: Graph
    _closure: set[tuple] = field(hash=False, repr=False)
    violations: tuple[Violation, ...]
    rounds: tuple[int, ...] = field(default=(), compare=False)
    _types: dict[Term, set[Term]] = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def derived(self) -> Graph:
        return Graph(map(_unchecked_triple, self._closure.difference(self.source._triples)))

    @cached_property
    def all(self) -> Graph:
        return Graph(map(_unchecked_triple, self._closure), name=self.source.name)


# A compiled template, by the placeholders it fills: (_SUBJECT, q, _OBJECT)
# as `q`, (_SUBJECT, q, c) and (_OBJECT, q, c) as the row `(q, c)`, and a
# triple of constants (n, q, c) as its row and node, `((q, c), n)`.
_Template = tuple[
    tuple[Iri, ...],
    tuple[tuple[Iri, Term], ...],
    tuple[tuple[Iri, Term], ...],
    tuple[tuple[tuple[Iri, Term], Term], ...],
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
        binary = {SUB_CLASS_OF: self.super_classes, SUB_PROPERTY_OF: self.super_props,
                  DOMAIN: self.domains, RANGE: self.ranges}
        unary = {TRANSITIVE: self.transitive, FUNCTIONAL: self.functional,
                 INVERSE_FUNCTIONAL: self.inverse_functional}
        all_values_from = {ALL_VALUES_FROM_DOMAIN: (self.avf_domain, self.avf_domain_by_via),
                           ALL_VALUES_FROM_RANGE: (self.avf_range, self.avf_range_by_via)}
        # RangeComplementOf is enforced by validate()'s pattern checks, not by
        # a forward rule, and declarations infer nothing.
        for ax in axioms:
            # The rule products put these terms into triples unchecked.
            if not all(isinstance(term, Iri) for term in ax.terms):
                raise ValueError(f"axiom {ax.kind} has a term that is not an IRI: {ax.terms!r}")
            if ax.kind in binary:
                binary[ax.kind].setdefault(ax.terms[0], set()).add(ax.terms[1])
            elif ax.kind in unary:
                unary[ax.kind].add(ax.terms[0])
            elif ax.kind in all_values_from:
                prop, via, cls = ax.terms
                by_prop, by_via = all_values_from[ax.kind]
                by_prop.setdefault(prop, set()).add((via, cls))
                by_via.setdefault(via, set()).add((prop, cls))
            elif ax.kind == DISJOINT_CLASSES:
                self.disjoint.append((ax.terms[0], ax.terms[1]))
        # Properties in the partOf family: functional conflicts on these are
        # pattern violations, not identity inferences (a part has one whole).
        self.part_of_family = self._family(vocab.contextualPartOf)
        # Properties whose triples type their subject with their object, so
        # the object's super-classes belong in their template.
        self.types_object = self._family(RDF_TYPE)
        # The predicates whose values of each subject the join rules look up
        # (`sp`), and those whose subjects of each value they look up (`po`).
        self.sp_predicates = (
            self.transitive | self.avf_domain.keys()
            | self.avf_domain_by_via.keys() | self.avf_range_by_via.keys()
        )
        self.po_predicates = self.transitive | self.avf_range.keys()
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
            tuple(((p, o), s) for s, p, o in closure if s is not _SUBJECT and s is not _OBJECT),
        )


@lru_cache(maxsize=16)
def _rule_index(axioms: tuple[Axiom, ...], vocab: CoreVocabulary) -> _RuleIndex:
    """The compiled rules of a TBox, built once and shared by every
    `saturate` call on an equal axiom list. Its templates fill in as the
    calls meet new triple shapes."""
    return _RuleIndex(axioms, vocab)


@_collector_paused
def saturate(
    graph: Graph,
    axioms: list[Axiom],
    vocab: CoreVocabulary = CORE,
) -> InferenceResult:
    idx = _rule_index(tuple(axioms), vocab)
    # The graph's own set, not its iteration, which sorts.
    asserted = graph._triples
    everything: set[tuple] = set(asserted)
    templates, types_object = idx.templates, idx.types_object
    indexed = idx.sp_predicates | idx.po_predicates  # every join head among them
    # The join indexes, by predicate first: the values of each subject in
    # `sp[p]`, the subjects of each value in `po[p]`. The subjects of each
    # class, `typed`, are kept whatever the rules: they are `po[RDF_TYPE]`.
    sp: dict[Iri, defaultdict[Term, set[Term]]] = {p: defaultdict(set) for p in idx.sp_predicates}
    po: dict[Iri, defaultdict[Term, set[Term]]] = {p: defaultdict(set) for p in idx.po_predicates}
    typed: defaultdict[Term, set[Term]] = defaultdict(set)
    po[RDF_TYPE] = typed
    violations: dict[tuple, Violation] = {}

    # A round works a set at a time, on its open triples by predicate: the
    # input, from the P index that `_identity` and `validate` read too, with
    # what the identity rules derive, then what the join rules derive. It
    # expands their templates by template key, and each row's nodes come
    # together over every key: one product per distinct node of a row. A
    # type row keeps only the nodes `typed` does not hold for its class, so
    # no tuple is built for a type triple already known; the other products
    # are plain tuples, which hash and compare as a `Triple` does, collected
    # by predicate, and one set difference per predicate against
    # `everything` keeps the new ones. Every product puts a subject or object
    # of the graph, or a term of an axiom, where it may stand (a literal is
    # never a subject), so `InferenceResult` builds its triples unchecked.
    opened: dict[Iri, Collection[tuple]] = dict(graph._index((1,)))
    identity = set(_identity(graph, idx, violations)).difference(everything)
    if identity:
        everything.update(identity)
        opened[SAME_AS] = [*opened.get(SAME_AS, ()), *identity]
    rounds: list[int] = []
    while opened:
        groups = _by_template_key(opened, types_object)
        # The nodes of each row `(q, x)`, over every key of the round.
        rows: defaultdict[tuple[Iri, Term], set[Term]] = defaultdict(set)
        found: defaultdict[Iri, set[tuple]] = defaultdict(set)
        # The round's delta (its open triples and their new template
        # products) of each indexed predicate.
        delta: defaultdict[Iri, list[Triple]] = defaultdict(list)
        for key, members in groups.items():
            template = templates.get(key)
            if template is None:
                template = templates[key] = idx.template(key[0], next(iter(members))[2])
            if key[0] in indexed:
                delta[key[0]] += members
            on_both, on_subject, on_object, constant = template
            for q in on_both:
                found[q].update([(s, q, o) for s, _, o in members])
            if on_subject or key[0] is RDF_TYPE:
                subjects = {t[0] for t in members}
                if key[0] is RDF_TYPE:
                    typed[key[1]] |= subjects
                for row in on_subject:
                    rows[row] |= subjects
            if on_object:
                objects = {t[2] for t in members}
                for row in on_object:
                    rows[row] |= objects
            for row, node in constant:
                rows[row].add(node)
        size = sum(map(len, opened.values()))
        for (q, x), nodes in rows.items():
            if q is not RDF_TYPE:
                found[q].update([(n, q, x) for n in nodes])
                continue
            # Every type triple of the closure so far is in `typed`: the
            # row's new nodes are those it does not hold yet.
            known = typed[x]
            nodes -= known
            known |= nodes
            new = [(n, q, x) for n in nodes]
            everything.update(new)
            size += len(new)
            if q in indexed:
                delta[q] += new
        for q, candidates in found.items():
            new = candidates.difference(everything)
            everything.update(new)
            size += len(new)
            if q in indexed:
                delta[q] += new
        rounds.append(size)

        # The whole delta is indexed before any of it joins: two triples of
        # one delta that join find each other, and each join rule runs once
        # per predicate, over that predicate's part of the delta. `typed`
        # is `po[RDF_TYPE]`, and the rows above have filled it.
        for p, members in delta.items():
            if p in sp:
                values = sp[p]
                for s, _, o in members:
                    values[s].add(o)
            if p in po and p is not RDF_TYPE:
                holders = po[p]
                for s, _, o in members:
                    holders[o].add(s)
        # The join products by predicate: a transitive hop has its edge's,
        # an AllValuesFrom product is a type triple.
        joined: defaultdict[Iri, set[tuple]] = defaultdict(set)
        for p, members in delta.items():
            if p in idx.transitive:
                # A literal `o` has no values of its own, but it is the
                # value of every `w` that reaches `s`.
                values, holders = sp[p], po[p]
                joined[p].update([(s, p, z) for s, _, o in members for z in values.get(o, ())])
                joined[p].update([(w, p, o) for s, _, o in members for w in holders.get(s, ())])
            for via, cls in idx.avf_domain.get(p, ()):
                joined[RDF_TYPE].update([(z, RDF_TYPE, cls) for s, _, _ in members for z in sp[via].get(s, ())
                                         if not isinstance(z, Literal)])
            for via, cls in idx.avf_range.get(p, ()):
                joined[RDF_TYPE].update([(z, RDF_TYPE, cls) for _, _, o in members for z in sp[via].get(o, ())
                                         if not isinstance(z, Literal)])
            # The triples may be the `via` edges of an AllValuesFrom axiom.
            for prop, cls in idx.avf_domain_by_via.get(p, ()):
                joined[RDF_TYPE].update([(o, RDF_TYPE, cls) for s, _, o in members
                                         if s in sp[prop] and not isinstance(o, Literal)])
            for prop, cls in idx.avf_range_by_via.get(p, ()):
                joined[RDF_TYPE].update([(o, RDF_TYPE, cls) for s, _, o in members
                                         if s in po[prop] and not isinstance(o, Literal)])
        opened = {}
        for p, candidates in joined.items():
            if new := candidates.difference(everything):
                everything.update(new)
                opened[p] = new

    for a, b in idx.disjoint:
        offenders = typed.get(a, set()) & typed.get(b, set())
        for s in offenders:
            v = Violation(
                VIOLATION_DISJOINT,
                (s,),
                f"typed both {a.n3()} and {b.n3()}, which are disjoint",
                (Triple(s, RDF_TYPE, a), Triple(s, RDF_TYPE, b)),
            )
            violations.setdefault(_violation_key(v), v)

    ordered = tuple(sorted(violations.values(), key=_violation_key))
    return InferenceResult(graph, everything, ordered, tuple(rounds), typed)


def _by_template_key(opened: dict[Iri, Collection[tuple]], types_object: set[Iri]) -> dict[tuple, Collection[tuple]]:
    """The open triples of each predicate by template key: `(p, o)` if `p`
    types its subject with `o`, else `(p, o.__class__)`. A predicate whose
    objects are all of one class keeps its collection as it is."""
    groups: dict[tuple, Collection[tuple]] = {}
    for p, members in opened.items():
        if p in types_object:
            for t in members:
                group = groups.get((p, t[2]))
                if group is None:
                    groups[(p, t[2])] = [t]
                else:
                    group.append(t)
            continue
        kinds = {t[2].__class__ for t in members}
        if len(kinds) == 1:
            groups[(p, *kinds)] = members
            continue
        for t in members:
            groups.setdefault((p, t[2].__class__), []).append(t)
    return groups


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


@_collector_paused
def validate(
    graph: Graph,
    axioms: list[Axiom],
    registry: DimensionRegistry,
    vocab: CoreVocabulary = CORE,
    *,
    same_extent: bool = True,
) -> list[Violation]:
    pattern = registry.pattern_vocabulary(vocab)
    # Context and ContextualPart are disjoint even when the caller passed no
    # axioms: the check defines pattern conformance. A list that has the
    # axiom goes to saturate as it is, so equal lists share one rule index.
    disjoint = disjoint_classes(vocab.Context, vocab.ContextualPart)
    result = saturate(graph, axioms if disjoint in axioms else [*axioms, disjoint], vocab)
    # The partOf check below reports every conflict of a partOf property,
    # citing all its values: it takes the place of saturate's report.
    violations: dict[tuple, Violation] = {
        _violation_key(v): v for v in result.violations
        if not (v.kind == VIOLATION_FUNCTIONAL and v.triples[0].predicate in pattern.part_of)
    }

    def add(v: Violation) -> None:
        violations.setdefault(_violation_key(v), v)

    closure, typed = result._closure, result._types
    asserted = pattern.parts(graph)
    parts = asserted.union(*[typed.get(cls, ()) for cls in pattern.part_classes])
    contexts = set().union(*[typed.get(cls, ()) for cls in pattern.context_classes])

    # One pass over the parts reads each part's edges once, from the S index.
    read, data = pattern.levels(graph, parts)
    data.sort(key=Triple.sort_key)
    for part, (part_of, _, _, whole, _) in read.items():
        # A level with one whole that is no context passes these checks.
        if whole is not None and whole not in contexts:
            continue
        # partOf must not point into a context.
        for t in part_of:
            if t[2] in contexts:
                add(Violation(VIOLATION_RANGE_COMPLEMENT, (part, t[2]), f"{t[1].n3()} points at a context individual",
                              (t,)))
        # Functionality of partOf over asserted edges, per property.
        for prop in {t[1] for t in part_of} if len(part_of) > 1 else ():
            edges = [t for t in part_of if t[1] is prop]
            if len(edges) > 1:
                add(Violation(VIOLATION_FUNCTIONAL, (part,), f"{prop.n3()} is functional but has {len(edges)} values",
                              tuple(sorted(edges, key=Triple.sort_key))))
        # Parts must have a partOf edge.
        if not part_of:
            typings = [Triple(part, RDF_TYPE, cls) for cls in sorted(pattern.part_classes)]
            add(Violation(VIOLATION_MISSING_PART_OF, (part,), "typed as a contextual part but carries no partOf edge",
                          tuple(t for t in typings if t in closure)))

    # decontextualize's walks, in its order: from each asserted part with a
    # data triple and from each part that such a triple's object is, through
    # asserted parts. The first start to meet a cycle names it.
    levels = read if len(read) == len(asserted) else {part: read[part] for part in asserted}
    starts = dict.fromkeys(end for t in data if t[0] in levels for end in (t[0], t[2]) if end in levels)
    for kind, part, text in pattern.walk(levels, *starts)[2]:
        if kind == VIOLATION_UNREADABLE_PART:
            add(Violation(kind, (part,), text))

    # Each key is one violation's own, but for the links of two parts, which
    # share theirs: they go in `Triple.sort_key` order, so the first cites.
    if same_extent:
        links = [t for t in data if t[1] is not SAME_AS and t[2] in parts]
        extents: dict[Term, dict[Iri, set[Term]]] = {end: {} for t in links for end in (t[0], t[2])}
        for part, by_prop in extents.items():
            for _, prop, context in read[part][1]:
                by_prop.setdefault(prop, set()).add(context)
        for t in links:
            ours, theirs = extents[t[0]], extents[t[2]]
            for prop, values in ours.items():
                if prop in theirs and theirs[prop] != values:
                    add(Violation(VIOLATION_SAME_EXTENT, (t[0], t[2]), f"linked parts disagree on {prop.n3()}", (t,)))

    return sorted(violations.values(), key=_violation_key)
