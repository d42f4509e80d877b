"""Forward-chaining saturation and pattern validation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfluents import (
    BlankNode,
    CombinationModel,
    Config,
    Graph,
    Iri,
    Literal,
    MintingPolicy,
    RDF_TYPE,
    Triple,
    XSD,
    annotate,
    contextualize,
    core_axioms,
    dimension_module,
    related_contextual_property,
    related_property_iri,
    saturate,
    temporal_dimension,
    validate,
)
from ndfluents.reasoner import (
    SAME_AS,
    Violation,
    VIOLATION_DISJOINT,
    VIOLATION_FUNCTIONAL,
    VIOLATION_MISSING_PART_OF,
    VIOLATION_RANGE_COMPLEMENT,
    VIOLATION_SAME_EXTENT,
    _RuleIndex,
    _rule_index,
    _violation_key,
)
from ndfluents import reasoner
from ndfluents.terms import term_sort_key
from ndfluents.vocabulary import (
    CORE,
    all_values_from_domain,
    all_values_from_range,
    disjoint_classes,
    functional,
    inverse_functional,
    property_domain,
    property_range,
    sub_class_of,
    sub_property_of,
    transitive,
    transitivity_axiom,
)

from conftest import EX, corpus_registry, random_corpus

TEMPORAL = temporal_dimension()
B = CombinationModel.multi_context()


def _temporal_tbox():
    return core_axioms() + dimension_module(TEMPORAL)


class TestBasicRules:
    def test_subclass_propagation(self):
        g = Graph([Triple(EX.x, RDF_TYPE, TEMPORAL.part_class)])
        result = saturate(g, _temporal_tbox())
        assert Triple(EX.x, RDF_TYPE, CORE.ContextualPart) in result.derived

    def test_subproperty_propagation(self):
        g = Graph([Triple(EX.x, TEMPORAL.part_of, EX.y)])
        result = saturate(g, _temporal_tbox())
        assert Triple(EX.x, CORE.contextualPartOf, EX.y) in result.derived

    def test_domain_and_range(self):
        axioms = [
            property_domain(EX.capitalOf, EX.City),
            property_range(EX.capitalOf, EX.Country),
        ]
        g = Graph([Triple(EX.Paris, EX.capitalOf, EX.France)])
        result = saturate(g, axioms)
        assert Triple(EX.Paris, RDF_TYPE, EX.City) in result.derived
        assert Triple(EX.France, RDF_TYPE, EX.Country) in result.derived

    def test_transitive_closure(self):
        axioms = [transitive(EX.partOf)]
        g = Graph(
            [
                Triple(EX.a, EX.partOf, EX.b),
                Triple(EX.b, EX.partOf, EX.c),
                Triple(EX.c, EX.partOf, EX.d),
            ]
        )
        result = saturate(g, axioms)
        assert Triple(EX.a, EX.partOf, EX.c) in result.derived
        assert Triple(EX.a, EX.partOf, EX.d) in result.derived
        assert Triple(EX.b, EX.partOf, EX.d) in result.derived

    def test_transitive_hop_to_a_literal_derived_later(self):
        # (b partOf "x") only appears once (b piece "x") is projected, after
        # (a partOf b) has been processed; the hop must still be made.
        axioms = [transitive(EX.partOf), sub_property_of(EX.piece, EX.partOf)]
        g = Graph([Triple(EX.a, EX.partOf, EX.b), Triple(EX.b, EX.piece, Literal("x"))])
        assert Triple(EX.a, EX.partOf, Literal("x")) in saturate(g, axioms).derived

    def test_derived_is_disjoint_from_input(self):
        g = Graph([Triple(EX.x, RDF_TYPE, TEMPORAL.part_class)])
        result = saturate(g, _temporal_tbox())
        assert not set(result.derived) & set(result.source)

    def test_fixpoint_idempotence(self):
        g = contextualize(
            [annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1))],
            corpus_registry(),
            B,
        )
        axioms = _temporal_tbox() + [transitivity_axiom()]
        once = saturate(g, axioms)
        again = saturate(once.all, axioms)
        assert len(again.derived) == 0


class TestInheritancePitfallAndRepair:
    """A constrained predicate used directly on parts types the parts; the
    related-property module types the base entities instead."""

    def _contextual_graph(self, **kwargs):
        statement = annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1))
        return contextualize([statement], corpus_registry(), B, **kwargs)

    def test_naive_subproperty_types_the_part(self):
        g = self._contextual_graph()
        axioms = _temporal_tbox() + [
            sub_property_of(EX.capitalOf, TEMPORAL.contextual_property),
            property_domain(EX.capitalOf, EX.City),
        ]
        result = saturate(g, axioms)
        assert Triple(EX["Paris@t1"], RDF_TYPE, EX.City) in result.derived
        assert Triple(EX.Paris, RDF_TYPE, EX.City) not in result.all

    def test_related_property_types_the_base_entity(self):
        g = self._contextual_graph(predicate_mode="related")
        rewritten = related_property_iri(EX.capitalOf)
        axioms = _temporal_tbox() + related_contextual_property(
            EX.capitalOf, rewritten, EX.City, EX.Country
        )
        result = saturate(g, axioms)
        assert Triple(EX.Paris, RDF_TYPE, EX.City) in result.derived
        assert Triple(EX.France, RDF_TYPE, EX.Country) in result.derived
        assert Triple(EX["Paris@t1"], RDF_TYPE, EX.City) not in result.all
        assert Triple(EX["France@t1"], RDF_TYPE, EX.Country) not in result.all

    def test_inverse_functional_flags_parts_with_a_shared_object(self):
        # Two temporal parts of Paris point at the *uncontextualized* France;
        # inverse functionality then concludes the parts are the same thing.
        parts = {}
        triples = []
        for year in ("508", "2016"):
            part = EX[f"Paris@{year}"]
            parts[year] = part
            triples += [
                Triple(part, RDF_TYPE, TEMPORAL.part_class),
                Triple(part, TEMPORAL.part_of, EX.Paris),
                Triple(part, TEMPORAL.extent, EX[f"year{year}"]),
                Triple(EX[f"year{year}"], RDF_TYPE, TEMPORAL.context_class),
                Triple(part, EX.capitalOf, EX.France),
            ]
        g = Graph(triples)
        result = saturate(g, _temporal_tbox() + [inverse_functional(EX.capitalOf)])
        assert Triple(parts["508"], SAME_AS, parts["2016"]) in result.derived
        assert Triple(parts["2016"], SAME_AS, parts["508"]) in result.derived

    def test_same_as_is_reported_but_never_applied(self):
        g = Graph(
            [
                Triple(EX.a, EX.capitalOf, EX.France),
                Triple(EX.b, EX.capitalOf, EX.France),
                Triple(EX.a, EX.p, EX.only_a),
            ]
        )
        result = saturate(g, [inverse_functional(EX.capitalOf)])
        assert Triple(EX.a, SAME_AS, EX.b) in result.derived
        # No congruence closure: b does not inherit a's other triples.
        assert Triple(EX.b, EX.p, EX.only_a) not in result.all


class TestFunctionalProperties:
    def test_generic_functional_property_derives_same_as(self):
        g = Graph(
            [
                Triple(EX.France, EX.hasCapital, EX.Paris),
                Triple(EX.France, EX.hasCapital, EX.Lutetia),
            ]
        )
        result = saturate(g, [functional(EX.hasCapital)])
        assert Triple(EX.Paris, SAME_AS, EX.Lutetia) in result.derived
        assert not result.violations

    def test_part_of_family_conflict_is_a_violation_not_an_identity(self):
        g = Graph(
            [
                Triple(EX.part, TEMPORAL.part_of, EX.Paris),
                Triple(EX.part, TEMPORAL.part_of, EX.Lyon),
            ]
        )
        axioms = _temporal_tbox() + [functional(TEMPORAL.part_of)]
        result = saturate(g, axioms)
        assert Triple(EX.Paris, SAME_AS, EX.Lyon) not in result.all
        assert any(v.kind == VIOLATION_FUNCTIONAL for v in result.violations)

    def test_functional_rule_only_fires_on_asserted_pairs(self):
        # hasCapital edges derived via subPropertyOf must not combine with
        # asserted ones into sameAs conclusions.
        g = Graph(
            [
                Triple(EX.France, EX.declaredCapital, EX.Paris),
                Triple(EX.France, EX.hasCapital, EX.Paris),
            ]
        )
        axioms = [
            sub_property_of(EX.declaredCapital, EX.hasCapital),
            functional(EX.hasCapital),
        ]
        result = saturate(g, axioms)
        assert not list(result.derived.match(predicate=SAME_AS))


class TestChainClosure:
    def test_three_level_chain_reaches_the_base_entity(self):
        registry = corpus_registry()
        model = CombinationModel.contexts_in_context(["temporal", "provenance", "trust"])
        statement = annotate(
            EX.Paris,
            EX.capitalOf,
            EX.France,
            ("temporal", EX.t1),
            ("provenance", EX.p1),
            ("trust", EX.w1),
        )
        g = contextualize([statement], registry, model)
        axioms = core_axioms() + [transitivity_axiom()]
        for dim in registry:
            axioms += dimension_module(dim)
        result = saturate(g, axioms)
        innermost = MintingPolicy().mint_part(
            EX.Paris, (("temporal", EX.t1), ("provenance", EX.p1), ("trust", EX.w1))
        )
        assert Triple(innermost, CORE.contextualPartOf, EX.Paris) in result.all


class TestAllValuesFrom:
    """Each AllValuesFrom rule types only the values of its own `via`
    property, whichever of its two edges comes first."""

    def test_domain_rule_types_the_via_values_of_subjects(self):
        axioms = [
            all_values_from_domain(EX.hasPart, EX.partOf, EX.Part),
            all_values_from_domain(EX.hasPart, EX.locatedIn, EX.Place),
        ]
        g = Graph([
            Triple(EX.a, EX.hasPart, EX.b),
            Triple(EX.a, EX.partOf, EX.whole),
            Triple(EX.a, EX.partOf, Literal("not typed")),
            Triple(EX.a, EX.locatedIn, EX.city),
            # No hasPart edge from `other`, so its values stay untyped.
            Triple(EX.other, EX.partOf, EX.elsewhere),
        ])
        assert set(saturate(g, axioms).derived) == {
            Triple(EX.whole, RDF_TYPE, EX.Part),
            Triple(EX.city, RDF_TYPE, EX.Place),
        }

    def test_range_rule_types_the_via_values_of_objects(self):
        axioms = [
            all_values_from_range(EX.hasPart, EX.partOf, EX.Part),
            all_values_from_range(EX.owns, EX.locatedIn, EX.Place),
        ]
        g = Graph([
            Triple(EX.a, EX.hasPart, EX.b),
            Triple(EX.b, EX.partOf, EX.whole),
            Triple(EX.b, EX.locatedIn, EX.city),
            Triple(EX.c, EX.owns, EX.d),
            Triple(EX.d, EX.locatedIn, EX.town),
            Triple(EX.d, EX.partOf, EX.thing),
        ])
        assert set(saturate(g, axioms).derived) == {
            Triple(EX.whole, RDF_TYPE, EX.Part),
            Triple(EX.town, RDF_TYPE, EX.Place),
        }

    def test_rules_fire_when_either_edge_is_derived(self):
        axioms = [
            sub_property_of(EX.hasPiece, EX.hasPart),
            sub_property_of(EX.directlyIn, EX.locatedIn),
            all_values_from_domain(EX.hasPart, EX.locatedIn, EX.Place),
            all_values_from_range(EX.hasPart, EX.locatedIn, EX.Site),
        ]
        g = Graph([
            Triple(EX.a, EX.hasPiece, EX.b),
            Triple(EX.a, EX.directlyIn, EX.city),
            Triple(EX.b, EX.directlyIn, EX.site),
        ])
        assert set(saturate(g, axioms).derived) == {
            Triple(EX.a, EX.hasPart, EX.b),
            Triple(EX.a, EX.locatedIn, EX.city),
            Triple(EX.b, EX.locatedIn, EX.site),
            Triple(EX.city, RDF_TYPE, EX.Place),
            Triple(EX.site, RDF_TYPE, EX.Site),
        }


class TestValidate:
    def _clean_graph(self, model=B):
        statements = [
            annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
            annotate(
                EX.Paris,
                EX.locatedIn,
                EX.Europe,
                ("temporal", EX.t2),
                ("provenance", EX.src),
            ),
        ]
        registry = corpus_registry()
        config = Config(
            registry=registry, model=model, policy=MintingPolicy(), vocab=CORE
        )
        return contextualize(statements, registry, model), config

    @pytest.mark.parametrize(
        "model",
        [
            B,
            CombinationModel.contexts_in_context(["provenance", "temporal", "trust"]),
            CombinationModel.combined_extent(),
        ],
        ids=["multi", "nested", "combined"],
    )
    def test_clean_output_has_no_violations(self, model):
        graph, config = self._clean_graph(model)
        assert validate(graph, config.axioms(), config.registry) == []

    def test_disjoint_typing_is_flagged(self):
        graph, config = self._clean_graph()
        seeded = graph.union([Triple(EX["Paris@t1"], RDF_TYPE, CORE.Context)])
        violations = validate(seeded, config.axioms(), config.registry)
        assert violations and all(v.kind == VIOLATION_DISJOINT for v in violations)

    def test_double_part_of_is_flagged(self):
        graph, config = self._clean_graph()
        seeded = graph.union([Triple(EX["Paris@t1"], TEMPORAL.part_of, EX.Lyon)])
        violations = validate(seeded, config.axioms(), config.registry)
        assert violations and all(v.kind == VIOLATION_FUNCTIONAL for v in violations)

    def test_part_without_part_of_is_flagged(self):
        graph, config = self._clean_graph()
        seeded = graph.union(
            [
                Triple(EX.orphan, RDF_TYPE, TEMPORAL.part_class),
                Triple(EX.orphan, TEMPORAL.extent, EX.t1),
            ]
        )
        violations = validate(seeded, config.axioms(), config.registry)
        assert violations and all(v.kind == VIOLATION_MISSING_PART_OF for v in violations)

    def test_part_of_into_a_context_is_flagged(self):
        graph, config = self._clean_graph()
        seeded = graph.union([Triple(EX.stray, TEMPORAL.part_of, EX.t1)])
        violations = validate(seeded, config.axioms(), config.registry)
        assert violations and all(v.kind == VIOLATION_RANGE_COMPLEMENT for v in violations)

    def test_mismatched_extents_between_linked_parts_are_flagged(self):
        graph, config = self._clean_graph()
        # Cross-link two parts that live in different temporal contexts.
        seeded = graph.union([Triple(EX["Paris@t1"], EX.knows, EX["Paris@src_t2"])])
        violations = validate(seeded, config.axioms(), config.registry)
        assert violations and all(v.kind == VIOLATION_SAME_EXTENT for v in violations)

    def test_same_extent_check_can_be_disabled(self):
        graph, config = self._clean_graph()
        seeded = graph.union([Triple(EX["Paris@t1"], EX.knows, EX["Paris@src_t2"])])
        assert (
            validate(seeded, config.axioms(), config.registry, same_extent=False) == []
        )

    def test_violations_cite_triggering_triples(self):
        graph, config = self._clean_graph()
        offender = Triple(EX["Paris@t1"], TEMPORAL.part_of, EX.Lyon)
        violations = validate(graph.union([offender]), config.axioms(), config.registry)
        (violation,) = violations
        assert offender in violation.triples
        rendered = violation.render()
        assert "FunctionalConflict" in rendered and EX["Paris@t1"].n3() in rendered

    def test_a_core_part_of_conflict_is_reported_once(self):
        # saturate's functional rule finds this conflict too; validate
        # reports it once, citing every value.
        graph, config = self._clean_graph()
        offenders = [Triple(EX["Paris@t1"], CORE.contextualPartOf, whole) for whole in (EX.Lyon, EX.Nice)]
        violations = validate(graph.union(offenders), config.axioms(), config.registry)
        (violation,) = violations
        assert violation.kind == VIOLATION_FUNCTIONAL
        assert violation.subjects == (EX["Paris@t1"],)
        assert violation.triples == tuple(sorted(offenders, key=Triple.sort_key))
        assert violation.detail == f"{CORE.contextualPartOf.n3()} is functional but has 2 values"


class TestRounds:
    def test_rounds_count_each_delta_on_a_part_chain(self):
        # Round 0: the three edges and their templates (a contextualPartOf
        # edge and two typings each); then one transitive hop per round.
        g = Graph([
            Triple(EX.a, TEMPORAL.part_of, EX.b),
            Triple(EX.b, TEMPORAL.part_of, EX.c),
            Triple(EX.c, TEMPORAL.part_of, EX.d),
        ])
        result = saturate(g, _temporal_tbox() + [transitivity_axiom()])
        assert result.rounds == (12, 2, 1)
        assert sum(result.rounds) == len(g) + len(result.derived)


# --- reference oracle ---------------------------------------------------------


def _reference_saturate(graph, axioms, vocab=CORE):
    """The rule-at-a-time fixpoint `saturate` replaced: every rule applied to
    each triple of a round's delta, the delta sorted, the functional rules
    checked on each asserted triple. Returns the derived triples and the
    violations. (The replaced code also skipped transitivity from a triple
    with a literal object, which lost a hop when that triple came in a later
    round; see `test_transitive_hop_to_a_literal_derived_later`.)"""
    idx = _RuleIndex(axioms, vocab)
    asserted = frozenset(graph)
    everything = set(asserted)
    sp, po, violations = {}, {}, {}

    def index(t):
        sp.setdefault((t.predicate, t.subject), set()).add(t.object)
        po.setdefault((t.predicate, t.object), set()).add(t.subject)

    for t in everything:
        index(t)

    def check_functional(t):
        out = []
        p = t.predicate
        if p in idx.functional and t in asserted:
            for other in sorted(sp.get((p, t.subject), ()), key=term_sort_key):
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

    def apply_rules(t):
        out = []
        s, p, o = t
        literal = isinstance(o, Literal)
        if p == RDF_TYPE and isinstance(o, Iri):
            out += [Triple(s, RDF_TYPE, sup) for sup in idx.super_classes.get(o, ())]
        out += [Triple(s, sup, o) for sup in idx.super_props.get(p, ())]
        out += [Triple(s, RDF_TYPE, cls) for cls in idx.domains.get(p, ())]
        if not literal:
            out += [Triple(o, RDF_TYPE, cls) for cls in idx.ranges.get(p, ())]
        if p in idx.transitive:
            out += [Triple(s, p, z) for z in sp.get((p, o), ())]
            out += [Triple(w, p, o) for w in po.get((p, s), ())]
        for via, cls in idx.avf_domain.get(p, ()):
            out += [Triple(z, RDF_TYPE, cls) for z in sp.get((via, s), ()) if not isinstance(z, Literal)]
        if not literal:
            for via, cls in idx.avf_range.get(p, ()):
                out += [Triple(z, RDF_TYPE, cls) for z in sp.get((via, o), ()) if not isinstance(z, Literal)]
            for prop, cls in idx.avf_domain_by_via.get(p, ()):
                if sp.get((prop, s)):
                    out.append(Triple(o, RDF_TYPE, cls))
            for prop, cls in idx.avf_range_by_via.get(p, ()):
                if po.get((prop, s)):
                    out.append(Triple(o, RDF_TYPE, cls))
        return out + check_functional(t)

    delta = set(everything)
    while delta:
        fresh = set()
        for t in sorted(delta, key=Triple.sort_key):
            fresh.update(c for c in apply_rules(t) if c not in everything)
        for t in fresh:
            index(t)
        everything |= fresh
        delta = fresh

    for a, b in idx.disjoint:
        for s in sorted(po.get((RDF_TYPE, a), set()) & po.get((RDF_TYPE, b), set()), key=lambda x: x.n3()):
            v = Violation(
                VIOLATION_DISJOINT,
                (s,),
                f"typed both {a.n3()} and {b.n3()}, which are disjoint",
                (Triple(s, RDF_TYPE, a), Triple(s, RDF_TYPE, b)),
            )
            violations.setdefault(_violation_key(v), v)
    return everything - asserted, sorted(violations.values(), key=_violation_key)


def _assert_matches_reference(graph, axioms):
    result = saturate(graph, axioms)
    derived, violations = _reference_saturate(graph, axioms)
    assert set(result.derived) == derived
    assert [v.render() for v in result.violations] == [v.render() for v in violations]


_CLASSES = [EX[f"C{i}"] for i in range(4)]
_PROPERTIES = [EX[f"p{i}"] for i in range(4)] + [CORE.contextualPartOf, SAME_AS]
_NODES = [EX[f"n{i}"] for i in range(6)] + [BlankNode("b2"), BlankNode("b10")]
_VALUES = _NODES + _CLASSES + [Literal("x"), Literal("7", datatype=XSD.integer)]
_classes = st.sampled_from(_CLASSES)
_properties = st.sampled_from(_PROPERTIES)
_any_property = st.sampled_from(_PROPERTIES + [RDF_TYPE])
_axioms = st.one_of(
    st.builds(sub_class_of, _classes, _classes),
    st.builds(sub_property_of, _any_property, _any_property),
    st.builds(property_domain, _any_property, _classes),
    st.builds(property_range, _any_property, _classes),
    st.builds(transitive, _properties),
    st.builds(functional, _properties),
    st.builds(inverse_functional, _properties),
    st.builds(all_values_from_domain, _properties, _properties, _classes),
    st.builds(all_values_from_range, _properties, _properties, _classes),
    st.builds(disjoint_classes, _classes, _classes),
)


@st.composite
def _tbox_and_abox(draw):
    """A random TBox (with subclass and subproperty chains, one of them
    possibly under rdf:type) and ABox (with literal objects, a part chain
    and a subject with several values of a functional property)."""
    classes = draw(st.permutations(_CLASSES))
    properties = draw(st.permutations(_PROPERTIES[:4] + [RDF_TYPE]))
    axioms = [sub_class_of(a, b) for a, b in zip(classes, classes[1:draw(st.integers(0, 3)) + 1])]
    axioms += [sub_property_of(a, b) for a, b in zip(properties, properties[1:draw(st.integers(0, 3)) + 1])]
    axioms += draw(st.lists(_axioms, max_size=10))

    nodes = draw(st.permutations(_NODES))
    triples = draw(st.lists(
        st.builds(Triple, st.sampled_from(_NODES), _any_property, st.sampled_from(_VALUES)),
        max_size=12,
    ))
    part_of = draw(st.sampled_from([CORE.contextualPartOf, EX.p0]))
    triples += [Triple(a, part_of, b) for a, b in zip(nodes, nodes[1:draw(st.integers(0, 4)) + 1])]
    prop = draw(_properties)
    owner = draw(st.sampled_from(_NODES))
    values = draw(st.lists(st.sampled_from(_VALUES), unique=True, max_size=4))
    triples += [Triple(owner, prop, value) for value in values]
    if values and draw(st.booleans()):
        axioms.append(functional(prop))
    return Graph(triples), axioms


@settings(max_examples=300, deadline=None)
@given(_tbox_and_abox())
def test_saturate_agrees_with_the_rule_at_a_time_reference(case):
    graph, axioms = case
    _assert_matches_reference(graph, axioms)


def test_equal_axiom_lists_share_one_rule_index(monkeypatch):
    built = []

    class CountingIndex(_RuleIndex):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(reasoner, "_RuleIndex", CountingIndex)
    _rule_index.cache_clear()
    axioms = [sub_class_of(EX.A, EX.B), transitive(EX.partOf)]
    graph = Graph([Triple(EX.x, RDF_TYPE, EX.A), Triple(EX.x, EX.partOf, EX.y)])
    first = saturate(graph, axioms)
    assert saturate(graph, list(axioms)) == first
    assert len(built) == 1
    assert _rule_index(tuple(axioms), CORE) is _rule_index(tuple(list(axioms)), CORE)
    changed = saturate(graph, axioms + [sub_class_of(EX.B, EX.C)])
    assert len(built) == 2 and Triple(EX.x, RDF_TYPE, EX.C) in changed.derived
    _rule_index.cache_clear()


@pytest.mark.parametrize(
    "model",
    [
        B,
        CombinationModel.contexts_in_context(["temporal", "provenance", "trust"]),
        CombinationModel.contexts_in_context(["trust", "provenance", "temporal"]),
        CombinationModel.combined_extent(),
    ],
    ids=["multi", "nested", "nested-reversed", "combined"],
)
def test_saturate_agrees_with_the_reference_on_contextual_graphs(model):
    registry = corpus_registry()
    config = Config(registry=registry, model=model, policy=MintingPolicy(), vocab=CORE)
    for serial in range(5):
        statements = random_corpus(random.Random(30_000 + serial), serial)
        graph = contextualize(statements, registry, model)
        # Two more temporal partOf values (three on a temporal part) and a
        # node typed both context and part seed violations.
        part = min(registry.pattern_vocabulary().parts(graph), key=term_sort_key)
        seeded = graph.union([
            Triple(part, TEMPORAL.part_of, EX.Lyon),
            Triple(part, TEMPORAL.part_of, EX.Arles),
            Triple(EX.t1, RDF_TYPE, CORE.ContextualPart),
            Triple(EX.t1, RDF_TYPE, CORE.Context),
        ])
        _assert_matches_reference(seeded, config.axioms() + [functional(TEMPORAL.part_of)])
