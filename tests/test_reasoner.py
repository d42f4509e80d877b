"""Forward-chaining saturation and pattern validation."""

import random
import re
from functools import cache
from itertools import chain

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
    PatternError,
    RDF_TYPE,
    Triple,
    XSD,
    annotate,
    contextualize,
    core_axioms,
    decontextualize,
    dimension_module,
    related_contextual_property,
    related_property_iri,
    saturate,
    serialize,
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
    VIOLATION_UNREADABLE_PART,
    _RuleIndex,
    _rule_index,
    _violation_key,
)
from ndfluents.terms import Term
from ndfluents import reasoner
from ndfluents.terms import term_sort_key
from ndfluents.vocabulary import (
    CORE,
    DISJOINT_CLASSES,
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

from conftest import (
    _PATTERN_CLASSES, _PATTERN_PREDICATES, EX, PATTERN_REGISTRY, corpus_registry, pattern_graphs, random_corpus,
)

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


class TestTypeAsJoinHead:
    """rdf:type triples, asserted or derived, join like any other edge when
    rdf:type heads a join rule."""

    def test_transitive_type(self):
        g = Graph([Triple(EX.a, RDF_TYPE, EX.B), Triple(EX.B, RDF_TYPE, EX.C)])
        result = _assert_matches_reference(g, [transitive(RDF_TYPE)])
        assert Triple(EX.a, RDF_TYPE, EX.C) in result.derived

    def test_type_as_the_via_of_a_domain_rule(self):
        g = Graph([Triple(EX.a, EX.p, EX.x), Triple(EX.a, RDF_TYPE, EX.y)])
        result = _assert_matches_reference(g, [all_values_from_domain(EX.p, RDF_TYPE, EX.D)])
        assert Triple(EX.y, RDF_TYPE, EX.D) in result.derived

    def test_type_as_the_via_of_a_range_rule(self):
        g = Graph([Triple(EX.a, EX.p, EX.x), Triple(EX.x, RDF_TYPE, EX.y)])
        result = _assert_matches_reference(g, [all_values_from_range(EX.p, RDF_TYPE, EX.D)])
        assert Triple(EX.y, RDF_TYPE, EX.D) in result.derived


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

    def test_a_same_extent_report_cites_the_first_link(self):
        # Two links of the same two parts make one report, which cites the
        # link that comes first in `Triple.sort_key` order.
        graph, config = self._clean_graph()
        links = [Triple(EX["Paris@t1"], p, EX["Paris@src_t2"]) for p in (EX.near, EX.knows)]
        (violation,) = validate(graph.union(links), config.axioms(), config.registry)
        assert violation.kind == VIOLATION_SAME_EXTENT
        assert violation.triples == (links[1],)

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

    def test_validate_does_not_sort_its_input(self):
        # The four faults the `reason` benchmark seeds, and a part with no
        # partOf edge: the checks read the graph by index, and only the
        # links between parts go in order.
        graph, config = self._clean_graph()
        seeded = graph.union([
            Triple(EX["Paris@t1"], RDF_TYPE, CORE.Context),
            Triple(EX["Paris@t1"], TEMPORAL.part_of, EX.Lyon),
            Triple(EX.stray, TEMPORAL.part_of, EX.t1),
            Triple(EX["Paris@t1"], EX.knows, EX["Paris@src_t2"]),
            Triple(EX.orphan, RDF_TYPE, TEMPORAL.part_class),
        ])
        fresh = Graph(seeded._triples)
        violations = validate(fresh, config.axioms(), config.registry)
        assert {v.kind for v in violations} == {
            VIOLATION_DISJOINT, VIOLATION_FUNCTIONAL, VIOLATION_RANGE_COMPLEMENT,
            VIOLATION_SAME_EXTENT, VIOLATION_MISSING_PART_OF,
        }
        assert fresh._sorted is None

    def test_validate_reads_the_closure_and_builds_no_graph(self, monkeypatch):
        # The part with no partOf edge cites its asserted typing and the one
        # the TBox derives, both read from saturate's closure.
        results = []
        paused_saturate = reasoner.saturate

        def spy(*args, **kwargs):
            results.append(paused_saturate(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(reasoner, "saturate", spy)
        graph, config = self._clean_graph()
        seeded = graph.union([
            Triple(EX["Paris@t1"], RDF_TYPE, CORE.Context),
            Triple(EX.orphan, RDF_TYPE, TEMPORAL.part_class),
        ])
        violations = validate(seeded, config.axioms(), config.registry)
        assert [v.kind for v in violations] == [VIOLATION_DISJOINT, VIOLATION_MISSING_PART_OF]
        assert violations[1].triples == (
            Triple(EX.orphan, RDF_TYPE, CORE.ContextualPart), Triple(EX.orphan, RDF_TYPE, TEMPORAL.part_class),
        )
        (result,) = results
        assert "derived" not in vars(result) and "all" not in vars(result)

    def test_a_part_of_cycle_is_reported_once(self):
        # Both parts start a walk into the one cycle; decontextualize raises
        # the fault of the first start in sorted-triple order.
        a, b = EX["a@t1"], EX["b@t1"]
        graph = Graph([
            Triple(a, TEMPORAL.part_of, b), Triple(b, TEMPORAL.part_of, a),
            Triple(a, TEMPORAL.extent, EX.t1), Triple(b, TEMPORAL.extent, EX.t1),
            Triple(a, EX.knows, b), Triple(b, EX.knows, a),
        ])
        with pytest.raises(PatternError) as raised:
            decontextualize(graph, PATTERN_REGISTRY)
        for axioms in _TBOXES:
            (violation,) = validate(graph, axioms, PATTERN_REGISTRY)
            assert (violation.kind, violation.subjects) == (VIOLATION_UNREADABLE_PART, (a,))
            assert violation.detail == str(raised.value) == f"partOf cycle at {a.n3()}"

    def _disjoint_reports(self, axioms) -> list[str]:
        """The rendered DisjointClasses violations of the clean graph once
        `EX.t1`, a temporal interval, is asserted a Context and a
        ContextualPart, and `EX.t2`, another, is typed a temporal part."""
        graph, config = self._clean_graph()
        seeded = graph.union([
            Triple(EX.t1, RDF_TYPE, CORE.Context),
            Triple(EX.t1, RDF_TYPE, CORE.ContextualPart),
            Triple(EX.t2, RDF_TYPE, TEMPORAL.part_class),
        ])
        violations = validate(seeded, axioms, config.registry)
        return [v.render() for v in violations if v.kind == VIOLATION_DISJOINT]

    @staticmethod
    def _typed_both(resource, a, b) -> str:
        return "\n".join([
            f"{VIOLATION_DISJOINT}: {resource.n3()}: typed both {a.n3()} and {b.n3()}, which are disjoint",
            f"    {Triple(resource, RDF_TYPE, a).n3()}",
            f"    {Triple(resource, RDF_TYPE, b).n3()}",
        ])

    def test_context_and_part_are_disjoint_without_axioms(self):
        # With no schema, only the asserted core types meet.
        assert self._disjoint_reports([]) == [self._typed_both(EX.t1, CORE.Context, CORE.ContextualPart)]

    def test_a_reversed_disjointness_axiom_is_reported_beside_the_core_one(self):
        assert self._disjoint_reports([disjoint_classes(CORE.ContextualPart, CORE.Context)]) == [
            self._typed_both(EX.t1, CORE.Context, CORE.ContextualPart),
            self._typed_both(EX.t1, CORE.ContextualPart, CORE.Context),
        ]

    def test_the_core_tbox_reports_each_subject_once(self):
        _, config = self._clean_graph()
        assert self._disjoint_reports(config.axioms()) == [
            self._typed_both(resource, CORE.Context, CORE.ContextualPart) for resource in (EX.t1, EX.t2)
        ]


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

    def test_saturate_does_not_sort_its_input(self):
        # `reason` saturates the graph it has just parsed: the rules need
        # its triples as a set, never in order.
        g = Graph([
            Triple(EX.a, TEMPORAL.part_of, EX.b),
            Triple(EX.a, TEMPORAL.part_of, EX.c),
            Triple(EX.b, TEMPORAL.part_of, EX.d),
            Triple(EX.a, RDF_TYPE, CORE.Context),
        ])
        axioms = _temporal_tbox() + [transitivity_axiom(), functional(TEMPORAL.part_of),
                                     disjoint_classes(CORE.Context, CORE.ContextualPart)]
        result = saturate(g, axioms)
        assert len(result.derived) > 0 and len(result.violations) == 2
        assert g._sorted is None


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
    assert sum(result.rounds) == len(graph) + len(result.derived)
    return result


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
    # rdf:type may head a join rule too, in either slot of AllValuesFrom.
    st.builds(transitive, _any_property),
    st.builds(functional, _any_property),
    st.builds(inverse_functional, _properties),
    st.builds(all_values_from_domain, _any_property, _any_property, _classes),
    st.builds(all_values_from_range, _any_property, _any_property, _classes),
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


@settings(max_examples=200, deadline=None)
@given(_tbox_and_abox(), st.booleans())
def test_types_hold_the_type_triples_of_the_closure(case, disjoint):
    # `_types` is a second record of the closure's type triples, which
    # `validate` reads for its parts and contexts: the two must agree,
    # whether or not a disjointness rule reads it.
    graph, axioms = case
    axioms = [ax for ax in axioms if ax.kind != DISJOINT_CLASSES]
    if disjoint:
        axioms.append(disjoint_classes(_CLASSES[0], _CLASSES[1]))
    result = saturate(graph, axioms)
    expected: dict = {}
    for s, p, o in result.all:
        if p == RDF_TYPE:
            expected.setdefault(o, set()).add(s)
    assert dict(result._types) == expected


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


# The size of each round's delta on the five seeded graphs of each model: a
# rewrite of the round loop must keep the rounds as well as the products.
@pytest.mark.parametrize(
    "model, rounds",
    [
        (B, [(108,), (97,), (121,), (114,), (71,)]),
        (CombinationModel.contexts_in_context(["temporal", "provenance", "trust"]),
         [(108,), (118, 12, 5), (121,), (114,), (77, 5)]),
        (CombinationModel.contexts_in_context(["trust", "provenance", "temporal"]),
         [(108,), (117, 10, 5), (121,), (114,), (77, 3)]),
        (CombinationModel.combined_extent(), [(108,), (126,), (121,), (114,), (89,)]),
    ],
    ids=["multi", "nested", "nested-reversed", "combined"],
)
def test_saturate_agrees_with_the_reference_on_contextual_graphs(model, rounds):
    registry = corpus_registry()
    config = Config(registry=registry, model=model, policy=MintingPolicy(), vocab=CORE)
    measured = []
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
        result = _assert_matches_reference(seeded, config.axioms() + [functional(TEMPORAL.part_of)])
        measured.append(result.rounds)
    assert measured == rounds


_pattern_classes = st.sampled_from(_PATTERN_CLASSES)
_pattern_properties = st.sampled_from(_PATTERN_PREDICATES)
_pattern_axioms = st.one_of(
    st.builds(sub_property_of, _pattern_properties, st.sampled_from(_PATTERN_PREDICATES + [RDF_TYPE])),
    st.builds(transitive, _pattern_properties),
    st.builds(property_domain, _pattern_properties, _pattern_classes),
    st.builds(property_range, _pattern_properties, _pattern_classes),
    st.builds(functional, _pattern_properties),
    st.builds(inverse_functional, _pattern_properties),
    st.builds(all_values_from_domain, _pattern_properties, _pattern_properties, _pattern_classes),
    st.builds(all_values_from_range, _pattern_properties, _pattern_properties, _pattern_classes),
    st.builds(disjoint_classes, _pattern_classes, _pattern_classes),
)


@settings(max_examples=200, deadline=None)
@given(pattern_graphs(), st.integers(0, 2), st.lists(_pattern_axioms, max_size=6))
def test_saturate_builds_its_graphs_of_triples(graph, model, axioms):
    # The rules' products are plain tuples until a graph is read.
    result = saturate(graph, _TBOXES[model] + axioms)
    assert all(type(t) is Triple for t in chain(result.derived, result.all))
    assert set(result.all) == set(result.source) | set(result.derived)
    assert not set(result.derived) & set(result.source)
    assert sum(result.rounds) == len(result.source) + len(result.derived)
    assert serialize(result.all, "ntriples") == serialize(result.source.union(result.derived), "ntriples")


def _reference_validate(graph, axioms, registry, vocab=CORE, *, same_extent=True):
    """The pattern checks `validate` replaced: a scan of each partOf
    property's edges for the parts that have one, another per property for
    the range-complement and functional checks, the typed parts less those
    as the parts missing one, and the same-extent rule over the sorted
    graph, each part's extents read through a per-call cache."""
    pattern = registry.pattern_vocabulary(vocab)
    # Context and ContextualPart are disjoint even when the caller passed no
    # axioms: the check defines pattern conformance. A list that has the
    # axiom goes to saturate as it is, so equal lists share one rule index.
    disjoint = disjoint_classes(vocab.Context, vocab.ContextualPart)
    result = saturate(graph, axioms if disjoint in axioms else [*axioms, disjoint], vocab)
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
    # One scan of the derived triples: an index of them would serve only this.
    for t in chain(graph.match(None, RDF_TYPE), [d for d in derived._triples if d[1] is RDF_TYPE]):
        if t.object in pattern.part_classes:
            typed_parts.add(t.subject)
        if t.object in pattern.context_classes:
            contexts.add(t.subject)

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


_REGISTRY = PATTERN_REGISTRY
# The TBox of each model over the default registry, and none.
_TBOXES = [
    Config(registry=_REGISTRY, model=model, policy=MintingPolicy(), vocab=CORE).axioms()
    for model in (B, CombinationModel.contexts_in_context(["temporal", "provenance"]),
                  CombinationModel.combined_extent())
] + [[]]


@settings(max_examples=150, deadline=None)
@given(pattern_graphs())
def test_validate_agrees_with_the_reference(graph):
    # The reference predates the walks' faults, which it does not report.
    for axioms in _TBOXES:
        for same_extent in (True, False):
            violations = validate(graph, axioms, _REGISTRY, same_extent=same_extent)
            assert [v.render() for v in violations if v.kind != VIOLATION_UNREADABLE_PART] == [
                v.render() for v in _reference_validate(graph, axioms, _REGISTRY, same_extent=same_extent)
            ]


# The faults of a level that `validate` reports on every part under its own
# kind, by the text `decontextualize` raises for them.
_COVERED_FAULTS = [
    (re.compile(r"part (\S+) has no partOf edge"), VIOLATION_MISSING_PART_OF),
    (re.compile(r"part (\S+) has \d+ values for \S+; contextualPartOf is functional"), VIOLATION_FUNCTIONAL),
]


@settings(max_examples=300, deadline=None)
@given(pattern_graphs())
def test_validate_reports_the_fault_decontextualize_raises(graph):
    try:
        decontextualize(graph, _REGISTRY)
        raised = None
    except PatternError as error:
        raised = str(error)
    if raised is not None and raised.startswith("cannot recover a statement"):
        raised = None
    pattern_kinds = {VIOLATION_UNREADABLE_PART, VIOLATION_MISSING_PART_OF, VIOLATION_FUNCTIONAL}
    for axioms in _TBOXES:
        violations = validate(graph, axioms, _REGISTRY)
        # A report with no pattern fault means the graph reads back.
        assert raised is None or any(v.kind in pattern_kinds for v in violations)
        if raised is None:
            continue
        for pattern, kind in _COVERED_FAULTS:
            if named := pattern.fullmatch(raised):
                assert any(v.kind == kind and v.subjects[0].n3() == named[1] for v in violations), raised
                break
        else:
            assert any(v.kind == VIOLATION_UNREADABLE_PART and v.detail == raised for v in violations), raised
