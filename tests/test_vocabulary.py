"""Vocabulary constants, dimension factories, and axiom module generators."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfluents import (
    Axiom,
    CORE,
    CoreVocabulary,
    DimensionRegistry,
    Iri,
    axioms_from_graph,
    axioms_to_graph,
    combine_dimensions,
    conventional_dimension,
    core_axioms,
    datatype_axioms,
    default_registry,
    dimension_module,
    dimension_restriction_axioms,
    provenance_dimension,
    related_contextual_property,
    temporal_dimension,
)
from ndfluents.parser import parse_turtle
from ndfluents.vocabulary import (
    CLASS,
    DATA_PROPERTY,
    OBJECT_PROPERTY,
    all_values_from_domain,
    all_values_from_range,
    combined_dimension_module,
    declaration,
    disjoint_classes,
    functional,
    functional_extent_axiom,
    inverse_functional,
    member_context_axioms,
    property_domain,
    property_range,
    range_complement_of,
    sub_class_of,
    sub_property_of,
    transitive,
    transitivity_axiom,
)

FLUENTS = "http://purl.org/NET/ndfluents/4dFluents#"


class TestDimensions:
    def test_temporal_dimension_exact_iris(self):
        dim = temporal_dimension()
        assert dim.name == "temporal"
        assert dim.part_class == Iri(f"{FLUENTS}TemporalPart")
        assert dim.context_class == Iri(f"{FLUENTS}Interval")
        assert dim.part_of == Iri(f"{FLUENTS}temporalPartOf")
        assert dim.extent == Iri(f"{FLUENTS}temporalExtent")
        assert dim.contextual_property == Iri(f"{FLUENTS}fluentProperty")
        assert dim.contextual_data_property == Iri(f"{FLUENTS}fluentDataTypeProperty")

    def test_provenance_dimension_follows_naming_convention(self):
        dim = provenance_dimension()
        base = "http://purl.org/NET/ndfluents/provenance#"
        assert dim.part_class == Iri(f"{base}ProvenancePart")
        assert dim.context_class == Iri(f"{base}Provenance")
        assert dim.part_of == Iri(f"{base}provenancePartOf")
        assert dim.extent == Iri(f"{base}provenanceExtent")

    def test_conventional_dimension_accepts_custom_base(self):
        dim = conventional_dimension("trust", "http://example.org/trust#")
        assert dim.part_class == Iri("http://example.org/trust#TrustPart")

    @pytest.mark.parametrize("bad", ["", "Temporal", "has space", "9lives"])
    def test_bad_dimension_names_rejected(self, bad):
        with pytest.raises(ValueError):
            conventional_dimension(bad)

    def test_all_seven_identifiers_must_be_distinct(self):
        dim = temporal_dimension()
        with pytest.raises(ValueError):
            type(dim)(
                name="temporal",
                part_class=dim.part_class,
                context_class=dim.part_class,  # duplicate
                part_of=dim.part_of,
                extent=dim.extent,
                contextual_property=dim.contextual_property,
                contextual_data_property=dim.contextual_data_property,
            )

    def test_combining_dimensions_is_order_independent(self):
        t, p = temporal_dimension(), provenance_dimension()
        assert combine_dimensions([t, p]) == combine_dimensions([p, t])
        combined = combine_dimensions([t, p])
        assert combined.part_class.local_name() == "Provenance_TemporalPart"

    def test_combining_needs_two_distinct_dimensions(self):
        with pytest.raises(ValueError):
            combine_dimensions([temporal_dimension()])
        with pytest.raises(ValueError):
            combine_dimensions([temporal_dimension(), temporal_dimension()])


class TestRegistry:
    def test_names_sorted_and_lookup(self):
        reg = default_registry()
        assert reg.names() == ["provenance", "temporal"]
        assert reg.get("temporal") == temporal_dimension()

    def test_unknown_dimension_raises_key_error(self):
        with pytest.raises(KeyError):
            default_registry().get("nope")

    def test_conflicting_registration_rejected(self):
        reg = default_registry()
        with pytest.raises(ValueError):
            reg.add(conventional_dimension("temporal"))

    def test_dimensions_sharing_an_iri_rejected(self):
        # A provenance part with the temporal extent would read back as a
        # temporal part.
        reg = default_registry()
        clash = replace(provenance_dimension(), name="trust", extent=temporal_dimension().extent)
        with pytest.raises(ValueError, match=(
            "^dimensions 'temporal' and 'trust' share the IRI "
            "<http://purl.org/NET/ndfluents/4dFluents#temporalExtent>$"
        )):
            reg.add(clash)
        assert reg == default_registry()
        with pytest.raises(ValueError, match="^dimensions 'provenance' and 'trust' share the IRI "):
            trust = replace(conventional_dimension("trust"), part_of=provenance_dimension().part_of)
            DimensionRegistry([provenance_dimension(), trust])

    def test_combined_lookup(self):
        reg = default_registry()
        combined = reg.combined(["temporal", "provenance"])
        assert combined == combine_dimensions(
            [temporal_dimension(), provenance_dimension()]
        )

    def test_each_combined_dimension_is_minted_once(self):
        reg = default_registry()
        combined = reg.combined(("provenance", "temporal"))
        assert reg.combined(["temporal", "provenance"]) is combined
        assert combined == combine_dimensions([temporal_dimension(), provenance_dimension()])
        with pytest.raises(ValueError):
            reg.combined(["temporal", "temporal"])
        with pytest.raises(KeyError):
            reg.combined(["temporal", "spatial"])


class TestCoreModule:
    def test_thirteen_axioms(self):
        assert len(core_axioms()) == 13

    def test_key_memberships(self):
        axioms = core_axioms()
        v = CORE
        assert disjoint_classes(v.Context, v.ContextualPart) in axioms
        assert functional(v.contextualPartOf) in axioms
        assert range_complement_of(v.contextualPartOf, v.Context) in axioms
        assert property_domain(v.contextualProperty, v.ContextualPart) in axioms
        assert property_range(v.contextualProperty, v.ContextualPart) in axioms
        assert property_range(v.contextualExtent, v.Context) in axioms

    def test_extent_is_not_functional_in_core(self):
        # A part may carry one extent per dimension, so the core module must
        # not constrain contextualExtent to a single value.
        assert functional(CORE.contextualExtent) not in core_axioms()

    def test_custom_namespace_is_respected(self):
        vocab = CoreVocabulary("http://example.org/ctx#")
        axioms = core_axioms(vocab)
        assert disjoint_classes(vocab.Context, vocab.ContextualPart) in axioms
        assert vocab.Context == Iri("http://example.org/ctx#Context")


class TestOptionalModules:
    def test_datatype_module(self):
        axioms = datatype_axioms()
        assert len(axioms) == 2
        assert property_domain(CORE.contextualDatatypeProperty, CORE.ContextualPart) in axioms

    def test_member_context_module(self):
        axioms = member_context_axioms()
        assert len(axioms) == 3
        assert property_domain(CORE.memberContext, CORE.Context) in axioms
        assert property_range(CORE.memberContext, CORE.Context) in axioms

    def test_transitivity_and_functional_extent(self):
        assert transitivity_axiom() == transitive(CORE.contextualPartOf)
        assert functional_extent_axiom() == functional(CORE.contextualExtent)


class TestDimensionModules:
    def test_eleven_axioms_tying_into_core(self):
        dim = temporal_dimension()
        axioms = dimension_module(dim)
        assert len(axioms) == 11
        assert sub_class_of(dim.part_class, CORE.ContextualPart) in axioms
        assert sub_class_of(dim.context_class, CORE.Context) in axioms
        assert sub_property_of(dim.part_of, CORE.contextualPartOf) in axioms
        assert sub_property_of(dim.extent, CORE.contextualExtent) in axioms
        assert property_range(dim.extent, dim.context_class) in axioms

    def test_restriction_module(self):
        dim = temporal_dimension()
        axioms = dimension_restriction_axioms(dim)
        assert len(axioms) == 7
        assert sub_property_of(dim.contextual_property, CORE.contextualProperty) in axioms
        assert property_domain(dim.contextual_property, dim.part_class) in axioms
        assert property_range(dim.contextual_property, dim.part_class) in axioms
        assert property_domain(dim.contextual_data_property, dim.part_class) in axioms

    def test_combined_module_subsumes_members(self):
        t, p = temporal_dimension(), provenance_dimension()
        combined = combine_dimensions([t, p])
        axioms = combined_dimension_module([t, p], combined)
        for dim in (t, p):
            assert sub_class_of(combined.part_class, dim.part_class) in axioms
            assert sub_class_of(combined.context_class, dim.context_class) in axioms
            assert sub_property_of(combined.extent, dim.extent) in axioms
            assert sub_property_of(combined.part_of, dim.part_of) in axioms


class TestRelatedContextualProperty:
    def test_domain_and_range_go_through_part_of(self):
        original = Iri("http://example.org/capitalOf")
        contextual = Iri("http://example.org/capitalOf_ctx")
        city = Iri("http://example.org/City")
        country = Iri("http://example.org/Country")
        axioms = related_contextual_property(original, contextual, city, country)
        assert sub_property_of(contextual, CORE.contextualProperty) in axioms
        assert all_values_from_domain(contextual, CORE.contextualPartOf, city) in axioms
        assert all_values_from_range(contextual, CORE.contextualPartOf, country) in axioms
        # Crucially: no direct Domain/Range on the contextual property, which
        # would type the parts instead of the base entities.
        assert property_domain(contextual, city) not in axioms
        assert property_range(contextual, country) not in axioms

    def test_identity_rewrite_is_rejected(self):
        p = Iri("http://example.org/p")
        with pytest.raises(ValueError):
            related_contextual_property(p, p)


class TestAxiomGraphRoundTrip:
    def _round_trip(self, axioms: list[Axiom]) -> None:
        assert sorted(axioms_from_graph(axioms_to_graph(axioms)), key=repr) == sorted(
            set(axioms), key=repr
        )

    def test_core_module_round_trips(self):
        self._round_trip(core_axioms())

    def test_every_module_round_trips(self):
        dim = temporal_dimension()
        prov = provenance_dimension()
        combined = combine_dimensions([dim, prov])
        modules = [
            datatype_axioms(),
            member_context_axioms(),
            dimension_module(dim),
            dimension_restriction_axioms(dim),
            [transitivity_axiom(), functional_extent_axiom()],
            combined_dimension_module([dim, prov], combined),
            related_contextual_property(
                Iri("http://example.org/p"),
                Iri("http://example.org/p_ctx"),
                Iri("http://example.org/C"),
                Iri("http://example.org/D"),
            ),
        ]
        for module in modules:
            self._round_trip(module)

    def test_inverse_functional_round_trips(self):
        self._round_trip([inverse_functional(Iri("http://example.org/p"))])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_random_axiom_lists_round_trip(self, data):
        # Both subproperty roles and at least two blank-node structures in
        # every list, among axioms of all twelve kinds.
        axioms = data.draw(st.lists(_ANY_AXIOM, max_size=16))
        axioms += [data.draw(_DATA_SUB_PROPERTY), data.draw(_OBJECT_SUB_PROPERTY)]
        axioms += data.draw(st.lists(_STRUCTURE, min_size=2, max_size=4))
        # A data subproperty reads back as one only when its subject is
        # declared a datatype property.
        axioms += [
            declaration(ax.terms[0], DATA_PROPERTY) for ax in axioms if ax.role == DATA_PROPERTY
        ]
        # A repeated structure renders as two blank nodes and reads back twice.
        axioms = data.draw(st.permutations(list(dict.fromkeys(axioms))))
        self._round_trip(axioms)


# Data properties are drawn from their own pool, so that no object
# subproperty's subject is declared a datatype property.
_CLASSES = st.sampled_from([Iri(f"http://example.org/C{i}") for i in range(3)])
_OBJECT_PROPERTIES = st.sampled_from([Iri(f"http://example.org/p{i}") for i in range(3)])
_DATA_PROPERTIES = st.sampled_from([Iri(f"http://example.org/d{i}") for i in range(2)])
_ANY_TERM = st.one_of(_CLASSES, _OBJECT_PROPERTIES, _DATA_PROPERTIES)
_DATA_SUB_PROPERTY = st.builds(sub_property_of, _DATA_PROPERTIES, _ANY_TERM, st.just(DATA_PROPERTY))
_OBJECT_SUB_PROPERTY = st.builds(sub_property_of, _OBJECT_PROPERTIES, _ANY_TERM, st.just(OBJECT_PROPERTY))
_STRUCTURE = st.one_of(
    st.builds(range_complement_of, _OBJECT_PROPERTIES, _CLASSES),
    st.builds(all_values_from_domain, _OBJECT_PROPERTIES, _OBJECT_PROPERTIES, _CLASSES),
    st.builds(all_values_from_range, _OBJECT_PROPERTIES, _OBJECT_PROPERTIES, _CLASSES),
)
_ANY_AXIOM = st.one_of(
    _STRUCTURE,
    _DATA_SUB_PROPERTY,
    _OBJECT_SUB_PROPERTY,
    st.builds(sub_class_of, _ANY_TERM, _ANY_TERM),
    st.builds(property_domain, _OBJECT_PROPERTIES, _CLASSES),
    st.builds(property_range, _OBJECT_PROPERTIES, _CLASSES),
    st.builds(functional, _ANY_TERM),
    st.builds(inverse_functional, _ANY_TERM),
    st.builds(transitive, _ANY_TERM),
    st.builds(disjoint_classes, _CLASSES, _CLASSES),
    st.builds(declaration, st.one_of(_CLASSES, _OBJECT_PROPERTIES), st.sampled_from([CLASS, OBJECT_PROPERTY])),
    st.builds(declaration, _DATA_PROPERTIES, st.just(DATA_PROPERTY)),
)

_PREFIXES = """\
@prefix ex: <http://example.org/> .
@prefix owl: <http://www.w3.org/2002/07/owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
"""


class TestAxiomsFromGraph:
    """The blank-node structures `axioms_from_graph` reads, and the ones it
    ignores."""

    def _read(self, *lines: str) -> list[Axiom]:
        return axioms_from_graph(parse_turtle(_PREFIXES + "\n".join(lines)))

    def test_a_restriction_without_all_values_from_is_ignored(self):
        assert self._read("ex:p rdfs:domain _:r .", "_:r a owl:Restriction ; owl:onProperty ex:q .") == []

    def test_a_complement_under_domain_is_ignored(self):
        assert self._read("ex:p rdfs:domain _:c .", "_:c a owl:Class ; owl:complementOf ex:C .") == []

    def test_a_structure_without_a_type_is_read(self):
        assert self._read(
            "ex:p rdfs:range _:c .",
            "_:c owl:complementOf ex:C .",
            "ex:q rdfs:domain _:r .",
            "_:r owl:onProperty ex:v ; owl:allValuesFrom ex:D .",
        ) == [
            range_complement_of(Iri("http://example.org/p"), Iri("http://example.org/C")),
            all_values_from_domain(
                Iri("http://example.org/q"), Iri("http://example.org/v"), Iri("http://example.org/D")
            ),
        ]

    def test_a_literal_on_property_is_ignored(self):
        assert self._read("ex:p rdfs:domain _:r .", '_:r owl:onProperty "q" ; owl:allValuesFrom ex:C .') == []

    def test_a_range_complement_wins_over_a_restriction_on_the_same_node(self):
        assert self._read(
            "ex:p rdfs:range _:n .",
            "_:n owl:complementOf ex:C ; owl:onProperty ex:v ; owl:allValuesFrom ex:D .",
        ) == [range_complement_of(Iri("http://example.org/p"), Iri("http://example.org/C"))]
