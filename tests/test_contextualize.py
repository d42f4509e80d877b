"""Rewriting annotated statements into contextual parts and back."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfluents import (
    AnnotatedStatement,
    BlankNode,
    CombinationModel,
    ContextAssignment,
    DimensionRegistry,
    Graph,
    Iri,
    Literal,
    MintingPolicy,
    PatternError,
    RDF,
    RDF_TYPE,
    Triple,
    XSD,
    annotate,
    contextualize,
    decontextualize,
    encode_reification,
    encode_singleton,
    parse_turtle,
    provenance_dimension,
    read_statements_csv,
    related_property_iri,
    saturate,
    serialize,
    size_report,
    temporal_dimension,
    write_statements_csv,
)
from ndfluents.contextualize import PREDICATE_MODES, SINGLETON_PROPERTY_OF, related_property_base
from ndfluents.vocabulary import (
    CORE,
    SUB_PROPERTY_OF,
    Axiom,
    core_axioms,
    dimension_module,
    functional,
    inverse_functional,
    transitive,
)

from conftest import EX, corpus_registry, listed_context_graph, random_corpus

TEMPORAL = temporal_dimension()
PROVENANCE = provenance_dimension()


class TestAnnotatedStatement:
    def test_needs_at_least_one_context(self):
        with pytest.raises(ValueError):
            AnnotatedStatement(Triple(EX.a, EX.p, EX.b), frozenset())

    def test_one_context_per_dimension(self):
        with pytest.raises(ValueError):
            annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1), ("temporal", EX.t2))

    def test_blank_nodes_rejected_in_base(self):
        from ndfluents import BlankNode

        with pytest.raises(ValueError):
            AnnotatedStatement(
                Triple(BlankNode("b0"), EX.p, EX.b),
                frozenset({ContextAssignment("temporal", EX.t1)}),
            )

    def test_assignment_pairs_sorted_by_dimension(self):
        s = annotate(EX.a, EX.p, EX.b, ("temporal", EX.t), ("provenance", EX.src))
        assert s.assignment_pairs() == (("provenance", EX.src), ("temporal", EX.t))

    def test_description_graph_does_not_affect_identity(self):
        desc = Graph([Triple(EX.t1, RDF_TYPE, TEMPORAL.context_class)])
        with_desc = ContextAssignment("temporal", EX.t1, desc)
        bare = ContextAssignment("temporal", EX.t1)
        assert with_desc == bare


class TestMinting:
    def test_suffix_mode_appends_sorted_context_local_names(self):
        policy = MintingPolicy()
        part = policy.mint_part(EX.Paris, (("temporal", EX.year508),))
        assert part == EX["Paris@year508"]
        both = policy.mint_part(
            EX.Paris, (("temporal", EX.year508), ("provenance", EX.dbpedia))
        )
        assert both == EX["Paris@dbpedia_year508"]

    def test_hash_mode_distinguishes_equal_local_names(self):
        policy = MintingPolicy(mode="hash")
        a = policy.mint_part(EX.x, (("temporal", Iri("http://a.org/ctx")),))
        b = policy.mint_part(EX.x, (("temporal", Iri("http://b.org/ctx")),))
        assert a != b

    def test_minting_is_deterministic(self):
        for mode in ("suffix", "hash"):
            policy = MintingPolicy(mode=mode)
            pairs = (("temporal", EX.t1), ("provenance", EX.s1))
            assert policy.mint_part(EX.e, pairs) == policy.mint_part(EX.e, tuple(reversed(pairs)))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            MintingPolicy(mode="typo")


class TestSingleDimension:
    def test_object_statement_produces_eight_triples(self, temporal_registry, paris_statement):
        g = contextualize([paris_statement], temporal_registry, CombinationModel.multi_context())
        assert len(g) == 8

    def test_object_statement_shape(self, temporal_registry, paris_statement):
        g = contextualize([paris_statement], temporal_registry, CombinationModel.multi_context())
        ps, fs = EX["Paris@year508"], EX["France@year508"]
        expected = Graph(
            [
                Triple(ps, RDF_TYPE, TEMPORAL.part_class),
                Triple(ps, TEMPORAL.part_of, EX.Paris),
                Triple(ps, TEMPORAL.extent, EX.year508),
                Triple(fs, RDF_TYPE, TEMPORAL.part_class),
                Triple(fs, TEMPORAL.part_of, EX.France),
                Triple(fs, TEMPORAL.extent, EX.year508),
                Triple(ps, EX.capitalOf, fs),
                Triple(EX.year508, RDF_TYPE, TEMPORAL.context_class),
            ]
        )
        assert g == expected

    def test_datatype_statement_produces_five_triples(self, temporal_registry):
        stmt = annotate(
            EX.Earth,
            EX.population,
            Literal("7000000000", datatype=XSD.integer),
            ("temporal", EX.y2011),
        )
        g = contextualize([stmt], temporal_registry, CombinationModel.multi_context())
        assert len(g) == 5
        part = EX["Earth@y2011"]
        assert Triple(part, EX.population, Literal("7000000000", datatype=XSD.integer)) in g
        # No part is minted for a literal object.
        assert not list(g.match(predicate=TEMPORAL.part_of, obj=EX.population))


class TestPartSharing:
    def test_same_entity_same_context_shares_one_part(self, temporal_registry):
        statements = [
            annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
            annotate(EX.Paris, EX.locatedIn, EX.Europe, ("temporal", EX.t1)),
        ]
        g = contextualize(statements, temporal_registry, CombinationModel.multi_context())
        # 8 for the first + 1 data triple + 3 scaffolding for Europe@t1.
        assert len(g) == 12
        assert len(list(g.match(subject=EX["Paris@t1"], predicate=TEMPORAL.part_of))) == 1

    def test_different_contexts_mint_different_parts(self, temporal_registry):
        statements = [
            annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
            annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t2)),
        ]
        g = contextualize(statements, temporal_registry, CombinationModel.multi_context())
        assert len(g) == 16
        parts = {t.subject for t in g.match(predicate=TEMPORAL.part_of, obj=EX.Paris)}
        assert parts == {EX["Paris@t1"], EX["Paris@t2"]}


class TestCombinationModels:
    def _statement(self):
        return annotate(
            EX.Paris,
            EX.capitalOf,
            EX.France,
            ("temporal", EX.t1),
            ("provenance", EX.src1),
        )

    def test_multi_context_two_dimensions(self, two_dim_registry):
        g = contextualize([self._statement()], two_dim_registry, CombinationModel.multi_context())
        assert len(g) == 15  # 1 + 7 * 2
        part = EX["Paris@src1_t1"]
        assert Triple(part, TEMPORAL.part_of, EX.Paris) in g
        assert Triple(part, PROVENANCE.part_of, EX.Paris) in g
        assert Triple(part, TEMPORAL.extent, EX.t1) in g
        assert Triple(part, PROVENANCE.extent, EX.src1) in g
        assert Triple(part, RDF_TYPE, TEMPORAL.part_class) in g
        assert Triple(part, RDF_TYPE, PROVENANCE.part_class) in g

    def test_nested_two_dimensions(self, two_dim_registry):
        model = CombinationModel.contexts_in_context(["temporal", "provenance"])
        g = contextualize([self._statement()], two_dim_registry, model)
        assert len(g) == 15  # 1 + 7 * 2
        level1 = EX["Paris@t1"]
        level2 = EX["Paris@src1_t1"]
        assert Triple(level1, TEMPORAL.part_of, EX.Paris) in g
        assert Triple(level2, PROVENANCE.part_of, level1) in g
        # The data triple hangs off the innermost parts.
        assert Triple(level2, EX.capitalOf, EX["France@src1_t1"]) in g

    def test_nested_respects_the_given_order(self, two_dim_registry):
        model = CombinationModel.contexts_in_context(["provenance", "temporal"])
        g = contextualize([self._statement()], two_dim_registry, model)
        assert Triple(EX["Paris@src1"], PROVENANCE.part_of, EX.Paris) in g
        assert Triple(EX["Paris@src1_t1"], TEMPORAL.part_of, EX["Paris@src1"]) in g

    def test_nested_requires_order_covering_all_dimensions(self, two_dim_registry):
        model = CombinationModel.contexts_in_context(["temporal"])
        with pytest.raises(ValueError):
            contextualize([self._statement()], two_dim_registry, model)

    def test_nesting_order_validation(self):
        with pytest.raises(ValueError):
            CombinationModel.contexts_in_context([])
        with pytest.raises(ValueError):
            CombinationModel.contexts_in_context(["temporal", "temporal"])
        with pytest.raises(ValueError):
            CombinationModel("multi-context", ("temporal",))

    def test_combined_extent_two_dimensions(self, two_dim_registry):
        g = contextualize(
            [self._statement()], two_dim_registry, CombinationModel.combined_extent()
        )
        assert len(g) == 12  # 8 core + 2 membership + 2 member typing
        combined = two_dim_registry.combined(["provenance", "temporal"])
        part = EX["Paris@src1_t1"]
        (extent_edge,) = g.match(subject=part, predicate=combined.extent)
        cc = extent_edge.object
        assert Triple(cc, RDF_TYPE, combined.context_class) in g
        assert Triple(cc, CORE.memberContext, EX.t1) in g
        assert Triple(cc, CORE.memberContext, EX.src1) in g
        assert Triple(EX.t1, RDF_TYPE, TEMPORAL.context_class) in g
        assert Triple(EX.src1, RDF_TYPE, PROVENANCE.context_class) in g
        assert Triple(part, RDF_TYPE, combined.part_class) in g

    def test_combined_extent_single_dimension_degrades_to_multi_context(
        self, two_dim_registry, paris_statement
    ):
        a = contextualize([paris_statement], two_dim_registry, CombinationModel.combined_extent())
        b = contextualize([paris_statement], two_dim_registry, CombinationModel.multi_context())
        assert a == b

    @pytest.mark.parametrize("obj", [EX.France, Literal("2")], ids=["iri-object", "literal-object"])
    @pytest.mark.parametrize("kind", ["contexts-in-context", "multi-context", "combined-extent"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_statement_costs_what_the_readme_table_says(self, full_registry, n, kind, obj):
        dims = ["temporal", "provenance", "trust"][:n]
        model = CombinationModel(kind, tuple(dims) if kind == "contexts-in-context" else None)
        statement = annotate(EX.Paris, EX.p, obj, *((d, EX[f"in_{d}"]) for d in dims))
        iri = isinstance(obj, Iri)  # an IRI object gets a part of its own
        if kind == "combined-extent" and n >= 2:
            expected = (8 if iri else 5) + 2 * n
        else:  # combined-extent in one dimension is multi-context
            expected = 1 + (7 if iri else 4) * n
        assert len(contextualize([statement], full_registry, model)) == expected

    def test_unregistered_dimension_rejected(self, temporal_registry):
        stmt = annotate(EX.a, EX.p, EX.b, ("trust", EX.t))
        with pytest.raises(KeyError):
            contextualize([stmt], temporal_registry, CombinationModel.multi_context())


class TestPredicateModes:
    def test_keep_rejects_scaffolding_predicates(self, temporal_registry):
        stmt = annotate(EX.a, TEMPORAL.part_of, EX.b, ("temporal", EX.t1))
        with pytest.raises(ValueError):
            contextualize([stmt], temporal_registry, CombinationModel.multi_context())

    @pytest.mark.parametrize("role", ["part_of", "extent"])
    def test_keep_rejects_combined_scaffolding_predicates(self, two_dim_registry, role):
        # decontextualize reads these as scaffolding, so the statement would
        # vanish on the way back.
        predicate = getattr(two_dim_registry.combined(["provenance", "temporal"]), role)
        stmt = annotate(EX.a, predicate, EX.b, ("temporal", EX.t1))
        with pytest.raises(ValueError, match="collides with scaffolding vocabulary"):
            contextualize([stmt], two_dim_registry, CombinationModel.multi_context())

    def test_subproperty_mode_links_predicate_to_dimension_property(
        self, temporal_registry, paris_statement
    ):
        from ndfluents import RDFS

        g = contextualize(
            [paris_statement],
            temporal_registry,
            CombinationModel.multi_context(),
            predicate_mode="subproperty",
        )
        assert Triple(EX.capitalOf, RDFS.subPropertyOf, TEMPORAL.contextual_property) in g
        assert len(g) == 9

    def test_related_mode_rewrites_the_predicate(self, temporal_registry, paris_statement):
        g = contextualize(
            [paris_statement],
            temporal_registry,
            CombinationModel.multi_context(),
            predicate_mode="related",
        )
        rewritten = related_property_iri(EX.capitalOf)
        assert Triple(EX["Paris@year508"], rewritten, EX["France@year508"]) in g
        assert not list(g.match(predicate=EX.capitalOf))

    def test_related_mode_honours_an_explicit_map(self, temporal_registry, paris_statement):
        custom = EX.capitalOfDuring
        g = contextualize(
            [paris_statement],
            temporal_registry,
            CombinationModel.multi_context(),
            predicate_mode="related",
            predicate_map={EX.capitalOf: custom},
        )
        assert list(g.match(predicate=custom))

    def test_related_property_iri_separator_choice(self):
        assert related_property_iri(Iri("http://e.org/v#p")) == Iri("http://e.org/v#p_contextual")
        assert related_property_iri(Iri("http://e.org/p")) == Iri("http://e.org/p#contextual")

    def test_related_mode_rejects_a_scaffolding_map_value(self, temporal_registry, paris_statement):
        # The map's value is the predicate written; decontextualize would skip it
        # as scaffolding and lose the statement.
        with pytest.raises(ValueError, match="collides with scaffolding vocabulary"):
            contextualize(
                [paris_statement],
                temporal_registry,
                CombinationModel.multi_context(),
                predicate_mode="related",
                predicate_map={EX.capitalOf: TEMPORAL.part_of},
            )

    @pytest.mark.parametrize(
        "value", ["http://e.org/p", "http://e.org/v#p", "http://e.org/v#", "urn:x", "http://e.org/a_b#c_d"]
    )
    def test_related_property_base_inverts_related_property_iri(self, value):
        assert related_property_base(related_property_iri(Iri(value))) is Iri(value)

    @pytest.mark.parametrize(
        "value", ["http://e.org/p", "http://e.org/p_contextual", "http://e.org/v#p#contextual"]
    )
    def test_related_property_base_of_an_iri_no_predicate_maps_to(self, value):
        assert related_property_base(Iri(value)) is None


class TestDecontextualize:
    @pytest.mark.parametrize(
        "model",
        [
            CombinationModel.multi_context(),
            CombinationModel.contexts_in_context(["provenance", "temporal", "trust"]),
            CombinationModel.combined_extent(),
        ],
        ids=["multi", "nested", "combined"],
    )
    def test_round_trip_small_random_corpora(self, model):
        registry = corpus_registry()
        rng = random.Random(42)
        for serial in range(50):
            statements = random_corpus(rng, serial)
            graph = contextualize(statements, registry, model)
            assert set(decontextualize(graph, registry)) == set(statements)

    def test_selection_keeps_only_intersecting_statements(self, temporal_registry):
        statements = [
            annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1)),
            annotate(EX.c, EX.p, EX.d, ("temporal", EX.t2)),
        ]
        g = contextualize(statements, temporal_registry, CombinationModel.multi_context())
        kept = decontextualize(g, temporal_registry, selection={EX.t1})
        assert kept == [statements[0]]

    def test_related_mode_round_trips_with_a_reverse_map(self, temporal_registry, paris_statement):
        g = contextualize(
            [paris_statement],
            temporal_registry,
            CombinationModel.multi_context(),
            predicate_mode="related",
        )
        recovered = decontextualize(
            g,
            temporal_registry,
            predicate_map={related_property_iri(EX.capitalOf): EX.capitalOf},
        )
        assert recovered == [paris_statement]

    def test_part_without_context_is_an_error(self, temporal_registry):
        g = Graph(
            [
                Triple(EX.p1, RDF_TYPE, TEMPORAL.part_class),
                Triple(EX.p1, TEMPORAL.part_of, EX.Paris),
                Triple(EX.p1, EX.capitalOf, EX.France),
            ]
        )
        with pytest.raises(PatternError):
            decontextualize(g, temporal_registry)

    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "core"])
    def test_a_member_no_dimension_types_cannot_be_attributed(self, two_dim_registry, combined):
        # Of two such members, the first in sorted order is named.
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent if combined else CORE.contextualExtent
        graph = listed_context_graph(extent, EX.cc, [EX.v, EX.t1, EX.u], [(EX.t1, TEMPORAL.context_class)])
        with pytest.raises(PatternError) as raised:
            decontextualize(graph, two_dim_registry)
        assert str(raised.value) == (
            f"cannot attribute context {EX.u.n3()} to a dimension (no recognized context type)"
        )

    def test_a_blank_node_combined_context_is_ignored(self, two_dim_registry):
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent
        graph = listed_context_graph(extent, BlankNode("c"), [EX.t1], [(EX.t1, TEMPORAL.context_class)])
        with pytest.raises(PatternError) as raised:
            decontextualize(graph, two_dim_registry)
        assert str(raised.value) == f"part {EX['Paris@c'].n3()} has no extent"

    def test_a_registered_extent_attributes_its_context_not_the_members(self, two_dim_registry):
        graph = listed_context_graph(TEMPORAL.extent, EX.cc, [EX.t1], [(EX.t1, TEMPORAL.context_class)])
        (statement,) = decontextualize(graph, two_dim_registry)
        assert statement.assignment_pairs() == (("temporal", EX.cc),)

    @pytest.mark.parametrize("combined", [True, False], ids=["combined", "core"])
    def test_a_context_that_lists_itself_is_one_of_its_members(self, two_dim_registry, combined):
        extent = two_dim_registry.combined(["provenance", "temporal"]).extent if combined else CORE.contextualExtent
        graph = listed_context_graph(
            extent,
            EX.cc,
            [EX.cc, EX.t1],
            [(EX.cc, PROVENANCE.context_class), (EX.t1, TEMPORAL.context_class)],
        )
        (statement,) = decontextualize(graph, two_dim_registry)
        assert statement.assignment_pairs() == (("provenance", EX.cc), ("temporal", EX.t1))

    def test_chain_ending_at_blank_node_is_an_error(self, temporal_registry):
        from ndfluents import BlankNode

        g = Graph(
            [
                Triple(EX.p1, RDF_TYPE, TEMPORAL.part_class),
                Triple(EX.p1, TEMPORAL.part_of, BlankNode("b0")),
                Triple(EX.p1, TEMPORAL.extent, EX.t1),
                Triple(EX.p1, EX.capitalOf, EX.France),
            ]
        )
        with pytest.raises(PatternError):
            decontextualize(g, temporal_registry)

    @pytest.mark.parametrize(
        "chain, message",
        [
            (
                [Triple(EX.a, TEMPORAL.part_of, EX.b), Triple(EX.b, TEMPORAL.part_of, EX.a),
                 Triple(EX.b, TEMPORAL.extent, EX.t1)],
                f"partOf cycle at {EX.a.n3()}",
            ),
            ([Triple(EX.a, RDF_TYPE, TEMPORAL.part_class)], f"part {EX.a.n3()} has no partOf edge"),
            (
                [Triple(EX.a, TEMPORAL.part_of, EX.S), Triple(EX.a, TEMPORAL.part_of, EX.T)],
                f"part {EX.a.n3()} has 2 values for {TEMPORAL.part_of.n3()}; contextualPartOf is functional",
            ),
            (
                [Triple(EX.a, TEMPORAL.part_of, EX.S), Triple(EX.a, PROVENANCE.part_of, EX.T)],
                f"part {EX.a.n3()} belongs to more than one entity",
            ),
            (
                [Triple(EX.a, TEMPORAL.part_of, BlankNode("b0"))],
                f"chain from {EX.a.n3()} ends at non-IRI _:b0",
            ),
        ],
        ids=["cycle", "no-part-of", "functional", "two-entities", "blank-whole"],
    )
    def test_a_broken_chain_names_the_part(self, two_dim_registry, chain, message):
        g = Graph([Triple(EX.a, TEMPORAL.extent, EX.t1), Triple(EX.a, EX.p, EX.c), *chain])
        with pytest.raises(PatternError) as raised:
            decontextualize(g, two_dim_registry)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "subject_whole, object_whole, message",
        [
            (EX.S, Literal("x"), f'chain from {EX.c.n3()} ends at non-IRI "x"'),
            (EX.S, BlankNode("b0"), f"chain from {EX.c.n3()} ends at non-IRI _:b0"),
            (BlankNode("b1"), Literal("x"), f"chain from {EX.a.n3()} ends at non-IRI _:b1"),
        ],
        ids=["object-literal", "object-blank", "subject-first"],
    )
    def test_an_object_chain_must_end_at_an_iri(self, temporal_registry, subject_whole, object_whole, message):
        g = Graph(
            [
                Triple(EX.a, TEMPORAL.part_of, subject_whole),
                Triple(EX.a, TEMPORAL.extent, EX.t1),
                Triple(EX.a, EX.knows, EX.c),
                Triple(EX.c, TEMPORAL.part_of, object_whole),
                Triple(EX.c, TEMPORAL.extent, EX.t1),
            ]
        )
        with pytest.raises(PatternError) as raised:
            decontextualize(g, temporal_registry)
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "extra, message",
        [
            (Triple(EX.p1, TEMPORAL.extent, EX.t2), "at most one context per dimension"),
            (Triple(EX.p1, EX.knows, BlankNode("b0")), "blank nodes"),
        ],
        ids=["two-temporal-extents", "blank-object"],
    )
    def test_unrepresentable_statement_is_a_pattern_error(self, temporal_registry, extra, message):
        g = Graph(
            [
                Triple(EX.p1, RDF_TYPE, TEMPORAL.part_class),
                Triple(EX.p1, TEMPORAL.part_of, EX.Paris),
                Triple(EX.p1, TEMPORAL.extent, EX.t1),
                Triple(EX.p1, EX.capitalOf, EX.France),
                extra,
            ]
        )
        with pytest.raises(PatternError, match=message):
            decontextualize(g, temporal_registry)


class TestMintingCollisions:
    # Both temporal contexts have the local name y2016, so suffix minting
    # gives both statements the part ex:Paris@src_y2016.
    COLLIDING = [
        annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", Iri("http://a.org/y2016")), ("provenance", EX.src)),
        annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", Iri("http://b.org/y2016")), ("provenance", EX.src)),
    ]

    @pytest.mark.parametrize(
        "model",
        [
            CombinationModel.multi_context(),
            CombinationModel.contexts_in_context(["temporal", "provenance"]),
            CombinationModel.combined_extent(),
        ],
        ids=["multi", "nested", "combined"],
    )
    def test_suffix_collision_names_both_contexts(self, two_dim_registry, model):
        with pytest.raises(PatternError) as raised:
            contextualize(self.COLLIDING, two_dim_registry, model)
        message = str(raised.value)
        assert "<http://a.org/y2016>" in message and "<http://b.org/y2016>" in message
        assert "mode = hash" in message

    # ex:Paris under temporal ex:y2016 mints ex:Paris@y2016, which the second
    # statement uses as an entity.
    ENTITY_COLLIDING = [
        annotate(EX.Paris, EX.knows, EX.Lyon, ("temporal", EX.y2016)),
        annotate(EX["Paris@y2016"], EX.knows, EX.Lyon, ("provenance", EX.src)),
    ]

    @pytest.mark.parametrize("reverse", [False, True], ids=["part-first", "entity-first"])
    def test_a_part_equal_to_an_entity_names_both(self, two_dim_registry, reverse):
        statements = self.ENTITY_COLLIDING[::-1] if reverse else self.ENTITY_COLLIDING
        with pytest.raises(PatternError) as raised:
            contextualize(statements, two_dim_registry, CombinationModel.multi_context())
        assert str(raised.value) == (
            "minted part <http://example.org/Paris@y2016> for <http://example.org/Paris> "
            "in temporal=<http://example.org/y2016> is also an entity of the input; "
            "rename the entity or set mode = hash under [minting]"
        )

    def test_hash_minting_keeps_a_part_apart_from_an_entity(self, two_dim_registry):
        g = contextualize(
            self.ENTITY_COLLIDING,
            two_dim_registry,
            CombinationModel.multi_context(),
            MintingPolicy(mode="hash"),
        )
        assert set(decontextualize(g, two_dim_registry)) == set(self.ENTITY_COLLIDING)

    def test_hash_minting_keeps_the_parts_apart(self, two_dim_registry):
        g = contextualize(
            self.COLLIDING,
            two_dim_registry,
            CombinationModel.multi_context(),
            MintingPolicy(mode="hash"),
        )
        assert set(decontextualize(g, two_dim_registry)) == set(self.COLLIDING)

    def test_repeated_statement_reuses_its_part(self, temporal_registry, paris_statement):
        g = contextualize([paris_statement] * 2, temporal_registry, CombinationModel.multi_context())
        assert decontextualize(g, temporal_registry) == [paris_statement]


# Contexts whose local names repeat across namespaces, so suffix minting
# can give two different parts one IRI.
_contexts = st.builds(
    lambda namespace, local: Iri(namespace + local),
    st.sampled_from(["http://a.org/", "http://b.org/ns#", "http://c.org/x/"]),
    st.sampled_from(["y2016", "y508", "src"]),
)
# Entities include IRIs that end in the separator and a context's local
# name, so suffix minting can give a part the IRI of an entity.
_entities = st.sampled_from(
    [EX.Paris, EX.France, EX.Lyon, EX["Paris@y2016"], EX["Paris@src"], EX["Lyon@src_y508"]]
)


@st.composite
def _statements(draw):
    assignments = draw(
        st.lists(
            st.tuples(st.sampled_from(["temporal", "provenance"]), _contexts),
            min_size=1,
            max_size=2,
            unique_by=lambda pair: pair[0],
        )
    )
    obj = draw(st.one_of(_entities, st.builds(Literal, st.sampled_from(["1", "2"]))))
    return annotate(draw(_entities), draw(st.sampled_from([EX.knows, EX.capitalOf])), obj, *assignments)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_statements(), min_size=1, max_size=6),
    st.sampled_from([
        CombinationModel.multi_context(),
        CombinationModel.contexts_in_context(["temporal", "provenance"]),
        CombinationModel.contexts_in_context(["provenance", "temporal"]),
        CombinationModel.combined_extent(),
    ]),
    st.sampled_from(["suffix", "hash"]),
)
def test_round_trip_is_lossless_or_a_pattern_error(statements, model, mode):
    """Never another exception, and never two parts merged in silence: a
    merge would show as a statement lost or changed on the way back."""
    registry = DimensionRegistry([TEMPORAL, PROVENANCE])
    try:
        graph = contextualize(statements, registry, model, MintingPolicy(mode=mode))
        recovered = decontextualize(graph, registry)
    except PatternError:
        return
    assert set(recovered) == set(statements)


@pytest.mark.parametrize("predicate_mode", PREDICATE_MODES)
@pytest.mark.parametrize("mode", ["suffix", "hash"])
@pytest.mark.parametrize(
    "model",
    [
        CombinationModel.multi_context(),
        CombinationModel.contexts_in_context(["provenance", "temporal", "trust"]),
        CombinationModel.combined_extent(),
    ],
    ids=["multi", "nested", "combined"],
)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 399), st.booleans(), st.booleans(), st.randoms(use_true_random=False))
def test_contextualize_does_not_depend_on_statement_order(
    model, mode, predicate_mode, serial, share_local_name, part_as_entity, shuffler
):
    """Every order of one statement list gives the same graph, or every
    order raises `PatternError`: the collision checks see each part and
    entity whichever of them comes first."""
    registry = corpus_registry()
    policy = MintingPolicy(mode=mode)
    statements = random_corpus(random.Random(serial), serial)
    if share_local_name:
        # Suffix minting gives both statements the part ex:Alpha@y2016.
        statements += [
            annotate(EX.Alpha, EX.knows, EX.Beta, ("temporal", Iri(f"http://{host}/y2016")))
            for host in ("a.org", "b.org")
        ]
    if part_as_entity:
        # An entity named as the innermost part of the first statement's subject.
        first = statements[0]
        part = policy.mint_part(first.base.subject, first.assignment_pairs())
        statements.append(annotate(part, EX.knows, EX.Beta, ("trust", EX.trusted)))

    def outcome(order):
        try:
            graph = contextualize(order, registry, model, policy, predicate_mode=predicate_mode)
        except PatternError:
            return PatternError
        return serialize(graph, "ntriples")

    expected = outcome(statements)
    for _ in range(4):
        assert outcome(shuffler.sample(statements, len(statements))) == expected


class TestBaselineEncodings:
    def _statements(self):
        return [
            annotate(EX.Paris, EX.capitalOf, EX.France, ("temporal", EX.t1)),
            annotate(
                EX.Paris,
                EX.capitalOf,
                EX.France,
                ("temporal", EX.t2),
                ("provenance", EX.src),
            ),
        ]

    def test_reification_counts_four_plus_contexts(self, two_dim_registry):
        g = encode_reification(self._statements(), two_dim_registry)
        assert len(g) == (4 + 1) + (4 + 2)
        nodes = [t.subject for t in g.match(predicate=RDF_TYPE, obj=RDF.Statement)]
        assert len(nodes) == 2

    def test_reification_shape(self, two_dim_registry):
        stmt = annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1))
        g = encode_reification([stmt], two_dim_registry)
        (node,) = {t.subject for t in g}
        assert Triple(node, RDF.subject, EX.a) in g
        assert Triple(node, RDF.predicate, EX.p) in g
        assert Triple(node, RDF.object, EX.b) in g
        assert Triple(node, TEMPORAL.extent, EX.t1) in g

    def test_singleton_counts_two_plus_contexts(self, two_dim_registry):
        g = encode_singleton(self._statements(), two_dim_registry)
        assert len(g) == (2 + 1) + (2 + 2)

    def test_singleton_shape(self, two_dim_registry):
        stmt = annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1))
        g = encode_singleton([stmt], two_dim_registry)
        (link,) = g.match(predicate=SINGLETON_PROPERTY_OF)
        prop = link.subject
        assert Triple(EX.a, prop, EX.b) in g
        assert Triple(prop, TEMPORAL.extent, EX.t1) in g


class TestSizeReport:
    def test_rows_cover_all_representations(self, two_dim_registry):
        statements = [
            annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1), ("provenance", EX.s1))
        ]
        rows = size_report(statements, two_dim_registry)
        labels = [(r.representation, r.model) for r in rows]
        assert labels == [
            ("ndfluents", "contexts-in-context"),
            ("ndfluents", "multi-context"),
            ("ndfluents", "combined-extent"),
            ("reification", ""),
            ("singleton", ""),
        ]
        by_repr = {(r.representation, r.model): r.triples for r in rows}
        assert by_repr[("ndfluents", "multi-context")] == 15
        assert by_repr[("ndfluents", "combined-extent")] == 12
        assert by_repr[("reification", "")] == 6
        assert by_repr[("singleton", "")] == 4


class TestUncheckedTriples:
    """The parser, the builders, `decontextualize`, `read_statements_csv` and
    `saturate` build their triples without `Triple`'s checks, because they
    have checked the positions themselves."""

    MODELS = [
        CombinationModel.multi_context(),
        CombinationModel.contexts_in_context(("provenance", "temporal", "trust")),
        CombinationModel.combined_extent(),
    ]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from(MODELS), st.sampled_from(PREDICATE_MODES))
    def test_every_triple_passes_the_public_checks(self, seed, model, predicate_mode):
        registry = corpus_registry()
        statements = random_corpus(random.Random(seed), seed)
        graph = contextualize(statements, registry, model, predicate_mode=predicate_mode)
        axioms = core_axioms() + [
            functional(EX.ownedBy), inverse_functional(EX.memberOf), transitive(EX.locatedIn),
        ]
        for dim in registry:
            axioms += dimension_module(dim)
        built = [
            *graph,
            *saturate(graph, axioms).derived,
            *parse_turtle(serialize(graph, "turtle")),
            *(s.base for s in decontextualize(graph, registry)),
            *(s.base for s in read_statements_csv(write_statements_csv(statements))),
        ]
        for triple in built:
            assert type(triple) is Triple and Triple(*triple) == triple

    def test_inputs_that_would_reach_a_triple_unchecked_are_refused(self):
        with pytest.raises(ValueError, match="needs IRIs"):
            dataclasses.replace(TEMPORAL, part_of="http://example.org/partOf")
        registry = DimensionRegistry([TEMPORAL])
        statement = annotate(EX.a, EX.p, EX.b, ("temporal", EX.t1))
        with pytest.raises(ValueError, match="predicate map value must be an IRI"):
            contextualize(
                [statement], registry, CombinationModel.multi_context(),
                predicate_mode="related", predicate_map={EX.p: "http://example.org/q"},
            )
        with pytest.raises(ValueError, match="predicate map value must be an IRI"):
            decontextualize(Graph(), registry, predicate_map={EX.p: Literal("q")})
        with pytest.raises(ValueError, match="not an IRI"):
            saturate(Graph(), [Axiom(SUB_PROPERTY_OF, (EX.p, Literal("q")))])
