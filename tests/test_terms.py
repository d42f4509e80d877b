"""Term model: IRIs, blank nodes, literals, triples, graphs, sort keys."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndfluents import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Namespace,
    Quad,
    RDF,
    RDF_TYPE,
    Triple,
    XSD,
)
from ndfluents.terms import RDF_LANG_STRING, XSD_STRING, term_sort_key

EX = Namespace("http://example.org/")


class TestIri:
    def test_absolute_iri_round_trips_through_n3(self):
        iri = Iri("http://example.org/a")
        assert iri.n3() == "<http://example.org/a>"
        assert iri.value == "http://example.org/a"

    def test_relative_iri_is_rejected(self):
        with pytest.raises(ValueError):
            Iri("relative/path")

    @pytest.mark.parametrize("bad", ["http://e.org/sp ace", "http://e.org/<", "http://e.org/\n"])
    def test_forbidden_characters_are_rejected(self, bad):
        with pytest.raises(ValueError):
            Iri(bad)

    def test_local_name_splits_on_hash_then_slash(self):
        assert Iri("http://e.org/v#Name").local_name() == "Name"
        assert Iri("http://e.org/v/Name").local_name() == "Name"

    def test_equality_and_hash(self):
        assert Iri("http://e.org/a") == Iri("http://e.org/a")
        assert len({Iri("http://e.org/a"), Iri("http://e.org/a")}) == 1


class TestNamespace:
    def test_getattr_and_getitem_agree(self):
        ns = Namespace("http://e.org/v#")
        assert ns.Thing == ns["Thing"] == Iri("http://e.org/v#Thing")

    def test_well_known_terms(self):
        assert RDF_TYPE == Iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type")
        assert XSD.integer.value.endswith("XMLSchema#integer")


class TestBlankNode:
    def test_n3(self):
        assert BlankNode("b0").n3() == "_:b0"

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            BlankNode("not a label")


class TestLiteral:
    def test_plain_literal_defaults_to_xsd_string(self):
        lit = Literal("hello")
        assert lit.datatype == XSD_STRING
        assert lit.n3() == '"hello"'

    def test_language_literal_is_rdf_langstring(self):
        lit = Literal("bonjour", language="fr")
        assert lit.datatype == RDF_LANG_STRING
        assert lit.n3() == '"bonjour"@fr'

    def test_typed_literal_n3(self):
        lit = Literal("42", datatype=XSD.integer)
        assert lit.n3() == '"42"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_escaping_in_n3(self):
        lit = Literal('say "hi"\n')
        assert lit.n3() == '"say \\"hi\\"\\n"'

    def test_bad_language_tag_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="not a tag")


class TestSortKey:
    def test_canonical_blank_labels_sort_numerically(self):
        # b2 must come before b10 even though "b10" < "b2" lexically.
        assert term_sort_key(BlankNode("b2")) < term_sort_key(BlankNode("b10"))

    def test_total_order_covers_all_term_kinds(self):
        terms = [Iri("http://e.org/a"), BlankNode("b0"), Literal("x")]
        keys = [term_sort_key(t) for t in terms]
        assert len(set(keys)) == 3
        assert sorted(keys) == sorted(keys, key=str)

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=2, max_size=20))
    def test_numeric_blank_order_matches_integer_order(self, numbers):
        blanks = [BlankNode(f"b{n}") for n in numbers]
        by_key = sorted(blanks, key=term_sort_key)
        by_int = sorted(blanks, key=lambda b: int(b.label[1:]))
        assert by_key == by_int


class TestTripleAndGraph:
    def test_triple_n3(self):
        t = Triple(EX.s, EX.p, Literal("x"))
        assert t.n3() == '<http://example.org/s> <http://example.org/p> "x" .'

    @pytest.mark.parametrize(
        "subject, obj",
        [
            ("http://example.org/s", EX.o),
            (Literal("x"), EX.o),
            (None, EX.o),
            (EX.s, "x"),
            (EX.s, 1),
            (EX.s, None),
        ],
    )
    def test_non_term_positions_are_rejected(self, subject, obj):
        with pytest.raises(ValueError):
            Triple(subject, EX.p, obj)

    def test_quad_requires_graph_name(self):
        q = Quad(EX.s, EX.p, EX.o, EX.g)
        assert q.graph == EX.g

    def test_graph_deduplicates(self):
        t = Triple(EX.s, EX.p, EX.o)
        assert len(Graph([t, t])) == 1

    def test_sorted_triples_by_spo(self):
        g = Graph([Triple(EX.b, EX.p, EX.o), Triple(EX.a, EX.p, EX.o)])
        assert [t.subject for t in g.sorted_triples()] == [EX.a, EX.b]

    def test_match_by_each_position(self):
        g = Graph(
            [
                Triple(EX.a, RDF_TYPE, EX.C),
                Triple(EX.b, RDF_TYPE, EX.D),
                Triple(EX.a, EX.p, EX.b),
            ]
        )
        assert len(list(g.match(subject=EX.a))) == 2
        assert len(list(g.match(predicate=RDF_TYPE))) == 2
        assert len(list(g.match(obj=EX.b))) == 1
        assert len(list(g.match(subject=EX.a, predicate=RDF_TYPE))) == 1

    def test_union_merges_and_keeps_name(self):
        g1 = Graph([Triple(EX.a, EX.p, EX.b)], name=EX.g1)
        g2 = Graph([Triple(EX.c, EX.p, EX.d)])
        merged = g1.union(g2, name=EX.g1)
        assert len(merged) == 2 and merged.name == EX.g1

    def test_equality_includes_name(self):
        t = Triple(EX.a, EX.p, EX.b)
        assert Graph([t]) == Graph([t])
        assert Graph([t], name=EX.g) != Graph([t])

    def test_contains_and_iter(self):
        t = Triple(EX.a, EX.p, EX.b)
        g = Graph([t])
        assert t in g and list(g) == [t]

    def test_subjects_and_objects(self):
        g = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, Literal("x"))])
        assert EX.a in g.subjects() and EX.c in g.subjects()
        assert Literal("x") in g.objects()

    def test_match_with_every_position_bound_is_membership(self):
        t = Triple(EX.a, EX.p, EX.b)
        g = Graph([t])
        assert list(g.match(EX.a, EX.p, EX.b)) == [t]
        assert list(g.match(EX.a, EX.p, EX.c)) == []
        assert list(g.match(Literal("x"), EX.p, EX.b)) == []

    def test_unbound_match_is_sorted(self):
        g = Graph([Triple(EX.c, EX.p, EX.o), Triple(EX.a, EX.p, EX.o), Triple(EX.b, EX.p, EX.o)])
        assert list(g.match()) == list(g.sorted_triples())


_NODES = [EX.a, EX.b, EX.c, BlankNode("x")]
_PREDICATES = [EX.p, EX.q, RDF_TYPE]
_OBJECTS = _NODES + [Literal("1", datatype=XSD.integer), Literal("a"), Literal("a", language="en")]


@given(
    st.sets(
        st.builds(
            Triple,
            st.sampled_from(_NODES),
            st.sampled_from(_PREDICATES),
            st.sampled_from(_OBJECTS),
        ),
        max_size=30,
    ),
    st.sampled_from(_NODES),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_OBJECTS),
)
def test_match_and_count_agree_with_a_brute_force_filter(triples, s, p, o):
    g = Graph(triples)
    for bound in itertools.product((False, True), repeat=3):
        subject, predicate, obj = (value if on else None for value, on in zip((s, p, o), bound))
        expected = {
            t
            for t in g
            if (subject is None or t.subject == subject)
            and (predicate is None or t.predicate == predicate)
            and (obj is None or t.object == obj)
        }
        matched = list(g.match(subject, predicate, obj))
        assert len(matched) == len(expected) and set(matched) == expected
        assert g.count(subject, predicate, obj) == len(matched)
