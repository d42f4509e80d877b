"""Canonicalization and serialization round-trips."""

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ndfluents import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Namespace,
    Triple,
    XSD,
    canonicalize,
    parse,
    parse_nquads,
    serialize,
)
from ndfluents.serializer import serialize_nquads, serialize_ntriples, serialize_turtle

EX = Namespace("http://example.org/")

# --- hypothesis strategies ---------------------------------------------------

_LOCAL = st.text(alphabet="abcdefgXYZ0123456789", min_size=1, max_size=6)
_iris = _LOCAL.map(lambda s: Iri(f"http://example.org/{s}"))
_blanks = st.integers(min_value=0, max_value=5).map(lambda n: BlankNode(f"n{n}"))
_texts = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2FF),
    max_size=12,
)
_literals = st.one_of(
    _texts.map(Literal),
    st.integers(-999, 999).map(lambda n: Literal(str(n), datatype=XSD.integer)),
    _texts.map(lambda s: Literal(s, language="en")),
)
_subjects = st.one_of(_iris, _blanks)
_objects = st.one_of(_iris, _blanks, _literals)
_triples = st.builds(Triple, _subjects, _iris, _objects)
_graphs = st.lists(_triples, max_size=25).map(Graph)


class TestCanonicalize:
    def test_idempotent_on_simple_graph(self):
        g = Graph([Triple(BlankNode("zz"), EX.p, EX.o)])
        c1 = canonicalize(g)
        assert canonicalize(c1) == c1

    def test_relabels_blanks_to_b0_b1(self):
        g = Graph(
            [
                Triple(BlankNode("second"), EX.p, EX.z),
                Triple(BlankNode("first"), EX.p, EX.a),
            ]
        )
        c = canonicalize(g)
        labels = sorted(t.subject.label for t in c)
        assert labels == ["b0", "b1"]
        # The triple sorting first on object <a> gets the lower label.
        assert Triple(BlankNode("b0"), EX.p, EX.a) in c

    @settings(max_examples=150, deadline=None)
    @given(_graphs, st.randoms(use_true_random=False))
    def test_canonical_form_independent_of_construction_order(self, graph, rng):
        triples = list(graph)
        rng.shuffle(triples)
        assert canonicalize(Graph(triples)) == canonicalize(graph)

    def test_blanks_in_distinct_positions_relabel_independently_of_input_labels(self):
        # Two blanks distinguished by their objects end up with the same
        # canonical labels whatever they were called on input.
        def build(first, second):
            return Graph(
                [
                    Triple(BlankNode(first), EX.p, EX.a),
                    Triple(BlankNode(second), EX.p, EX.z),
                ]
            )

        assert canonicalize(build("x", "y")) == canonicalize(build("y", "x"))

    @settings(max_examples=150, deadline=None)
    @given(_graphs)
    def test_canonicalize_is_idempotent(self, graph):
        c = canonicalize(graph)
        assert canonicalize(c) == c


class TestRoundTrips:
    @settings(max_examples=150, deadline=None)
    @given(_graphs)
    def test_ntriples_round_trip(self, graph):
        c = canonicalize(graph)
        assert canonicalize(parse(serialize(c, "ntriples"), "ntriples")) == c

    @settings(max_examples=150, deadline=None)
    @given(_graphs)
    def test_turtle_round_trip(self, graph):
        c = canonicalize(graph)
        text = serialize(c, "turtle", prefixes={"ex": "http://example.org/"})
        assert canonicalize(parse(text, "turtle")) == c

    def test_nquads_round_trip(self):
        graphs = [
            Graph([Triple(EX.a, EX.p, EX.b)], name=EX.g1),
            Graph([Triple(EX.c, EX.p, Literal("x"))]),
        ]
        text = serialize_nquads(graphs)
        parsed = {g.name: g for g in parse_nquads(text)}
        assert parsed[EX.g1] == graphs[0]
        assert parsed[None].union(Graph([]), name=None) == graphs[1]


class TestSerializationDetails:
    def test_ntriples_output_is_sorted(self):
        g = Graph([Triple(EX.b, EX.p, EX.o), Triple(EX.a, EX.p, EX.o)])
        lines = serialize_ntriples(g).splitlines()
        assert lines == sorted(lines)

    def test_empty_graph_serializes_to_empty_document(self):
        assert serialize_ntriples(Graph()) == ""

    def test_turtle_uses_prefixes_when_safe(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        text = serialize_turtle(g, prefixes={"ex": "http://example.org/"})
        assert "@prefix ex: <http://example.org/> ." in text
        assert "ex:a" in text and "ex:p" in text

    def test_turtle_falls_back_to_full_iri_for_unsafe_local_names(self):
        tricky = Iri("http://example.org/has%20space")
        g = Graph([Triple(tricky, EX.p, EX.b)])
        text = serialize_turtle(g, prefixes={"ex": "http://example.org/"})
        assert "<http://example.org/has%20space>" in text

    def test_turtle_leaves_no_garbage_cycle(self):
        # A cycle would hold the token cache, and so every term of the
        # graph, until the next collection.
        g = Graph([Triple(EX.a, EX.p, Literal("5", datatype=XSD.integer)), Triple(EX.a, EX.q, Literal("x"))])
        prefixes = {"ex": "http://example.org/", "xsd": str(XSD.base)}
        gc.collect()
        gc.disable()
        try:
            assert serialize_turtle(g, prefixes).endswith('ex:a\n    ex:p "5"^^xsd:integer ;\n    ex:q "x" .\n')
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_serialize_writes_nquads_from_one_graph_or_a_list(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)], name=EX.g1)
        expected = "<http://example.org/a> <http://example.org/p> <http://example.org/b> <http://example.org/g1> .\n"
        assert serialize(g, "nquads") == serialize([g], "nq") == expected

    def test_serialize_writes_a_one_graph_list_as_turtle(self):
        g = Graph([Triple(EX.a, EX.p, EX.b)])
        prefixes = {"ex": "http://example.org/"}
        assert serialize([g], "turtle", prefixes) == serialize(g, "turtle", prefixes)

    def test_serialize_refuses_two_graphs_outside_nquads(self):
        graphs = [Graph([Triple(EX.a, EX.p, EX.b)]), Graph([Triple(EX.c, EX.p, EX.d)])]
        with pytest.raises(ValueError, match=r"^ntriples holds exactly one graph, got 2$"):
            serialize(graphs, "nt")
        with pytest.raises(ValueError, match=r"^turtle holds exactly one graph, got 2$"):
            serialize(iter(graphs), "turtle")

    def test_serialize_rejects_unknown_format(self):
        try:
            serialize(Graph(), "xml")
        except ValueError:
            pass
        else:
            raise AssertionError("expected ValueError")
