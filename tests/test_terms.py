"""Term model: IRIs, blank nodes, literals, triples, graphs, sort keys."""

import copy
import gc
import itertools
import os
import pickle
import re
import sys
import threading
import uuid
import weakref

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ndfluents import (
    BlankNode,
    Graph,
    Iri,
    Literal,
    Namespace,
    RDF,
    RDF_TYPE,
    Triple,
    XSD,
)
from ndfluents import terms
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
        assert Literal("a\\b\r\tc é").n3() == '"a\\\\b\\r\\tc é"'

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

    def test_union_does_not_sort_its_arguments(self):
        g1 = Graph([Triple(EX.a, EX.p, EX.b), Triple(EX.c, EX.p, EX.d)])
        g2 = Graph([Triple(EX.c, EX.p, EX.d), Triple(EX.e, EX.p, EX.f)])
        extra = [Triple(EX.g, EX.p, EX.h)]
        merged = g1.union(g2, extra)
        assert g1._sorted is None and g2._sorted is None
        assert merged == Graph(set(g1) | set(g2) | set(extra))

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

    def test_subjects_and_objects_follow_iteration_order(self):
        # Canonical blank labels sort numerically: _:b2 before _:b10.
        g = Graph([Triple(BlankNode("b10"), EX.p, EX.o), Triple(BlankNode("b2"), EX.p, EX.o)])
        assert g.subjects() == [t.subject for t in g] == [BlankNode("b2"), BlankNode("b10")]
        g = Graph([Triple(EX.s, EX.p, BlankNode("b10")), Triple(EX.s, EX.p, BlankNode("b2"))])
        assert g.objects() == [t.object for t in g] == [BlankNode("b2"), BlankNode("b10")]

    def test_predicates_are_distinct_and_sorted_without_sorting_the_triples(self):
        g = Graph([Triple(EX.a, EX.q, EX.b), Triple(EX.c, EX.p, EX.d), Triple(EX.e, EX.q, EX.f)])
        assert g.predicates() == [EX.p, EX.q]
        assert g._sorted is None

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


class TestInterning:
    """Equal terms are one object, kept by a weak, locked intern table."""

    def test_equal_terms_are_one_object(self):
        assert Iri("http://e.org/same") is Iri("http://e.org/same")
        assert BlankNode("same") is BlankNode("same")
        assert Literal("x", language="en") is Literal("x", language="en")

    def test_a_literal_with_the_default_datatype_is_the_plain_literal(self):
        assert Literal("x") is Literal("x", XSD_STRING) is Literal("x", datatype=XSD.string)
        assert Literal("x") is not Literal("x", language="en")
        assert Literal("1", datatype=XSD.integer) is not Literal("1")

    @pytest.mark.parametrize(
        "term, attribute",
        [
            (Iri("http://e.org/a"), "value"),
            (BlankNode("b0"), "label"),
            (Literal("x"), "lexical"),
            (Literal("x"), "datatype"),
            (Literal("x"), "other"),
        ],
    )
    def test_setting_or_deleting_an_attribute_raises(self, term, attribute):
        with pytest.raises(AttributeError):
            setattr(term, attribute, "changed")
        with pytest.raises(AttributeError):
            delattr(term, attribute)

    @pytest.mark.parametrize(
        "term",
        [Iri("http://e.org/a"), BlankNode("b7"), Literal("x"), Literal("x", language="en"), Literal("1", XSD.integer)],
    )
    def test_pickle_and_copy_give_back_the_interned_object(self, term):
        assert pickle.loads(pickle.dumps(term)) is term
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term

    def test_a_triple_pickles_and_copies_to_an_equal_triple_of_the_same_terms(self):
        triple = Triple(EX.s, EX.p, Literal("x", language="en"))
        for clone in (pickle.loads(pickle.dumps(triple)), copy.copy(triple), copy.deepcopy(triple)):
            assert clone == triple and type(clone) is Triple
            assert all(a is b for a, b in zip(clone, triple))

    def test_the_table_releases_a_term_that_nothing_holds(self):
        value = "http://e.org/released-" + uuid.uuid4().hex
        term = Iri(value)
        ref = weakref.ref(term)
        del term
        gc.collect()
        assert ref() is None
        assert Iri(value).value == value

    def test_the_table_drops_the_entry_of_a_released_term(self):
        value = "http://e.org/dropped-" + uuid.uuid4().hex
        iri, literal = Iri(value), Literal(value, language="en")
        keys = (value, (value, RDF_LANG_STRING, "en"))
        assert all(key in terms._REFS for key in keys)
        del iri, literal
        gc.collect()
        assert not any(key in terms._REFS for key in keys)

    def test_a_late_release_keeps_the_entry_of_a_newer_term(self):
        value = "http://e.org/reborn-" + uuid.uuid4().hex
        term = Iri(value)
        ref = terms._REFS[value]
        release = ref.__callback__
        del term
        gc.collect()
        newer = Iri(value)
        release(ref)  # the first term's callback, run once more, after the rebuild
        assert terms._REFS[value]() is newer is Iri(value)

    def test_threads_that_build_the_same_terms_get_one_object_each(self):
        threads_count = 4 * (os.cpu_count() or 2)
        values = [f"http://e.org/threaded/{uuid.uuid4().hex}/{n}" for n in range(200)]
        barrier = threading.Barrier(threads_count)
        built: list[list] = [None] * threads_count

        def build(slot: int) -> None:
            barrier.wait(timeout=10)
            built[slot] = [(Iri(value), Literal(value, language="en")) for value in values]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(n,)) for n in range(threads_count)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for position in range(len(values)):
            assert len({id(run[position][0]) for run in built}) == 1
            assert len({id(run[position][1]) for run in built}) == 1

    def test_validation_errors_are_kept(self):
        with pytest.raises(ValueError, match="not absolute"):
            Iri("relative")
        with pytest.raises(ValueError, match="requires a language tag"):
            Literal("x", RDF_LANG_STRING)
        with pytest.raises(ValueError, match="datatype must be an IRI"):
            Literal("x", "http://e.org/dt")

    @pytest.mark.parametrize(
        "value, message",
        [
            ("relative", "IRI is not absolute (missing scheme): 'relative'"),
            ("", "IRI is not absolute (missing scheme): ''"),
            ("http://e.org/a b", "IRI contains forbidden character: 'http://e.org/a b'"),
            ("http://e.org/<a>", "IRI contains forbidden character: 'http://e.org/<a>'"),
            ("http://e.org/a\n", "IRI contains forbidden character: 'http://e.org/a\\n'"),
            ("rel ative", "IRI is not absolute (missing scheme): 'rel ative'"),
            ("<rel>", "IRI is not absolute (missing scheme): '<rel>'"),
        ],
    )
    def test_iri_errors_name_the_missing_scheme_before_a_forbidden_character(self, value, message):
        with pytest.raises(ValueError) as raised:
            Iri(value)
        assert str(raised.value) == message

    @given(st.text(alphabet="ab:/ <\\\n+.-1é", max_size=12))
    def test_an_iri_is_accepted_exactly_when_it_has_a_scheme_and_no_forbidden_character(self, value):
        valid = re.match(r"[A-Za-z][A-Za-z0-9+.-]*:", value) and not re.search(r'[\x00-\x20<>"{}|^`\\]', value)
        try:
            Iri(value)
        except ValueError:
            assert not valid
        else:
            assert valid

    def test_terms_order_within_a_kind(self):
        assert sorted([EX.b, EX.a]) == [EX.a, EX.b]
        assert BlankNode("a") < BlankNode("b") and Literal("a") <= Literal("b")
        with pytest.raises(TypeError):
            EX.a < BlankNode("a")


class TestTripleTuple:
    def test_a_triple_equals_the_plain_tuple_of_its_terms(self):
        triple = Triple(EX.s, EX.p, EX.o)
        assert triple == (EX.s, EX.p, EX.o) and hash(triple) == hash((EX.s, EX.p, EX.o))
        subject, predicate, obj = triple
        assert (subject, predicate, obj) == (triple.subject, triple.predicate, triple.object)

    def test_replace_checks_positions_too(self):
        triple = Triple(EX.s, EX.p, EX.o)
        assert triple._replace(object=Literal("x")) == Triple(EX.s, EX.p, Literal("x"))
        with pytest.raises(ValueError, match="predicate must be an IRI"):
            triple._replace(predicate=Literal("x"))

    def test_keyword_construction(self):
        assert Triple(subject=EX.s, predicate=EX.p, object=EX.o) == Triple(EX.s, EX.p, EX.o)


def test_every_input_error_of_the_package_is_an_input_error():
    """`cli.main` exits 2 on `InputError` alone, so each of the package's
    errors for bad input subclasses it; each stays a `ValueError`."""
    import ndfluents
    from ndfluents.vocabulary import UnknownDimensionError

    names = ["ConfigError", "FormatError", "IngestError", "ParseError", "PatternError", "QueryError", "RelativeIriError"]
    for error in [getattr(ndfluents, name) for name in names] + [UnknownDimensionError]:
        assert issubclass(error, ndfluents.InputError) and issubclass(error, ValueError), error
    assert issubclass(UnknownDimensionError, KeyError)
